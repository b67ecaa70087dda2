//! The chunked parallel runtime through its public API: the ordered
//! merge reproduces the old stage-and-sort emission order, level
//! records carry wall times, and (with the `failpoints` feature) a
//! convicted chunk is narrowed to its one poison sub-list.
//!
//! Run the gated test with:
//! `cargo test -p gsb-core --test steal_chunks --features failpoints`

use gsb_core::bk::base_bk_sorted;
use gsb_core::sink::CollectSink;
use gsb_core::{ParallelConfig, ParallelEnumerator, Scheduler, Vertex};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use std::sync::Arc;

fn bk_at_least(g: &BitGraph, min_k: usize) -> Vec<Vec<Vertex>> {
    base_bk_sorted(g)
        .into_iter()
        .filter(|c| c.len() >= min_k)
        .collect()
}

#[test]
fn ordered_merge_matches_stage_and_sort_under_both_schedulers() {
    // The old runtime staged each level's cliques and sorted them; by
    // size-then-lexicographic order that is the whole stream.
    for seed in 0..12u64 {
        let g = planted(
            48,
            0.12,
            &[Module::clique(8), Module::clique(6), Module::clique(5)],
            seed,
        );
        let mut expect = bk_at_least(&g, 3);
        expect.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        let garc = Arc::new(g);
        for scheduler in [Scheduler::Steal, Scheduler::Barrier] {
            for threads in [1, 2, 3, 8] {
                let mut sink = CollectSink::default();
                ParallelEnumerator::new(ParallelConfig {
                    threads,
                    scheduler,
                    ..Default::default()
                })
                .enumerate(&garc, &mut sink);
                assert_eq!(
                    sink.cliques, expect,
                    "seed {seed}, {scheduler}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn level_times_are_wall_times_within_the_run() {
    let g = Arc::new(planted(
        80,
        0.1,
        &[Module::clique(11), Module::clique(7)],
        5,
    ));
    for scheduler in [Scheduler::Steal, Scheduler::Barrier] {
        let stats = ParallelEnumerator::new(ParallelConfig {
            threads: 3,
            scheduler,
            ..Default::default()
        })
        .enumerate(&g, &mut CollectSink::default());
        assert!(!stats.levels.is_empty());
        // A level's wall time spans its barrier hook, expansion, merge
        // and emission, so it strictly exceeds any one worker's busy
        // time inside it (equal would mean it *is* a worker's time).
        for (report, timing) in stats.levels.iter().zip(&stats.run.levels) {
            let busiest = timing.per_worker_ns.iter().copied().max().unwrap_or(0);
            assert!(
                report.ns > busiest,
                "{scheduler} level {}: wall {} ns <= busiest worker {busiest} ns",
                report.k,
                report.ns
            );
        }
        let levels_ns: u64 = stats.levels.iter().map(|l| l.ns).sum();
        assert!(
            levels_ns <= stats.run.wall_ns,
            "{scheduler}: levels {levels_ns} ns exceed the run's {} ns",
            stats.run.wall_ns
        );
    }
}

/// A poison sub-list inside a multi-sub-list chunk: the chunk is
/// convicted, its sub-lists are re-run one at a time, and exactly the
/// poison one is quarantined — only its descendants go missing.
#[cfg(feature = "failpoints")]
#[test]
fn steal_quarantine_narrows_a_convicted_chunk_to_its_poison_sublist() {
    use gsb_core::failpoint::{FailAction, FailGuard};
    use gsb_core::parallel::{BarrierControl, ParallelOutcome};
    use gsb_core::{CliqueEnumerator, EnumStats, Level};

    // 100 disjoint K4s: level 3 holds one sub-list per K4, all of the
    // same cost, so every chunk of the level spans several sub-lists.
    let mut g = BitGraph::new(400);
    for base in (0..400).step_by(4) {
        for u in base..base + 4 {
            for v in u + 1..base + 4 {
                g.add_edge(u, v);
            }
        }
    }
    let seq = CliqueEnumerator::default();
    let init = seq.init_level(&g, &mut CollectSink::default(), &mut EnumStats::default());
    let (level3, _) = seq.step(&g, &init, &mut CollectSink::default());
    assert_eq!((level3.k, level3.sublists.len()), (3, 100));
    let victim = level3.sublists[50].prefix.clone();
    let tag = victim
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("-");

    let qpath = std::env::temp_dir().join(format!("gsb-steal-chunks-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&qpath);
    let mut sink = CollectSink::default();
    let outcome = {
        let _fp = FailGuard::tagged("parallel.sublist", &tag, FailAction::panic_always());
        ParallelEnumerator::new(ParallelConfig {
            threads: 2,
            scheduler: Scheduler::Steal,
            ..Default::default()
        })
        .quarantine_to(&qpath)
        .enumerate_resilient(&Arc::new(g.clone()), None::<Level>, &mut sink, |_, _, _| {
            Ok(BarrierControl::Continue)
        })
        .expect("quarantine keeps the run going")
    };
    let entries = gsb_core::quarantine::load_entries(&qpath).expect("sidecar written");
    let _ = std::fs::remove_file(&qpath);
    let ParallelOutcome::Complete(stats) = outcome else {
        panic!("run must complete");
    };
    assert_eq!(stats.quarantined, 1);
    assert_eq!(entries.len(), 1, "exactly the poison sub-list");
    assert_eq!((entries[0].k, &entries[0].prefix), (3, &victim));
    // Level 3 ran as chunks of several sub-lists (plus the probes of
    // the convicted chunk), not one task per sub-list.
    let at3 = stats.levels.iter().position(|l| l.k == 3).expect("level 3");
    let tasks: usize = stats.run.levels[at3].per_worker_tasks.iter().sum();
    assert!(tasks <= 50, "{tasks} tasks for 100 sub-lists");

    let lost = |c: &Vec<Vertex>| c.len() > victim.len() && c.starts_with(&victim);
    let expect: Vec<Vec<Vertex>> = bk_at_least(&g, 3)
        .into_iter()
        .filter(|c| !lost(c))
        .collect();
    assert_eq!(expect.len(), 99, "the victim owned exactly its K4");
    let mut got = sink.cliques;
    got.sort();
    assert_eq!(got, expect);
}
