//! Committed wall-clock baseline of the parallel enumerator
//! (`results/BENCH_parallel.json`): real elapsed time and peak resident
//! memory of `ParallelEnumerator` at 1..=nproc threads under both
//! schedulers, next to the sequential enumerator, on two workloads:
//!
//! * `dense` — G(n=1800, p=0.16, seed 3), 3,815,426 maximal cliques:
//!   a few very large levels of cheap, evenly priced sub-lists;
//! * `skewed` — `bench_steal`'s skewed-degree graph, whose hub
//!   sub-lists carry `cost()` estimates far above their true cost.
//!
//! Unlike `bench_steal` (a virtual-processor replay), nothing here is
//! simulated: every configuration runs in a fresh process (this binary
//! re-executes itself), which times the enumeration with a wall clock
//! and reports its own peak resident set (`VmHWM`), so one run's memory
//! never hides another's. The median of `REPS` runs is reported, and
//! every run must report the same clique count.
//!
//! Gate: on a host with at least two cores, 2 threads must beat 1 — for
//! each workload, each runtime's 2-thread median must be below its
//! 1-thread median, and on `dense` the default (steal) runtime's
//! 2-thread median must also be below the sequential enumerator's.
//!
//! Run from the repo root:
//! `cargo run --release -p gsb-bench --bin bench_parallel [-- --smoke]`.
//! `--smoke` swaps the dense workload for G(n=1200, p=0.16, seed 3) so
//! CI can regenerate the file in seconds; its fingerprint says so.

use gsb_bench::workloads::steal_workload;
use gsb_core::sink::CountSink;
use gsb_core::{CliqueEnumerator, EnumConfig, ParallelConfig, ParallelEnumerator, Scheduler};
use gsb_graph::generators::gnp;
use gsb_graph::io::fingerprint_json;
use gsb_graph::BitGraph;
use gsb_par::nproc;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Fresh-process runs per configuration.
const REPS: usize = 5;

const WORKLOADS: [&str; 2] = ["dense", "skewed"];

fn workload(name: &str, smoke: bool) -> BitGraph {
    match name {
        "dense" => gnp(if smoke { 1200 } else { 1800 }, 0.16, 3),
        "skewed" => steal_workload(),
        other => panic!("unknown workload {other}"),
    }
}

/// Peak resident set of this process in MB (`VmHWM`; 0 where /proc is
/// unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Child mode: enumerate once and print `wall_s peak_rss_mb cliques`.
fn child(name: &str, runtime: &str, threads: usize, smoke: bool) {
    let g = workload(name, smoke);
    let config = EnumConfig::default();
    let mut sink = CountSink::default();
    let wall = match runtime {
        "sequential" => {
            let t = Instant::now();
            CliqueEnumerator::new(config).enumerate(&g, &mut sink);
            t.elapsed()
        }
        scheduler => {
            let scheduler: Scheduler = scheduler.parse().expect("scheduler");
            let g = Arc::new(g);
            let par = ParallelEnumerator::new(ParallelConfig {
                threads,
                enum_config: config,
                scheduler,
                ..Default::default()
            });
            let t = Instant::now();
            par.enumerate(&g, &mut sink);
            t.elapsed()
        }
    };
    println!("{} {} {}", wall.as_secs_f64(), peak_rss_mb(), sink.count);
}

/// One configuration's runs, each in a fresh process.
struct Measured {
    runtime: &'static str,
    threads: usize,
    wall_s: f64,
    peak_rss_mb: f64,
    cliques: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn measure(name: &str, runtime: &'static str, threads: usize, smoke: bool) -> Measured {
    let exe = std::env::current_exe().expect("own path");
    let (mut walls, mut rss, mut cliques) = (Vec::new(), Vec::new(), None);
    for _ in 0..REPS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", name, runtime, &threads.to_string()]);
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().expect("spawn child run");
        assert!(
            out.status.success(),
            "{name} {runtime} x{threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = String::from_utf8(out.stdout).expect("utf-8");
        let fields: Vec<&str> = line.split_whitespace().collect();
        walls.push(fields[0].parse().expect("wall"));
        rss.push(fields[1].parse().expect("rss"));
        let count: usize = fields[2].parse().expect("count");
        assert_eq!(*cliques.get_or_insert(count), count, "clique count drifted");
    }
    let m = Measured {
        runtime,
        threads,
        wall_s: median(walls),
        peak_rss_mb: median(rss),
        cliques: cliques.expect("REPS > 0"),
    };
    eprintln!(
        "{name:>6} {runtime:>10} x{threads}: {:.3} s, {:.0} MB",
        m.wall_s, m.peak_rss_mb
    );
    m
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.first().map(String::as_str) == Some("--child") {
        let threads = args[3].parse().expect("threads");
        child(&args[1], &args[2], threads, smoke);
        return Ok(());
    }

    let cores = nproc();
    let mut failures = Vec::new();
    let mut records = Vec::new();
    for name in WORKLOADS {
        let fingerprint = fingerprint_json(&workload(name, smoke));
        let sequential = measure(name, "sequential", 1, smoke);
        let mut runs = vec![];
        for runtime in ["steal", "barrier"] {
            for threads in 1..=cores {
                runs.push(measure(name, runtime, threads, smoke));
            }
        }
        for m in &runs {
            assert_eq!(m.cliques, sequential.cliques, "{name}: runtimes disagree");
        }
        let wall = |runtime: &str, threads: usize| {
            runs.iter()
                .find(|m| m.runtime == runtime && m.threads == threads)
                .map(|m| m.wall_s)
        };
        if cores >= 2 {
            for runtime in ["steal", "barrier"] {
                let (one, two) = (wall(runtime, 1).unwrap(), wall(runtime, 2).unwrap());
                if two >= one {
                    failures.push(format!(
                        "{name}: {runtime} at 2 threads ({two:.3} s) does not beat 1 thread ({one:.3} s)"
                    ));
                }
            }
            // The skewed workload's sequential run is ~0.2 s with a
            // serial seeding share, too short to compare runtimes on.
            let two = wall("steal", 2).unwrap();
            if name == "dense" && two >= sequential.wall_s {
                failures.push(format!(
                    "{name}: steal at 2 threads ({two:.3} s) does not beat the sequential enumerator ({:.3} s)",
                    sequential.wall_s
                ));
            }
        }
        let results: Vec<String> = std::iter::once(&sequential)
            .chain(&runs)
            .map(|m| {
                format!(
                    "\n        {{\"runtime\":\"{}\",\"threads\":{},\"wall_s\":{:.4},\
                     \"peak_rss_mb\":{:.1},\"speedup_vs_sequential\":{:.2},\
                     \"rss_vs_sequential\":{:.2}}}",
                    m.runtime,
                    m.threads,
                    m.wall_s,
                    m.peak_rss_mb,
                    sequential.wall_s / m.wall_s,
                    m.peak_rss_mb / sequential.peak_rss_mb.max(f64::MIN_POSITIVE)
                )
            })
            .collect();
        records.push(format!(
            "\n    {{\"workload\":\"{name}\",\"fingerprint\":{fingerprint},\"cliques\":{},\
             \"results\":[{}\n      ]}}",
            sequential.cliques,
            results.join(",")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"parallel_wall_clock\",\n  \"simulated\": false,\n  \
         \"smoke\": {smoke},\n  \"nproc\": {cores},\n  \"reps\": {REPS},\n  \
         \"workloads\": [{}\n  ]\n}}\n",
        records.join(",")
    );
    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_parallel.json", &json)?;
    eprintln!("wrote results/BENCH_parallel.json");
    assert!(
        failures.is_empty(),
        "2 threads must beat 1:\n{}",
        failures.join("\n")
    );
    Ok(())
}
