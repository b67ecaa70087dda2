//! The multithreaded Clique Enumerator (§2.3, "Parallelism for
//! shared-memory machines") — under either of two schedulers.
//!
//! [`Scheduler::Barrier`] is faithful to the paper's runtime:
//! persistent worker threads expand their *local* sub-lists
//! independently (no communication inside a level); a centralized task
//! scheduler synchronizes levels, collects results, and transfers
//! sub-lists from heavy to light workers when the spread exceeds the
//! threshold policy — transfers move sub-list indices between queues,
//! i.e. addresses, not data, exactly as on the Altix.
//!
//! [`Scheduler::Steal`] (the default) replaces the level barrier with a
//! *steal-scope epoch*: the level is cut into contiguous, cost-sized
//! chunks of adjacent sub-lists — about `CHUNKS_PER_THREAD` per worker,
//! however many sub-lists the level holds — each chunk is a task on
//! its owner's deque, idle workers steal (owner-LIFO / thief-FIFO), and
//! the level ends at quiescence — which is where the barrier hooks
//! (checkpoint, degradation, halt) re-attach with unchanged semantics.
//! The centralized balancer is retired on this path because stealing
//! balances online.
//!
//! Determinism: a level is held once, behind an `Arc`, in canonical
//! order (sub-lists ascending by prefix, the order the sequential
//! enumerator produces), and every task covers contiguous runs of it.
//! The sequential enumerator emits a level sub-list by sub-list, so
//! concatenating the tasks' outputs in level order *is* its emission
//! order, and their children, concatenated the same way, are the next
//! level in canonical order. Output is byte-identical to the
//! sequential enumerator under both schedulers with nothing staged or
//! sorted (see `merge_level`).
//!
//! ## Fault tolerance
//!
//! [`enumerate_resilient`](ParallelEnumerator::enumerate_resilient) is
//! the crash-aware driver: a round whose worker panics is discarded
//! wholesale (no partial emissions), dead threads are respawned, and
//! the level is retried once from its snapshot before the failure is
//! surfaced as a typed [`ParallelRunError`]. A per-level barrier hook
//! lets the pipeline write checkpoints and demand degradation to the
//! out-of-core path mid-flight, or halt for a graceful signal-driven
//! shutdown ([`BarrierControl::Halt`]).
//!
//! ## Supervision
//!
//! With a worker deadline configured
//! ([`ParallelConfig::worker_deadline`]) workers heartbeat once per
//! sub-list; a thread silent past the deadline is declared stuck and
//! abandoned, not waited on forever. With a quarantine sidecar
//! configured ([`ParallelEnumerator::quarantine_to`]) a level whose
//! retry also fails is *isolated* instead of aborted: the suspect
//! sub-lists are re-run one per task, the poison ones are recorded to
//! `quarantine.jsonl` and skipped, and the level continues — degraded
//! exact, never silently dropped (see [`crate::quarantine`]).

use crate::backend::InMemoryLevel;
use crate::enumerator::{EnumConfig, LevelReport};
use crate::memory::LevelMemory;
use crate::quarantine::QuarantineEntry;
use crate::sink::CliqueSink;
use crate::store::StoreError;
use crate::sublist::{Level, SubList};
use crate::Vertex;
use gsb_bitset::{BitSet, NeighborSet};
use gsb_graph::BitGraph;
use gsb_par::balance::{partition_greedy, rebalance, BalancePolicy};
use gsb_par::pool::EpochOut;
use gsb_par::stats::{LevelStats, RunStats};
use gsb_par::{Heartbeat, PoisonedTask, RoundError, WorkerFailure, WorkerPool};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How work is distributed across levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceStrategy {
    /// The paper's centralized dynamic balancer: children stay on their
    /// parent's worker; after each level, transfer sub-lists when the
    /// load spread exceeds the policy threshold.
    Dynamic,
    /// No balancing after the initial partition (ablation A2).
    Static,
    /// Re-partition every level from scratch with LPT (upper reference
    /// for balance quality; ignores affinity).
    Repartition,
}

/// Which runtime drives each level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// The paper's level-synchronous rounds: pre-partitioned batches,
    /// a barrier per level, and the centralized spread balancer. Kept
    /// as the differential oracle for the steal scheduler.
    Barrier,
    /// Work-stealing steal-scope epochs: per-worker deques of
    /// cost-sized chunks of adjacent sub-lists, idle workers steal, and
    /// the level's barrier hooks run at epoch quiescence. Balances online, so no
    /// centralized balancer runs between levels.
    #[default]
    Steal,
}

impl fmt::Display for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheduler::Barrier => "barrier",
            Scheduler::Steal => "steal",
        })
    }
}

impl std::str::FromStr for Scheduler {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "barrier" => Ok(Scheduler::Barrier),
            "steal" => Ok(Scheduler::Steal),
            other => Err(format!(
                "unknown scheduler '{other}' (expected 'barrier' or 'steal')"
            )),
        }
    }
}

/// Configuration of a parallel run.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads.
    pub threads: usize,
    /// Size bounds and seeding, as for the sequential enumerator.
    pub enum_config: EnumConfig,
    /// Transfer threshold policy (barrier scheduler only).
    pub policy: BalancePolicy,
    /// Distribution strategy (barrier scheduler only; the steal
    /// scheduler always keeps children on their parent's worker and
    /// lets stealing correct any imbalance online).
    pub strategy: BalanceStrategy,
    /// Which runtime drives each level.
    pub scheduler: Scheduler,
    /// Stuck-worker deadline: a worker whose per-sub-list heartbeats
    /// stop advancing for this long is declared dead and abandoned.
    /// `None` (the default) disables the watchdog — a wedged thread
    /// then blocks the level barrier indefinitely.
    pub worker_deadline: Option<Duration>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 4,
            enum_config: EnumConfig::default(),
            policy: BalancePolicy::default(),
            strategy: BalanceStrategy::Dynamic,
            scheduler: Scheduler::default(),
            worker_deadline: None,
        }
    }
}

/// Statistics of a parallel run.
#[derive(Clone, Debug, Default)]
pub struct ParallelStats {
    /// Per-level algorithmic reports (counts, memory).
    pub levels: Vec<LevelReport>,
    /// Per-level, per-worker timing (Fig. 8's raw data).
    pub run: RunStats,
    /// Total maximal cliques reported.
    pub total_maximal: usize,
    /// Levels whose first round failed (worker panic) and were retried
    /// successfully from their snapshot.
    pub retried_levels: Vec<usize>,
    /// Individual tasks that panicked once and succeeded on the steal
    /// scheduler's inline retry (always 0 under the barrier scheduler,
    /// which can only retry whole levels).
    pub retried_tasks: u64,
    /// Sub-lists isolated into the quarantine sidecar and skipped
    /// (degraded-exact mode): their descendant cliques are missing from
    /// the output but recorded, never silently dropped.
    pub quarantined: usize,
}

/// Verdict of the per-level barrier hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierControl {
    /// Expand this level as usual.
    Continue,
    /// Stop the in-core parallel run and hand the level back (the
    /// pipeline continues it out of core).
    Degrade,
    /// Stop the run entirely (graceful shutdown): the barrier has
    /// already persisted what it needs; nothing further is expanded.
    Halt,
}

/// How a resilient parallel run ended. Generic over the bitmap
/// representation the run enumerated with (dense by default).
pub enum ParallelOutcome<S: NeighborSet = BitSet> {
    /// Ran to completion.
    Complete(ParallelStats),
    /// The barrier hook demanded degradation; `level` is unexpanded and
    /// everything of size `< level.k + 1` was already emitted.
    Degraded {
        /// The snapshot to continue from.
        level: Level<S>,
        /// Statistics up to the handoff.
        stats: ParallelStats,
    },
    /// The barrier hook demanded a halt (graceful shutdown). The
    /// barrier persisted its final checkpoint before asking, so the
    /// outcome only carries the statistics.
    Interrupted {
        /// Statistics up to the halt.
        stats: ParallelStats,
    },
}

/// A resilient parallel run failed.
#[derive(Debug)]
pub enum ParallelRunError<S: NeighborSet = BitSet> {
    /// A level's round failed twice (original + one retry from the
    /// snapshot). `level` is the unexpanded snapshot, so the caller can
    /// persist a final checkpoint before aborting.
    Round {
        /// The level being expanded when the workers failed.
        k: usize,
        /// The worker failures of the retry round.
        error: RoundError,
        /// The unexpanded level snapshot, still shared with any worker
        /// the supervisor abandoned mid-level (a stuck thread keeps its
        /// reference), so it is handed back behind its `Arc`.
        level: Arc<Level<S>>,
    },
    /// The barrier hook (checkpoint write, budget check) failed.
    Store(StoreError),
}

impl<S: NeighborSet> fmt::Display for ParallelRunError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelRunError::Round { k, error, .. } => {
                write!(f, "level {k} failed after retry: {error}")
            }
            ParallelRunError::Store(e) => write!(f, "barrier failed: {e}"),
        }
    }
}

impl<S: NeighborSet> std::error::Error for ParallelRunError<S> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelRunError::Round { error, .. } => Some(error),
            ParallelRunError::Store(e) => Some(e),
        }
    }
}

impl<S: NeighborSet> From<StoreError> for ParallelRunError<S> {
    fn from(e: StoreError) -> Self {
        ParallelRunError::Store(e)
    }
}

/// Steal tasks planned per worker per level: enough that the epoch's
/// quiescence tail (at most one chunk per worker) is a small share of
/// the level, few enough that per-task overhead is noise.
const CHUNKS_PER_THREAD: usize = 16;

/// Cut a level, given its sub-lists' estimated costs
/// ([`SubList::cost`]), into contiguous runs of adjacent sub-lists. A
/// run closes once it reaches the cost quantum
/// `total / (CHUNKS_PER_THREAD × threads)` or holds its share
/// `len / (CHUNKS_PER_THREAD × threads)` of the sub-lists, so there are
/// at most `2 × CHUNKS_PER_THREAD × threads + 1` runs whatever the
/// sub-list count. The count cap keeps the level split when a few
/// mispriced estimates (a long tail of mostly non-adjacent vertices)
/// dwarf the cost of everything else; a sub-list costlier than the
/// quantum ends its run.
fn plan_chunks(costs: &[u64], threads: usize) -> Vec<Range<usize>> {
    let target = threads.max(1) * CHUNKS_PER_THREAD;
    let total = costs.iter().map(|&c| c.max(1)).sum::<u64>();
    let quantum = total.div_ceil(target as u64);
    let share = costs.len().div_ceil(target);
    let mut chunks = Vec::with_capacity(2 * target + 1);
    let (mut start, mut acc) = (0, 0u64);
    for (i, &c) in costs.iter().enumerate() {
        acc += c.max(1);
        if acc >= quantum || i + 1 - start >= share {
            chunks.push(start..i + 1);
            (start, acc) = (i + 1, 0);
        }
    }
    if start < costs.len() {
        chunks.push(start..costs.len());
    }
    chunks
}

/// Seed queues for an epoch: worker `w` gets the `w`-th contiguous
/// share of `tasks`.
fn deal(tasks: &[Range<usize>], threads: usize) -> Vec<Vec<Range<usize>>> {
    let per = tasks.len().div_ceil(threads).max(1);
    let mut queues: Vec<_> = tasks.chunks(per).map(<[_]>::to_vec).collect();
    queues.resize(threads, Vec::new());
    queues
}

/// Partition a level's sub-lists over `threads` queues with LPT on
/// estimated cost. Queues hold indices into the level, ascending.
fn partition_level<S>(level: &Level<S>, threads: usize) -> Vec<Vec<usize>> {
    let costs: Vec<u64> = level.sublists.iter().map(SubList::cost).collect();
    let mut queues = partition_greedy(&costs, threads);
    for q in &mut queues {
        q.sort_unstable();
    }
    queues
}

/// One task's maximal cliques in a single flat arena: clique `i` is
/// `vertices[ends[i - 1]..ends[i]]`, and nothing is allocated per
/// clique.
struct CliqueArena {
    vertices: Vec<Vertex>,
    ends: Vec<usize>,
}

impl CliqueArena {
    fn clique(&self, i: usize) -> &[Vertex] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.vertices[start..self.ends[i]]
    }
}

impl CliqueSink for CliqueArena {
    fn maximal(&mut self, clique: &[Vertex]) {
        self.vertices.extend_from_slice(clique);
        self.ends.push(self.vertices.len());
    }
}

/// A run of adjacent sub-lists inside an [`Expanded`]: their indices
/// in the level, their cliques (positions in the arena), and how many
/// children they produced (these follow the previous piece's).
struct Piece {
    sublists: Range<usize>,
    cliques: Range<usize>,
    children: usize,
}

/// What one task — a steal chunk, a barrier worker's batch, or a probe
/// of a single sub-list — produced from the runs of sub-lists it
/// expanded, with its pieces ascending in level order.
struct Expanded<S: NeighborSet> {
    pieces: Vec<Piece>,
    cliques: CliqueArena,
    children: Vec<SubList<S>>,
    sublists: usize,
    units: u64,
    and_ops: u64,
    tests: u64,
}

/// The read-only inputs every task of a run shares, plus one reusable
/// scratch bitmap per worker.
struct Kernel<S: NeighborSet> {
    graph: Arc<BitGraph>,
    rows: Vec<S>,
    /// A task takes its worker's bitmap and puts it back when done, so
    /// a panicking or abandoned task costs one fresh allocation, never
    /// a wrong result (the kernel overwrites the scratch before reading
    /// it).
    scratch: Vec<Mutex<Option<S>>>,
}

impl<S: NeighborSet> Kernel<S> {
    fn new(g: &Arc<BitGraph>, threads: usize) -> Self {
        Kernel {
            graph: Arc::clone(g),
            rows: crate::enumerator::neighbor_rows::<S>(g),
            scratch: (0..threads).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Expand the sub-lists of `level` at ascending `indices` on worker
    /// `w`, one piece per run of adjacent indices. One heartbeat per
    /// sub-list: the supervisor's stuck-worker deadline measures
    /// *progress between sub-lists*, so a worker grinding through a
    /// large chunk is alive while a wedged one is not.
    fn expand(
        &self,
        level: &Level<S>,
        indices: impl IntoIterator<Item = usize>,
        w: usize,
        hb: &Heartbeat,
    ) -> Expanded<S> {
        if let Err(e) = crate::failpoint::inject("parallel.worker") {
            panic!("{e}");
        }
        let slot = &self.scratch[w];
        let mut buf = lock(slot)
            .take()
            .unwrap_or_else(|| S::empty(self.graph.n()));
        let mut out = Expanded {
            pieces: Vec::new(),
            cliques: CliqueArena {
                vertices: Vec::new(),
                ends: Vec::new(),
            },
            children: Vec::new(),
            sublists: 0,
            units: 0,
            and_ops: 0,
            tests: 0,
        };
        for i in indices {
            let sl = &level.sublists[i];
            hb.beat(w);
            // Per-sub-list failpoint, keyed by prefix, so tests can
            // poison exactly one sub-list. Gated: the tag string is
            // never built in production runs.
            #[cfg(feature = "failpoints")]
            {
                let tag = sl
                    .prefix
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("-");
                if let Err(e) = crate::failpoint::inject_tagged("parallel.sublist", &tag) {
                    panic!("{e}");
                }
            }
            let (cliques0, children0) = (out.cliques.ends.len(), out.children.len());
            // At most t − 2 children from t tails (the paper's
            // N[k+1] ≤ M[k] − 2N[k], per sub-list).
            out.children.reserve(sl.len().saturating_sub(2));
            let children = &mut out.children;
            let expanded = crate::enumerator::expand_sublist(
                &self.graph,
                &self.rows,
                sl,
                &mut buf,
                &mut out.cliques,
                |c| children.push(c),
            );
            out.sublists += 1;
            out.units += expanded.units;
            out.and_ops += expanded.and_ops;
            out.tests += expanded.tests;
            let (cliques, born) = (out.cliques.ends.len(), out.children.len() - children0);
            match out.pieces.last_mut() {
                Some(p) if p.sublists.end == i => {
                    p.sublists.end += 1;
                    p.cliques.end = cliques;
                    p.children += born;
                }
                _ => out.pieces.push(Piece {
                    sublists: i..i + 1,
                    cliques: cliques0..cliques,
                    children: born,
                }),
            }
        }
        *lock(slot) = Some(buf);
        out
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The barrier scheduler's per-round job: expand a worker's batch of
/// ascending level indices. Built by a free function so a retry can
/// recreate it after the original closure was consumed by the failed
/// round.
fn batch_job<S: NeighborSet>(
    kernel: &Arc<Kernel<S>>,
    level: &Arc<Level<S>>,
) -> impl Fn(usize, Vec<usize>, &Heartbeat) -> Expanded<S> + Send + Sync + 'static {
    let (kernel, level) = (Arc::clone(kernel), Arc::clone(level));
    move |w, batch: Vec<usize>, hb: &Heartbeat| kernel.expand(&level, batch, w, hb)
}

/// The steal scheduler's per-task job: expand one chunk. The pool runs
/// it by reference, so a panicking chunk is still owned for its retry.
fn chunk_job<S: NeighborSet>(
    kernel: &Arc<Kernel<S>>,
    level: &Arc<Level<S>>,
) -> impl Fn(usize, &Range<usize>, &Heartbeat) -> Expanded<S> + Send + Sync + 'static {
    let (kernel, level) = (Arc::clone(kernel), Arc::clone(level));
    move |w, chunk: &Range<usize>, hb: &Heartbeat| kernel.expand(&level, chunk.clone(), w, hb)
}

/// Emit a level's maximal cliques into `sink` and concatenate its
/// children into the next level — the one merge path of both
/// schedulers. Each output's pieces ascend in level order, and all
/// pieces together cover the level once (less any quarantined
/// sub-list), so always taking the piece that starts lowest walks the
/// level in order: the sequential emission order, with the children
/// landing in canonical order. `placed(o, range)` reports where output
/// `o`'s children landed in the next level. Returns the next level's
/// sub-lists and the number of cliques emitted.
fn merge_level<S: NeighborSet, K: CliqueSink>(
    outputs: Vec<Expanded<S>>,
    sink: &mut K,
    mut placed: impl FnMut(usize, Range<usize>),
) -> (Vec<SubList<S>>, usize) {
    let mut next: Vec<SubList<S>> =
        Vec::with_capacity(outputs.iter().map(|o| o.children.len()).sum());
    let mut emitted = 0;
    // An output is freed once its last piece is merged, so the level's
    // children and cliques are never held twice over.
    let mut parts: Vec<Option<_>> = outputs
        .into_iter()
        .map(|o| {
            Some((
                o.pieces.into_iter().peekable(),
                o.cliques,
                o.children.into_iter(),
            ))
        })
        .collect();
    loop {
        let lowest = parts
            .iter_mut()
            .enumerate()
            .filter_map(|(o, part)| Some((part.as_mut()?.0.peek()?.sublists.start, o)))
            .min();
        let Some((_, o)) = lowest else { break };
        let (pieces, cliques, children) = parts[o].as_mut().expect("has a piece");
        let piece = pieces.next().expect("peeked");
        for i in piece.cliques.clone() {
            sink.maximal(cliques.clique(i));
        }
        emitted += piece.cliques.len();
        let base = next.len();
        next.extend(children.by_ref().take(piece.children));
        placed(o, base..next.len());
        if pieces.peek().is_none() {
            parts[o] = None;
        }
    }
    (next, emitted)
}

/// Frees finished levels off the calling thread: their sub-lists were
/// allocated on the workers, and freeing a million of them there idles
/// every worker for as long as it takes. Each level is freed on a
/// thread of its own, overlapping the next levels' expansion; dropping
/// the reaper waits for them all, so no level outlives the run that
/// made it.
#[derive(Default)]
struct Reaper(Vec<std::thread::JoinHandle<()>>);

impl Reaper {
    fn free<T: Send + 'static>(&mut self, finished: T) {
        // If no thread can be spawned, the closure — and `finished`
        // with it — is dropped right here.
        if let Ok(handle) = std::thread::Builder::new().spawn(move || drop(finished)) {
            self.0.push(handle);
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for handle in self.0.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A steal epoch over chunks of a level.
type Epoch<S> = EpochOut<Range<usize>, Expanded<S>>;

/// Everything one level expansion produced, whichever scheduler ran it.
struct LevelExpansion<S: NeighborSet> {
    /// Task outputs in any order (the merge puts them in level order).
    outputs: Vec<Expanded<S>>,
    /// The worker that produced each output: the barrier scheduler's
    /// child affinity.
    owners: Vec<usize>,
    /// Per-worker timing with the unified moved-work count filled in.
    timing: LevelStats,
    /// Whether the whole level was discarded and re-run from its
    /// snapshot (counts toward [`ParallelStats::retried_levels`]).
    retried_level: bool,
    /// Tasks that succeeded on an inline retry (steal scheduler only).
    retried_tasks: u64,
    /// Sub-lists isolated to the quarantine sidecar this level.
    quarantined: usize,
}

impl<S: NeighborSet> LevelExpansion<S> {
    fn new(k: usize, threads: usize) -> Self {
        LevelExpansion {
            outputs: Vec::new(),
            owners: Vec::new(),
            timing: LevelStats {
                level: k,
                per_worker_ns: vec![0; threads],
                per_worker_units: vec![0; threads],
                per_worker_tasks: vec![0; threads],
                ..Default::default()
            },
            retried_level: false,
            retried_tasks: 0,
            quarantined: 0,
        }
    }

    /// Whether anything was retried at all (level or single task) —
    /// the telemetry `retried` flag.
    fn retried(&self) -> bool {
        self.retried_level || self.retried_tasks > 0 || self.quarantined > 0
    }

    /// Account one output of worker `w` that took `ns` and counted as
    /// `tasks` tasks.
    fn add(&mut self, w: usize, out: Expanded<S>, ns: u64, tasks: usize) {
        self.timing.per_worker_ns[w] += ns;
        self.timing.per_worker_units[w] += out.units;
        self.timing.per_worker_tasks[w] += tasks;
        self.outputs.push(out);
        self.owners.push(w);
    }

    /// Account a barrier round's per-worker outputs (a task is a
    /// sub-list).
    fn add_round(&mut self, outputs: Vec<(Expanded<S>, u64)>) {
        for (w, (out, ns)) in outputs.into_iter().enumerate() {
            let tasks = out.sublists;
            self.add(w, out, ns, tasks);
        }
    }

    /// Account a steal epoch's per-worker outputs and counters (a task
    /// is a chunk); returns its convicted chunks.
    fn add_epoch(&mut self, epoch: Epoch<S>) -> Vec<PoisonedTask<Range<usize>>> {
        self.retried_tasks += epoch.retried_tasks;
        self.timing.per_worker_steals = epoch.steal_stats.iter().map(|ss| ss.steals).collect();
        self.timing.per_worker_idle_ns = epoch.steal_stats.iter().map(|ss| ss.idle_ns).collect();
        for (w, (outs, ss)) in epoch
            .results
            .into_iter()
            .zip(&epoch.steal_stats)
            .enumerate()
        {
            for out in outs {
                self.add(w, out, 0, 0);
            }
            self.timing.per_worker_ns[w] += ss.busy_ns;
            self.timing.per_worker_tasks[w] += ss.tasks as usize;
            self.timing.failed_steals += ss.failed_steals;
        }
        // Unified moved-work count: a successful steal is the steal
        // scheduler's "transfer".
        self.timing.transfers = self.timing.per_worker_steals.iter().sum::<u64>() as usize;
        epoch.poisoned
    }
}

/// The multithreaded Clique Enumerator.
pub struct ParallelEnumerator {
    /// Run configuration.
    pub config: ParallelConfig,
    // Mutex (not for sharing — the enumerator is used from one thread)
    // so respawning dead workers, which needs `&mut WorkerPool`, works
    // behind the long-standing `&self` entry points.
    pool: Mutex<WorkerPool>,
    /// Quarantine sidecar path; `None` keeps the historical behavior
    /// (a twice-failed level aborts the run).
    quarantine: Option<PathBuf>,
}

impl ParallelEnumerator {
    /// Build an enumerator (spawns the worker pool).
    pub fn new(config: ParallelConfig) -> Self {
        ParallelEnumerator {
            pool: Mutex::new(WorkerPool::new(config.threads)),
            config,
            quarantine: None,
        }
    }

    /// The worker pool. A panic while it was locked leaves it usable
    /// (pool calls contain worker panics themselves), so a poisoned
    /// lock is recovered rather than propagated.
    fn pool(&self) -> MutexGuard<'_, WorkerPool> {
        lock(&self.pool)
    }

    /// Enable the quarantine sidecar: when a level fails its retry, the
    /// poison sub-lists are isolated to `path` (JSON lines, appended)
    /// and skipped instead of aborting the run. See [`crate::quarantine`].
    pub fn quarantine_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.quarantine = Some(path.into());
        self
    }

    /// Enumerate maximal cliques of `g`, delivering them level by level
    /// (non-decreasing size) into `sink`.
    ///
    /// Panics if a worker round fails twice; use
    /// [`enumerate_resilient`](Self::enumerate_resilient) to handle
    /// failures as values.
    pub fn enumerate(&self, g: &Arc<BitGraph>, sink: &mut impl CliqueSink) -> ParallelStats {
        let outcome = self.enumerate_resilient(g, None::<Level>, sink, |_level, _mem, _sink| {
            Ok(BarrierControl::Continue)
        });
        match outcome {
            Ok(ParallelOutcome::Complete(stats)) => stats,
            Ok(ParallelOutcome::Degraded { .. }) | Ok(ParallelOutcome::Interrupted { .. }) => {
                unreachable!("no-op barrier never degrades or halts")
            }
            Err(e) => panic!("parallel enumeration failed: {e}"),
        }
    }

    /// Fault-tolerant enumeration.
    ///
    /// * `start`: `None` runs from scratch (seeding `min_k`-cliques and
    ///   emitting them as the sequential enumerator does); `Some(level)`
    ///   continues from a snapshot — e.g. a checkpoint — whose seeds
    ///   were already emitted by the original run.
    /// * `barrier` runs once per level *before* expansion, with the
    ///   level snapshot and its memory accounting; it may persist a
    ///   checkpoint (errors propagate) and may demand
    ///   [`BarrierControl::Degrade`], which stops the in-core run and
    ///   returns the unexpanded level for out-of-core continuation.
    ///
    /// A round that fails (worker panic) is discarded — partial results
    /// never reach `sink` — dead workers are respawned, and the level is
    /// retried once from its snapshot. A second failure aborts with
    /// [`ParallelRunError::Round`] carrying the snapshot, so the caller
    /// can write a final checkpoint.
    pub fn enumerate_resilient<S, K, B>(
        &self,
        g: &Arc<BitGraph>,
        start: Option<Level<S>>,
        sink: &mut K,
        barrier: B,
    ) -> Result<ParallelOutcome<S>, ParallelRunError<S>>
    where
        S: NeighborSet,
        K: CliqueSink,
        B: FnMut(&Level<S>, &LevelMemory, &mut K) -> Result<BarrierControl, StoreError>,
    {
        self.enumerate_observed(g, start, sink, barrier, |_report, _stats, _retried| {})
    }

    /// [`enumerate_resilient`](Self::enumerate_resilient) with a
    /// telemetry tap: `observe` runs right after each level completes
    /// (results collected, cliques emitted, balancer applied) with the
    /// level's algorithmic report, its per-worker timing, and whether
    /// the level's first round failed and was retried. This is how the
    /// pipeline exports one consistent record per level barrier without
    /// the workers ever touching a shared channel mid-level.
    pub fn enumerate_observed<S, K, B, O>(
        &self,
        g: &Arc<BitGraph>,
        start: Option<Level<S>>,
        sink: &mut K,
        mut barrier: B,
        mut observe: O,
    ) -> Result<ParallelOutcome<S>, ParallelRunError<S>>
    where
        S: NeighborSet,
        K: CliqueSink,
        B: FnMut(&Level<S>, &LevelMemory, &mut K) -> Result<BarrierControl, StoreError>,
        O: FnMut(&LevelReport, &LevelStats, bool),
    {
        let wall = Instant::now();
        let mut stats = ParallelStats::default();
        let threads = self.pool().threads();
        let kernel = Arc::new(Kernel::<S>::new(g, threads));

        let mut init = match start {
            Some(level) => level,
            None => {
                // Initialization is sequential and cheap relative to
                // expansion.
                let seq = crate::enumerator::CliqueEnumerator::<S, InMemoryLevel<S>>::with_backend(
                    self.config.enum_config,
                    (),
                );
                let mut init_stats = crate::enumerator::EnumStats::default();
                let init = seq.init_level(g, sink, &mut init_stats);
                stats.total_maximal += init_stats.total_maximal;
                init
            }
        };
        // Merging in level order is only the sequential order when the
        // level is canonical; a snapshot written by an older runtime
        // may not be.
        if !init.sublists.is_sorted_by(|a, b| a.prefix <= b.prefix) {
            init.sublists.sort_by(|a, b| a.prefix.cmp(&b.prefix));
        }
        let barrier_scheduler = self.config.scheduler == Scheduler::Barrier;
        // Barrier scheduler only: per-worker queues of level indices,
        // initially an LPT partition over estimated sub-list costs.
        let mut queues = if barrier_scheduler {
            partition_level(&init, threads)
        } else {
            Vec::new()
        };
        let mut level = Arc::new(init);
        let mut reaper = Reaper::default();

        loop {
            let k = level.k;
            if level.sublists.is_empty() {
                break;
            }
            if let Some(mx) = self.config.enum_config.max_k {
                if k >= mx {
                    break;
                }
            }
            let started = Instant::now();
            // The barrier hook checkpoints the level, the memory
            // watchdog inspects it, and a failed round retries from it:
            // all borrow the one shared copy.
            let memory = LevelMemory::account(&level, g.n());
            match barrier(&level, &memory, sink)? {
                BarrierControl::Continue => {}
                BarrierControl::Degrade => {
                    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
                    // No task has been handed this level yet, so the
                    // loop holds its only reference.
                    let level = Arc::try_unwrap(level)
                        .unwrap_or_else(|_| unreachable!("unexpanded level is unshared"));
                    return Ok(ParallelOutcome::Degraded { level, stats });
                }
                BarrierControl::Halt => {
                    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
                    return Ok(ParallelOutcome::Interrupted { stats });
                }
            }

            // Expand the level: a level-synchronous round under the
            // barrier scheduler, a steal-scope epoch under the steal
            // scheduler. Either way the sink sees nothing until the
            // level is fully collected.
            let expanded = match self.config.scheduler {
                Scheduler::Barrier => {
                    self.expand_level_barrier(&kernel, &level, std::mem::take(&mut queues))
                }
                Scheduler::Steal => self.expand_level_steal(&kernel, &level),
            };
            let expansion = match expanded {
                Ok(expansion) => expansion,
                Err(e) => {
                    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
                    return Err(e);
                }
            };
            if expansion.retried_level {
                stats.retried_levels.push(k);
            }
            stats.retried_tasks += expansion.retried_tasks;
            stats.quarantined += expansion.quarantined;
            let retried = expansion.retried();

            // Release the level's cliques in canonical order and gather
            // the next level; the barrier scheduler's children keep
            // their producer's affinity.
            let mut affinity: Vec<Vec<usize>> = vec![Vec::new(); threads];
            let owners = expansion.owners;
            let and_ops = expansion.outputs.iter().map(|o| o.and_ops).sum();
            let maximality_tests = expansion.outputs.iter().map(|o| o.tests).sum();
            let (sublists, maximal_found) = merge_level(expansion.outputs, sink, |o, placed| {
                if barrier_scheduler {
                    affinity[owners[o]].extend(placed);
                }
            });
            stats.total_maximal += maximal_found;
            let mut timing = expansion.timing;
            let next = Level { k: k + 1, sublists };
            if barrier_scheduler {
                timing.transfers = self.balance(&mut affinity, &next, threads);
                queues = affinity;
            }
            reaper.free(std::mem::replace(&mut level, Arc::new(next)));

            stats.levels.push(LevelReport {
                k,
                sublists: memory.n_sublists,
                candidates: memory.n_cliques,
                maximal_found,
                ns: started.elapsed().as_nanos() as u64,
                memory,
                and_ops,
                maximality_tests,
                spilled: 0,
                bytes_read: 0,
            });
            stats.run.levels.push(timing);
            observe(
                stats.levels.last().expect("just pushed"),
                stats.run.levels.last().expect("just pushed"),
                retried,
            );
        }
        drop(reaper);
        stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
        Ok(ParallelOutcome::Complete(stats))
    }

    /// The barrier scheduler's load balancing decision for the next
    /// level's affinity queues (paper: after collecting results,
    /// transfer from the heaviest to the lightest when the gap exceeds
    /// the threshold). Returns the number of sub-lists moved.
    fn balance<S: NeighborSet>(
        &self,
        queues: &mut Vec<Vec<usize>>,
        next: &Level<S>,
        threads: usize,
    ) -> usize {
        match self.config.strategy {
            BalanceStrategy::Dynamic => {
                let cost = |&i: &usize| next.sublists[i].cost();
                let moved = rebalance(queues, cost, &self.config.policy);
                if moved > 0 {
                    for q in queues.iter_mut() {
                        q.sort_unstable();
                    }
                }
                moved
            }
            BalanceStrategy::Static => 0,
            BalanceStrategy::Repartition => {
                *queues = partition_level(next, threads);
                0
            }
        }
    }

    /// The failure surfaced for a level that cannot complete.
    fn round_error<S: NeighborSet>(
        level: &Arc<Level<S>>,
        error: RoundError,
    ) -> ParallelRunError<S> {
        ParallelRunError::Round {
            k: level.k,
            error,
            level: Arc::clone(level),
        }
    }

    /// Expand one level as a level-synchronous round (the paper's §2.3
    /// runtime): pre-partitioned batches, all-or-nothing collection,
    /// and a whole-level retry on failure.
    fn expand_level_barrier<S: NeighborSet>(
        &self,
        kernel: &Arc<Kernel<S>>,
        level: &Arc<Level<S>>,
        batches: Vec<Vec<usize>>,
    ) -> Result<LevelExpansion<S>, ParallelRunError<S>> {
        let deadline = self.config.worker_deadline;
        let threads = batches.len();
        let mut expansion = LevelExpansion::new(level.k, threads);
        let first = self
            .pool()
            .run_round_supervised(batches, batch_job(kernel, level), deadline);
        let outputs = match first {
            Ok(outputs) => outputs,
            Err(_) => {
                // The whole round is discarded; re-partition the
                // snapshot and retry once on respawned workers.
                expansion.retried_level = true;
                // Bind before matching: a `self.pool()` in the
                // scrutinee would hold the guard across every arm,
                // deadlocking the quarantine arm's own lock.
                let retry = self.pool().run_round_supervised(
                    partition_level(level, threads),
                    batch_job(kernel, level),
                    deadline,
                );
                match retry {
                    Ok(outputs) => outputs,
                    Err(error) if self.quarantine.is_some() => {
                        // Last resort before aborting: isolate the
                        // poison sub-lists, quarantine them, and
                        // keep the level going without them.
                        self.quarantine_level(kernel, level, &error, &mut expansion)?;
                        return Ok(expansion);
                    }
                    Err(error) => return Err(Self::round_error(level, error)),
                }
            }
        };
        expansion.add_round(outputs);
        Ok(expansion)
    }

    /// Expand one level as a steal-scope epoch over cost-sized chunks.
    /// A chunk that panics is retried inline once by the pool; a
    /// deterministic double-panic convicts the chunk. With the sidecar
    /// configured its sub-lists are then probed one at a time and the
    /// poison ones quarantined and skipped; otherwise the conviction is
    /// a level failure (the barrier path's abort semantics). Only
    /// supervision failures (stuck worker, dead thread) discard the
    /// epoch wholesale, which then gets the same one-retry-per-level
    /// treatment as a barrier round.
    fn expand_level_steal<S: NeighborSet>(
        &self,
        kernel: &Arc<Kernel<S>>,
        level: &Arc<Level<S>>,
    ) -> Result<LevelExpansion<S>, ParallelRunError<S>> {
        let deadline = self.config.worker_deadline;
        let threads = kernel.scratch.len();
        let costs: Vec<u64> = level.sublists.iter().map(SubList::cost).collect();
        let chunks = plan_chunks(&costs, threads);
        let mut expansion = LevelExpansion::new(level.k, threads);
        let first =
            self.pool()
                .run_epoch(deal(&chunks, threads), chunk_job(kernel, level), deadline);
        let out = match first {
            Ok(out) => out,
            Err(_) => {
                // Supervision failure: the epoch was frozen and its
                // results discarded. Retry once on respawned workers.
                expansion.retried_level = true;
                let retry = self.pool().run_epoch(
                    deal(&chunks, threads),
                    chunk_job(kernel, level),
                    deadline,
                );
                match retry {
                    Ok(out) => out,
                    Err(_) if self.quarantine.is_some() => {
                        // A steal schedule doesn't map failures onto
                        // deterministic batches, so isolation falls
                        // back to the barrier machinery for this one
                        // level: its deterministic retry + probe
                        // rounds pin the poison sub-list(s) exactly.
                        let batches = partition_level(level, threads);
                        let mut expansion = self.expand_level_barrier(kernel, level, batches)?;
                        expansion.retried_level = true;
                        return Ok(expansion);
                    }
                    Err(error) => return Err(Self::round_error(level, error)),
                }
            }
        };
        let poisoned = expansion.add_epoch(out);
        // Convicted chunks: re-run their sub-lists one at a time to
        // narrow them to the poison ones, or fail the level exactly as
        // a twice-failed barrier round would — the sink has seen
        // nothing of this level either way.
        if !poisoned.is_empty() {
            if self.quarantine.is_none() {
                let failures = poisoned
                    .into_iter()
                    .map(|p| WorkerFailure {
                        worker: p.worker,
                        deadline: false,
                        panic_message: p.panic_message,
                    })
                    .collect();
                return Err(Self::round_error(level, RoundError { failures }));
            }
            let suspects: Vec<usize> = poisoned.into_iter().flat_map(|p| p.task).collect();
            self.probe(kernel, level, &suspects, &mut expansion)?;
        }
        Ok(expansion)
    }

    /// Isolate a level that failed its retry: rerun the batches of the
    /// workers that *didn't* fail (all-or-nothing still applies to
    /// them), then [`probe`](Self::probe) the failed workers'
    /// sub-lists.
    fn quarantine_level<S: NeighborSet>(
        &self,
        kernel: &Arc<Kernel<S>>,
        level: &Arc<Level<S>>,
        error: &RoundError,
        expansion: &mut LevelExpansion<S>,
    ) -> Result<(), ParallelRunError<S>> {
        let deadline = self.config.worker_deadline;
        let threads = kernel.scratch.len();
        // The retry round's partition is deterministic (LPT over the
        // same snapshot), so recreating it maps each reported worker
        // failure back onto the exact batch that triggered it.
        let mut failed = vec![false; threads];
        for f in &error.failures {
            if let Some(slot) = failed.get_mut(f.worker) {
                *slot = true;
            }
        }
        let mut suspects: Vec<usize> = Vec::new();
        let mut clean_batches: Vec<Vec<usize>> = Vec::with_capacity(threads);
        for (w, batch) in partition_level(level, threads).into_iter().enumerate() {
            if failed[w] {
                suspects.extend(batch);
                clean_batches.push(Vec::new());
            } else {
                clean_batches.push(batch);
            }
        }
        let outputs = self
            .pool()
            .run_round_supervised(clean_batches, batch_job(kernel, level), deadline)
            .map_err(|error| Self::round_error(level, error))?;
        expansion.add_round(outputs);
        self.probe(kernel, level, &suspects, expansion)
    }

    /// Pin failures down to single sub-lists: run `suspects` in waves
    /// of one sub-list per worker, each probe reported on its own, so
    /// every failure (panic or missed deadline) names exactly one
    /// sub-list. Poison sub-lists go to the quarantine sidecar, one
    /// entry each; the others' output joins the level.
    fn probe<S: NeighborSet>(
        &self,
        kernel: &Arc<Kernel<S>>,
        level: &Arc<Level<S>>,
        suspects: &[usize],
        expansion: &mut LevelExpansion<S>,
    ) -> Result<(), ParallelRunError<S>> {
        let threads = kernel.scratch.len();
        let mut entries: Vec<QuarantineEntry> = Vec::new();
        for wave in suspects.chunks(threads) {
            let mut probe_batches: Vec<Vec<usize>> = vec![Vec::new(); threads];
            for (j, &i) in wave.iter().enumerate() {
                probe_batches[j].push(i);
            }
            let slots = self.pool().run_round_isolated(
                probe_batches,
                batch_job(kernel, level),
                self.config.worker_deadline,
            );
            for (j, (&i, slot)) in wave.iter().zip(slots).enumerate() {
                match slot {
                    Ok((out, ns)) => expansion.add(j, out, ns, 1),
                    Err(failure) => {
                        let sl = &level.sublists[i];
                        entries.push(QuarantineEntry {
                            k: level.k as u64,
                            prefix: sl.prefix.clone(),
                            tails: sl.tails.clone(),
                            reason: failure.panic_message,
                        });
                    }
                }
            }
        }
        let path = self.quarantine.as_ref().expect("caller checked");
        crate::quarantine::append_entries(path, &entries)
            .map_err(|e| ParallelRunError::Store(StoreError::Io(e)))?;
        expansion.quarantined += entries.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::base_bk_sorted;
    use crate::sink::CollectSink;
    use crate::Vertex;
    use gsb_graph::generators::{gnp, planted, Module};

    fn parallel_sorted(g: &BitGraph, config: ParallelConfig) -> (Vec<Vec<Vertex>>, ParallelStats) {
        let g = Arc::new(g.clone());
        let mut sink = CollectSink::default();
        let stats = ParallelEnumerator::new(config).enumerate(&g, &mut sink);
        let mut cliques = sink.cliques;
        cliques.sort();
        (cliques, stats)
    }

    fn bk_at_least(g: &BitGraph, min_k: usize) -> Vec<Vec<Vertex>> {
        base_bk_sorted(g)
            .into_iter()
            .filter(|c| c.len() >= min_k)
            .collect()
    }

    #[test]
    fn matches_sequential_for_all_thread_counts() {
        let g = planted(36, 0.1, &[Module::clique(9), Module::clique(7)], 4);
        let expect = bk_at_least(&g, 3);
        for threads in [1, 2, 3, 4, 8] {
            let (got, _) = parallel_sorted(
                &g,
                ParallelConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn all_strategies_agree() {
        // Balance strategies only exist on the barrier path; pin it.
        let g = gnp(32, 0.35, 7);
        let expect = bk_at_least(&g, 3);
        for strategy in [
            BalanceStrategy::Dynamic,
            BalanceStrategy::Static,
            BalanceStrategy::Repartition,
        ] {
            let (got, _) = parallel_sorted(
                &g,
                ParallelConfig {
                    threads: 4,
                    strategy,
                    scheduler: Scheduler::Barrier,
                    ..Default::default()
                },
            );
            assert_eq!(got, expect, "{strategy:?}");
        }
    }

    #[test]
    fn schedulers_agree_with_each_other_and_sequential() {
        let g = planted(40, 0.1, &[Module::clique(9), Module::clique(6)], 12);
        let expect = bk_at_least(&g, 3);
        for threads in [1, 4] {
            let (barrier, _) = parallel_sorted(
                &g,
                ParallelConfig {
                    threads,
                    scheduler: Scheduler::Barrier,
                    ..Default::default()
                },
            );
            let (steal, _) = parallel_sorted(
                &g,
                ParallelConfig {
                    threads,
                    scheduler: Scheduler::Steal,
                    ..Default::default()
                },
            );
            assert_eq!(barrier, expect, "barrier threads={threads}");
            assert_eq!(steal, expect, "steal threads={threads}");
        }
    }

    #[test]
    fn steal_levels_report_steal_counters() {
        // A graph with a planted heavy module skews per-task costs, so
        // at least one level must record a successful steal — and every
        // level's steal vectors must be worker-shaped.
        let g = planted(60, 0.08, &[Module::clique(12)], 21);
        let (_, stats) = parallel_sorted(
            &g,
            ParallelConfig {
                threads: 4,
                scheduler: Scheduler::Steal,
                ..Default::default()
            },
        );
        for l in &stats.run.levels {
            assert_eq!(l.per_worker_steals.len(), 4);
            assert_eq!(l.per_worker_idle_ns.len(), 4);
            assert_eq!(
                l.transfers,
                l.per_worker_steals.iter().sum::<u64>() as usize,
                "unified moved-work count"
            );
        }
        assert!(
            stats.run.total_transfers() > 0,
            "skewed levels should trigger at least one steal"
        );
    }

    #[test]
    fn scheduler_parses_and_displays() {
        assert_eq!("steal".parse::<Scheduler>().unwrap(), Scheduler::Steal);
        assert_eq!("barrier".parse::<Scheduler>().unwrap(), Scheduler::Barrier);
        assert!("both".parse::<Scheduler>().is_err());
        assert_eq!(Scheduler::Steal.to_string(), "steal");
        assert_eq!(Scheduler::Barrier.to_string(), "barrier");
        assert_eq!(Scheduler::default(), Scheduler::Steal);
    }

    #[test]
    fn seeded_parallel_matches() {
        let g = planted(32, 0.12, &[Module::clique(10)], 11);
        let expect = bk_at_least(&g, 6);
        let (got, _) = parallel_sorted(
            &g,
            ParallelConfig {
                threads: 3,
                enum_config: EnumConfig {
                    min_k: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn stats_populated() {
        let g = planted(30, 0.1, &[Module::clique(8)], 3);
        let (cliques, stats) = parallel_sorted(
            &g,
            ParallelConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(stats.total_maximal, cliques.len());
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.run.levels.len(), stats.levels.len());
        for l in &stats.run.levels {
            assert_eq!(l.per_worker_ns.len(), 4);
        }
        assert!(stats.run.wall_ns > 0);
        assert!(stats.retried_levels.is_empty());
    }

    #[test]
    fn output_in_non_decreasing_size_order() {
        let g = planted(30, 0.1, &[Module::clique(8), Module::clique(5)], 6);
        let garc = Arc::new(g);
        let mut sink = CollectSink::default();
        ParallelEnumerator::new(ParallelConfig {
            threads: 4,
            ..Default::default()
        })
        .enumerate(&garc, &mut sink);
        let sizes: Vec<usize> = sink.cliques.iter().map(Vec::len).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_graph_no_hang() {
        let (got, stats) = parallel_sorted(
            &BitGraph::new(0),
            ParallelConfig {
                threads: 2,
                ..Default::default()
            },
        );
        assert!(got.is_empty());
        assert_eq!(stats.total_maximal, 0);
    }

    #[test]
    fn resilient_from_snapshot_matches_rest_of_run() {
        // Step sequentially to the level-3 barrier, then hand the level
        // to the resilient parallel driver as a resume snapshot.
        let g = planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 9);
        let expect = bk_at_least(&g, 3);

        let seq = crate::enumerator::CliqueEnumerator::new(EnumConfig::default());
        let mut sink = CollectSink::default();
        let mut init_stats = crate::enumerator::EnumStats::default();
        let mut level = seq.init_level(&g, &mut sink, &mut init_stats);
        while level.k < 3 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, &level, &mut sink);
            level = next;
        }
        let garc = Arc::new(g.clone());
        let outcome = ParallelEnumerator::new(ParallelConfig {
            threads: 3,
            ..Default::default()
        })
        .enumerate_resilient(&garc, Some(level), &mut sink, |_l, _m, _s| {
            Ok(BarrierControl::Continue)
        })
        .expect("resilient run");
        assert!(matches!(outcome, ParallelOutcome::Complete(_)));
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn barrier_degrade_hands_back_unexpanded_level() {
        let g = planted(30, 0.1, &[Module::clique(8)], 5);
        let garc = Arc::new(g.clone());
        let mut sink = CollectSink::default();
        let enumerator = ParallelEnumerator::new(ParallelConfig {
            threads: 2,
            ..Default::default()
        });
        let outcome = enumerator
            .enumerate_resilient(&garc, None::<Level>, &mut sink, |level, _m, _s| {
                Ok(if level.k >= 4 {
                    BarrierControl::Degrade
                } else {
                    BarrierControl::Continue
                })
            })
            .expect("resilient run");
        let ParallelOutcome::Degraded { level, .. } = outcome else {
            panic!("expected degradation at k=4");
        };
        assert_eq!(level.k, 4);
        assert!(!level.sublists.is_empty());
        // continuing sequentially from the handoff completes the run
        let seq = crate::enumerator::CliqueEnumerator::new(EnumConfig::default());
        seq.enumerate_from_level(&g, level, &mut sink);
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, bk_at_least(&g, 3));
    }

    #[test]
    fn chunk_plans_are_contiguous_complete_deterministic_and_thread_sized() {
        let mut rng = gsb_graph::rng::SplitMix64::new(0x5eed);
        for n in [0usize, 1, 2, 7, 100, 1_000, 100_000] {
            // Quadratic costs with a heavy tail, like real tail counts.
            let costs: Vec<u64> = (0..n)
                .map(|_| {
                    let bound = if rng.below(50) == 0 { 400 } else { 12 };
                    let t = rng.below(bound);
                    t * t
                })
                .collect();
            for threads in [1usize, 2, 3, 8, 64] {
                let plan = plan_chunks(&costs, threads);
                assert_eq!(plan, plan_chunks(&costs, threads), "deterministic");
                assert!(
                    plan.len() <= 2 * CHUNKS_PER_THREAD * threads + 1,
                    "n={n} threads={threads}: {} chunks",
                    plan.len()
                );
                let mut next = 0;
                for chunk in &plan {
                    assert_eq!(chunk.start, next, "contiguous, no gap or overlap");
                    assert!(chunk.end > chunk.start, "no empty chunk");
                    next = chunk.end;
                }
                assert_eq!(next, n, "every sub-list covered");
            }
        }
        // A sub-list costlier than the quantum ends its chunk, and the
        // cheap ones around it are still split by count, not lumped
        // into one chunk behind the mispriced estimate.
        let mut costs = vec![1u64; 100];
        costs[50] = 1_000_000;
        let plan = plan_chunks(&costs, 2);
        assert!(plan.iter().any(|c| c.end == 51), "{plan:?}");
        assert!(plan.iter().all(|c| c.len() <= 4), "{plan:?}");
    }

    #[test]
    fn dealing_preserves_every_task_in_order() {
        let dealt = deal(&(0..10).map(|i| i..i + 1).collect::<Vec<_>>(), 3);
        assert_eq!(dealt.len(), 3);
        let flat: Vec<Range<usize>> = dealt.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).map(|i| i..i + 1).collect::<Vec<_>>());
    }
}
