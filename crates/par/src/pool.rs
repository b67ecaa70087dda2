//! Persistent worker pool with per-worker queues and per-round timing.
//!
//! Workers are long-lived ("multiple threads are forked to perform clique
//! generation simultaneously and independently" — §2.3) and each round
//! delivers one batch per worker, preserving task affinity: a worker
//! keeps operating on its own batch unless the balancer moved work.
//!
//! ## Panic containment
//!
//! A panic inside a job is caught on the worker thread and reported
//! through the round's result channel, so one poisoned sub-list cannot
//! deadlock the barrier or kill a multi-hour run: the round returns
//! [`RoundError`] naming the failed workers, the surviving workers'
//! results are discarded (a round is all-or-nothing), and
//! [`WorkerPool::run_round_checked`] respawns any dead threads before
//! the next round.
//!
//! ## Stuck-worker detection
//!
//! A panic is loud; a wedged thread is silent. The supervised round
//! variants ([`WorkerPool::run_round_supervised`],
//! [`WorkerPool::run_round_isolated`]) hand each job a [`Heartbeat`]
//! the job beats once per work unit (the parallel enumerator beats per
//! sub-list). If a worker's beat count stops advancing for the
//! configured deadline, the round marks it failed
//! ([`WorkerFailure::deadline`]), *abandons* the stuck thread (a fresh
//! worker takes over its queue; the old thread is detached and its late
//! result, if any, is discarded), and the level can continue without
//! it.

use crate::steal::{EpochTasks, StealStats};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Per-worker progress counters for one round. Jobs call
/// [`beat`](Self::beat) at every unit of progress (cheap: one relaxed
/// atomic increment); the supervising round watches the counters and
/// declares a worker stuck when its count stops moving for the
/// deadline.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    beats: Arc<Vec<Beat>>,
}

/// One worker's counter on a cache line of its own: workers beat once
/// per sub-list, and counters sharing a line would bounce it between
/// cores on every beat.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Beat(AtomicU64);

impl Heartbeat {
    fn new(threads: usize) -> Self {
        Heartbeat {
            beats: Arc::new((0..threads).map(|_| Beat::default()).collect()),
        }
    }

    /// Record progress for `worker` (out-of-range indices are ignored).
    pub fn beat(&self, worker: usize) {
        if let Some(b) = self.beats.get(worker) {
            b.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count(&self, worker: usize) -> u64 {
        self.beats
            .get(worker)
            .map_or(0, |b| b.0.load(Ordering::Relaxed))
    }
}

/// One worker's failure within a round.
#[derive(Clone, Debug)]
pub struct WorkerFailure {
    /// Index of the worker whose job failed.
    pub worker: usize,
    /// True when the failure was a missed heartbeat deadline (a stuck
    /// thread, abandoned) rather than a caught panic.
    pub deadline: bool,
    /// The panic payload, stringified (`Box<dyn Any>` payloads that are
    /// not strings become `"<non-string panic payload>"`), or the
    /// deadline report for stuck workers.
    pub panic_message: String,
}

/// A round in which at least one worker's job panicked (or its thread
/// died). The round's outputs are discarded wholesale — partial results
/// never reach the caller, so a retried round cannot double-count.
#[derive(Clone, Debug)]
pub struct RoundError {
    /// Every worker that failed this round.
    pub failures: Vec<WorkerFailure>,
}

impl fmt::Display for RoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} worker(s) failed:", self.failures.len())?;
        for failure in &self.failures {
            write!(f, " [worker {}: {}]", failure.worker, failure.panic_message)?;
        }
        Ok(())
    }
}

impl std::error::Error for RoundError {}

/// A task convicted inside a work-stealing epoch: it panicked on its
/// original execution *and* on the immediate inline retry, so the
/// failure is deterministic for this task, not a transient. The owned
/// task is handed back so the caller can quarantine it (the levelwise
/// driver appends it to the quarantine sidecar) instead of failing the
/// whole epoch.
#[derive(Debug)]
pub struct PoisonedTask<T> {
    /// Worker that executed (and retried) the task.
    pub worker: usize,
    /// The task itself, still owned — per-task jobs run by shared
    /// reference precisely so a panic cannot consume the task.
    pub task: T,
    /// Panic payload of the second (convicting) attempt, stringified.
    pub panic_message: String,
}

/// Everything one work-stealing epoch produced. Unlike a
/// level-synchronous round, per-task panics do not discard the epoch:
/// they are retried inline once and, if deterministic, surfaced in
/// [`poisoned`](Self::poisoned) while every other task's result is
/// kept. Only supervision failures (stuck-worker deadline, worker
/// thread death) fail the epoch as a whole.
#[derive(Debug)]
pub struct EpochOut<T, R> {
    /// Per-worker task results, in completion order. Indexed by worker;
    /// a stolen task's result lands on the thief.
    pub results: Vec<Vec<R>>,
    /// Per-worker scheduling counters (steals, failed steals, busy and
    /// idle time).
    pub steal_stats: Vec<StealStats>,
    /// Tasks that panicked twice and were removed from the epoch.
    pub poisoned: Vec<PoisonedTask<T>>,
    /// Tasks that panicked once and succeeded on the inline retry.
    pub retried_tasks: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A fixed set of persistent worker threads, each with its own queue.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<Option<JoinHandle<()>>>,
}

fn spawn_worker(i: usize) -> (Sender<Job>, JoinHandle<()>) {
    let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("gsb-worker-{i}"))
        .spawn(move || {
            // Run until the channel closes (pool drop). Jobs are
            // panic-wrapped by run_round, so this loop only exits on
            // channel close — but a defensive catch keeps a raw job
            // from killing the thread either way.
            for job in rx.iter() {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
        })
        .expect("failed to spawn worker thread");
    (tx, handle)
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, handle) = spawn_worker(i);
            senders.push(tx);
            handles.push(Some(handle));
        }
        WorkerPool { senders, handles }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// How many worker threads have terminated (panicked through the
    /// defensive net, or otherwise died).
    pub fn dead_workers(&self) -> usize {
        self.handles
            .iter()
            .filter(|h| h.as_ref().is_none_or(JoinHandle::is_finished))
            .count()
    }

    /// Respawn every terminated worker thread; returns how many were
    /// replaced. Queued jobs on a dead worker's channel are lost (the
    /// round that enqueued them has already been reported failed).
    pub fn respawn_dead(&mut self) -> usize {
        let mut respawned = 0;
        for i in 0..self.handles.len() {
            let dead = self.handles[i].as_ref().is_none_or(JoinHandle::is_finished);
            if dead {
                if let Some(old) = self.handles[i].take() {
                    let _ = old.join();
                }
                let (tx, handle) = spawn_worker(i);
                self.senders[i] = tx;
                self.handles[i] = Some(handle);
                respawned += 1;
            }
        }
        respawned
    }

    /// Execute one level-synchronous round: worker `i` applies `f(i,
    /// batch_i)`; blocks until every worker finishes. Returns each
    /// worker's output and its busy time in nanoseconds (the raw data
    /// behind the paper's Fig. 8 load-balance plot).
    ///
    /// `batches.len()` must equal [`threads`](Self::threads).
    ///
    /// Panics if any worker's job panics — use
    /// [`run_round_checked`](Self::run_round_checked) to get a
    /// [`RoundError`] instead.
    pub fn run_round<T, R, F>(&self, batches: Vec<T>, f: F) -> Vec<(R, u64)>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        aggregate(self.round_core(batches, move |i, b, _hb: &Heartbeat| f(i, b), None))
            .unwrap_or_else(|e| panic!("worker round failed: {e}"))
    }

    /// Fault-tolerant round: like [`run_round`](Self::run_round), but a
    /// panicking job yields `Err(RoundError)` instead of panicking the
    /// caller, and dead worker threads are respawned before the round
    /// starts. On error the entire round's outputs are discarded, so
    /// the caller can retry the same batches without double-counting.
    pub fn run_round_checked<T, R, F>(
        &mut self,
        batches: Vec<T>,
        f: F,
    ) -> Result<Vec<(R, u64)>, RoundError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        self.respawn_dead();
        aggregate(self.round_core(batches, move |i, b, _hb: &Heartbeat| f(i, b), None))
    }

    /// Supervised round: like [`run_round_checked`](Self::run_round_checked)
    /// but the job receives a [`Heartbeat`] it must beat per work unit,
    /// and a worker whose beats stop advancing for `deadline` is marked
    /// failed ([`WorkerFailure::deadline`]) and its thread abandoned (a
    /// fresh worker replaces it for subsequent rounds). `deadline:
    /// None` supervises panics only, identical to `run_round_checked`.
    pub fn run_round_supervised<T, R, F>(
        &mut self,
        batches: Vec<T>,
        f: F,
        deadline: Option<Duration>,
    ) -> Result<Vec<(R, u64)>, RoundError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T, &Heartbeat) -> R + Send + Sync + 'static,
    {
        self.respawn_dead();
        let slots = self.round_core(batches, f, deadline);
        self.abandon_stuck(&slots);
        aggregate(slots)
    }

    /// Per-worker round: every worker's outcome is reported
    /// individually — a failure in one slot does not discard its
    /// neighbors' results. This is the probe primitive the quarantine
    /// protocol uses to pin a poison sub-list down to one work unit.
    /// Stuck workers (per `deadline`) are abandoned exactly as in
    /// [`run_round_supervised`](Self::run_round_supervised).
    pub fn run_round_isolated<T, R, F>(
        &mut self,
        batches: Vec<T>,
        f: F,
        deadline: Option<Duration>,
    ) -> Vec<Result<(R, u64), WorkerFailure>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T, &Heartbeat) -> R + Send + Sync + 'static,
    {
        self.respawn_dead();
        let slots = self.round_core(batches, f, deadline);
        self.abandon_stuck(&slots);
        slots
    }

    /// Replace the worker at `i` with a fresh thread. The old thread is
    /// joined if already finished, otherwise detached: dropping its
    /// sender closes its queue, so if it ever un-wedges it exits its
    /// loop; if it never does, it stays parked on its (now unreachable)
    /// job — the price of surviving a genuinely stuck thread.
    fn abandon_worker(&mut self, i: usize) {
        let (tx, handle) = spawn_worker(i);
        self.senders[i] = tx;
        if let Some(old) = self.handles[i].replace(handle) {
            if old.is_finished() {
                let _ = old.join();
            }
            // else: detach by dropping the handle.
        }
    }

    fn abandon_stuck<P>(&mut self, slots: &[Result<P, WorkerFailure>]) {
        let stuck: Vec<usize> = slots
            .iter()
            .filter_map(|r| r.as_ref().err())
            .filter(|f| f.deadline)
            .map(|f| f.worker)
            .collect();
        for i in stuck {
            self.abandon_worker(i);
        }
    }

    /// The shared round engine: dispatch one batch per worker, collect
    /// per-worker outcomes. With a deadline, collection polls and
    /// watches the heartbeat counters; a silent worker is declared
    /// failed without waiting for it, and any result it sends later is
    /// discarded.
    fn round_core<T, R, F>(
        &self,
        batches: Vec<T>,
        f: F,
        deadline: Option<Duration>,
    ) -> Vec<Result<(R, u64), WorkerFailure>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T, &Heartbeat) -> R + Send + Sync + 'static,
    {
        assert_eq!(
            batches.len(),
            self.threads(),
            "one batch per worker required"
        );
        let threads = self.threads();
        let f = Arc::new(f);
        let hb = Heartbeat::new(threads);
        type Done<R> = (usize, Result<(R, u64), String>);
        let (done_tx, done_rx) = channel::<Done<R>>();
        for (i, batch) in batches.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let done = done_tx.clone();
            let hb = hb.clone();
            let job: Job = Box::new(move || {
                let start = Instant::now();
                hb.beat(i); // "alive and starting" — a job that never even starts is stuck by definition
                let out = catch_unwind(AssertUnwindSafe(|| f(i, batch, &hb)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                let ns = start.elapsed().as_nanos() as u64;
                // The receiver outlives the round; a send error means the
                // pool is tearing down.
                let _ = done.send((i, out.map(|r| (r, ns))));
            });
            if let Err(send_err) = self.senders[i].send(job) {
                // Worker thread is gone (channel closed). Run its job
                // inline so the round still completes — the job's own
                // catch_unwind reports any panic like a worker would.
                (send_err.0)();
            }
        }
        drop(done_tx);
        supervise_collect(&done_rx, threads, &hb, deadline, || {})
    }

    /// Execute one work-stealing epoch: the tasks in `queues` (one seed
    /// queue per worker, queues may be empty) are consumed
    /// owner-LIFO/thief-FIFO until quiescence — every task completed.
    /// `f` runs once per task, by shared reference, and must beat the
    /// [`Heartbeat`] (one beat per task is automatic; long tasks should
    /// beat more often).
    ///
    /// Fault containment is per-task, not per-round: a panicking task
    /// is retried inline once and, when the panic repeats, convicted
    /// into [`EpochOut::poisoned`] (the owned task is handed back for
    /// quarantine) while the rest of the epoch continues. Only
    /// supervision failures — a worker silent past `deadline` (the
    /// stuck thread is abandoned and the epoch frozen so live workers
    /// drain-stop) or a dead worker thread — fail the epoch with
    /// [`RoundError`], discarding all of its outputs.
    ///
    /// With a single worker the epoch runs inline on the calling
    /// thread: no deques, no channels, no supervision — the degenerate
    /// path `WorkerPool::new(0)` and `new(1)` share.
    pub fn run_epoch<T, R, F>(
        &mut self,
        queues: Vec<Vec<T>>,
        f: F,
        deadline: Option<Duration>,
    ) -> Result<EpochOut<T, R>, RoundError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &T, &Heartbeat) -> R + Send + Sync + 'static,
    {
        assert_eq!(
            queues.len(),
            self.threads(),
            "one seed queue per worker required"
        );
        if self.threads() == 1 {
            return Ok(run_epoch_inline(queues, &f));
        }
        self.respawn_dead();
        let threads = self.threads();
        let epoch = Arc::new(EpochTasks::new(queues));
        let f = Arc::new(f);
        let hb = Heartbeat::new(threads);
        let poisoned: Arc<Mutex<Vec<PoisonedTask<T>>>> = Arc::new(Mutex::new(Vec::new()));
        type Done<R> = (usize, Result<(Vec<R>, StealStats, u64), String>);
        let (done_tx, done_rx) = channel::<Done<R>>();
        for w in 0..threads {
            let f = Arc::clone(&f);
            let epoch = Arc::clone(&epoch);
            let poisoned = Arc::clone(&poisoned);
            let done = done_tx.clone();
            let hb = hb.clone();
            let job: Job = Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    worker_epoch_loop(w, &epoch, f.as_ref(), &hb, &poisoned)
                }))
                .map_err(|payload| panic_message(payload.as_ref()));
                let _ = done.send((w, out));
            });
            if let Err(send_err) = self.senders[w].send(job) {
                (send_err.0)();
            }
        }
        drop(done_tx);
        // A stuck worker freezes the whole epoch: its tasks cannot be
        // redistributed safely (it may still be executing one), so live
        // workers drain-stop and the epoch is retried by the caller.
        let slots = supervise_collect(&done_rx, threads, &hb, deadline, || epoch.abort());
        self.abandon_stuck(&slots);
        let mut results = Vec::with_capacity(threads);
        let mut steal_stats = Vec::with_capacity(threads);
        let mut retried_tasks = 0u64;
        let mut failures = Vec::new();
        for slot in slots {
            match slot {
                Ok((r, s, retried)) => {
                    results.push(r);
                    steal_stats.push(s);
                    retried_tasks += retried;
                }
                Err(fail) => failures.push(fail),
            }
        }
        if !failures.is_empty() {
            failures.sort_by_key(|fl| fl.worker);
            return Err(RoundError { failures });
        }
        let poisoned = std::mem::take(
            &mut *poisoned
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        Ok(EpochOut {
            results,
            steal_stats,
            poisoned,
            retried_tasks,
        })
    }
}

/// One worker's epoch loop: acquire (own deque, then steal), execute
/// by reference under a panic catch, retry a panicking task once
/// inline, convict on the second panic. Every acquired task is marked
/// complete exactly once — success, retry, or conviction — so the
/// quiescence count cannot wedge.
fn worker_epoch_loop<T, R, F>(
    w: usize,
    epoch: &EpochTasks<T>,
    f: &F,
    hb: &Heartbeat,
    poisoned: &Mutex<Vec<PoisonedTask<T>>>,
) -> (Vec<R>, StealStats, u64)
where
    F: Fn(usize, &T, &Heartbeat) -> R,
{
    let mut results = Vec::new();
    let mut stats = StealStats::default();
    let mut retried = 0u64;
    while let Some(task) = epoch.acquire(w, &mut stats) {
        hb.beat(w);
        let t0 = Instant::now();
        let out = match catch_unwind(AssertUnwindSafe(|| f(w, &task, hb))) {
            Ok(r) => Some(r),
            // First panic: transient or deterministic? The task is
            // still owned (executed by reference), so retry in place —
            // a fresh attempt with no partial state carried over.
            Err(_) => match catch_unwind(AssertUnwindSafe(|| f(w, &task, hb))) {
                Ok(r) => {
                    retried += 1;
                    Some(r)
                }
                Err(payload) => {
                    poisoned
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(PoisonedTask {
                            worker: w,
                            task,
                            panic_message: panic_message(payload.as_ref()),
                        });
                    None
                }
            },
        };
        stats.busy_ns += t0.elapsed().as_nanos() as u64;
        stats.tasks += 1;
        if let Some(r) = out {
            results.push(r);
        }
        epoch.complete();
    }
    (results, stats, retried)
}

/// The single-worker epoch: no deques, no channels, no threads — tasks
/// run inline on the caller with the same per-task retry/conviction
/// semantics as the concurrent path.
fn run_epoch_inline<T, R, F>(queues: Vec<Vec<T>>, f: &F) -> EpochOut<T, R>
where
    F: Fn(usize, &T, &Heartbeat) -> R,
{
    let hb = Heartbeat::new(1);
    let mut results = Vec::new();
    let mut stats = StealStats::default();
    let mut poisoned = Vec::new();
    let mut retried_tasks = 0u64;
    for task in queues.into_iter().flatten() {
        hb.beat(0);
        let t0 = Instant::now();
        let out = match catch_unwind(AssertUnwindSafe(|| f(0, &task, &hb))) {
            Ok(r) => Some(r),
            Err(_) => match catch_unwind(AssertUnwindSafe(|| f(0, &task, &hb))) {
                Ok(r) => {
                    retried_tasks += 1;
                    Some(r)
                }
                Err(payload) => {
                    poisoned.push(PoisonedTask {
                        worker: 0,
                        task,
                        panic_message: panic_message(payload.as_ref()),
                    });
                    None
                }
            },
        };
        stats.busy_ns += t0.elapsed().as_nanos() as u64;
        stats.tasks += 1;
        if let Some(r) = out {
            results.push(r);
        }
    }
    EpochOut {
        results: vec![results],
        steal_stats: vec![stats],
        poisoned,
        retried_tasks,
    }
}

/// The shared supervision/collection loop behind rounds and epochs:
/// wait for every worker's report, watching heartbeats when a deadline
/// is set. A silent worker is declared failed without waiting for it
/// (`on_deadline_failure` fires once per such worker — the epoch
/// engine uses it to freeze the deque set), and any result it sends
/// later is discarded.
fn supervise_collect<P>(
    done_rx: &Receiver<(usize, Result<P, String>)>,
    threads: usize,
    hb: &Heartbeat,
    deadline: Option<Duration>,
    mut on_deadline_failure: impl FnMut(),
) -> Vec<Result<P, WorkerFailure>> {
    let mut slots: Vec<Option<Result<P, WorkerFailure>>> = (0..threads).map(|_| None).collect();
    let mut reported = 0;
    // Stuck detection state: a worker makes progress when its beat
    // count changes between polls. u64::MAX forces the first poll
    // to record a baseline, so the clock starts at observation, not
    // at dispatch.
    let mut last_beats: Vec<u64> = vec![u64::MAX; threads];
    let mut last_progress: Vec<Instant> = vec![Instant::now(); threads];
    let poll = deadline.map(|d| (d / 4).max(Duration::from_millis(5)));
    while reported < threads {
        let received = match poll {
            None => done_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(p) => done_rx.recv_timeout(p),
        };
        match received {
            Ok((i, out)) => {
                if slots[i].is_none() {
                    slots[i] = Some(out.map_err(|panic_message| WorkerFailure {
                        worker: i,
                        deadline: false,
                        panic_message,
                    }));
                    reported += 1;
                }
                // else: a late result from a worker already declared
                // stuck — discarded; its replacement owns the slot.
            }
            Err(RecvTimeoutError::Timeout) => {
                let d = deadline.expect("timeout implies a deadline");
                let now = Instant::now();
                for i in 0..threads {
                    if slots[i].is_some() {
                        continue;
                    }
                    let beats = hb.count(i);
                    if beats != last_beats[i] {
                        last_beats[i] = beats;
                        last_progress[i] = now;
                    } else if now.duration_since(last_progress[i]) >= d {
                        slots[i] = Some(Err(WorkerFailure {
                            worker: i,
                            deadline: true,
                            panic_message: format!(
                                "no heartbeat for {:.1}s (deadline {:.1}s)",
                                now.duration_since(last_progress[i]).as_secs_f64(),
                                d.as_secs_f64()
                            ),
                        }));
                        reported += 1;
                        on_deadline_failure();
                    }
                }
            }
            // All senders dropped before every worker reported:
            // thread death outside the job's catch. Mark the
            // missing slots failed rather than blocking forever.
            Err(RecvTimeoutError::Disconnected) => {
                for (i, slot) in slots.iter_mut().enumerate() {
                    if slot.is_none() {
                        *slot = Some(Err(WorkerFailure {
                            worker: i,
                            deadline: false,
                            panic_message: "worker thread died mid-round".to_string(),
                        }));
                        reported += 1;
                    }
                }
            }
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot reported"))
        .collect()
}

/// Collapse per-worker outcomes into an all-or-nothing round result:
/// any failure discards every output (so a retried round cannot
/// double-count) and reports all failures, sorted by worker.
fn aggregate<R>(slots: Vec<Result<(R, u64), WorkerFailure>>) -> Result<Vec<(R, u64)>, RoundError> {
    let mut results = Vec::with_capacity(slots.len());
    let mut failures = Vec::new();
    for slot in slots {
        match slot {
            Ok(v) => results.push(v),
            Err(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        failures.sort_by_key(|fl| fl.worker);
        Err(RoundError { failures })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear(); // close channels; workers drain and exit
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn round_applies_per_worker() {
        let pool = WorkerPool::new(4);
        let out = pool.run_round(vec![1u64, 2, 3, 4], |i, x| x * 10 + i as u64);
        let values: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![10, 21, 32, 43]);
    }

    #[test]
    fn workers_run_concurrently() {
        // All 4 workers must be in-flight at once for the rendezvous
        // counter to reach 4.
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let out = pool.run_round(vec![(); 4], {
            let counter = Arc::clone(&counter);
            move |_, ()| {
                counter.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + std::time::Duration::from_secs(2);
                while counter.load(Ordering::SeqCst) < 4 {
                    if Instant::now() > deadline {
                        return false;
                    }
                    std::hint::spin_loop();
                }
                true
            }
        });
        assert!(out.iter().all(|(ok, _)| *ok), "workers did not overlap");
    }

    #[test]
    fn multiple_rounds_reuse_threads() {
        let pool = WorkerPool::new(2);
        for round in 0..10u64 {
            let out = pool.run_round(vec![round, round], |_, x| x + 1);
            assert!(out.iter().all(|(v, _)| *v == round + 1));
        }
    }

    #[test]
    fn timings_reported() {
        let pool = WorkerPool::new(2);
        let out = pool.run_round(vec![(), ()], |_, ()| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        for (_, ns) in out {
            assert!(ns >= 4_000_000, "busy time {ns}ns too small");
        }
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool.run_round(vec![7], |_, x: i32| x * 2);
        assert_eq!(out[0].0, 14);
    }

    #[test]
    #[should_panic]
    fn batch_count_must_match() {
        let pool = WorkerPool::new(2);
        pool.run_round(vec![1], |_, x: i32| x);
    }

    #[test]
    fn panicking_job_returns_err_not_deadlock() {
        let mut pool = WorkerPool::new(3);
        let err = pool
            .run_round_checked(vec![0u64, 1, 2], |_, x| {
                if x == 1 {
                    panic!("poisoned sub-list {x}");
                }
                x * 2
            })
            .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].worker, 1);
        assert!(
            err.failures[0].panic_message.contains("poisoned sub-list"),
            "message: {}",
            err.failures[0].panic_message
        );
    }

    #[test]
    fn failed_round_does_not_poison_later_rounds() {
        let mut pool = WorkerPool::new(2);
        let err = pool.run_round_checked(vec![true, false], |_, fail| {
            if fail {
                panic!("boom");
            }
            7u64
        });
        assert!(err.is_err());
        // subsequent rounds run normally on the same pool
        for round in 0..3u64 {
            let out = pool
                .run_round_checked(vec![round, round], |_, x| x + 1)
                .expect("healthy round");
            assert!(out.iter().all(|(v, _)| *v == round + 1));
        }
        // the panicking variant still works on the same pool too
        let out = pool.run_round(vec![1u64, 2], |_, x| x);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn all_workers_panicking_reports_all() {
        let mut pool = WorkerPool::new(4);
        let err = pool
            .run_round_checked(vec![(); 4], |i, ()| -> u64 { panic!("w{i}") })
            .unwrap_err();
        assert_eq!(err.failures.len(), 4);
        let workers: Vec<usize> = err.failures.iter().map(|f| f.worker).collect();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        // pool recovers
        let out = pool
            .run_round_checked(vec![(); 4], |i, ()| i as u64)
            .expect("recovered");
        assert_eq!(out.len(), 4);
    }

    #[test]
    #[should_panic(expected = "worker round failed")]
    fn unchecked_round_panics_on_worker_panic() {
        let pool = WorkerPool::new(2);
        let _ = pool.run_round(vec![true, false], |_, fail: bool| {
            if fail {
                panic!("boom");
            }
        });
    }

    #[test]
    fn respawn_dead_is_noop_on_healthy_pool() {
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.dead_workers(), 0);
        assert_eq!(pool.respawn_dead(), 0);
    }

    #[test]
    fn supervised_round_without_deadline_matches_checked() {
        let mut pool = WorkerPool::new(3);
        let out = pool
            .run_round_supervised(
                vec![1u64, 2, 3],
                |i, x, hb: &Heartbeat| {
                    hb.beat(i);
                    x * 10
                },
                None,
            )
            .expect("healthy round");
        let values: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![10, 20, 30]);
    }

    #[test]
    fn stuck_worker_is_detected_and_abandoned() {
        let mut pool = WorkerPool::new(2);
        // Worker 1 beats once then stalls far beyond the deadline;
        // worker 0 finishes normally. The round must report worker 1 as
        // a deadline failure without waiting out the full stall.
        let release = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        let err = pool
            .run_round_supervised(
                vec![false, true],
                {
                    let release = Arc::clone(&release);
                    move |_, stall, _hb: &Heartbeat| {
                        if stall {
                            let deadline = Instant::now() + Duration::from_secs(30);
                            while release.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                        7u64
                    }
                },
                Some(Duration::from_millis(200)),
            )
            .unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "waited for the stall"
        );
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].worker, 1);
        assert!(err.failures[0].deadline);
        assert!(
            err.failures[0].panic_message.contains("no heartbeat"),
            "message: {}",
            err.failures[0].panic_message
        );
        // The stuck thread was abandoned: its replacement serves the
        // next round immediately, and the stalled job's late result is
        // not misdelivered into it.
        let out = pool
            .run_round_supervised(vec![1u64, 2], |_, x, _hb: &Heartbeat| x + 1, None)
            .expect("replacement worker serves the next round");
        let values: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![2, 3]);
        release.store(1, Ordering::SeqCst); // un-wedge the detached thread
    }

    #[test]
    fn heartbeats_keep_a_slow_worker_alive() {
        let mut pool = WorkerPool::new(1);
        // Total runtime (350ms) far exceeds the deadline (100ms), but
        // the worker beats every 20ms, so it must NOT be declared stuck.
        let out = pool
            .run_round_supervised(
                vec![()],
                |i, (), hb: &Heartbeat| {
                    for _ in 0..16 {
                        std::thread::sleep(Duration::from_millis(20));
                        hb.beat(i);
                    }
                    42u64
                },
                Some(Duration::from_millis(100)),
            )
            .expect("beating worker must survive");
        assert_eq!(out[0].0, 42);
    }

    #[test]
    fn epoch_zero_threads_clamped_to_one_runs_inline() {
        // Mirrors `zero_threads_clamped_to_one`: new(0) is one worker,
        // and a one-worker epoch executes inline with no deques.
        let mut pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool
            .run_epoch(vec![vec![7, 8]], |_, x: &i32, _hb| x * 2, None)
            .expect("inline epoch");
        assert_eq!(out.results, vec![vec![14, 16]]);
        assert_eq!(out.steal_stats.len(), 1);
        assert_eq!(out.steal_stats[0].tasks, 2);
        assert_eq!(out.steal_stats[0].steals, 0);
        assert!(out.poisoned.is_empty());
    }

    #[test]
    fn epoch_single_thread_convicts_poison_inline() {
        // Mirrors the one-worker round tests: the inline path has the
        // same per-task conviction semantics as the concurrent one.
        let mut pool = WorkerPool::new(1);
        let out = pool
            .run_epoch(
                vec![vec![1u64, 13, 2]],
                |_, &x, _hb: &Heartbeat| {
                    if x == 13 {
                        panic!("unlucky {x}");
                    }
                    x * 10
                },
                None,
            )
            .expect("poison must not fail the epoch");
        assert_eq!(out.results, vec![vec![10, 20]]);
        assert_eq!(out.poisoned.len(), 1);
        assert_eq!(out.poisoned[0].task, 13);
        assert_eq!(out.poisoned[0].worker, 0);
        assert_eq!(out.retried_tasks, 0);
    }

    #[test]
    #[should_panic(expected = "one seed queue per worker")]
    fn epoch_queue_count_must_match() {
        let mut pool = WorkerPool::new(2);
        let _ = pool.run_epoch(vec![vec![1]], |_, x: &i32, _hb| *x, None);
    }

    #[test]
    fn epoch_steals_balance_a_skewed_seed() {
        // All 64 tasks seeded on worker 0; with 4 workers the others
        // must steal. Every task completes exactly once.
        let mut pool = WorkerPool::new(4);
        let queues = vec![(0..64u64).collect::<Vec<_>>(), vec![], vec![], vec![]];
        let out = pool
            .run_epoch(
                queues,
                |_, &x, _hb: &Heartbeat| {
                    // enough work per task that thieves get a chance
                    std::thread::sleep(Duration::from_micros(200));
                    x
                },
                None,
            )
            .expect("healthy epoch");
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        let steals: u64 = out.steal_stats.iter().map(|s| s.steals).sum();
        assert!(steals > 0, "no worker ever stole from the skewed seed");
        assert_eq!(
            out.steal_stats.iter().map(|s| s.tasks).sum::<u64>(),
            64,
            "task count mismatch"
        );
    }

    #[test]
    fn epoch_transient_panic_is_retried_inline() {
        let mut pool = WorkerPool::new(2);
        let tripped = Arc::new(AtomicUsize::new(0));
        let out = pool
            .run_epoch(
                vec![vec![1u64, 2], vec![3, 4]],
                {
                    let tripped = Arc::clone(&tripped);
                    move |_, &x, _hb: &Heartbeat| {
                        // task 3 panics exactly once, succeeds on retry
                        if x == 3 && tripped.fetch_add(1, Ordering::SeqCst) == 0 {
                            panic!("transient");
                        }
                        x * 10
                    }
                },
                None,
            )
            .expect("transient panic must be absorbed");
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![10, 20, 30, 40]);
        assert_eq!(out.retried_tasks, 1);
        assert!(out.poisoned.is_empty());
    }

    #[test]
    fn epoch_deterministic_panic_convicts_the_task_only() {
        let mut pool = WorkerPool::new(3);
        let out = pool
            .run_epoch(
                vec![vec![1u64, 2], vec![13], vec![4]],
                |_, &x, _hb: &Heartbeat| {
                    if x == 13 {
                        panic!("poison sub-list {x}");
                    }
                    x * 10
                },
                None,
            )
            .expect("per-task conviction must not fail the epoch");
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![10, 20, 40], "healthy tasks survive");
        assert_eq!(out.poisoned.len(), 1);
        assert_eq!(out.poisoned[0].task, 13);
        assert!(out.poisoned[0].panic_message.contains("poison sub-list"));
    }

    #[test]
    fn epoch_stuck_worker_fails_the_epoch_and_is_abandoned() {
        let mut pool = WorkerPool::new(2);
        let release = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        let err = pool
            .run_epoch(
                vec![vec![false], vec![true]],
                {
                    let release = Arc::clone(&release);
                    move |_, &stall, _hb: &Heartbeat| {
                        if stall {
                            let deadline = Instant::now() + Duration::from_secs(30);
                            while release.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                        7u64
                    }
                },
                Some(Duration::from_millis(200)),
            )
            .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(10), "waited for stall");
        assert!(err.failures.iter().any(|f| f.deadline));
        // The abandoned worker was replaced: the next epoch is healthy.
        let out = pool
            .run_epoch(
                vec![vec![1u64], vec![2]],
                |_, &x, _hb: &Heartbeat| x + 1,
                None,
            )
            .expect("replacement worker serves the next epoch");
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![2, 3]);
        release.store(1, Ordering::SeqCst);
    }

    #[test]
    fn isolated_round_keeps_surviving_results() {
        let mut pool = WorkerPool::new(3);
        let slots = pool.run_round_isolated(
            vec![0u64, 1, 2],
            |_, x, _hb: &Heartbeat| {
                if x == 1 {
                    panic!("poison");
                }
                x * 2
            },
            None,
        );
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0].as_ref().unwrap().0, 0);
        let failure = slots[1].as_ref().unwrap_err();
        assert!(!failure.deadline);
        assert!(failure.panic_message.contains("poison"));
        assert_eq!(slots[2].as_ref().unwrap().0, 4);
    }
}
