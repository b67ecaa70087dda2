//! `gsb serve` — the query server: one [`CliqueIndex`] answered over
//! HTTP through the shared front end (the crate-private `http` module).
//!
//! The first long-lived process in the repo: where a batch run ends at
//! a level barrier, the server ends only when asked. The front end
//! brings the overload defenses every `gsb` front shares — bounded
//! admission queue with typed sheds, per-request deadline budget from
//! accept, slow-client cut-off, worker panic containment, trace ids,
//! live `/metrics` + `/metrics-json`, graceful SIGINT/SIGTERM drain.
//! This handler adds what only an index server needs:
//!
//! * **Per-endpoint rate limiting.** An optional token bucket per
//!   endpoint (`rate_limit` requests/second, `rate_burst` burst)
//!   answers `429` + `Retry-After` when drained. The admission-exempt
//!   endpoints (`/health`, `/ready`, `/metrics`, `/metrics-json`) are
//!   exempt here too: liveness probes must keep passing during overload.
//! * **Caller deadlines.** A router propagates what is left of its own
//!   budget as `X-Gsb-Deadline-Ms`; a request that cannot start in time
//!   is shed instead of computing an answer nobody is waiting for.
//! * **Degraded-exact serving.** A corrupt store block is quarantined
//!   by the reader; list endpoints then answer from the healthy blocks
//!   only, marking the response with an `X-Gsb-Degraded: <skipped>`
//!   header and a `"degraded"` body field. Every clique actually
//!   returned is exact — degradation is visible, never silent.
//! * **Atomic hot-reload.** With `reload_poll` + `index_dir` set, a
//!   watcher thread polls `index.meta`; on change it opens and fully
//!   validates the new index off the serving path, then swaps the
//!   shared `Arc<CliqueIndex>`. In-flight requests keep their snapshot
//!   — no request is ever dropped or mixed across generations.
//! * **Request logs and index I/O.** Each request's span times
//!   queue→parse→admission→postings→blocks→respond. With
//!   `--access-log` set, each request appends one JSONL
//!   [`gsb_telemetry::AccessRecord`] line (rotated atomically at
//!   `--access-log-max-bytes`); `--slow-query-ms` tees outliers with
//!   their full span breakdown into a slow-query log. `/metrics` adds
//!   the reader's block-cache and decode counters and the index gauges.
//!
//! Endpoints (all GET, JSON responses):
//!
//! | path                 | answer                                   |
//! |----------------------|------------------------------------------|
//! | `/health`            | liveness                                 |
//! | `/ready`             | readiness (503 while draining)           |
//! | `/stats`             | index statistics                         |
//! | `/get/<id>`          | one clique by id                         |
//! | `/containing/<v>`    | cliques containing vertex v              |
//! | `/size/<lo>/<hi>`    | cliques with size in `lo..=hi`           |
//! | `/max`               | one maximum clique                       |
//! | `/overlap/<v>/<w>`   | cliques containing both v and w          |
//! | `/metrics`           | Prometheus text exposition (live)        |
//! | `/metrics-json`      | the `--metrics-out` JSON snapshot (live) |
//!
//! Clique-list endpoints accept `?limit=K` (default 1000) and report
//! the full `count` alongside the possibly-truncated `cliques` array.

use crate::http::{
    self, degraded_field, header_value, AddNamed, Answer, Endpoint, Family, Handler, Limits,
    Profile, Query, Refusal, Series, CONTENT_TYPE_JSON, ENDPOINTS,
};
use crate::reader::CliqueIndex;
use gsb_core::{Clique, ShutdownToken};
use gsb_telemetry::access::{AccessRecord, RotatingWriter};
use gsb_telemetry::promtext::PromKind::{self, Counter};
use gsb_telemetry::promtext::PromWriter;
use gsb_telemetry::trace::SpanRecorder;
use gsb_telemetry::AtomicRecorder;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads answering queries.
    pub threads: usize,
    /// Per-connection socket read/write timeout (the supervision idea:
    /// a peer that stalls past this is disconnected, not waited on).
    pub deadline: Duration,
    /// Per-request deadline *budget*, measured from accept: queueing,
    /// header read, query, and response all share it. A request that
    /// cannot start within the budget is shed with `503`; a header
    /// that cannot finish within it is cut off with `408`.
    pub request_deadline: Duration,
    /// Bounded accept-queue depth; connections beyond it are shed
    /// inline with `503` + `Retry-After`.
    pub queue_limit: usize,
    /// Optional per-endpoint token-bucket rate (requests/second).
    /// `None` disables rate limiting. `/health` is always exempt.
    pub rate_limit: Option<f64>,
    /// Token-bucket burst capacity (tokens), when `rate_limit` is set.
    pub rate_burst: u32,
    /// Cap on total request-head bytes (`431` beyond it).
    pub max_header_bytes: usize,
    /// Poll interval of the `index.meta` hot-reload watcher; `None`
    /// disables reloading. Requires `index_dir`.
    pub reload_poll: Option<Duration>,
    /// The index directory to watch for hot-reload.
    pub index_dir: Option<PathBuf>,
    /// Where to write the metrics JSON at shutdown.
    pub metrics_out: Option<PathBuf>,
    /// JSONL access log: one [`AccessRecord`] per request. `None`
    /// disables access logging.
    pub access_log: Option<PathBuf>,
    /// Rotate the access (and slow-query) log once it exceeds this many
    /// bytes (atomic rename to `<path>.1`); 0 disables rotation.
    pub access_log_max_bytes: u64,
    /// Tee requests slower than this many milliseconds into the
    /// slow-query log (full span breakdown). `None` disables.
    pub slow_query_ms: Option<u64>,
    /// Where slow queries are logged; required when `slow_query_ms` is
    /// set (the CLI defaults it to `<access_log>.slow`).
    pub slow_query_log: Option<PathBuf>,
    /// Seed for the server's trace-id generator (deterministic ids for
    /// reproducible tests and benchmarks).
    pub trace_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            deadline: Duration::from_secs(10),
            request_deadline: Duration::from_secs(5),
            queue_limit: 128,
            rate_limit: None,
            rate_burst: 8,
            max_header_bytes: 8192,
            reload_poll: None,
            index_dir: None,
            metrics_out: None,
            access_log: None,
            access_log_max_bytes: 64 * 1024 * 1024,
            slow_query_ms: None,
            slow_query_log: None,
            trace_seed: 17,
        }
    }
}

/// What the drained server did, returned by [`Server::run`].
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered with a routed response (any status).
    pub requests: u64,
    /// Connections shed by admission control (queue full, budget
    /// exhausted, slow client, drain sweep).
    pub shed: u64,
    /// Requests answered `429` by the per-endpoint rate limiter.
    pub rate_limited: u64,
    /// Responses served degraded-exact (some ids skipped as corrupt).
    pub degraded: u64,
    /// Successful index hot-reloads.
    pub reloads: u64,
    /// The metrics JSON (also written to `metrics_out` when set).
    pub metrics_json: String,
}

/// The server's own recorder families; the front end adds the shared
/// ones (requests, latency, sheds, statuses, queue, connection errors).
#[rustfmt::skip]
const SERVER_FAMILIES: &[Family] = &[
    Family::new("rate_limited_total", Counter, Series::Endpoint(|e| e.rate_limited),
        Some("rate_limited"), "Requests answered 429 by the per-endpoint token bucket."),
    Family::new("rate_limited_requests_total", Counter, Series::Key("http.rate_limited_total"),
        Some("rate_limited"), "Requests answered 429, all endpoints."),
    Family::new("degraded_total", Counter, Series::Key("http.degraded_total"),
        Some("degraded"), "Responses served degraded-exact (quarantined ids skipped)."),
    Family::new("slow_queries_total", Counter, Series::Key("http.slow_queries"),
        None, "Requests slower than the slow-query threshold."),
    Family::new("reloads_total", Counter, Series::Key("http.reloads"),
        Some("reloads"), "Successful index hot-reloads."),
    Family::new("reload_errors_total", Counter, Series::Key("http.reload_errors"),
        Some("reload_errors"), "Hot-reload attempts that failed validation."),
    Family::new("access_log_errors_total", Counter, Series::Key("http.access_log_errors"),
        None, "Access-log lines dropped on write failure."),
];

/// One token bucket per endpoint (classic leaky refill: `rate`
/// tokens/second up to `burst`).
struct TokenBuckets {
    rate: f64,
    burst: f64,
    buckets: Vec<Mutex<Bucket>>,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl TokenBuckets {
    fn new(rate: f64, burst: u32) -> Self {
        let burst = f64::from(burst.max(1));
        let now = Instant::now();
        TokenBuckets {
            rate: rate.max(0.0),
            burst,
            buckets: ENDPOINTS
                .iter()
                .map(|_| {
                    Mutex::new(Bucket {
                        tokens: burst,
                        last: now,
                    })
                })
                .collect(),
        }
    }

    /// Take one token for `endpoint`; false means rate-limited.
    fn try_take(&self, endpoint: &str) -> bool {
        let i = ENDPOINTS
            .iter()
            .position(|e| e.name == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        let mut b = self.buckets[i].lock().unwrap();
        let now = Instant::now();
        b.tokens =
            (b.tokens + now.duration_since(b.last).as_secs_f64() * self.rate).min(self.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The server handler: the live index plus the rate limiter, the
/// request logs, and the recorder the front end shares.
struct ServeState {
    /// The live index. Workers clone the `Arc` per request, so a
    /// hot-reload swap never invalidates an in-flight answer.
    index: Mutex<Arc<CliqueIndex>>,
    recorder: AtomicRecorder,
    /// Requests at least this slow are tee'd into the slow-query log.
    slow_query_ms: Option<u64>,
    buckets: Option<TokenBuckets>,
    /// The JSONL access log, when enabled.
    access: Option<Mutex<RotatingWriter>>,
    /// The slow-query log, when enabled.
    slow: Option<Mutex<RotatingWriter>>,
}

impl ServeState {
    /// Current index snapshot for one request.
    fn index(&self) -> Arc<CliqueIndex> {
        self.index.lock().unwrap().clone()
    }
}

impl Handler for ServeState {
    const PROFILE: Profile = Profile {
        role: "server",
        bench: "gsb_serve",
        prefix: "gsb_http",
        health: "{\"status\":\"ok\"}",
        degraded_key: "http.degraded_total",
        families: SERVER_FAMILIES,
    };

    fn recorder(&self) -> &AtomicRecorder {
        &self.recorder
    }

    /// Ready means the index is loaded *and* the server is not draining.
    fn ready(&self, draining: bool) -> (u16, String) {
        if draining {
            return (503, "{\"ready\":false,\"draining\":true}".into());
        }
        let index = self.index();
        let body = format!(
            "{{\"ready\":true,\"draining\":false,\"generation\":{},\"cliques\":{}}}",
            index.generation(),
            index.len()
        );
        (200, body)
    }

    /// The caller's deadline (`X-Gsb-Deadline-Ms`, measured from our
    /// accept), then the endpoint's token bucket: cheap typed refusals
    /// under saturation, no index work spent on them.
    fn admit(&self, head: &str, endpoint: &Endpoint, accepted_at: Instant) -> Result<(), Refusal> {
        let caller_ms = header_value(head, "x-gsb-deadline-ms").and_then(|v| v.parse().ok());
        if caller_ms.is_some_and(|ms| accepted_at.elapsed() >= Duration::from_millis(ms)) {
            return Err(Refusal::Shed {
                status: 503,
                message: "caller deadline already expired",
                key: "http.shed.deadline",
                cause: "caller_deadline",
            });
        }
        let limited = self.buckets.as_ref().filter(|_| !endpoint.exempt);
        if limited.is_some_and(|b| !b.try_take(endpoint.name)) {
            self.recorder.add_named(endpoint.rate_limited, 1);
            self.recorder.add_named("http.rate_limited_total", 1);
            return Err(Refusal::Answer {
                status: 429,
                body: "{\"error\":\"rate limit exceeded for this endpoint\"}",
                cause: "rate_limited",
            });
        }
        Ok(())
    }

    fn answer(
        &self,
        query: &Query,
        limit: usize,
        _accepted_at: Instant,
        span: &mut SpanRecorder,
    ) -> Answer {
        execute(&self.index(), query, limit, span)
    }

    /// Append one access-log line (and tee it into the slow-query log
    /// when the request crossed the `slow_query_ms` threshold). Sheds
    /// from the accept loop have no span and are not logged.
    fn log(&self, span: &SpanRecorder, endpoint: &str, status: u16, cause: &str, bytes: u64) {
        let total_ns = span.total_ns();
        let slow = self
            .slow_query_ms
            .is_some_and(|ms| total_ns >= ms.saturating_mul(1_000_000));
        if slow {
            self.recorder.add_named("http.slow_queries", 1);
        }
        let write_access = self.access.is_some();
        let write_slow = slow && self.slow.is_some();
        if !write_access && !write_slow {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let record = AccessRecord {
            ts_ms,
            trace: span.trace_id().to_string(),
            endpoint: endpoint.to_string(),
            status,
            cause: cause.to_string(),
            bytes,
            total_ns,
            stages: span
                .stages()
                .iter()
                .map(|&(name, ns)| (name.to_string(), ns))
                .collect(),
        };
        let line = record.to_json_line();
        let logs = [(write_access, &self.access), (write_slow, &self.slow)];
        for (write, log) in logs {
            if let (true, Some(w)) = (write, log) {
                if w.lock().unwrap().append_line(&line).is_err() {
                    self.recorder.add_named("http.access_log_errors", 1);
                }
            }
        }
    }

    /// Reader I/O (block-cache effectiveness and decode cost) and the
    /// live index's gauges. The I/O counters reset on hot-reload (fresh
    /// reader), flagged by the generation.
    fn promtext(&self, w: &mut PromWriter) {
        let index = self.index();
        let io = index.io_stats();
        let counters = [
            (
                "gsb_index_cache_hits_total",
                io.cache_hits,
                "Block lookups answered from the decoded-block cache.",
            ),
            (
                "gsb_index_cache_misses_total",
                io.cache_misses,
                "Block lookups that had to read and decode from disk.",
            ),
            (
                "gsb_index_cache_evictions_total",
                io.cache_evictions,
                "Cache insertions that displaced an older block.",
            ),
            (
                "gsb_index_blocks_decoded_total",
                io.blocks_decoded,
                "Blocks read, CRC-verified, and decoded.",
            ),
            (
                "gsb_index_decode_ns_total",
                io.decode_ns,
                "Nanoseconds spent in block read+CRC+decode.",
            ),
            (
                "gsb_index_postings_reads_total",
                io.postings_reads,
                "Postings-list reads served.",
            ),
        ];
        let gauges = [
            (
                "gsb_index_generation",
                index.generation(),
                "Rebuild generation of the live index.",
            ),
            (
                "gsb_index_quarantined_blocks",
                index.quarantined_blocks().len() as u64,
                "Store blocks quarantined as corrupt since this reader opened.",
            ),
            (
                "gsb_index_cliques",
                index.len(),
                "Cliques in the live index.",
            ),
            (
                "gsb_index_live_cliques",
                index.live_len(),
                "Cliques surviving the tombstone filter (equals gsb_index_cliques when no delta chain).",
            ),
            (
                "gsb_index_tombstones",
                index.len() - index.live_len(),
                "Cliques killed by the delta chain since the last compaction.",
            ),
            (
                "gsb_index_delta_generations",
                index.delta_generations(),
                "Delta generations stacked on the base index (0 after compaction).",
            ),
        ];
        let kinds = [(PromKind::Counter, &counters), (PromKind::Gauge, &gauges)];
        for (kind, rows) in kinds {
            for &(name, value, help) in rows {
                let fam = w.family(name, kind, help);
                w.sample(&fam, &[], value);
            }
        }
    }
}

/// A bound, not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    index: Arc<CliqueIndex>,
    config: ServeConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7700`; port 0 picks a free port).
    pub fn bind(index: Arc<CliqueIndex>, addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            index,
            config,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until `shutdown` is requested, then drain: stop accepting,
    /// answer every accepted connection, shed the kernel backlog with
    /// `503`, join the workers and the reload watcher, and export
    /// metrics.
    pub fn run(self, shutdown: &ShutdownToken) -> std::io::Result<ServeReport> {
        let c = self.config;
        let open_log = |path: &Option<PathBuf>| {
            path.as_ref()
                .map(|p| RotatingWriter::open(p, c.access_log_max_bytes).map(Mutex::new))
                .transpose()
        };
        let state = Arc::new(ServeState {
            index: Mutex::new(self.index),
            recorder: AtomicRecorder::new(),
            buckets: c
                .rate_limit
                .map(|rate| TokenBuckets::new(rate, c.rate_burst)),
            access: open_log(&c.access_log)?,
            slow: open_log(&c.slow_query_log)?,
            slow_query_ms: c.slow_query_ms,
        });
        let mut helpers = Vec::new();
        if let (Some(poll), Some(dir)) = (c.reload_poll, c.index_dir.clone()) {
            let (state, shutdown) = (Arc::clone(&state), shutdown.clone());
            helpers.push(
                std::thread::Builder::new()
                    .name("gsb-serve-reload".into())
                    .spawn(move || watch_index(&dir, poll, &state, &shutdown))?,
            );
        }
        let limits = Limits {
            threads: c.threads,
            deadline: c.deadline,
            request_deadline: c.request_deadline,
            queue_limit: c.queue_limit,
            max_header_bytes: c.max_header_bytes,
            trace_seed: c.trace_seed,
            metrics_out: c.metrics_out,
        };
        let drained = http::serve(self.listener, Arc::clone(&state), limits, helpers, shutdown)?;
        let r = &state.recorder;
        Ok(ServeReport {
            connections: drained.connections,
            requests: drained.requests,
            shed: drained.shed,
            rate_limited: r.counter("http.rate_limited_total").get(),
            degraded: r.counter("http.degraded_total").get(),
            reloads: r.counter("http.reloads").get(),
            metrics_json: drained.metrics_json,
        })
    }
}

/// Poll `index.meta`; on change, open + validate the new index off the
/// serving path and swap it in atomically. A failed open keeps the old
/// index serving and retries on the next change of the manifest.
fn watch_index(
    dir: &std::path::Path,
    poll: Duration,
    state: &ServeState,
    shutdown: &ShutdownToken,
) {
    let meta_path = dir.join(crate::format::META_FILE);
    let mut last = std::fs::read_to_string(&meta_path).unwrap_or_default();
    let mut since_poll = Duration::ZERO;
    const TICK: Duration = Duration::from_millis(20);
    while !shutdown.is_requested() {
        // Short ticks keep shutdown responsive under long poll windows.
        std::thread::sleep(TICK.min(poll));
        since_poll += TICK.min(poll);
        if since_poll < poll {
            continue;
        }
        since_poll = Duration::ZERO;
        let Ok(text) = std::fs::read_to_string(&meta_path) else {
            continue;
        };
        if text == last {
            continue;
        }
        match CliqueIndex::open(dir) {
            Ok(new_index) => {
                let generation = new_index.generation();
                *state.index.lock().unwrap() = Arc::new(new_index);
                last = text;
                state.recorder.add_named("http.reloads", 1);
                eprintln!("gsb serve: hot-reloaded index (generation {generation})");
            }
            Err(e) => {
                // Keep serving the old index; `last` stays unchanged so
                // the next poll retries the reload.
                state.recorder.add_named("http.reload_errors", 1);
                eprintln!("gsb serve: index reload failed, keeping current index: {e}");
            }
        }
    }
}

/// Answer one query from `index`. Returns status, body, the count of
/// ids skipped because their block is quarantined (degraded-exact), and
/// the content type. Index lookups record their split into the span: the
/// `postings` stage covers id-list reads and intersection, the `blocks`
/// stage covers materializing cliques from store blocks (cache hits and
/// decodes alike — the reader's `gsb_index_*` counters split those).
fn execute(index: &CliqueIndex, query: &Query, limit: usize, span: &mut SpanRecorder) -> Answer {
    let json = CONTENT_TYPE_JSON;
    match query {
        Query::Stats => (200, stats_json(index), 0, json),
        Query::Get(id) => {
            // tombstoned ids decode fine but are no longer part of the
            // served set — a dead id answers like a missing one
            if !index.is_live(*id) {
                return (
                    404,
                    format!("{{\"error\":\"no clique with id {id}\"}}"),
                    0,
                    json,
                );
            }
            let result = index.get(*id);
            span.stage("blocks");
            match result {
                Ok(c) => (
                    200,
                    format!(
                        "{{\"id\":{id},\"size\":{},\"clique\":{}}}",
                        c.len(),
                        json_ids(&c)
                    ),
                    0,
                    json,
                ),
                Err(_) if *id >= index.len() => (
                    404,
                    format!("{{\"error\":\"no clique with id {id}\"}}"),
                    0,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Query::Max => {
            let result = index.max_clique();
            span.stage("blocks");
            match result {
                Ok(Some(c)) => (
                    200,
                    format!("{{\"size\":{},\"clique\":{}}}", c.len(), json_ids(&c)),
                    0,
                    json,
                ),
                Ok(None) => (200, "{\"size\":0,\"clique\":[]}".into(), 0, json),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Query::Containing(v) => {
            let ids = index.containing(*v);
            span.stage("postings");
            let result = ids.and_then(|ids| {
                index
                    .materialize_degraded(ids.iter().take(limit).copied())
                    .map(|d| (ids, d))
            });
            span.stage("blocks");
            match result {
                Ok((ids, d)) => (
                    200,
                    format!(
                        "{{\"vertex\":{v},\"count\":{},\"ids\":{},\"cliques\":{}{}}}",
                        ids.len(),
                        json_u64s(&ids[..ids.len().min(limit)]),
                        json_cliques(&d.cliques),
                        degraded_field(d.skipped),
                    ),
                    d.skipped,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Query::Size(lo, hi) => {
            // tombstone-aware: the run table filtered by the dead set,
            // so chained and compacted indexes answer identically
            let ids = index.ids_of_size(*lo, *hi);
            span.stage("postings");
            let count = ids.len() as u64;
            let first_id = ids.first().copied().unwrap_or(0);
            let take = (count as usize).min(limit);
            let result = index.materialize_degraded(ids.into_iter().take(take));
            span.stage("blocks");
            match result {
                Ok(d) => (
                    200,
                    format!(
                        "{{\"min\":{lo},\"max\":{hi},\"count\":{count},\"first_id\":{},\"cliques\":{}{}}}",
                        first_id,
                        json_cliques(&d.cliques),
                        degraded_field(d.skipped),
                    ),
                    d.skipped,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Query::Overlap(v, w) => {
            let ids = index.overlap(*v, *w);
            span.stage("postings");
            let result = ids.and_then(|ids| {
                index
                    .materialize_degraded(ids.iter().take(limit).copied())
                    .map(|d| (ids, d))
            });
            span.stage("blocks");
            match result {
                Ok((ids, d)) => (
                    200,
                    format!(
                        "{{\"v\":{v},\"w\":{w},\"count\":{},\"ids\":{},\"cliques\":{}{}}}",
                        ids.len(),
                        json_u64s(&ids[..ids.len().min(limit)]),
                        json_cliques(&d.cliques),
                        degraded_field(d.skipped),
                    ),
                    d.skipped,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
    }
}

fn stats_json(index: &CliqueIndex) -> String {
    let s = index.stats();
    let histogram: Vec<String> = s
        .size_histogram
        .iter()
        .map(|(size, count)| format!("[{size},{count}]"))
        .collect();
    format!(
        "{{\"n\":{},\"cliques\":{},\"max_clique\":{},\"blocks\":{},\"store_bytes\":{},\"postings_bytes\":{},\"generation\":{},\"quarantined_blocks\":{},\"live\":{},\"tombstones\":{},\"delta_generations\":{},\"size_histogram\":[{}]}}",
        s.n,
        s.cliques,
        s.max_clique,
        s.blocks,
        s.store_bytes,
        s.postings_bytes,
        index.generation(),
        index.quarantined_blocks().len(),
        s.live,
        s.tombstones,
        s.delta_generations,
        histogram.join(",")
    )
}

fn error_json(e: &gsb_core::StoreError) -> String {
    format!("{{\"error\":{:?}}}", e.to_string())
}

fn json_ids(c: &[u32]) -> String {
    let items: Vec<String> = c.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_u64s(ids: &[u64]) -> String {
    let items: Vec<String> = ids.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_cliques(cliques: &[Clique]) -> String {
    let items: Vec<String> = cliques.iter().map(|c| json_ids(c)).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{endpoint, parse_route, Route};

    #[test]
    fn route_parsing_is_total() {
        let route = |line: &str| parse_route(line).0;
        assert!(matches!(route("GET /health HTTP/1.1"), Route::Health));
        assert!(matches!(route("GET / HTTP/1.1"), Route::Health));
        assert!(matches!(
            route("GET /containing/7 HTTP/1.1"),
            Route::Query(Query::Containing(7))
        ));
        assert!(matches!(
            route("GET /size/3/5 HTTP/1.1"),
            Route::Query(Query::Size(3, 5))
        ));
        assert!(matches!(route("GET /size/5/3 HTTP/1.1"), Route::Bad(_)));
        assert!(matches!(
            route("POST /health HTTP/1.1"),
            Route::MethodNotAllowed
        ));
        assert!(matches!(route(""), Route::MethodNotAllowed));
        assert!(matches!(route("GET /nope HTTP/1.1"), Route::NotFound));
        let long = format!("GET /{} HTTP/1.1", "a".repeat(4000));
        assert!(matches!(route(&long), Route::Bad(_)));
        assert_eq!(parse_route("GET /max?limit=3 HTTP/1.1").1, 3);
    }

    #[test]
    fn metrics_routes_parse_and_are_admission_exempt() {
        let (metrics, _) = parse_route("GET /metrics HTTP/1.1");
        assert!(matches!(metrics, Route::Metrics));
        let (json, _) = parse_route("GET /metrics-json HTTP/1.1");
        assert!(matches!(json, Route::MetricsJson));
        for name in ["health", "ready", "metrics", "metrics_json"] {
            assert!(endpoint(name).exempt, "{name}");
        }
        for name in ["containing", "stats", "get", "not_found", "bad_request"] {
            assert!(!endpoint(name).exempt, "{name}");
        }
    }

    #[test]
    fn ready_and_get_routes_parse() {
        assert!(matches!(parse_route("GET /ready HTTP/1.1").0, Route::Ready));
        assert!(matches!(
            parse_route("GET /get/42 HTTP/1.1").0,
            Route::Query(Query::Get(42))
        ));
        assert!(matches!(
            parse_route("GET /get/x HTTP/1.1").0,
            Route::Bad(_)
        ));
        assert_eq!(Route::Ready.endpoint().name, "ready");
        assert_eq!(Route::Query(Query::Get(0)).endpoint().name, "get");
        assert_eq!(Route::Bad("x").endpoint().name, "bad_request");
        assert_eq!(endpoint("no such").name, "bad_request");
    }

    #[test]
    fn header_value_is_case_insensitive_and_trimmed() {
        let head = "GET / HTTP/1.1\r\nHost: x\r\nX-Gsb-Trace:  abc-123 \r\n\r\n";
        assert_eq!(header_value(head, "x-gsb-trace"), Some("abc-123"));
        assert_eq!(header_value(head, "host"), Some("x"));
        assert_eq!(header_value(head, "missing"), None);
    }

    #[test]
    fn token_bucket_drains_and_refills() {
        let b = TokenBuckets::new(1000.0, 2);
        assert!(b.try_take("max"));
        assert!(b.try_take("max"));
        // burst of 2 exhausted; other endpoints unaffected
        assert!(!b.try_take("max"));
        assert!(b.try_take("stats"));
        // 1000 tokens/s refill: a couple of ms is plenty for one token
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.try_take("max"));
    }
}
