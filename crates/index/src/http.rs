//! The one HTTP/1.1 front end behind `gsb serve` and `gsb router`.
//!
//! Both processes speak the same wire protocol with the same overload
//! defenses, so everything that is not a query answer lives here once;
//! a [`Handler`] (the server's index, the router's shard tier) only
//! answers parsed [`Query`] routes.
//!
//! * **Accept.** One thread blocks in `accept()`. A waker thread ticks
//!   on the [`ShutdownToken`] and, once shutdown is requested, connects
//!   to the listener (over loopback when it is bound to an unspecified
//!   address) so the blocked accept returns. The waker's connection is
//!   dropped by the drain sweep and never counted.
//! * **Admission.** Accepted connections enter a *bounded* queue
//!   (`queue_limit`, exported as the `http.queue_depth` gauge). When it
//!   is full the accept loop answers the admission-exempt endpoints
//!   (`/health`, `/ready`, `/metrics`, `/metrics-json`) inline, so an
//!   overloaded front stays probe-able and scrapeable, and sheds
//!   everything else with a typed `503` + `Retry-After`.
//! * **Per-request deadline budget.** The budget starts at *accept*. A
//!   request that spent it queueing is shed (`503`); a client that
//!   dribbles header bytes (slow-loris) is cut off with `408` once the
//!   budget runs out; a head larger than `max_header_bytes` gets `431`.
//! * **Worker panic containment.** Each request runs under
//!   `catch_unwind`; a panic answers `500`, bumps `http.worker_panics`,
//!   and the worker lives on.
//! * **Tracing.** An incoming valid `X-Gsb-Trace` is honored, else the
//!   seeded [`TraceIdGen`] mints one; the span clock starts at accept,
//!   and the id and total nanoseconds return in `X-Gsb-Trace` /
//!   `X-Gsb-Trace-Ns`.
//! * **Drain.** On shutdown `/ready` answers `503`, every accepted
//!   connection is answered, the kernel backlog is shed with typed
//!   `503`s rather than silent resets, workers and the handler's helper
//!   threads are joined, and the metrics JSON is written atomically to
//!   `metrics_out`.
//!
//! HTTP/1.1, one request per connection (`Connection: close`): every
//! response carries an exact `Content-Length` and the socket closes
//! after it, so a drained shutdown can never truncate a response.
//!
//! Every recorder series is described once, in a [`Family`] table (the
//! front end's families plus the handler's), and that table drives both
//! the Prometheus text of `/metrics` and the JSON snapshot of
//! `/metrics-json` and `metrics_out`: one renderer per format. Counters
//! no family claims are still exported, as sanitized `gsb_<key>`
//! counters, so new instrumentation never goes missing from scrapes.

use gsb_core::supervise::is_transient;
use gsb_core::{RetryPolicy, ShutdownToken};
use gsb_telemetry::promtext::PromKind::{self, Counter, Gauge, Histogram};
use gsb_telemetry::promtext::PromWriter;
use gsb_telemetry::trace::{valid_trace_id, SpanRecorder, TraceIdGen};
use gsb_telemetry::AtomicRecorder;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The default response content type.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";

/// Prometheus text exposition content type.
pub(crate) const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A routed answer: status, body, the count for `X-Gsb-Degraded` (0 for
/// a complete answer), and the content type.
pub(crate) type Answer = (u16, String, u64, &'static str);

/// One endpoint: its metric label and recorder keys.
pub(crate) struct Endpoint {
    /// The `endpoint="..."` label and JSON key.
    pub(crate) name: &'static str,
    /// Requests answered.
    pub(crate) requests: &'static str,
    /// Handling latency histogram, nanoseconds.
    pub(crate) ns: &'static str,
    /// Requests refused by the handler's rate limiter.
    pub(crate) rate_limited: &'static str,
    /// Exempt from queue-full shedding and rate limiting: liveness,
    /// readiness, and scrapes keep answering under overload, so a router
    /// probing `/ready` learns "still serving, just busy".
    pub(crate) exempt: bool,
}

macro_rules! endpoints {
    ($($name:literal $exempt:literal),* $(,)?) => {
        [$(Endpoint {
            name: $name,
            requests: concat!("http.", $name, ".requests"),
            ns: concat!("http.", $name, ".ns"),
            rate_limited: concat!("http.", $name, ".rate_limited"),
            exempt: $exempt,
        }),*]
    };
}

/// Every endpoint, in exposition order; `bad_request` (last) also
/// stands for anything unparsed.
pub(crate) static ENDPOINTS: [Endpoint; 12] = endpoints![
    "health" true, "ready" true, "stats" false, "get" false,
    "containing" false, "size" false, "max" false, "overlap" false,
    "metrics" true, "metrics_json" true, "not_found" false, "bad_request" false,
];

/// The endpoint row named `name` (`bad_request` for unknown names).
pub(crate) fn endpoint(name: &str) -> &'static Endpoint {
    let last = &ENDPOINTS[ENDPOINTS.len() - 1];
    ENDPOINTS.iter().find(|e| e.name == name).unwrap_or(last)
}

/// One HTTP status the front end writes: the reason phrase of its
/// status line and the counter behind `responses_total{status}`.
pub(crate) struct Status {
    code: u16,
    reason: &'static str,
    label: &'static str,
    key: &'static str,
}

macro_rules! statuses {
    ($($code:literal $reason:literal),* $(,)?) => {
        [$(Status {
            code: $code,
            reason: $reason,
            label: stringify!($code),
            key: concat!("http.status.", stringify!($code)),
        }),*,
        Status { code: 0, reason: "", label: "other", key: "http.status.other" }]
    };
}

/// Every status with its own counter, in exposition order; the last
/// row catches any other code.
static STATUSES: [Status; 11] = statuses![
    200 "OK", 400 "Bad Request", 404 "Not Found", 405 "Method Not Allowed",
    408 "Request Timeout", 429 "Too Many Requests",
    431 "Request Header Fields Too Large", 500 "Internal Server Error",
    502 "Bad Gateway", 503 "Service Unavailable",
];

/// The status row for `code`.
pub(crate) fn status(code: u16) -> &'static Status {
    let other = &STATUSES[STATUSES.len() - 1];
    STATUSES.iter().find(|s| s.code == code).unwrap_or(other)
}

/// Why a connection was shed, and the counter for each cause.
static SHED_CAUSES: [(&str, &str); 4] = [
    ("queue_full", "http.shed.queue_full"),
    ("deadline", "http.shed.deadline"),
    ("slow_client", "http.shed.slow_client"),
    ("draining", "http.shed.draining"),
];

/// Where a family's samples live in the recorder.
#[derive(Clone, Copy)]
pub(crate) enum Series {
    /// One unlabelled counter, or gauge by the family's kind.
    Key(&'static str),
    /// One series per endpoint (`endpoint="..."`) at this key.
    Endpoint(fn(&Endpoint) -> &'static str),
    /// One series per status row (`status="..."`).
    Status,
    /// One series per shed cause (`cause="..."`).
    Shed,
}

/// One metric family of the table both renderers walk.
pub(crate) struct Family {
    /// Exposition name after the handler's prefix (`<prefix>_<name>`).
    name: &'static str,
    kind: PromKind,
    series: Series,
    /// The field in the JSON snapshot: top level for a [`Series::Key`],
    /// inside each endpoint's entry for a [`Series::Endpoint`].
    json: Option<&'static str>,
    help: &'static str,
}

impl Family {
    /// One row of a family table.
    pub(crate) const fn new(
        name: &'static str,
        kind: PromKind,
        series: Series,
        json: Option<&'static str>,
        help: &'static str,
    ) -> Family {
        Family {
            name,
            kind,
            series,
            json,
            help,
        }
    }

    /// Every series of the family: its label pair, if any, and key.
    fn series(&self) -> Vec<(Option<(&'static str, &'static str)>, &'static str)> {
        match self.series {
            Series::Key(key) => vec![(None, key)],
            Series::Endpoint(key) => ENDPOINTS
                .iter()
                .map(|e| (Some(("endpoint", e.name)), key(e)))
                .collect(),
            Series::Status => STATUSES
                .iter()
                .map(|s| (Some(("status", s.label)), s.key))
                .collect(),
            Series::Shed => SHED_CAUSES
                .iter()
                .map(|&(cause, key)| (Some(("cause", cause)), key))
                .collect(),
        }
    }

    /// Current value of one unlabelled or per-label series.
    fn value(&self, r: &AtomicRecorder, key: &'static str) -> u64 {
        match self.kind {
            PromKind::Gauge => r.gauge(key).get(),
            _ => r.counter(key).get(),
        }
    }
}

/// The front end's own families, shared by every handler.
#[rustfmt::skip]
const FRONT_FAMILIES: &[Family] = &[
    Family::new("connections_total", Counter, Series::Key("http.connections"),
        Some("connections"), "TCP connections accepted (including shed ones)."),
    Family::new("requests_total", Counter, Series::Endpoint(|e| e.requests),
        Some("requests"), "Routed requests, by endpoint."),
    Family::new("request_duration_ns", Histogram, Series::Endpoint(|e| e.ns),
        None, "Request handling latency in nanoseconds (log2 buckets), by endpoint."),
    Family::new("shed_total", Counter, Series::Shed,
        None, "Connections shed by admission control, by cause."),
    Family::new("responses_total", Counter, Series::Status,
        None, "Responses written, by HTTP status."),
    Family::new("queue_depth", Gauge, Series::Key("http.queue_depth"),
        Some("queue_depth"), "Connections currently waiting in the admission queue."),
    Family::new("worker_panics_total", Counter, Series::Key("http.worker_panics"),
        Some("worker_panics"), "Request handlers that panicked (contained, answered 500)."),
    Family::new("read_errors_total", Counter, Series::Key("http.read_errors"),
        None, "Connections lost while reading the request."),
    Family::new("write_errors_total", Counter, Series::Key("http.write_errors"),
        None, "Responses that failed to write."),
    Family::new("accept_errors_total", Counter, Series::Key("http.accept_errors"),
        None, "Accept-path failures."),
];

/// What sets one handler's front apart: names, bodies, and families.
pub(crate) struct Profile {
    /// `server` or `router`: names worker threads and shed messages.
    pub(crate) role: &'static str,
    /// The JSON snapshot's `bench` field.
    pub(crate) bench: &'static str,
    /// Prefix of every table family's exposition name.
    pub(crate) prefix: &'static str,
    /// The `/health` body.
    pub(crate) health: &'static str,
    /// Counter bumped for each answer with a nonzero degraded count.
    pub(crate) degraded_key: &'static str,
    /// The handler's own recorder families.
    pub(crate) families: &'static [Family],
}

/// A handler's refusal of a parsed request, before it is answered.
pub(crate) enum Refusal {
    /// Shed with a typed `{"error":..,"shed":true}` body, counted under
    /// the shed cause `key`; `cause` goes to the access log.
    Shed {
        status: u16,
        message: &'static str,
        key: &'static str,
        cause: &'static str,
    },
    /// Refuse with this JSON body (the handler counted its own series).
    Answer {
        status: u16,
        body: &'static str,
        cause: &'static str,
    },
}

/// What a front end serves: the answers, `/ready`, and extra series.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Names, bodies, and metric families of this handler.
    const PROFILE: Profile;

    /// The recorder holding every front-end and handler series.
    fn recorder(&self) -> &AtomicRecorder;

    /// `/ready`: status and body; `draining` is set once shutdown began.
    fn ready(&self, draining: bool) -> (u16, String);

    /// Answer one query. The span started at accept; a handler adds
    /// its own stages.
    fn answer(
        &self,
        query: &Query,
        limit: usize,
        accepted_at: Instant,
        span: &mut SpanRecorder,
    ) -> Answer;

    /// A last check on a parsed request before it is answered.
    fn admit(
        &self,
        _head: &str,
        _endpoint: &Endpoint,
        _accepted_at: Instant,
    ) -> Result<(), Refusal> {
        Ok(())
    }

    /// One answered or refused request, for an access log.
    fn log(&self, _span: &SpanRecorder, _endpoint: &str, _status: u16, _cause: &str, _bytes: u64) {}

    /// Families that are not recorder series (rendered after the table).
    fn promtext(&self, _w: &mut PromWriter) {}

    /// JSON snapshot fields that are not recorder series, each rendered
    /// as `,\n  "name": value`.
    fn json(&self) -> String {
        String::new()
    }
}

/// Front-end knobs, common to `ServeConfig` and `RouterConfig`.
pub(crate) struct Limits {
    pub(crate) threads: usize,
    pub(crate) deadline: Duration,
    pub(crate) request_deadline: Duration,
    pub(crate) queue_limit: usize,
    pub(crate) max_header_bytes: usize,
    pub(crate) trace_seed: u64,
    pub(crate) metrics_out: Option<PathBuf>,
}

/// What the drained front end did.
pub(crate) struct Drained {
    pub(crate) connections: u64,
    pub(crate) requests: u64,
    pub(crate) shed: u64,
    pub(crate) metrics_json: String,
}

/// Trait bridge: `AtomicRecorder::add` takes `&'static str`; this
/// helper keeps call sites tidy.
pub(crate) trait AddNamed {
    fn add_named(&self, key: &'static str, delta: u64);
}

impl AddNamed for AtomicRecorder {
    fn add_named(&self, key: &'static str, delta: u64) {
        self.counter(key).add(delta);
    }
}

/// Everything the accept loop and the workers share.
struct Front<H> {
    handler: Arc<H>,
    limits: Limits,
    queue_depth: AtomicUsize,
    /// Set once shutdown is requested: `/ready` turns 503 so a router
    /// ejects this backend *before* the drain sweep sheds its queries,
    /// while `/health` keeps answering 200 (still alive).
    draining: AtomicBool,
    started: Instant,
    trace_ids: Mutex<TraceIdGen>,
}

/// Serve `handler` on `listener` until `shutdown` is requested, then
/// drain: stop accepting, answer every accepted connection, shed the
/// kernel backlog with `503`, join the workers and then `helpers` (the
/// handler's own threads, which watch `shutdown` themselves), and write
/// the metrics JSON.
pub(crate) fn serve<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
    limits: Limits,
    helpers: Vec<JoinHandle<()>>,
    shutdown: &ShutdownToken,
) -> std::io::Result<Drained> {
    let front = Arc::new(Front {
        handler,
        queue_depth: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        started: Instant::now(),
        trace_ids: Mutex::new(TraceIdGen::seeded(limits.trace_seed)),
        limits,
    });
    let role = H::PROFILE.role;
    let r = front.handler.recorder();
    let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::new();
    for i in 0..front.limits.threads.max(1) {
        let (rx, front) = (Arc::clone(&rx), Arc::clone(&front));
        workers.push(
            std::thread::Builder::new()
                .name(format!("gsb-{role}-{i}"))
                .spawn(move || worker_loop(&rx, &front))?,
        );
    }
    let accepting = Arc::new(AtomicBool::new(true));
    let waker = spawn_waker(listener.local_addr()?, shutdown, &accepting)?;

    let mut connections = 0u64;
    let mut late = None;
    while !shutdown.is_requested() {
        match listener.accept() {
            // Woken for shutdown: this one (the waker's connection or a
            // client that raced it) goes to the drain sweep.
            Ok(conn) if shutdown.is_requested() => late = Some(conn),
            Ok((stream, _)) => {
                connections += 1;
                r.add_named("http.connections", 1);
                if gsb_core::failpoint::inject("serve.accept").is_err() {
                    // Injected accept-path fault: account and drop,
                    // exactly like a socket that died post-accept.
                    r.add_named("http.accept_errors", 1);
                    continue;
                }
                let _ = stream.set_read_timeout(Some(front.limits.deadline));
                let _ = stream.set_write_timeout(Some(front.limits.deadline));
                let _ = stream.set_nodelay(true);
                if front.queue_depth.load(Ordering::Acquire) >= front.limits.queue_limit {
                    // A short write budget, so one slow victim cannot
                    // stall the accept loop.
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    front.overloaded(stream);
                    continue;
                }
                let depth = front.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
                r.gauge("http.queue_depth").set(depth as u64);
                if tx.send((stream, Instant::now())).is_err() {
                    break;
                }
            }
            Err(e) if is_transient(&e) => {}
            Err(_) => {
                r.add_named("http.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    accepting.store(false, Ordering::Release);
    front.draining.store(true, Ordering::Release);

    // Drain sweep: everything already accepted drains through the
    // workers; connections still waiting in the kernel backlog are shed
    // with a typed 503 instead of a silent reset. The waker has
    // connected (or given up) once joined, so its connection is in the
    // backlog by now and is dropped uncounted.
    let woke_from = waker.join().unwrap_or(None);
    listener.set_nonblocking(true)?;
    let backlog = std::iter::from_fn(|| listener.accept().ok());
    for (mut stream, peer) in late.into_iter().chain(backlog) {
        if woke_from == Some(peer) {
            continue;
        }
        connections += 1;
        r.add_named("http.connections", 1);
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let message = format!("{role} draining for shutdown");
        front.shed(&mut stream, 503, &message, "http.shed.draining");
    }
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    for h in helpers {
        let _ = h.join();
    }

    let metrics_json = front.json();
    if let Some(path) = &front.limits.metrics_out {
        RetryPolicy::default().run_io(|| write_atomic(path, metrics_json.as_bytes()))?;
    }
    Ok(Drained {
        connections,
        requests: front.requests(),
        shed: front.shed_total(),
        metrics_json,
    })
}

/// The shutdown waker: ticks on `shutdown` (like the reload watcher and
/// the prober) while the accept loop is `accepting`, then connects to
/// the listener so its blocking `accept()` returns. Yields the address
/// it connected from, so the drain sweep can tell its connection apart.
fn spawn_waker(
    addr: SocketAddr,
    shutdown: &ShutdownToken,
    accepting: &Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<Option<SocketAddr>>> {
    const TICK: Duration = Duration::from_millis(10);
    let target = match addr {
        SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
        _ => addr,
    };
    let (shutdown, accepting) = (shutdown.clone(), Arc::clone(accepting));
    std::thread::Builder::new()
        .name("gsb-accept-waker".into())
        .spawn(move || {
            while accepting.load(Ordering::Acquire) {
                if shutdown.is_requested() {
                    let woke =
                        TcpStream::connect_timeout(&target, TICK * 10).and_then(|s| s.local_addr());
                    if let Ok(from) = woke {
                        return Some(from);
                    }
                }
                std::thread::sleep(TICK);
            }
            None
        })
}

/// One worker: pop connections, answer them, contain panics.
fn worker_loop<H: Handler>(rx: &Mutex<mpsc::Receiver<(TcpStream, Instant)>>, front: &Front<H>) {
    loop {
        // Holding the lock only across recv keeps the other workers
        // free to pick up the next connection.
        let conn = rx
            .lock()
            .expect("no worker panics holding the queue")
            .recv();
        let Ok((mut stream, accepted_at)) = conn else {
            // Channel closed after drain: every queued connection has
            // been answered.
            break;
        };
        let depth = front.queue_depth.fetch_sub(1, Ordering::AcqRel) - 1;
        let r = front.handler.recorder();
        r.gauge("http.queue_depth").set(depth as u64);
        let outcome = catch_unwind(AssertUnwindSafe(|| front.handle(&mut stream, accepted_at)));
        if outcome.is_err() {
            // The worker survives a panicking request; the client gets
            // a typed 500 instead of a dead socket.
            r.add_named("http.worker_panics", 1);
            r.add_named(status(500).key, 1);
            let body = "{\"error\":\"internal error answering this request\"}";
            front.send(&mut stream, &json_answer(500, body), 1, &[]);
        }
    }
}

impl<H: Handler> Front<H> {
    /// Read the request head incrementally (progress bounded by the
    /// request budget, size by `max_header_bytes`), answer it, close.
    fn handle(&self, stream: &mut TcpStream, accepted_at: Instant) {
        let (h, r, limits) = (&*self.handler, self.handler.recorder(), &self.limits);
        // The span's clock starts at accept: the first stage is the
        // queue wait this request already paid for.
        let mut span = SpanRecorder::started_at(String::new(), accepted_at);
        span.stage("queue");
        if accepted_at.elapsed() >= limits.request_deadline {
            let message = "request exceeded its deadline budget while queued";
            self.shed(stream, 503, message, "http.shed.deadline");
            h.log(&span, "unparsed", 503, "deadline", 0);
            return;
        }

        let mut buf = vec![0u8; limits.max_header_bytes.max(64)];
        let mut used = 0usize;
        let head_len = loop {
            let Some(remaining) = limits.request_deadline.checked_sub(accepted_at.elapsed()) else {
                // Anti-slow-loris: each read made "progress", but the
                // head never completed within the budget.
                let message = "request header did not complete within the deadline budget";
                self.shed(stream, 408, message, "http.shed.slow_client");
                span.stage("parse");
                h.log(&span, "unparsed", 408, "slow_client", 0);
                return;
            };
            if used == buf.len() {
                r.add_named(endpoint("bad_request").requests, 1);
                r.add_named(status(431).key, 1);
                let body = "{\"error\":\"request header too large\"}";
                self.send(stream, &json_answer(431, body), 1, &[]);
                span.stage("parse");
                h.log(&span, "bad_request", 431, "header_too_large", 0);
                return;
            }
            let per_read = remaining.min(limits.deadline).max(Duration::from_millis(1));
            let _ = stream.set_read_timeout(Some(per_read));
            match stream.read(&mut buf[used..]) {
                Ok(0) => return, // peer closed before sending a request
                Ok(k) => {
                    used += k;
                    if let Some(end) = find_head_end(&buf[..used]) {
                        break end;
                    }
                }
                // Read timed out: loop back so the budget check decides
                // between another read and a 408.
                Err(e) if is_transient(&e) => continue,
                Err(_) => {
                    // Connection reset or similar: nothing to answer.
                    r.add_named("http.read_errors", 1);
                    return;
                }
            }
        };

        let head = String::from_utf8_lossy(&buf[..head_len]);
        let (route, limit) = parse_route(head.lines().next().unwrap_or(""));
        let endpoint = route.endpoint();
        span.set_trace_id(self.trace_id(&head));
        span.stage("parse");

        // (answer, access-log cause, logged body bytes)
        let (answer, cause, bytes) = match h.admit(&head, endpoint, accepted_at) {
            Err(Refusal::Shed {
                status,
                message,
                key,
                cause,
            }) => {
                self.shed(stream, status, message, key);
                h.log(&span, endpoint.name, status, cause, 0);
                return;
            }
            Err(Refusal::Answer {
                status,
                body,
                cause,
            }) => {
                span.stage("admission");
                (json_answer(status, body), cause, 0)
            }
            Ok(()) => {
                span.stage("admission");
                let started = Instant::now();
                let answer = self.answer(&route, limit, accepted_at, &mut span);
                self.count(endpoint, started.elapsed().as_nanos() as u64);
                let cause = if answer.2 > 0 {
                    r.add_named(H::PROFILE.degraded_key, 1);
                    "degraded_exact"
                } else {
                    ""
                };
                let bytes = answer.1.len() as u64;
                (answer, cause, bytes)
            }
        };
        self.reply(stream, &answer, &mut span, endpoint.name, cause, bytes);
    }

    /// The queue is full: answer an admission-exempt request inline from
    /// the accept loop, shed anything else with a typed 503. The head
    /// read is bounded (two reads within 50ms, 1 KiB) so a slow client
    /// cannot stall accepting.
    fn overloaded(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut buf = [0u8; 1024];
        let mut used = 0usize;
        for _ in 0..2 {
            match stream.read(&mut buf[used..]) {
                Ok(k) if k > 0 => used += k,
                _ => break,
            }
            if find_head_end(&buf[..used]).is_some() || used == buf.len() {
                break;
            }
        }
        let head = String::from_utf8_lossy(&buf[..used]);
        let (route, limit) = parse_route(head.lines().next().unwrap_or(""));
        let endpoint = route.endpoint();
        if !endpoint.exempt || find_head_end(&buf[..used]).is_none() {
            let message = format!("{} overloaded, admission queue full", H::PROFILE.role);
            self.refuse(&mut stream, 503, &message, "http.shed.queue_full");
            return;
        }
        let mut span = SpanRecorder::new(self.trace_id(&head));
        span.stage("parse");
        let answer = self.answer(&route, limit, Instant::now(), &mut span);
        self.count(endpoint, span.total_ns());
        let bytes = answer.1.len() as u64;
        let cause = "overload_exempt";
        self.reply(&mut stream, &answer, &mut span, endpoint.name, cause, bytes);
    }

    /// Count the answer's status, write it with the trace headers, and
    /// log it.
    fn reply(
        &self,
        stream: &mut TcpStream,
        answer: &Answer,
        span: &mut SpanRecorder,
        endpoint: &str,
        cause: &str,
        bytes: u64,
    ) {
        self.handler.recorder().add_named(status(answer.0).key, 1);
        self.send(stream, answer, 1, &trace_headers(span));
        span.stage("respond");
        self.handler.log(span, endpoint, answer.0, cause, bytes);
    }

    /// Answer a parsed route: the meta routes here, queries by the
    /// handler.
    fn answer(
        &self,
        route: &Route,
        limit: usize,
        accepted_at: Instant,
        span: &mut SpanRecorder,
    ) -> Answer {
        let json = CONTENT_TYPE_JSON;
        match route {
            Route::Query(query) => self.handler.answer(query, limit, accepted_at, span),
            Route::Health => (200, H::PROFILE.health.into(), 0, json),
            Route::Ready => {
                let (status, body) = self.handler.ready(self.draining.load(Ordering::Acquire));
                (status, body, 0, json)
            }
            Route::Metrics => (200, self.promtext(), 0, CONTENT_TYPE_PROM),
            Route::MetricsJson => (200, self.json(), 0, json),
            Route::NotFound => json_answer(404, "{\"error\":\"no such endpoint\"}"),
            Route::MethodNotAllowed => json_answer(405, "{\"error\":\"only GET is supported\"}"),
            Route::Bad(message) => (400, format!("{{\"error\":\"{message}\"}}"), 0, json),
        }
    }

    /// Count one answered request and its handling latency.
    fn count(&self, endpoint: &Endpoint, ns: u64) {
        let r = self.handler.recorder();
        r.add_named(endpoint.requests, 1);
        r.histogram(endpoint.ns).observe(ns);
    }

    /// The request's trace id: an incoming valid `X-Gsb-Trace` header
    /// wins, else the seeded generator supplies one.
    fn trace_id(&self, head: &str) -> String {
        match header_value(head, "x-gsb-trace") {
            Some(v) if valid_trace_id(v) => v.to_string(),
            _ => self
                .trace_ids
                .lock()
                .expect("id minting cannot panic")
                .next_id(),
        }
    }

    /// Shed a connection with a typed, complete response. The pending
    /// request bytes are drained first (one bounded read): closing with
    /// unread data in the receive buffer makes the kernel reset the
    /// connection, and the client would see ECONNRESET instead of the
    /// typed 503/408 the whole design promises. The read is bounded to
    /// 50ms so a silent client cannot stall the shedding path.
    fn shed(&self, stream: &mut TcpStream, status: u16, message: &str, key: &'static str) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut scratch = [0u8; 1024];
        let _ = stream.read(&mut scratch);
        self.refuse(stream, status, message, key);
    }

    /// Answer `{"error":message,"shed":true}` with a queue-scaled
    /// `Retry-After`, counted under the shed cause `key`.
    fn refuse(&self, stream: &mut TcpStream, code: u16, message: &str, key: &'static str) {
        let r = self.handler.recorder();
        r.add_named(key, 1);
        r.add_named(status(code).key, 1);
        let body = format!("{{\"error\":\"{message}\",\"shed\":true}}");
        let answer = (code, body, 0, CONTENT_TYPE_JSON);
        let depth = self.queue_depth.load(Ordering::Acquire);
        let retry = retry_after_secs(depth, self.limits.queue_limit);
        self.send(stream, &answer, retry, &[]);
    }

    /// Write one response; a failed write is counted, never retried.
    fn send(
        &self,
        stream: &mut TcpStream,
        answer: &Answer,
        retry_after_secs: u32,
        extra: &[(&'static str, String)],
    ) {
        if respond(stream, answer, retry_after_secs, extra).is_err() {
            self.handler.recorder().add_named("http.write_errors", 1);
        }
    }

    /// Requests answered, all endpoints.
    fn requests(&self) -> u64 {
        let r = self.handler.recorder();
        ENDPOINTS.iter().map(|e| r.counter(e.requests).get()).sum()
    }

    /// Connections shed, all causes.
    fn shed_total(&self) -> u64 {
        let r = self.handler.recorder();
        SHED_CAUSES.iter().map(|(_, k)| r.counter(k).get()).sum()
    }

    /// The front end's families, then the handler's.
    fn families(&self) -> impl Iterator<Item = &'static Family> {
        FRONT_FAMILIES.iter().chain(H::PROFILE.families)
    }

    /// Every series as Prometheus text exposition (format 0.0.4):
    /// the family table, the handler's own families, uptime, and any
    /// counter no family claims as a sanitized `gsb_<key>` counter.
    /// Reads only atomic snapshots — never blocks request threads.
    fn promtext(&self) -> String {
        let r = self.handler.recorder();
        let mut w = PromWriter::new();
        let mut claimed = BTreeSet::new();
        for fam in self.families() {
            let name = format!("{}_{}", H::PROFILE.prefix, fam.name);
            let name = w.family(&name, fam.kind, fam.help);
            for (label, key) in fam.series() {
                claimed.insert(key);
                let labels: Vec<(&str, &str)> = label.into_iter().collect();
                if fam.kind == PromKind::Histogram {
                    let h = r.histogram(key);
                    let buckets = h.cumulative_buckets();
                    w.histogram(&name, &labels, &buckets, h.sum(), h.count());
                } else {
                    w.sample(&name, &labels, fam.value(r, key));
                }
            }
        }
        self.handler.promtext(&mut w);
        let uptime = w.family(
            "gsb_uptime_seconds",
            PromKind::Gauge,
            "Seconds since the front end started.",
        );
        w.sample_f64(&uptime, &[], self.started.elapsed().as_secs_f64());
        for (key, value) in r.snapshot_counters() {
            if !claimed.contains(key) {
                let help = "Unstructured counter (auto-exported).";
                let fam = w.family(&format!("gsb_{key}"), PromKind::Counter, help);
                w.sample(&fam, &[], value);
            }
        }
        w.finish()
    }

    /// The JSON snapshot (`/metrics-json` and `metrics_out`): totals,
    /// every table family with a JSON field, the handler's own fields,
    /// and one entry per endpoint that saw traffic with coarse log₂
    /// latency percentiles.
    fn json(&self) -> String {
        let r = self.handler.recorder();
        let elapsed = self.started.elapsed();
        let requests = self.requests();
        let qps = if elapsed.as_secs_f64() > 0.0 {
            requests as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let causes: Vec<String> = SHED_CAUSES
            .iter()
            .map(|(cause, key)| format!("\"{cause}\":{}", r.counter(key).get()))
            .collect();
        let mut out = format!(
            "{{\n  \"bench\": \"{}\",\n  \"requests\": {requests},\n  \"wall_ms\": {},\n  \"qps\": {qps:.2},\n  \"shed_total\": {},\n  \"shed\": {{{}}}",
            H::PROFILE.bench,
            elapsed.as_millis(),
            self.shed_total(),
            causes.join(","),
        );
        let mut per_endpoint = Vec::new();
        for fam in self.families() {
            match (fam.json, fam.series) {
                (Some(field), Series::Key(key)) => {
                    out.push_str(&format!(",\n  \"{field}\": {}", fam.value(r, key)));
                }
                (Some(field), Series::Endpoint(key)) => per_endpoint.push((field, key)),
                _ => {}
            }
        }
        out.push_str(&self.handler.json());
        let mut endpoints = Vec::new();
        for ep in &ENDPOINTS {
            let counts: Vec<(&str, u64)> = per_endpoint
                .iter()
                .map(|&(field, key)| (field, r.counter(key(ep)).get()))
                .collect();
            if counts.iter().all(|&(_, count)| count == 0) {
                continue;
            }
            let fields: String = counts
                .iter()
                .map(|(field, count)| format!("\"{field}\":{count},"))
                .collect();
            let h = r.histogram(ep.ns);
            endpoints.push(format!(
                "\n    \"{}\": {{{fields}\"mean_ns\":{:.0},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                ep.name,
                h.mean(),
                h.quantile_upper_bound(0.50),
                h.quantile_upper_bound(0.90),
                h.quantile_upper_bound(0.99),
                h.max(),
            ));
        }
        out.push_str(&format!(
            ",\n  \"endpoints\": {{{}\n  }}\n}}\n",
            endpoints.join(",")
        ));
        out
    }
}

/// `Retry-After` seconds for a shed 503 at queue `depth` of `limit`: an
/// empty queue suggests a blip (come back in 1s), a full queue means
/// real overload (back off up to 8s). Bounded so a buggy depth can never
/// tell clients to wait forever, and load-dependent so a fleet of
/// backoff clients does not re-arrive on one fixed beat.
fn retry_after_secs(depth: usize, limit: usize) -> u32 {
    let limit = limit.max(1);
    (1 + (7 * depth.min(limit)) / limit) as u32
}

/// The optional `"degraded":N` JSON body suffix (empty for complete
/// answers, so healthy responses are byte-identical to the
/// pre-quarantine ones).
pub(crate) fn degraded_field(degraded: u64) -> String {
    if degraded == 0 {
        String::new()
    } else {
        format!(",\"degraded\":{degraded}")
    }
}

/// A JSON answer with a fixed body.
fn json_answer(status: u16, body: &str) -> Answer {
    (status, body.to_string(), 0, CONTENT_TYPE_JSON)
}

/// The `X-Gsb-Trace` / `X-Gsb-Trace-Ns` response headers for a span.
fn trace_headers(span: &SpanRecorder) -> [(&'static str, String); 2] {
    [
        ("X-Gsb-Trace", span.trace_id().to_string()),
        ("X-Gsb-Trace-Ns", span.total_ns().to_string()),
    ]
}

/// Write one complete response. Every response closes the connection
/// and carries an exact `Content-Length`; every error/shed status also
/// carries `Retry-After` (clamped to 1–8s), and a degraded-exact answer
/// is marked with `X-Gsb-Degraded: <skipped>`.
fn respond(
    out: &mut impl Write,
    answer: &Answer,
    retry_after_secs: u32,
    extra: &[(&'static str, String)],
) -> std::io::Result<()> {
    gsb_core::failpoint::inject("serve.respond")?;
    let (code, body, degraded, content_type) = answer;
    let mut response = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status(*code).reason,
        body.len()
    );
    if *code >= 400 {
        let secs = retry_after_secs.clamp(1, 8);
        response.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if *degraded > 0 {
        response.push_str(&format!("X-Gsb-Degraded: {degraded}\r\n"));
    }
    for (name, value) in extra {
        response.push_str(&format!("{name}: {value}\r\n"));
    }
    response.push_str("Connection: close\r\n\r\n");
    response.push_str(body);
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// Atomic sibling-tmp write for the metrics file (safe to retry whole).
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Case-insensitive lookup of one request-header value.
pub(crate) fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// A parsed request target.
pub(crate) enum Route {
    /// `/` or `/health` — liveness.
    Health,
    /// `/ready` — readiness: the handler's verdict, 503 while draining
    /// (alive but not ready, so router probes eject it before the drain
    /// sweep sheds).
    Ready,
    /// `/metrics` — Prometheus text exposition.
    Metrics,
    /// `/metrics-json` — the shutdown metrics snapshot, live.
    MetricsJson,
    /// A query the handler answers.
    Query(Query),
    /// Unknown path.
    NotFound,
    /// Non-GET method.
    MethodNotAllowed,
    /// Malformed request line or parameters.
    Bad(&'static str),
}

/// A query route: what a [`Handler`] answers.
pub(crate) enum Query {
    /// `/stats`.
    Stats,
    /// `/get/<id>` — one clique by id (the router's unit of routing).
    Get(u64),
    /// `/max`.
    Max,
    /// `/containing/<v>`.
    Containing(u32),
    /// `/size/<lo>/<hi>`.
    Size(u32, u32),
    /// `/overlap/<v>/<w>`.
    Overlap(u32, u32),
}

impl Route {
    /// The endpoint row this route is counted under.
    pub(crate) fn endpoint(&self) -> &'static Endpoint {
        endpoint(match self {
            Route::Health => "health",
            Route::Ready => "ready",
            Route::Metrics => "metrics",
            Route::MetricsJson => "metrics_json",
            Route::Query(Query::Stats) => "stats",
            Route::Query(Query::Get(_)) => "get",
            Route::Query(Query::Max) => "max",
            Route::Query(Query::Containing(_)) => "containing",
            Route::Query(Query::Size(..)) => "size",
            Route::Query(Query::Overlap(..)) => "overlap",
            Route::NotFound => "not_found",
            Route::MethodNotAllowed | Route::Bad(_) => "bad_request",
        })
    }
}

/// Parse the request line into a route + result limit. Total function:
/// any garbage maps to a typed `Route` variant, never a panic.
pub(crate) fn parse_route(request_line: &str) -> (Route, usize) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return (Route::MethodNotAllowed, 0);
    }
    if target.is_empty() || target.len() > 2048 {
        return (Route::Bad("malformed request target"), 0);
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let limit = parse_limit(query);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let route = match segments.as_slice() {
        [] | ["health"] => Route::Health,
        ["ready"] => Route::Ready,
        ["metrics"] => Route::Metrics,
        ["metrics-json"] => Route::MetricsJson,
        ["stats"] => Route::Query(Query::Stats),
        ["max"] => Route::Query(Query::Max),
        ["get", id] => match id.parse::<u64>() {
            Ok(id) => Route::Query(Query::Get(id)),
            Err(_) => Route::Bad("clique id must be a number"),
        },
        ["containing", v] => match v.parse::<u32>() {
            Ok(v) => Route::Query(Query::Containing(v)),
            Err(_) => Route::Bad("vertex must be a number"),
        },
        ["size", lo, hi] => match (lo.parse::<u32>(), hi.parse::<u32>()) {
            (Ok(lo), Ok(hi)) if lo <= hi => Route::Query(Query::Size(lo, hi)),
            _ => Route::Bad("size range must be /size/<lo>/<hi> with lo <= hi"),
        },
        ["overlap", v, w] => match (v.parse::<u32>(), w.parse::<u32>()) {
            (Ok(v), Ok(w)) => Route::Query(Query::Overlap(v, w)),
            _ => Route::Bad("vertices must be numbers"),
        },
        _ => Route::NotFound,
    };
    (route, limit)
}

/// The `limit=K` query parameter (default 1000).
fn parse_limit(query: &str) -> usize {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("limit=")?.parse().ok())
        .unwrap_or(1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn limit_parsing() {
        assert_eq!(parse_limit(""), 1000);
        assert_eq!(parse_limit("limit=5"), 5);
        assert_eq!(parse_limit("a=1&limit=7"), 7);
        assert_eq!(parse_limit("limit=x"), 1000);
    }

    #[test]
    fn retry_after_scales_with_queue_depth_and_stays_bounded() {
        assert_eq!(retry_after_secs(0, 128), 1);
        assert_eq!(retry_after_secs(64, 128), 4);
        assert_eq!(retry_after_secs(128, 128), 8);
        // depth beyond limit (racy reads) still clamps to the cap
        assert_eq!(retry_after_secs(10_000, 128), 8);
        // a zero limit cannot divide by zero
        assert_eq!(retry_after_secs(5, 0), 8);
    }

    #[test]
    fn status_keys_are_distinct_per_status() {
        let keys: BTreeSet<_> = STATUSES.iter().map(|s| s.key).collect();
        let labels: BTreeSet<_> = STATUSES.iter().map(|s| s.label).collect();
        assert_eq!(keys.len(), STATUSES.len());
        assert_eq!(labels.len(), STATUSES.len());
        assert_eq!(status(418).key, "http.status.other");
        assert_eq!(status(502).key, "http.status.502");
        assert_eq!(status(502).label, "502");
    }

    #[test]
    fn every_status_in_the_table_writes_its_own_status_line() {
        let lines = [
            (200, "HTTP/1.1 200 OK\r\n"),
            (400, "HTTP/1.1 400 Bad Request\r\n"),
            (404, "HTTP/1.1 404 Not Found\r\n"),
            (405, "HTTP/1.1 405 Method Not Allowed\r\n"),
            (408, "HTTP/1.1 408 Request Timeout\r\n"),
            (429, "HTTP/1.1 429 Too Many Requests\r\n"),
            (431, "HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            (500, "HTTP/1.1 500 Internal Server Error\r\n"),
            (502, "HTTP/1.1 502 Bad Gateway\r\n"),
            (503, "HTTP/1.1 503 Service Unavailable\r\n"),
        ];
        assert_eq!(lines.len(), STATUSES.len() - 1, "one line per listed code");
        for (code, line) in lines {
            let mut out = Vec::new();
            respond(&mut out, &json_answer(code, "{}"), 3, &[]).expect("write");
            let text = String::from_utf8(out).expect("utf8");
            assert!(text.starts_with(line), "{code}: {text:?}");
            assert_eq!(text.contains("Retry-After: 3\r\n"), code >= 400, "{text:?}");
            assert!(text.ends_with("Connection: close\r\n\r\n{}"), "{text:?}");
        }
    }

    #[test]
    fn degraded_and_extra_headers_precede_connection_close() {
        let mut out = Vec::new();
        let answer = (200, "[]".to_string(), 2, CONTENT_TYPE_JSON);
        let extra = [("X-Gsb-Trace", "abc".to_string())];
        respond(&mut out, &answer, 1, &extra).expect("write");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nX-Gsb-Degraded: 2\r\nX-Gsb-Trace: abc\r\nConnection: close\r\n\r\n[]"
        );
    }

    /// A handler with no queries and one family of its own.
    struct Probe(AtomicRecorder);

    impl Handler for Probe {
        const PROFILE: Profile = Profile {
            role: "probe",
            bench: "gsb_probe",
            prefix: "gsb_probe",
            health: "{\"status\":\"ok\"}",
            degraded_key: "probe.degraded",
            families: &[Family::new(
                "degraded_total",
                Counter,
                Series::Key("probe.degraded"),
                Some("degraded"),
                "Degraded answers.",
            )],
        };

        fn recorder(&self) -> &AtomicRecorder {
            &self.0
        }

        fn ready(&self, draining: bool) -> (u16, String) {
            (if draining { 503 } else { 200 }, String::new())
        }

        fn answer(&self, _: &Query, _: usize, _: Instant, _: &mut SpanRecorder) -> Answer {
            json_answer(404, "{}")
        }
    }

    fn probe_front() -> Front<Probe> {
        let r = AtomicRecorder::new();
        r.counter(endpoint("containing").requests).add(3);
        r.histogram(endpoint("containing").ns).observe(1500);
        r.counter("http.shed.queue_full").add(2);
        r.counter("http.connections").add(5);
        r.counter("probe.degraded").add(1);
        r.counter("probe.unlisted").add(4);
        Front {
            handler: Arc::new(Probe(r)),
            limits: Limits {
                threads: 1,
                deadline: Duration::from_secs(1),
                request_deadline: Duration::from_secs(1),
                queue_limit: 1,
                max_header_bytes: 1024,
                trace_seed: 1,
                metrics_out: None,
            },
            queue_depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            started: Instant::now()
                .checked_sub(Duration::from_millis(1200))
                .unwrap_or_else(Instant::now),
            trace_ids: Mutex::new(TraceIdGen::seeded(1)),
        }
    }

    #[test]
    fn metrics_json_shape() {
        let json = probe_front().json();
        let parsed = gsb_telemetry::json::parse(&json).expect("valid metrics json");
        assert_eq!(parsed.u64_or_zero("connections"), 5);
        assert_eq!(parsed.u64_or_zero("requests"), 3);
        assert_eq!(parsed.u64_or_zero("shed_total"), 2);
        assert_eq!(parsed.u64_or_zero("degraded"), 1);
        let shed = parsed.get("shed").expect("shed breakdown");
        assert_eq!(shed.u64_or_zero("queue_full"), 2);
        let endpoints = parsed.get("endpoints").expect("endpoints object");
        assert!(endpoints.get("health").is_none(), "idle endpoints omitted");
        let containing = endpoints.get("containing").expect("containing entry");
        assert_eq!(containing.u64_or_zero("requests"), 3);
        assert!(containing.u64_or_zero("p99_ns") >= 1500);
    }

    #[test]
    fn promtext_renders_the_table_and_sweeps_unclaimed_counters() {
        let text = probe_front().promtext();
        for line in [
            "gsb_probe_connections_total 5",
            "gsb_probe_requests_total{endpoint=\"containing\"} 3",
            "gsb_probe_request_duration_ns_count{endpoint=\"containing\"} 1",
            "gsb_probe_shed_total{cause=\"queue_full\"} 2",
            "gsb_probe_responses_total{status=\"502\"} 0",
            "gsb_probe_responses_total{status=\"other\"} 0",
            "gsb_probe_degraded_total 1",
            "gsb_probe_unlisted 4",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
        assert!(text.contains("# TYPE gsb_uptime_seconds gauge"));
        // a claimed counter is never swept up a second time
        assert!(!text.contains("gsb_http_connections"), "{text}");
    }
}
