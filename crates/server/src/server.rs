//! The daemon proper: admission control, the keep-alive connection
//! loop, request routing, and the schedule-request pipeline glue.
//!
//! ## Connection lifecycle (DESIGN.md §16)
//!
//! The accept loop (single thread, non-blocking `accept` + short
//! sleep so the drain flag is polled) is also the **admission
//! controller**: at most `max_inflight + queue_depth` connections may
//! be admitted at once. An admitted socket is handed to a
//! [`TaskPool`] worker; past the ceiling the socket is diverted to a
//! small shed pool that reads the request and answers `429 Too Many
//! Requests` with a `Retry-After` header — never a silent reset. If
//! even the shed pool is saturated the connection is dropped and
//! counted; that is the only path that does not answer.
//!
//! A worker runs the **keep-alive loop**: requests are served off one
//! connection until the peer closes, `Connection: close` is
//! negotiated, the per-connection request cap is reached, or the
//! server starts draining. A connection that goes quiet mid-request
//! gets `408`; one that goes idle between requests is closed
//! silently.
//!
//! Each `POST /schedule`:
//!
//! 1. parses the HTTP frame and the PASDL body;
//! 2. derives the request's two cache keys (canonical text, graph
//!    with the envelope erased — see [`crate::cache`]);
//! 3. serves from the exact cache, from the session repertoire
//!    (§5.3), by re-running the pipeline through the session's warm
//!    incremental engine (a repertoire *miss* on a known graph), or
//!    by a cold pipeline run;
//! 4. folds the recorded events into the shared
//!    [`MetricsRegistry`] (atomically, request-at-a-time, so
//!    concurrent requests never interleave inside one registry
//!    fold), appends the JSONL audit trail, stores the Chrome trace
//!    for `/trace/<id>`, and updates the sliding-window metrics.
//!
//! ## Shutdown ordering
//!
//! SIGTERM (or `POST /shutdown`) sets a flag; the accept loop stops
//! admitting and enters the **drain phase**: the listener stays open
//! answering `503` + `Retry-After` (again, never a reset) until the
//! pool has finished every admitted request (bounded by a drain
//! deadline), then the pool drains and `run` returns a final
//! [`ServerReport`]. Nothing admitted is dropped mid-request.

use std::fmt::Write;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pas_core::{json, PowerConstraints, Problem};
use pas_obs::{
    HighWater, JsonlWriter, MetricsRegistry, Observer, RecordingObserver, SharedObserver,
    StageKind, StageProfiler, Tee, TraceEvent,
};
use pas_par::{TaskPool, TaskPoolStats};
use pas_sched::{PowerAwareScheduler, ScheduleRepertoire, SchedulerConfig, SessionContext};
use pas_spec::{parse_problem, print_schedule, write_problem};

use crate::cache::{ExactEntry, Fnv1a, ResponseCache};
use crate::http::{ConnLimits, HttpConn, ReadOutcome, Request, Response};
use crate::metrics::{stage_index, ServerGauges, ServerMetrics, SlowEntry};
use crate::signal;

/// Response/schema version tag reported by `/buildinfo` and embedded
/// in every JSON schedule response.
pub const SCHEMA: &str = "pas-server/v1";

/// Workers in the shed pool — enough to keep polite rejections
/// flowing while the main pool is saturated, cheap enough to always
/// run.
const SHED_WORKERS: usize = 2;

/// Most connections the shed pool will hold; past this the socket is
/// dropped unanswered (and counted) rather than queued forever.
const SHED_BACKLOG_CAP: usize = 512;

/// Hard ceiling on the drain phase: after this the listener closes
/// even if workers are still busy (the pool drain below still waits
/// for them).
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Daemon configuration. `Default` is suitable for local use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7171`. Port `0` picks a free
    /// port (the bound address is available from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Pool workers; `0` means one per available core.
    pub workers: usize,
    /// Sliding-window width for rates and quantiles, seconds.
    pub window_secs: u64,
    /// Requests at or above this end-to-end latency (milliseconds)
    /// enter the slow-request log.
    pub slow_ms: u64,
    /// When set, every schedule request writes `<trace-id>.pasdl` +
    /// `<trace-id>.jsonl` here for offline bit-exact replay.
    pub audit_dir: Option<PathBuf>,
    /// Most concurrent sessions (distinct constraint graphs) cached.
    pub session_cap: usize,
    /// Most Chrome traces retained for `/trace/<id>`.
    pub trace_cap: usize,
    /// Most connections being served at once; `0` means one per pool
    /// worker. The admission ceiling is `max_inflight + queue_depth`.
    pub max_inflight: usize,
    /// Most admitted connections allowed to wait for a worker.
    pub queue_depth: usize,
    /// Serve multiple requests per connection (HTTP/1.1 keep-alive).
    pub keep_alive: bool,
    /// Most requests served on one connection before the server
    /// closes it (`Connection: close` on the last response).
    pub keep_alive_requests: u64,
    /// Budget for reading one request once its first byte arrived,
    /// milliseconds; expiry answers `408`.
    pub header_timeout_ms: u64,
    /// How long a kept-alive connection may sit idle between
    /// requests, milliseconds; expiry closes it silently.
    pub idle_timeout_ms: u64,
    /// `Retry-After` value (seconds) on `429`/`503` sheds.
    pub retry_after_s: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 0,
            window_secs: 60,
            slow_ms: 250,
            audit_dir: None,
            session_cap: 256,
            trace_cap: 256,
            max_inflight: 0,
            queue_depth: 64,
            keep_alive: true,
            keep_alive_requests: 1000,
            header_timeout_ms: 5_000,
            idle_timeout_ms: 5_000,
            retry_after_s: 1,
        }
    }
}

struct TraceStore {
    cap: usize,
    order: Vec<String>,
    traces: std::collections::HashMap<String, String>,
}

impl TraceStore {
    fn insert(&mut self, trace_id: String, chrome: String) {
        if self.traces.insert(trace_id.clone(), chrome).is_none() {
            self.order.push(trace_id);
        }
        while self.order.len() > self.cap {
            let oldest = self.order.remove(0);
            self.traces.remove(&oldest);
        }
    }
}

struct Shared {
    config: ServerConfig,
    start: Instant,
    metrics: ServerMetrics,
    cache: Mutex<ResponseCache>,
    traces: Mutex<TraceStore>,
    registry: SharedObserver<MetricsRegistry>,
    pool_stats: Mutex<TaskPoolStats>,
    shutdown: AtomicBool,
    inflight: AtomicU64,
    /// Connections admitted and not yet finished (inflight + queued).
    admitted: AtomicU64,
    admitted_high_water: HighWater,
    /// The admission ceiling: `max_inflight + queue_depth`, resolved.
    capacity: u64,
    seq: AtomicU64,
    conn_limits: ConnLimits,
}

impl Shared {
    fn now_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::signaled()
    }
}

/// A lightweight remote control for a running [`Server`]: lets tests
/// and the CLI trigger the drain without going through a socket.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the graceful drain, as if SIGTERM had arrived.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// `true` once the drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }
}

/// Final accounting returned by [`Server::run`] after the drain.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests handled over the server lifetime.
    pub requests: u64,
    /// Jobs the pool executed (should equal admitted connections).
    pub pool_jobs: u64,
    /// Requests whose handler panicked (contained by the pool).
    pub panicked: u64,
    /// Connections shed by admission control (answered 429/503 or
    /// dropped at the shed-backlog cap).
    pub sheds: u64,
    /// Total uptime in seconds.
    pub uptime_s: u64,
}

/// The scheduling daemon. See DESIGN.md §16 for the connection
/// lifecycle and [`ServerConfig`] for the knobs.
pub struct Server {
    listener: TcpListener,
    pool: TaskPool,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket and spawns the worker pool. The server
    /// does not accept connections until [`run`](Server::run).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
        } else {
            config.workers
        };
        if let Some(dir) = &config.audit_dir {
            fs::create_dir_all(dir)?;
        }
        let max_inflight = if config.max_inflight == 0 {
            workers
        } else {
            config.max_inflight
        };
        let capacity = (max_inflight + config.queue_depth) as u64;
        let conn_limits = ConnLimits {
            header_timeout: Duration::from_millis(config.header_timeout_ms.max(1)),
            idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
        };
        let pool = TaskPool::new(workers);
        let shared = Arc::new(Shared {
            metrics: ServerMetrics::new(config.window_secs),
            cache: Mutex::new(ResponseCache::new(config.session_cap)),
            traces: Mutex::new(TraceStore {
                cap: config.trace_cap.max(1),
                order: Vec::new(),
                traces: std::collections::HashMap::new(),
            }),
            registry: SharedObserver::new(MetricsRegistry::new()),
            pool_stats: Mutex::new(pool.stats()),
            shutdown: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            admitted_high_water: HighWater::new(),
            capacity,
            seq: AtomicU64::new(0),
            start: Instant::now(),
            conn_limits,
            config,
        });
        Ok(Server {
            listener,
            pool,
            shared,
        })
    }

    /// The bound listen address (useful with port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.listener.local_addr()?,
        })
    }

    /// Accepts and serves requests until the drain flag flips, then
    /// answers `503` while admitted work finishes, drains the pool,
    /// and returns the final report.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            pool,
            shared,
        } = self;
        let shed_pool = TaskPool::new(SHED_WORKERS);
        loop {
            if shared.draining() {
                break;
            }
            // Refresh the pool-stats snapshot the metrics endpoints
            // read; the handler threads cannot reach the pool itself.
            *shared.pool_stats.lock().unwrap_or_else(|e| e.into_inner()) = pool.stats();
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.metrics.on_connection(shared.now_s());
                    // fetch_add + undo on refusal: workers decrement
                    // concurrently, so a load/store pair could lose
                    // their update and leak the counter upward.
                    let admitted = shared.admitted.fetch_add(1, Ordering::Relaxed);
                    if admitted >= shared.capacity {
                        shared.admitted.fetch_sub(1, Ordering::Relaxed);
                        shed(&shed_pool, stream, &shared, "capacity", 429);
                        continue;
                    }
                    shared.admitted_high_water.observe(admitted + 1);
                    let shared = Arc::clone(&shared);
                    let accepted_at = Instant::now();
                    pool.submit(move || {
                        // Queue wait: accept to worker pickup. This is
                        // the latency admission control bounds.
                        record_stage_us(&shared, "queue", accepted_at.elapsed(), shared.now_s());
                        shared.inflight.fetch_add(1, Ordering::Relaxed);
                        handle_connection(stream, &shared);
                        shared.inflight.fetch_sub(1, Ordering::Relaxed);
                        shared.admitted.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The poll interval is the floor on connection
                    // latency, so keep it well under a cache hit's
                    // budget; 1 ms of idle wakeups is still noise.
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain phase: the listener stays open answering 503 (never a
        // reset) until every admitted connection has finished, bounded
        // by the drain deadline.
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while shared.admitted.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            *shared.pool_stats.lock().unwrap_or_else(|e| e.into_inner()) = pool.stats();
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.metrics.on_connection(shared.now_s());
                    shed(&shed_pool, stream, &shared, "draining", 503);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        drop(listener);
        // Every admitted request finishes (and flushes its audit
        // trail) before the pools are torn down.
        pool.drain();
        shed_pool.drain();
        let stats = pool.stats();
        pool.shutdown();
        shed_pool.shutdown();
        Ok(ServerReport {
            requests: shared.metrics.requests_total(),
            pool_jobs: stats.completed,
            panicked: stats.panicked,
            sheds: shared.metrics.sheds_total(),
            uptime_s: shared.now_s(),
        })
    }
}

/// Politely rejects a connection the admission controller refused:
/// reads the request off the socket first (so the peer never sees a
/// reset while still writing), then answers `status` with
/// `Retry-After`. Runs on the shed pool; past [`SHED_BACKLOG_CAP`]
/// the socket is dropped unanswered instead — the one impolite path,
/// taken only when even rejections cannot keep up.
fn shed(
    shed_pool: &TaskPool,
    stream: TcpStream,
    shared: &Arc<Shared>,
    reason: &'static str,
    status: u16,
) {
    let now_s = shared.now_s();
    shared.metrics.on_shed(reason, now_s);
    if shed_pool.stats().pending >= SHED_BACKLOG_CAP {
        shared.metrics.on_shed("dropped", now_s);
        return;
    }
    let shared = Arc::clone(shared);
    shed_pool.submit(move || {
        let mut conn = HttpConn::new(stream);
        // Bound the read so a slowloris cannot pin a shed worker; any
        // outcome gets the same rejection.
        let limits = ConnLimits {
            header_timeout: shared.conn_limits.header_timeout,
            idle_timeout: shared.conn_limits.header_timeout,
        };
        match conn.read_request(&limits, true) {
            ReadOutcome::Closed => return,
            ReadOutcome::Request(_) | ReadOutcome::TimedOut | ReadOutcome::Malformed { .. } => {}
        }
        let message = match status {
            429 => "admission queue full, retry shortly",
            _ => "draining, retry against the replacement instance",
        };
        let response = error_response(status, message)
            .with_header("Retry-After", shared.config.retry_after_s.to_string());
        shared.metrics.on_response(status);
        let _ = conn.write_response(&response, true);
    });
}

/// Serves requests off one admitted connection until it closes:
/// keep-alive negotiation per request, `408` for stalls, a silent
/// close for idle peers, `Connection: close` once the per-connection
/// cap is reached or the drain starts.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut conn = HttpConn::new(stream);
    let mut served: u64 = 0;
    loop {
        match conn.read_request(&shared.conn_limits, served == 0) {
            ReadOutcome::Request(request) => {
                let now_s = shared.now_s();
                shared.metrics.on_request(now_s);
                if served > 0 {
                    shared.metrics.on_keepalive_reuse();
                }
                served += 1;
                let response = route(&request, shared);
                let close = !shared.config.keep_alive
                    || !request.wants_keep_alive()
                    || served >= shared.config.keep_alive_requests.max(1)
                    || shared.draining();
                shared.metrics.on_response(response.status);
                if conn.write_response(&response, close).is_err() || close {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                shared.metrics.on_request(shared.now_s());
                shared.metrics.on_response(408);
                let _ = conn
                    .write_response(&error_response(408, "timed out reading the request"), true);
                return;
            }
            ReadOutcome::Malformed { status, msg } => {
                shared.metrics.on_request(shared.now_s());
                shared.metrics.on_response(status);
                let _ = conn.write_response(&error_response(status, &msg), true);
                return;
            }
        }
    }
}

fn error_response(status: u16, message: &str) -> Response {
    let mut body = String::from("{\"error\":\"");
    json::push_escaped(&mut body, message);
    body.push_str("\"}\n");
    Response::json(status, body)
}

fn route(request: &Request, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/schedule") => handle_schedule(request, shared),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/buildinfo") => handle_buildinfo(shared),
        ("GET", "/slowlog") => handle_slowlog(shared),
        ("GET", path) if path.starts_with("/trace/") => {
            handle_trace(path.trim_start_matches("/trace/"), shared)
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::Relaxed);
            Response::json(200, "{\"status\":\"draining\"}\n".to_string())
        }
        (_, "/schedule" | "/shutdown") => error_response(405, "use POST"),
        (_, path) => error_response(404, &format!("no route for {path}")),
    }
}

fn handle_metrics(shared: &Shared) -> Response {
    let (cache_counters, sessions, cached_responses) = {
        let cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        (cache.counters(), cache.sessions_len(), cache.exact_len())
    };
    let pool = shared
        .pool_stats
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let gauges = ServerGauges {
        cache: cache_counters,
        sessions,
        cached_responses,
        inflight: shared.inflight.load(Ordering::Relaxed),
        admission_capacity: shared.capacity,
        admitted: shared.admitted.load(Ordering::Relaxed),
        admitted_high_water: shared.admitted_high_water.get(),
        queue_depth: pool.pending as u64,
        queue_high_water: pool.queue_high_water as u64,
        workers: pool.workers,
        workers_busy: pool.busy,
        worker_utilization: pool.utilization(),
        per_worker_jobs: pool.per_worker_items,
    };
    let mut text = shared.metrics.render_prometheus(shared.now_s(), &gauges);
    // Pipeline-event families (pas_events_total, decision histograms)
    // from the shared registry, appended after the pas_server_*
    // families. Names are disjoint by prefix, so the concatenation is
    // itself a valid exposition document.
    text.push_str(
        &shared
            .registry
            .with(|registry| registry.render_prometheus()),
    );
    Response::text(200, text)
}

fn handle_healthz(shared: &Shared) -> Response {
    let status = if shared.draining() { "draining" } else { "ok" };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"uptime_s\":{},\"inflight\":{},\"admitted\":{},\"capacity\":{},\"requests_total\":{}}}\n",
            shared.now_s(),
            shared.inflight.load(Ordering::Relaxed),
            shared.admitted.load(Ordering::Relaxed),
            shared.capacity,
            shared.metrics.requests_total(),
        ),
    )
}

fn handle_buildinfo(shared: &Shared) -> Response {
    Response::json(
        200,
        format!(
            concat!(
                "{{\"service\":\"pas-server\",\"version\":\"{}\",\"schema\":\"{}\",",
                "\"msrv\":\"1.74\",\"host_cores\":{},\"pid\":{},\"window_secs\":{},",
                "\"workers\":{},\"admission_capacity\":{},\"keep_alive\":{}}}\n"
            ),
            env!("CARGO_PKG_VERSION"),
            SCHEMA,
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
            std::process::id(),
            shared.config.window_secs,
            shared
                .pool_stats
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .workers,
            shared.capacity,
            shared.config.keep_alive,
        ),
    )
}

fn handle_slowlog(shared: &Shared) -> Response {
    let entries = shared.metrics.slow_entries();
    let mut body = String::from("{\"slow\":[");
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"trace_id\":\"");
        json::push_escaped(&mut body, &entry.trace_id);
        body.push_str("\",\"model\":\"");
        json::push_escaped(&mut body, &entry.model);
        let _ = write!(
            body,
            "\",\"total_us\":{},\"served\":\"{}\",\"at_s\":{}}}",
            entry.total_us, entry.served, entry.at_s,
        );
    }
    body.push_str("]}\n");
    Response::json(200, body)
}

fn handle_trace(trace_id: &str, shared: &Shared) -> Response {
    let traces = shared.traces.lock().unwrap_or_else(|e| e.into_inner());
    match traces.traces.get(trace_id) {
        Some(chrome) => Response::json(200, chrome.clone()),
        None => error_response(404, &format!("unknown trace id {trace_id}")),
    }
}

/// How a schedule response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Fresh,
    /// A repertoire miss on a known graph, recomputed through the
    /// session's warm incremental engine. Same bytes as `Fresh` — the
    /// engine's journal validation plus distance uniqueness guarantee
    /// it — just cheaper.
    SessionIncremental,
    CacheExact,
    CacheRegion,
}

impl Served {
    fn as_str(self) -> &'static str {
        match self {
            Served::Fresh => "fresh",
            Served::SessionIncremental => "fresh-incremental",
            Served::CacheExact => "cache-exact",
            Served::CacheRegion => "cache-region",
        }
    }
}

/// FNV-1a 64 of `print_problem(problem)`, hashed as it is printed.
fn canonical_key(problem: &Problem) -> u64 {
    let mut hash = Fnv1a::default();
    // Writing into the hash cannot fail.
    let _ = write_problem(&mut hash, problem, None);
    hash.finish()
}

fn handle_schedule(request: &Request, shared: &Shared) -> Response {
    let t_total = Instant::now();
    let now_s = shared.now_s();
    shared.metrics.on_schedule(now_s);

    let want_pasdl = request.query_param("format") == Some("pasdl");
    let cache_enabled = request.query_param("cache") != Some("off");

    // ---- parse ------------------------------------------------------
    let t_parse = Instant::now();
    let source = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let mut problem = match parse_problem(source) {
        Ok(problem) => problem,
        Err(e) => {
            record_stage_us(shared, "parse", t_parse.elapsed(), now_s);
            return error_response(400, &format!("parse error: {e}"));
        }
    };
    record_stage_us(shared, "parse", t_parse.elapsed(), now_s);

    // Cache keys from the canonical text, streamed into the hash: the
    // exact key sees the full problem, the graph key sees it with the
    // envelope erased for the duration of its print.
    let exact_key = canonical_key(&problem);
    let envelope = problem.constraints();
    problem.set_constraints(PowerConstraints::unconstrained());
    let graph_key = canonical_key(&problem);
    problem.set_constraints(envelope);
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let trace_id = format!("r{seq:06}-{:08x}", (exact_key >> 32) as u32);
    let model = problem.name().to_string();

    // ---- cache lookups ---------------------------------------------
    // On a repertoire miss for a graph we have a session for, check
    // the session's incremental engine out (exclusively) so the
    // pipeline below starts from its warm longest-path state.
    let mut session_ctx: Option<SessionContext> = None;
    if cache_enabled {
        let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = cache.exact_hit(exact_key) {
            drop(cache);
            return finish_schedule_response(
                shared,
                FinishArgs {
                    trace_id,
                    model,
                    served: Served::CacheExact,
                    pasdl: entry.pasdl,
                    result_json: entry.result_json,
                    want_pasdl,
                    t_total,
                    now_s,
                },
            );
        }
        let p_max = problem.constraints().p_max();
        let p_min = problem.constraints().p_min();
        let mut served = None;
        if let Some(session) = cache.session_mut(graph_key) {
            if let Some(entry) = session.repertoire.select(p_max, p_min) {
                let pasdl = print_schedule(&format!("{model}-min"), &problem, entry.schedule());
                let region = entry.region();
                let mut result_json = format!(
                    concat!(
                        "\"valid\":true,\"finish_time_s\":{},\"peak_power_mw\":{},",
                        "\"energy_cost_mj\":{},\"utilization\":{:.6},",
                        "\"region\":{{\"min_p_max_mw\":{},\"gap_free_p_min_mw\":{}}},",
                        "\"repertoire_entry\":\""
                    ),
                    entry.finish_time().as_secs(),
                    region.min_p_max.as_milliwatts(),
                    entry.energy_cost_at(p_min).as_millijoules(),
                    entry.utilization_at(p_min).to_f64(),
                    region.min_p_max.as_milliwatts(),
                    region.gap_free_p_min.as_milliwatts(),
                );
                json::push_escaped(&mut result_json, entry.name());
                result_json.push('"');
                served = Some((pasdl, result_json));
            }
        }
        if let Some((pasdl, result_json)) = served {
            cache.count_region_hit(graph_key);
            drop(cache);
            return finish_schedule_response(
                shared,
                FinishArgs {
                    trace_id,
                    model,
                    served: Served::CacheRegion,
                    pasdl,
                    result_json,
                    want_pasdl,
                    t_total,
                    now_s,
                },
            );
        }
        cache.count_miss();
        session_ctx = cache.take_session_ctx(graph_key);
    }

    // ---- fresh pipeline run ----------------------------------------
    // With a checked-out session engine this is the incremental
    // serving path: same pipeline, same bytes, warm longest paths.
    let mut profiler = StageProfiler::new();
    let mut recording = RecordingObserver::with_capacity(1 << 20);
    let outcome = {
        let mut tee = Tee(&mut profiler, &mut recording);
        let scheduler = PowerAwareScheduler::new(SchedulerConfig::default());
        match session_ctx.as_mut() {
            Some(ctx) => scheduler.schedule_session_with(&mut problem, ctx, &mut tee),
            None => scheduler.schedule_with(&mut problem, &mut tee),
        }
    };
    let served_kind = if session_ctx.is_some() {
        Served::SessionIncremental
    } else {
        Served::Fresh
    };
    if let Some(ctx) = session_ctx.take() {
        let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.put_session_ctx(graph_key, ctx);
        cache.count_incremental();
    }

    // Fold this request's events into the shared registry atomically
    // (request-at-a-time) so concurrent requests cannot interleave
    // stage markers inside one registry. Stage wall-clock lives in
    // the pas_server_stage_* histograms, measured by the per-request
    // profiler, so the markers themselves are skipped.
    shared.registry.with(|registry| {
        for event in recording.events() {
            if !matches!(
                event,
                TraceEvent::StageStarted { .. } | TraceEvent::StageFinished { .. }
            ) {
                registry.on_event(event);
            }
        }
    });

    // Per-stage wall clock from the profiler, into the windowed
    // histograms feeding /metrics and `top`.
    for (kind, stage) in [
        (StageKind::Lint, "lint"),
        (StageKind::Timing, "timing"),
        (StageKind::MaxPower, "max_power"),
        (StageKind::MinPower, "min_power"),
    ] {
        record_stage_us(shared, stage, profiler.profile(kind).wall, now_s);
    }

    // Audit trail: the problem as received plus the full event
    // stream, replayable bit-exact by pas-replay.
    if let Some(dir) = &shared.config.audit_dir {
        let _ = fs::write(dir.join(format!("{trace_id}.pasdl")), source);
        if let Ok(mut writer) = JsonlWriter::create(dir.join(format!("{trace_id}.jsonl"))) {
            for event in recording.events() {
                writer.on_event(event);
            }
            let _ = writer.finish();
        }
    }

    // Chrome trace for /trace/<id>.
    shared
        .traces
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(trace_id.clone(), profiler.chrome_trace());

    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            record_stage_us(shared, "total", t_total.elapsed(), now_s);
            return error_response(422, &format!("schedule failed: {e}"))
                .with_header("X-Pas-Trace-Id", trace_id);
        }
    };

    // ---- render -----------------------------------------------------
    let t_render = Instant::now();
    let pasdl = print_schedule(&format!("{model}-min"), &problem, &outcome.schedule);
    let analysis = &outcome.analysis;
    let region = pas_sched::ValidityRegion::of(
        problem.graph(),
        &outcome.schedule,
        problem.background_power(),
    );
    let result_json = format!(
        concat!(
            "\"valid\":{},\"finish_time_s\":{},\"peak_power_mw\":{},",
            "\"total_energy_mj\":{},\"energy_cost_mj\":{},\"free_energy_mj\":{},",
            "\"utilization\":{:.6},\"spikes\":{},\"gaps\":{},",
            "\"region\":{{\"min_p_max_mw\":{},\"gap_free_p_min_mw\":{}}},",
            "\"stats\":{{\"serializations\":{},\"timing_backtracks\":{},",
            "\"spike_delays\":{},\"min_power_moves\":{}}}"
        ),
        analysis.is_valid(),
        analysis.finish_time.as_secs(),
        analysis.peak_power.as_milliwatts(),
        analysis.total_energy.as_millijoules(),
        analysis.energy_cost.as_millijoules(),
        analysis.free_energy_used.as_millijoules(),
        analysis.utilization.to_f64(),
        analysis.spikes.len(),
        analysis.gaps.len(),
        region.min_p_max.as_milliwatts(),
        region.gap_free_p_min.as_milliwatts(),
        outcome.stats.serializations,
        outcome.stats.timing_backtracks,
        outcome.stats.spike_delays,
        outcome.stats.min_power_moves,
    );
    record_stage_us(shared, "render", t_render.elapsed(), now_s);

    if cache_enabled {
        let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        let graph = problem.graph();
        let background = problem.background_power();
        let schedule = outcome.schedule.clone();
        let entry_name = trace_id.clone();
        cache.insert(
            exact_key,
            graph_key,
            &model,
            ExactEntry {
                pasdl: pasdl.clone(),
                result_json: result_json.clone(),
            },
            move |repertoire: &mut ScheduleRepertoire| {
                repertoire.insert(entry_name, graph, schedule, background);
            },
        );
    }

    finish_schedule_response(
        shared,
        FinishArgs {
            trace_id,
            model,
            served: served_kind,
            pasdl,
            result_json,
            want_pasdl,
            t_total,
            now_s,
        },
    )
}

struct FinishArgs {
    trace_id: String,
    model: String,
    served: Served,
    pasdl: String,
    result_json: String,
    want_pasdl: bool,
    t_total: Instant,
    now_s: u64,
}

fn finish_schedule_response(shared: &Shared, args: FinishArgs) -> Response {
    let total = args.t_total.elapsed();
    record_stage_us(shared, "total", total, args.now_s);
    let total_us = total.as_micros().min(u128::from(u64::MAX)) as u64;
    if total_us >= shared.config.slow_ms.saturating_mul(1000) {
        shared.metrics.record_slow(SlowEntry {
            trace_id: args.trace_id.clone(),
            model: args.model.clone(),
            total_us,
            served: args.served.as_str(),
            at_s: args.now_s,
        });
    }
    let response = if args.want_pasdl {
        Response::text(200, args.pasdl)
    } else {
        let mut body = format!(
            "{{\"schema\":\"{SCHEMA}\",\"trace_id\":\"{}\",\"model\":\"",
            args.trace_id
        );
        json::push_escaped(&mut body, &args.model);
        let _ = write!(
            body,
            "\",\"served\":\"{}\",{},\"total_us\":{total_us},\"schedule\":\"",
            args.served.as_str(),
            args.result_json,
        );
        json::push_escaped(&mut body, &args.pasdl);
        body.push_str("\"}\n");
        Response::json(200, body)
    };
    response
        .with_header("X-Pas-Trace-Id", args.trace_id)
        .with_header("X-Pas-Served", args.served.as_str())
}

fn record_stage_us(shared: &Shared, stage: &str, wall: Duration, now_s: u64) {
    if let Some(idx) = stage_index(stage) {
        let micros = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        shared.metrics.record_stage(idx, micros, now_s);
    }
}
