//! Accept loop, connection workers, endpoint routing, and drain.
//!
//! Thread layout: the caller's thread runs the accept loop; `threads`
//! workers each handle one connection at a time (keep-alive); one
//! batcher thread scores against the shared model, and the degradation
//! ladder's first escalation starts one builder thread beside it
//! (see [`batcher`]). Connections hand off
//! through a bounded channel, queries through the bounded
//! [`batcher::Queue`] — every stage sheds instead of queueing
//! unboundedly.
//!
//! Endpoints:
//!
//! | route          | behavior                                        |
//! |----------------|-------------------------------------------------|
//! | `GET /query`   | `?q=` text, `&top=` count, `&timeout_ms=` cap   |
//! | `POST /query`  | JSON `{"q": ..., "top": ..., "timeout_ms": ...}`|
//! | `GET /healthz` | liveness: 200 while the process serves          |
//! | `GET /readyz`  | readiness: 503 once draining                    |
//! | `GET /stats`   | JSON counters (requests, shed, timeouts, …)     |

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use lsi_core::{LsiModel, RankedList};
use lsi_obs::{Histogram, Json, RunReport};

use crate::batcher::{self, Job, Queue};
use crate::http::{self, HttpError, ReadOutcome, Request, Response};

/// Server tuning knobs. Defaults favor a small-footprint daemon; the
/// CLI exposes the load-bearing ones.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1` unless told otherwise — this daemon
    /// has no auth, so binding wide is an explicit operator choice).
    pub addr: String,
    /// Bind port; 0 picks an ephemeral port (see [`Server::local_addr`]).
    pub port: u16,
    /// Connection-worker count.
    pub threads: usize,
    /// Scoring-queue bound; queries past it shed with 503.
    pub queue_depth: usize,
    /// Max queries coalesced into one scoring batch.
    pub max_batch: usize,
    /// Deadline applied when a request names none.
    pub default_timeout_ms: u64,
    /// Hard cap on client-requested deadlines.
    pub max_timeout_ms: u64,
    /// Cumulative idle budget while reading one request.
    pub read_timeout_ms: u64,
    /// Whether the batcher walks the degradation ladder under load.
    pub degrade: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1".to_string(),
            port: 0,
            threads: 4,
            queue_depth: 64,
            max_batch: 32,
            default_timeout_ms: 2_000,
            max_timeout_ms: 30_000,
            read_timeout_ms: 5_000,
            degrade: true,
        }
    }
}

/// Monotonic serving counters, independent of whether the metrics
/// registry is enabled (they feed `/stats` and the final report).
/// All accesses are Relaxed: each counter is a standalone tally read
/// for reporting; no ordering with other memory is implied.
#[derive(Debug, Default)]
pub struct Stats {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub queries: AtomicU64,
    pub shed: AtomicU64,
    pub timeouts: AtomicU64,
    pub parse_errors: AtomicU64,
    pub panics: AtomicU64,
    pub accept_drops: AtomicU64,
    pub batches: AtomicU64,
    pub batched_queries: AtomicU64,
    pub max_batch_seen: AtomicU64,
    /// The ladder level whose plan the last batch ran.
    pub degrade_level: AtomicU64,
    /// Whether the ladder's rung artifacts are built (levels 1–3 run
    /// level 0's plan until they are).
    pub ladder_ready: AtomicBool,
    /// Wall time of the rung build in microseconds; 0 until it is done.
    pub ladder_build_us: AtomicU64,
    /// End-to-end `/query` latency in microseconds for queries that
    /// entered the scoring queue (including timeouts; shed requests
    /// never wait and are excluded), log-bucketed so `/stats` can
    /// report p50/p90/p99 without sample storage.
    pub latency_us: Histogram,
}

impl Stats {
    pub(crate) fn add_timeout(&self) {
        // Relaxed: monitoring counter; no ordering with other state.
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_panic(&self) {
        // Relaxed: monitoring counter; no ordering with other state.
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: u64, level: u8) {
        // Relaxed: monitoring counters; readers only need eventual
        // values, never an ordering between them.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries.fetch_add(size, Ordering::Relaxed);
        self.max_batch_seen.fetch_max(size, Ordering::Relaxed);
        // Relaxed: monitoring gauge, same as the counters above.
        self.degrade_level.store(level as u64, Ordering::Relaxed);
    }

    pub(crate) fn set_ladder_built(&self, took: Duration) {
        // Relaxed: monitoring values; the batcher installs the rungs
        // it joined, not anything published through these stores.
        self.ladder_build_us.store(took.as_micros() as u64, Ordering::Relaxed);
        self.ladder_ready.store(true, Ordering::Relaxed);
    }

    fn latency_json(&self) -> Json {
        let snap = self.latency_us.snapshot();
        Json::obj(vec![
            ("count", Json::Num(snap.count as f64)),
            ("p50", Json::Num(snap.p50)),
            ("p90", Json::Num(snap.p90)),
            ("p99", Json::Num(snap.p99)),
            ("max", Json::Num(snap.max)),
        ])
    }

    fn to_json(&self, backlog: usize, draining: bool) -> Json {
        Json::obj(vec![
            ("connections", num(&self.connections)),
            ("requests", num(&self.requests)),
            ("queries", num(&self.queries)),
            ("shed", num(&self.shed)),
            ("timeouts", num(&self.timeouts)),
            ("parse_errors", num(&self.parse_errors)),
            ("panics", num(&self.panics)),
            ("accept_drops", num(&self.accept_drops)),
            ("batches", num(&self.batches)),
            ("batched_queries", num(&self.batched_queries)),
            ("max_batch_seen", num(&self.max_batch_seen)),
            ("degrade_level", num(&self.degrade_level)),
            // Relaxed: monitoring snapshot, like `num`.
            ("ladder_ready", Json::Bool(self.ladder_ready.load(Ordering::Relaxed))),
            (
                "ladder_build_ms",
                // Relaxed: monitoring snapshot, like `num`.
                Json::Num(self.ladder_build_us.load(Ordering::Relaxed) as f64 / 1e3),
            ),
            ("queue_depth", Json::Num(backlog as f64)),
            ("draining", Json::Bool(draining)),
            ("latency_us", self.latency_json()),
        ])
    }
}

fn num(a: &AtomicU64) -> Json {
    // Relaxed: monitoring snapshot; tearing across counters is fine.
    Json::Num(a.load(Ordering::Relaxed) as f64)
}

/// Per-process request-id sequence (`r<pid>-<seq>`), echoed in
/// `X-Request-Id` and threaded into the query log's `trace_id`.
/// Relaxed: ids only need uniqueness.
static REQ_SEQ: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> String {
    format!(
        "r{}-{}",
        std::process::id(),
        // Relaxed: uniqueness comes from fetch_add itself.
        REQ_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Extra slack past a request's deadline before the handler gives up
/// waiting on the batcher, covering reply-channel scheduling jitter.
const REPLY_SLACK: Duration = Duration::from_millis(50);

/// Accept→worker handoff bound; connections past it shed with 503.
const ACCEPT_DEPTH: usize = 128;

/// Socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_millis(5_000);

/// Result count when a request names none.
const DEFAULT_TOP: usize = 10;

/// Requests served per connection before forcing a close.
const KEEP_ALIVE_MAX: usize = 10_000;

/// Advisory `Retry-After` (seconds) on shed responses.
const RETRY_AFTER_SECS: u32 = 1;

/// A bound listener, ready to serve one model.
pub struct Server {
    listener: TcpListener,
    local: SocketAddr,
    cfg: ServeConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<Stats>,
}

impl Server {
    /// Bind the configured address (port 0 = ephemeral).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((cfg.addr.as_str(), cfg.port))?;
        let local = listener.local_addr()?;
        Ok(Server {
            listener,
            local,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(Stats::default()),
        })
    }

    /// The actually-bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Handle that stops this server (tests, embedders). The process
    /// signal flag ([`crate::request_stop`]) is honored as well.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Shared counters, live while the server runs.
    pub fn stats(&self) -> Arc<Stats> {
        Arc::clone(&self.stats)
    }

    /// Serve until stopped, then drain and report. Blocks the calling
    /// thread (it becomes the accept loop).
    pub fn run(self, model: LsiModel) -> RunReport {
        let Server {
            listener,
            local,
            cfg,
            stop,
            stats,
        } = self;
        let t_start = Instant::now();
        if let Err(e) = listener.set_nonblocking(true) {
            lsi_obs::error!("serve: cannot set listener nonblocking: {e}");
        }
        let model = Arc::new(model);
        let queue = Arc::new(Queue::new(cfg.queue_depth));
        let draining = Arc::new(AtomicBool::new(false));
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(ACCEPT_DEPTH);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut workers = Vec::with_capacity(cfg.threads);
        for w in 0..cfg.threads.max(1) {
            let conn_rx = Arc::clone(&conn_rx);
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let draining = Arc::clone(&draining);
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("lsi-serve-worker-{w}"))
                    .spawn(move || worker_loop(&conn_rx, &cfg, &queue, &stats, &draining)),
            );
        }
        let batcher = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let degrade = cfg.degrade;
            let max_batch = cfg.max_batch.max(1);
            std::thread::Builder::new()
                .name("lsi-serve-batcher".to_string())
                .spawn(move || batcher::run(&model, &queue, max_batch, &stats, degrade))
        };

        // Accept loop.
        // Relaxed: `stop`/`draining` are independent on/off gates and
        // the stats fields are monitoring counters; nothing below
        // requires an ordering between them.
        while !stop.load(Ordering::Relaxed) && !crate::stop_requested() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Relaxed: monitoring counter.
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    match lsi_fault::eval(lsi_fault::points::SERVE_ACCEPT) {
                        Some(lsi_fault::Fired::ReturnErr) => {
                            // Injected accept failure: the connection is
                            // dropped, the loop keeps accepting.
                            // Relaxed: monitoring counter.
                            stats.accept_drops.fetch_add(1, Ordering::Relaxed);
                            lsi_obs::count("serve.accept.drop.count", 1);
                            continue;
                        }
                        Some(lsi_fault::Fired::InjectNan) | None => {}
                    }
                    match conn_tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            // Every worker busy and the handoff buffer
                            // full: shed at the door.
                            // Relaxed: monitoring counter.
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                            lsi_obs::count("serve.shed.count", 1);
                            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                            let resp = overloaded_response("connection queue full").closing();
                            let _ = http::write_response(&mut stream, &resp);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    lsi_obs::warn!("serve: accept error: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }

        // Drain: stop accepting (done — the loop exited), tell workers
        // via the flag, let them finish in-flight requests, then shut
        // the scoring queue down and collect the final report.
        // Relaxed: the drain flag is an independent gate; workers
        // finishing in-flight requests synchronize via the queue mutex
        // and channel disconnects, not via this store.
        draining.store(true, Ordering::Relaxed);
        lsi_obs::info!("serve: draining");
        drop(conn_tx);
        for w in workers {
            match w {
                Ok(handle) => {
                    if handle.join().is_err() {
                        // Worker panics are contained per-connection;
                        // reaching here means containment itself failed.
                        stats.add_panic();
                    }
                }
                Err(e) => lsi_obs::error!("serve: worker spawn failed: {e}"),
            }
        }
        queue.close();
        match batcher {
            Ok(handle) => {
                if handle.join().is_err() {
                    stats.add_panic();
                }
            }
            Err(e) => lsi_obs::error!("serve: batcher spawn failed: {e}"),
        }

        let mut report = RunReport::new("lsi_serve")
            .meta("addr", Json::Str(local.to_string()))
            .meta("threads", Json::Num(cfg.threads as f64))
            .meta("queue_depth", Json::Num(cfg.queue_depth as f64))
            .meta("max_batch", Json::Num(cfg.max_batch as f64))
            .meta("degrade", Json::Bool(cfg.degrade));
        report.result("uptime_secs", Json::Num(t_start.elapsed().as_secs_f64()));
        report.result("connections", num(&stats.connections));
        report.result("requests", num(&stats.requests));
        report.result("queries", num(&stats.queries));
        report.result("shed", num(&stats.shed));
        report.result("timeouts", num(&stats.timeouts));
        report.result("parse_errors", num(&stats.parse_errors));
        report.result("panics", num(&stats.panics));
        report.result("accept_drops", num(&stats.accept_drops));
        report.result("batches", num(&stats.batches));
        report.result("batched_queries", num(&stats.batched_queries));
        report.result("max_batch_seen", num(&stats.max_batch_seen));
        report.result("latency_us", stats.latency_json());
        report
    }
}

fn overloaded_response(why: &str) -> Response {
    Response::json(
        503,
        Json::obj(vec![
            ("error", Json::Str("overloaded".to_string())),
            ("detail", Json::Str(why.to_string())),
        ])
        .to_string_compact(),
    )
    .with("Retry-After", RETRY_AFTER_SECS.to_string())
}

fn worker_loop(
    conn_rx: &Mutex<mpsc::Receiver<TcpStream>>,
    cfg: &ServeConfig,
    queue: &Queue,
    stats: &Stats,
    draining: &AtomicBool,
) {
    loop {
        // Hold the lock only for the blocking recv; handling happens
        // after release so other workers can take the next connection.
        let conn = {
            let rx = conn_rx.lock().unwrap_or_else(|p| p.into_inner());
            rx.recv()
        };
        let Ok(mut stream) = conn else {
            return; // accept loop hung up: drain complete for this worker
        };
        // Contain per-connection panics: answer 500 and keep serving.
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(&mut stream, cfg, queue, stats, draining);
        }));
        if result.is_err() {
            stats.add_panic();
            lsi_obs::count("serve.panic.count", 1);
            lsi_obs::error!("panic contained in connection handler; worker continues");
            let resp = Response::json(
                500,
                Json::obj(vec![(
                    "error",
                    Json::Str("internal error (contained)".to_string()),
                )])
                .to_string_compact(),
            )
            .closing();
            let _ = http::write_response(&mut stream, &resp);
        }
    }
}

fn handle_connection(
    stream: &mut TcpStream,
    cfg: &ServeConfig,
    queue: &Queue,
    stats: &Stats,
    draining: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(http::READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let idle_budget = Duration::from_millis(cfg.read_timeout_ms.max(1));
    let mut carry = Vec::new();
    // Relaxed: drain flag is an advisory gate, re-checked per request.
    let is_draining = || draining.load(Ordering::Relaxed);

    for served in 0..KEEP_ALIVE_MAX {
        let outcome = http::read_request(stream, &mut carry, idle_budget, &is_draining);
        let req = match outcome {
            ReadOutcome::Request(req) => req,
            ReadOutcome::Closed | ReadOutcome::Draining => return,
            ReadOutcome::TimedOut => {
                let resp = Response::text(408, "request read timed out\n").closing();
                let _ = http::write_response(stream, &resp);
                return;
            }
            ReadOutcome::Error(err) => {
                // Relaxed: monitoring counter.
                stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                lsi_obs::count("serve.parse.error.count", 1);
                let resp = error_response(&err).closing();
                let _ = http::write_response(stream, &resp);
                return;
            }
        };
        // Relaxed: monitoring counter.
        stats.requests.fetch_add(1, Ordering::Relaxed);
        lsi_obs::count("serve.requests.count", 1);
        let mut resp = route(&req, cfg, queue, stats, draining);
        let last = req.wants_close()
            || is_draining()
            || served + 1 == KEEP_ALIVE_MAX;
        if last {
            resp.close = true;
        }
        if http::write_response(stream, &resp).is_err() || resp.close {
            return;
        }
    }
}

fn error_response(err: &HttpError) -> Response {
    Response::json(
        err.status(),
        Json::obj(vec![("error", Json::Str(err.message().to_string()))]).to_string_compact(),
    )
}

fn bad_request(msg: &str) -> Response {
    Response::json(
        400,
        Json::obj(vec![("error", Json::Str(msg.to_string()))]).to_string_compact(),
    )
}

fn route(
    req: &Request,
    cfg: &ServeConfig,
    queue: &Queue,
    stats: &Stats,
    draining: &AtomicBool,
) -> Response {
    // The serve.parse failpoint models a request that defeats routing
    // validation: a typed 400, never a crash.
    match lsi_fault::eval(lsi_fault::points::SERVE_PARSE) {
        Some(lsi_fault::Fired::ReturnErr) => {
            // Relaxed: monitoring counter.
            stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            lsi_obs::count("serve.parse.error.count", 1);
            return bad_request(&format!(
                "fault injected at failpoint `{}`",
                lsi_fault::points::SERVE_PARSE
            ));
        }
        Some(lsi_fault::Fired::InjectNan) | None => {}
    }
    let (path, qs) = http::split_target(&req.target);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let _span = lsi_obs::span("serve.healthz");
            Response::text(200, "ok\n")
        }
        ("GET", "/readyz") => {
            let _span = lsi_obs::span("serve.readyz");
            // Relaxed: advisory drain gate; stale by a beat is fine.
            if draining.load(Ordering::Relaxed) {
                Response::text(503, "draining\n")
            } else if queue.len() >= cfg.queue_depth {
                Response::text(503, "overloaded\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/stats") => Response::json(
            200,
            stats
                // Relaxed: monitoring snapshot of an advisory flag.
                .to_json(queue.len(), draining.load(Ordering::Relaxed))
                .to_string_compact(),
        ),
        ("GET", "/query") => match parse_get_query(qs, cfg) {
            Ok(params) => run_query(params, queue, stats),
            Err(msg) => bad_request(msg),
        },
        ("POST", "/query") => match parse_post_query(&req.body, cfg) {
            Ok(params) => run_query(params, queue, stats),
            Err(msg) => bad_request(&msg),
        },
        (_, "/query") => Response::text(405, "use GET or POST\n").with("Allow", "GET, POST".to_string()),
        (_, "/healthz" | "/readyz" | "/stats") => {
            Response::text(405, "use GET\n").with("Allow", "GET".to_string())
        }
        _ => Response::text(404, "unknown path\n"),
    }
}

struct QueryParams {
    text: String,
    top: usize,
    timeout: Duration,
}

fn parse_get_query(qs: &str, cfg: &ServeConfig) -> Result<QueryParams, &'static str> {
    let text = match http::query_param(qs, "q") {
        Some(Ok(t)) if !t.trim().is_empty() => t,
        Some(Ok(_)) => return Err("empty `q` parameter"),
        Some(Err(())) => return Err("undecodable `q` parameter"),
        None => return Err("missing `q` parameter"),
    };
    let top = match http::query_param(qs, "top") {
        Some(Ok(v)) => v.parse::<usize>().map_err(|_| "invalid `top` parameter")?,
        Some(Err(())) => return Err("undecodable `top` parameter"),
        None => DEFAULT_TOP,
    };
    let timeout_ms = match http::query_param(qs, "timeout_ms") {
        Some(Ok(v)) => v
            .parse::<u64>()
            .map_err(|_| "invalid `timeout_ms` parameter")?,
        Some(Err(())) => return Err("undecodable `timeout_ms` parameter"),
        None => cfg.default_timeout_ms,
    };
    Ok(make_params(text, top, timeout_ms, cfg))
}

fn parse_post_query(body: &[u8], cfg: &ServeConfig) -> Result<QueryParams, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = lsi_obs::parse_json(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    let q = json
        .get("q")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "body must be an object with a string `q`".to_string())?;
    if q.trim().is_empty() {
        return Err("empty `q`".to_string());
    }
    let top = match json.get("top") {
        Some(v) => as_count(v).ok_or_else(|| "invalid `top`".to_string())?,
        None => DEFAULT_TOP,
    };
    let timeout_ms = match json.get("timeout_ms") {
        Some(v) => as_count(v).ok_or_else(|| "invalid `timeout_ms`".to_string())? as u64,
        None => cfg.default_timeout_ms,
    };
    Ok(make_params(q.to_string(), top, timeout_ms, cfg))
}

/// A JSON number usable as a count: finite, non-negative, integral.
fn as_count(v: &Json) -> Option<usize> {
    let n = v.as_f64()?;
    // lsi-analyze: allow(float-safety) — exact integrality test behind an is_finite guard; NaN already rejected.
    (n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64).then_some(n as usize)
}

fn make_params(text: String, top: usize, timeout_ms: u64, cfg: &ServeConfig) -> QueryParams {
    let capped = timeout_ms.clamp(1, cfg.max_timeout_ms.max(1));
    QueryParams {
        text,
        top: top.max(1),
        timeout: Duration::from_millis(capped),
    }
}

fn run_query(params: QueryParams, queue: &Queue, stats: &Stats) -> Response {
    let _span = lsi_obs::span("serve.query");
    let id = next_request_id();
    let t0 = Instant::now();
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Result<RankedList, String>>(1);
    let job = Job {
        text: params.text,
        z: params.top,
        trace_id: id.clone(),
        enqueued: t0,
        deadline: t0 + params.timeout,
        reply: reply_tx,
    };
    if queue.try_push(job).is_err() {
        // Relaxed: monitoring counter.
        stats.shed.fetch_add(1, Ordering::Relaxed);
        lsi_obs::count("serve.shed.count", 1);
        return overloaded_response("scoring queue full").with("X-Request-Id", id);
    }
    // Relaxed: monitoring counter.
    stats.queries.fetch_add(1, Ordering::Relaxed);
    let wait = params.timeout + REPLY_SLACK;
    let outcome = reply_rx.recv_timeout(wait);
    let elapsed_us = t0.elapsed().as_secs_f64() * 1e6;
    lsi_obs::observe("serve.query.us", elapsed_us);
    stats.latency_us.record(elapsed_us);
    match outcome {
        Ok(Ok(ranked)) => {
            let results: Vec<Json> = ranked
                .matches
                .iter()
                .map(|m| {
                    Json::obj(vec![
                        ("id", Json::Str(m.id.to_string())),
                        ("doc", Json::Num(m.doc as f64)),
                        ("score", Json::Num(m.cosine)),
                    ])
                })
                .collect();
            let body = Json::obj(vec![
                ("trace_id", Json::Str(id.clone())),
                ("results", Json::Arr(results)),
            ]);
            Response::json(200, body.to_string_compact()).with("X-Request-Id", id)
        }
        Ok(Err(msg)) => Response::json(
            500,
            Json::obj(vec![
                ("trace_id", Json::Str(id.clone())),
                ("error", Json::Str(msg)),
            ])
            .to_string_compact(),
        )
        .with("X-Request-Id", id),
        Err(RecvTimeoutError::Timeout) => {
            // Scored too late (the batcher may still answer into the
            // rendezvous buffer; that send is discarded harmlessly).
            stats.add_timeout();
            lsi_obs::count("serve.timeout.count", 1);
            deadline_response(&id)
        }
        Err(RecvTimeoutError::Disconnected) => {
            // The batcher dropped the job: expired while queued
            // (already counted there) or shutdown mid-flight.
            deadline_response(&id)
        }
    }
}

fn deadline_response(id: &str) -> Response {
    Response::json(
        504,
        Json::obj(vec![
            ("trace_id", Json::Str(id.to_string())),
            ("error", Json::Str("deadline exceeded".to_string())),
        ])
        .to_string_compact(),
    )
    .with("X-Request-Id", id.to_string())
}
