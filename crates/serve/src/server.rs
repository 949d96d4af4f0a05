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
//! | `GET /stats`   | the [`Stats`] record as JSON (requests, shed, …)|

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use lsi_core::{LsiModel, RankedList};
use lsi_obs::{Counter, Gauge, Histogram, Json, RunReport};

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

/// The daemon's one serving record, behind `/stats` and the final
/// report alike (both render `Stats::fields`). Every field is an
/// lsi-obs counter, gauge or histogram updated where its event happens,
/// whether or not the metrics registry is enabled, and nothing one
/// field can derive is kept twice: `batch_size` alone yields `batches`,
/// `batched_queries` and `max_batch_seen`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Connections accepted.
    pub connections: Counter,
    /// Requests read and routed.
    pub requests: Counter,
    /// Queries that entered the scoring queue.
    pub queries: Counter,
    /// Connections and queries answered 503 at a full bound.
    pub shed: Counter,
    /// Queries answered 504: the deadline passed while queued or scored.
    pub timeouts: Counter,
    /// Requests refused as malformed (also the `serve.parse` failpoint).
    pub parse_errors: Counter,
    /// Panics contained in a worker, the batcher or the rung builder.
    pub panics: Counter,
    /// Connections dropped at the door by the `serve.accept` failpoint.
    pub accept_drops: Counter,
    /// Live queries per scored batch.
    pub batch_size: Histogram,
    /// The ladder level whose plan the last batch ran.
    pub degrade_level: Gauge,
    /// Times the ladder stepped up.
    pub escalations: Counter,
    /// Rung bundles installed: 1 once the ladder's artifacts are built
    /// (levels 1–3 run level 0's plan until then).
    pub ladder_builds: Counter,
    /// Wall time of the rung build in milliseconds; 0 until it is done.
    pub ladder_build_ms: Gauge,
    /// End-to-end `/query` latency in microseconds for queries that
    /// entered the scoring queue (including timeouts; shed requests
    /// never wait and are excluded), log-bucketed so `/stats` can
    /// report p50/p90/p99 without sample storage.
    pub latency_us: Histogram,
    /// Microseconds each scored query waited in the queue, from its push
    /// to the pop of its batch: the query log's `wait_us`.
    pub queue_wait_us: Histogram,
    started: Started,
}

/// When the record was created: `uptime_secs` counts from it.
#[derive(Debug)]
struct Started(Instant);

impl Default for Started {
    fn default() -> Started {
        Started(Instant::now())
    }
}

impl Stats {
    /// The record as `/stats` keys, with the live queue `backlog` and
    /// drain state beside it.
    fn fields(&self, backlog: usize, draining: bool) -> Vec<(&'static str, Json)> {
        let count = |c: &Counter| Json::Num(c.value() as f64);
        let batches = &self.batch_size;
        vec![
            (
                "uptime_secs",
                Json::Num(self.started.0.elapsed().as_secs_f64()),
            ),
            ("connections", count(&self.connections)),
            ("requests", count(&self.requests)),
            ("queries", count(&self.queries)),
            ("shed", count(&self.shed)),
            ("timeouts", count(&self.timeouts)),
            ("parse_errors", count(&self.parse_errors)),
            ("panics", count(&self.panics)),
            ("accept_drops", count(&self.accept_drops)),
            ("batches", Json::Num(batches.count() as f64)),
            ("batched_queries", Json::Num(batches.sum())),
            ("max_batch_seen", Json::Num(batches.max())),
            ("degrade_level", Json::Num(self.degrade_level.value())),
            ("escalations", count(&self.escalations)),
            ("ladder_ready", Json::Bool(self.ladder_builds.value() > 0)),
            ("ladder_build_ms", Json::Num(self.ladder_build_ms.value())),
            ("queue_depth", Json::Num(backlog as f64)),
            ("draining", Json::Bool(draining)),
            ("latency_us", percentiles(&self.latency_us)),
            ("queue_wait_us", percentiles(&self.queue_wait_us)),
        ]
    }
}

fn percentiles(h: &Histogram) -> Json {
    let snap = h.snapshot();
    Json::obj(vec![
        ("count", Json::Num(snap.count as f64)),
        ("p50", Json::Num(snap.p50)),
        ("p90", Json::Num(snap.p90)),
        ("p99", Json::Num(snap.p99)),
        ("max", Json::Num(snap.max)),
    ])
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
        // Relaxed: `stop`/`draining` are independent on/off gates;
        // nothing below requires an ordering between them.
        while !stop.load(Ordering::Relaxed) && !crate::stop_requested() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stats.connections.inc();
                    match lsi_fault::eval(lsi_fault::points::SERVE_ACCEPT) {
                        Some(lsi_fault::Fired::ReturnErr) => {
                            // Injected accept failure: the connection is
                            // dropped, the loop keeps accepting.
                            stats.accept_drops.inc();
                            continue;
                        }
                        Some(lsi_fault::Fired::InjectNan) | None => {}
                    }
                    match conn_tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            // Every worker busy and the handoff buffer
                            // full: shed at the door.
                            stats.shed.inc();
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
                        stats.panics.inc();
                    }
                }
                Err(e) => lsi_obs::error!("serve: worker spawn failed: {e}"),
            }
        }
        queue.close();
        match batcher {
            Ok(handle) => {
                if handle.join().is_err() {
                    stats.panics.inc();
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
        for (key, value) in stats.fields(queue.len(), true) {
            report.result(key, value);
        }
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
            stats.panics.inc();
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
                stats.parse_errors.inc();
                let resp = error_response(&err).closing();
                let _ = http::write_response(stream, &resp);
                return;
            }
        };
        stats.requests.inc();
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
            stats.parse_errors.inc();
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
            // Relaxed: monitoring snapshot of an advisory flag.
            Json::obj(stats.fields(queue.len(), draining.load(Ordering::Relaxed)))
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

/// What the batcher handed back for one queued query: its ranking or
/// scoring error, or why neither came.
type Reply = Result<Result<RankedList, String>, RecvTimeoutError>;

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
    let reply = queue.try_push(job).ok().map(|()| {
        stats.queries.inc();
        let reply = reply_rx.recv_timeout(params.timeout + REPLY_SLACK);
        stats.latency_us.record(t0.elapsed().as_secs_f64() * 1e6);
        reply
    });
    let (status, tally) = answer(stats, reply.as_ref());
    if let Some(counter) = tally {
        counter.inc();
    }
    let body = match reply {
        None => return overloaded_response("scoring queue full").with("X-Request-Id", id),
        Some(Ok(Ok(ranked))) => {
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
            ("results", Json::Arr(results))
        }
        Some(Ok(Err(msg))) => ("error", Json::Str(msg)),
        Some(Err(_)) => ("error", Json::Str("deadline exceeded".to_string())),
    };
    let body = Json::obj(vec![("trace_id", Json::Str(id.clone())), body]);
    Response::json(status, body.to_string_compact()).with("X-Request-Id", id)
}

/// The status of a query's answer and the one [`Stats`] counter it moves
/// beyond `queries`. `reply` is `None` when the scoring queue was full.
pub(crate) fn answer<'s>(stats: &'s Stats, reply: Option<&Reply>) -> (u16, Option<&'s Counter>) {
    match reply {
        None => (503, Some(&stats.shed)),
        Some(Ok(Ok(_))) => (200, None),
        Some(Ok(Err(_))) => (500, None),
        // The deadline passed: the reply came too late (the batcher may
        // still send into the rendezvous buffer, which is discarded), or
        // the batcher dropped the job as expired without scoring it. The
        // 504 is the one place either is counted.
        Some(Err(_)) => (504, Some(&stats.timeouts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every way a query's answer can go, without sockets: the status and
    /// the one counter it moves, applied to a fresh record.
    #[test]
    fn each_answer_has_one_status_and_moves_at_most_one_counter() {
        let ok: Reply = Ok(Ok(RankedList::default()));
        let failed: Reply = Ok(Err("scoring failed".to_string()));
        let late: Reply = Err(RecvTimeoutError::Timeout);
        let dropped: Reply = Err(RecvTimeoutError::Disconnected);
        // (reply, status, shed, timeouts)
        let table: [(Option<&Reply>, u16, u64, u64); 5] = [
            (None, 503, 1, 0),
            (Some(&ok), 200, 0, 0),
            (Some(&failed), 500, 0, 0),
            (Some(&late), 504, 0, 1),
            // Expired in the queue: `live_jobs` counted nothing, so the
            // handler's 504 is its one count.
            (Some(&dropped), 504, 0, 1),
        ];
        for (i, &(reply, status, shed, timeouts)) in table.iter().enumerate() {
            let stats = Stats::default();
            let (got, tally) = answer(&stats, reply);
            if let Some(counter) = tally {
                counter.inc();
            }
            let moved: Vec<(&str, Json)> = stats
                .fields(0, false)
                .into_iter()
                .filter(|(key, value)| {
                    *key != "uptime_secs" && value.as_f64().unwrap_or(0.0) != 0.0
                })
                .collect();
            let want: Vec<(&str, Json)> = [("shed", shed), ("timeouts", timeouts)]
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .map(|(key, n)| (key, Json::Num(n as f64)))
                .collect();
            assert_eq!((got, moved), (status, want), "row {i}");
        }
    }
}
