//! End-to-end daemon tests over real sockets: routing, batching,
//! shedding, deadlines, failpoint containment, and drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsi_core::{LsiModel, LsiOptions};
use lsi_obs::{Json, RunReport};
use lsi_serve::{ServeConfig, Server, Stats};
use lsi_text::{Corpus, ParsingRules, TermWeighting};

fn tiny_model() -> LsiModel {
    let corpus = Corpus::from_pairs([
        ("cars1", "car engine wheel motor car"),
        ("cars2", "automobile engine motor chassis"),
        ("cars3", "car automobile driver wheel"),
        ("zoo1", "elephant lion zebra elephant"),
        ("zoo2", "lion zebra giraffe elephant"),
        ("zoo3", "zebra giraffe lion safari"),
    ]);
    let options = LsiOptions {
        k: 2,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::none(),
        svd_seed: 3,
    };
    LsiModel::build(&corpus, &options).unwrap().0
}

struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<Stats>,
    handle: JoinHandle<RunReport>,
}

impl Running {
    fn start(cfg: ServeConfig) -> Running {
        let server = Server::bind(cfg).unwrap();
        let addr = server.local_addr();
        let stop = server.stop_handle();
        let stats = server.stats();
        let model = tiny_model();
        let handle = std::thread::spawn(move || server.run(model));
        Running {
            addr,
            stop,
            stats,
            handle,
        }
    }

    fn finish(self) -> RunReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap()
    }
}

/// One-shot client: send raw bytes, read to EOF, return
/// (status, full response text). Status 0 means the connection was
/// dropped before any response bytes.
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let status = out
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, out)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    exchange(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// Failpoint state is process-global, and a counted failpoint fires for
/// whichever server evaluates it first, so every test in this binary
/// holds this lock: a test that arms nothing could otherwise consume a
/// firing another test armed.
fn fault_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[test]
fn endpoints_route_and_validate() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());

    let (code, body) = get(srv.addr, "/healthz");
    assert_eq!((code, body.contains("ok")), (200, true));
    let (code, _) = get(srv.addr, "/readyz");
    assert_eq!(code, 200);

    let (code, body) = get(srv.addr, "/query?q=car+motor&top=2");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"results\""), "{body}");
    assert!(body.contains("cars"), "{body}");
    assert!(body.contains("X-Request-Id: r"), "{body}");

    let post = "{\"q\": \"zebra lion\", \"top\": 3}";
    let (code, body) = exchange(
        srv.addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{post}",
            post.len()
        ),
    );
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("zoo"), "{body}");

    // Typed client errors, one per validation layer.
    assert_eq!(get(srv.addr, "/query").0, 400, "missing q");
    assert_eq!(get(srv.addr, "/query?q=car&top=xyz").0, 400, "bad top");
    assert_eq!(get(srv.addr, "/query?q=%zz").0, 400, "bad escape");
    assert_eq!(get(srv.addr, "/nope").0, 404);
    let (code, body) = exchange(
        srv.addr,
        "DELETE /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(code, 405);
    assert!(body.contains("Allow: GET, POST"), "{body}");
    let (code, _) = exchange(srv.addr, "garbage\r\n\r\n");
    assert_eq!(code, 400);
    let (code, _) = exchange(
        srv.addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\nno-length",
    );
    assert_eq!(code, 411);

    let (code, body) = get(srv.addr, "/stats");
    assert_eq!(code, 200);
    assert!(body.contains("\"requests\""), "{body}");
    // Latency percentiles: queries ran above, so the histogram has
    // samples and a positive median.
    let json_start = body.find("{").expect("stats body has JSON");
    let stats = lsi_obs::parse_json(&body[json_start..]).expect("stats JSON parses");
    let lat = stats.get("latency_us").expect("latency_us block present");
    let count = lat.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
    assert!(count >= 2.0, "latency samples recorded: {body}");
    for key in ["p50", "p90", "p99", "max"] {
        let v = lat.get(key).and_then(|v| v.as_f64()).unwrap_or(-1.0);
        assert!(v > 0.0, "latency {key} positive: {body}");
    }
    // Nominal load never escalates, so the ladder's rungs were never
    // built and every batch ran level 0's plan.
    assert_eq!(stats.get("degrade_level").and_then(|v| v.as_f64()), Some(0.0), "{body}");
    assert!(matches!(stats.get("ladder_ready"), Some(Json::Bool(false))), "{body}");
    assert_eq!(stats.get("ladder_build_ms").and_then(|v| v.as_f64()), Some(0.0), "{body}");

    let report = srv.finish();
    let json = report.to_json().to_string_compact();
    assert!(json.contains("\"lsi_serve\""), "{json}");
}

#[test]
fn deeply_nested_post_body_is_a_400_and_the_daemon_keeps_serving() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());
    // A body-limit-sized run of `[`: far past the JSON depth limit, so
    // the parser must refuse it instead of recursing down the worker's
    // stack.
    let body = "[".repeat(64 * 1024);
    let (code, text) = exchange(
        srv.addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(code, 400, "{text}");
    assert!(text.contains("nesting deeper than"), "{text}");
    let (code, text) = get(srv.addr, "/query?q=car+motor&top=2");
    assert_eq!(code, 200, "{text}");
    srv.finish();
}

#[test]
fn concurrent_queries_all_answer_and_batches_form() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig {
        threads: 8,
        ..ServeConfig::default()
    });
    let addr = srv.addr;
    let mut clients = Vec::new();
    for c in 0..8 {
        clients.push(std::thread::spawn(move || {
            let mut codes = Vec::new();
            for i in 0..6 {
                let q = if (c + i) % 2 == 0 { "car+engine" } else { "lion+zebra" };
                codes.push(get(addr, &format!("/query?q={q}&top=2")).0);
            }
            codes
        }));
    }
    for client in clients {
        for code in client.join().unwrap() {
            assert_eq!(code, 200);
        }
    }
    assert_eq!(srv.stats.queries.value(), 48);
    assert_eq!(srv.stats.shed.value(), 0);
    let report = srv.finish();
    let json = report.to_json().to_string_compact();
    assert!(json.contains("\"queries\":48"), "{json}");
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());
    let mut s = TcpStream::connect(srv.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for _ in 0..3 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = [0u8; 1024];
        let n = s.read(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    }
    srv.finish();
}

#[test]
fn parse_failpoint_answers_400_then_recovers() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());
    lsi_fault::arm_from_spec("serve.parse=return-err:1").unwrap();
    let (code, body) = get(srv.addr, "/query?q=car");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("serve.parse"), "{body}");
    lsi_fault::clear();
    let (code, _) = get(srv.addr, "/query?q=car");
    assert_eq!(code, 200);
    srv.finish();
}

#[test]
fn batch_failpoint_errors_are_typed_and_panic_is_contained() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());

    lsi_fault::arm_from_spec("serve.batch=return-err:1").unwrap();
    let (code, body) = get(srv.addr, "/query?q=car");
    assert_eq!(code, 500, "{body}");
    assert!(body.contains("serve.batch"), "{body}");
    lsi_fault::clear();

    lsi_fault::arm_from_spec("serve.batch=panic:1").unwrap();
    let (code, body) = get(srv.addr, "/query?q=car");
    assert_eq!(code, 500, "{body}");
    assert!(body.contains("contained"), "{body}");
    lsi_fault::clear();

    // The batcher survived both injections.
    let (code, _) = get(srv.addr, "/query?q=car");
    assert_eq!(code, 200);
    assert_eq!(srv.stats.panics.value(), 1);
    srv.finish();
}

#[test]
fn accept_failpoint_drops_connection_and_keeps_accepting() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());
    lsi_fault::arm_from_spec("serve.accept=return-err:1").unwrap();
    let (code, _) = get(srv.addr, "/healthz");
    assert_eq!(code, 0, "dropped before any response");
    lsi_fault::clear();
    let (code, _) = get(srv.addr, "/healthz");
    assert_eq!(code, 200);
    assert_eq!(srv.stats.accept_drops.value(), 1);
    srv.finish();
}

#[test]
fn expired_deadline_answers_504_without_scoring() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());
    // Every batch stalls 150 ms; a 30 ms deadline expires while queued
    // or mid-stall either way.
    lsi_fault::arm_from_spec("serve.batch=delay-ms(150)").unwrap();
    let (code, body) = get(srv.addr, "/query?q=car&timeout_ms=30");
    lsi_fault::clear();
    assert_eq!(code, 504, "{body}");
    assert!(body.contains("deadline exceeded"), "{body}");
    assert!(srv.stats.timeouts.value() >= 1);
    srv.finish();
}

#[test]
fn overload_sheds_with_retry_after_and_never_queues_unboundedly() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig {
        threads: 8,
        queue_depth: 2,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let addr = srv.addr;
    // Stall scoring so the depth-2 queue cannot drain while 12
    // concurrent clients pile on.
    lsi_fault::arm_from_spec("serve.batch=delay-ms(100)").unwrap();
    let mut clients = Vec::new();
    for _ in 0..12 {
        clients.push(std::thread::spawn(move || {
            get(addr, "/query?q=car&timeout_ms=5000")
        }));
    }
    let mut shed = 0;
    for client in clients {
        let (code, body) = client.join().unwrap();
        match code {
            200 | 504 => {}
            503 => {
                shed += 1;
                assert!(body.contains("Retry-After: 1"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    lsi_fault::clear();
    assert!(shed >= 1, "queue bound was never enforced");
    assert_eq!(srv.stats.shed.value(), shed);
    srv.finish();
}

#[test]
fn stop_drains_in_flight_requests_before_reporting() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig::default());
    let addr = srv.addr;
    // Slow scoring so the request is provably in flight when stop hits.
    lsi_fault::arm_from_spec("serve.batch=delay-ms(200)").unwrap();
    let inflight =
        std::thread::spawn(move || get(addr, "/query?q=car&timeout_ms=5000"));
    std::thread::sleep(Duration::from_millis(50));
    let report = srv.finish();
    lsi_fault::clear();
    let (code, body) = inflight.join().unwrap();
    assert_eq!(code, 200, "in-flight request dropped during drain: {body}");
    let json = report.to_json().to_string_compact();
    assert!(json.contains("\"queries\":1"), "{json}");
}

/// `n` concurrent `/query` requests, one connection each; their
/// statuses and bodies in client order.
fn burst(addr: SocketAddr, n: usize) -> Vec<(u16, String)> {
    let clients: Vec<_> = (0..n)
        .map(|i| {
            std::thread::spawn(move || {
                let q = if i % 2 == 0 { "car+engine" } else { "lion+zebra" };
                get(addr, &format!("/query?q={q}&top=2&timeout_ms=5000"))
            })
        })
        .collect();
    clients.into_iter().map(|c| c.join().unwrap()).collect()
}

fn stats_json(addr: SocketAddr) -> Json {
    let (code, body) = get(addr, "/stats");
    assert_eq!(code, 200, "{body}");
    let start = body.find('{').expect("stats body has JSON");
    lsi_obs::parse_json(&body[start..]).expect("stats JSON parses")
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(|v| v.as_f64()).unwrap_or(-1.0)
}

fn ladder_ready(stats: &Json) -> bool {
    matches!(stats.get("ladder_ready"), Some(Json::Bool(true)))
}

/// A queue of 8 drained one job per 40 ms batch: a burst of 8 backs it
/// up past the ladder's level-2 trigger, so the ladder escalates.
fn ladder_config() -> ServeConfig {
    ServeConfig {
        threads: 8,
        queue_depth: 8,
        max_batch: 1,
        ..ServeConfig::default()
    }
}

const SLOW_BATCH: &str = "serve.batch=delay-ms(40)";

#[test]
fn held_ladder_build_never_delays_a_batch_and_its_rung_serves_once_built() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ladder_config());
    const HOLD_MS: u64 = 2_000;
    lsi_fault::arm_from_spec(&format!(
        "{SLOW_BATCH},serve.ladder.build=delay-ms({HOLD_MS}):1"
    ))
    .unwrap();
    let t0 = Instant::now();
    for (code, body) in burst(srv.addr, 8) {
        assert_eq!(code, 200, "{body}");
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(HOLD_MS / 2),
        "the burst took {took:?}: a batch waited for the held build"
    );
    // The ladder escalated, but its rungs are still being built: every
    // batch ran level 0's plan.
    let stats = stats_json(srv.addr);
    assert!(!ladder_ready(&stats), "{stats:?}");
    assert_eq!(stat(&stats, "degrade_level"), 0.0, "{stats:?}");

    // Once the hold ends, the batcher installs the bundle between
    // batches and the next overload is served by a pruned rung.
    let held_until = t0 + Duration::from_millis(HOLD_MS + 200);
    std::thread::sleep(held_until.saturating_duration_since(Instant::now()));
    for (code, body) in burst(srv.addr, 8) {
        assert_eq!(code, 200, "{body}");
    }
    let stats = stats_json(srv.addr);
    lsi_fault::clear();
    assert!(ladder_ready(&stats), "{stats:?}");
    assert!(stat(&stats, "degrade_level") >= 1.0, "{stats:?}");
    assert!(stat(&stats, "ladder_build_ms") >= HOLD_MS as f64, "{stats:?}");
    srv.finish();
}

#[test]
fn failed_ladder_build_is_logged_once_and_the_daemon_keeps_serving() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let errors = || lsi_obs::registry().counter("events.error.count").value();
    for action in ["return-err", "panic"] {
        let srv = Running::start(ladder_config());
        // Armed without a count: a second build would fail and log too.
        lsi_fault::arm_from_spec(&format!("{SLOW_BATCH},serve.ladder.build={action}")).unwrap();
        let before = errors();
        for _ in 0..3 {
            for (code, body) in burst(srv.addr, 8) {
                assert_eq!(code, 200, "{action}: {body}");
            }
        }
        let stats = stats_json(srv.addr);
        lsi_fault::clear();
        assert!(!ladder_ready(&stats), "{action}: {stats:?}");
        assert_eq!(stat(&stats, "degrade_level"), 0.0, "{action}: {stats:?}");
        assert_eq!(errors() - before, 1, "{action}: the failure is logged once");
        let panics = srv.stats.panics.value();
        assert_eq!(panics, u64::from(action == "panic"), "{action}");
        // The drain still completes and reports.
        let json = srv.finish().to_json().to_string_compact();
        assert!(json.contains("\"lsi_serve\""), "{action}: {json}");
    }
}

/// Polls `/stats` until `key` reaches `want`, and returns that record.
fn await_stat(addr: SocketAddr, key: &str, want: f64) -> Json {
    let t0 = Instant::now();
    loop {
        let stats = stats_json(addr);
        if stat(&stats, key) >= want {
            return stats;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{key} < {want}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stats_and_the_drain_report_count_each_event_once() {
    let _g = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    let srv = Running::start(ServeConfig {
        threads: 8,
        queue_depth: 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let addr = srv.addr;
    // The one scored batch stalls far past the expiring query's deadline.
    lsi_fault::arm_from_spec("serve.batch=delay-ms(600)").unwrap();
    let scored = std::thread::spawn(move || get(addr, "/query?q=car+engine&top=2&timeout_ms=5000"));
    await_stat(addr, "batches", 1.0);
    // Queued behind the stalled batch with a 30 ms deadline: its handler
    // answers 504 while the job still sits in the queue, and the batcher
    // drops the job as expired once the stall ends.
    let expiring = std::thread::spawn(move || get(addr, "/query?q=lion+zebra&timeout_ms=30"));
    await_stat(addr, "queries", 2.0);
    // The one-slot queue is full.
    let (code, body) = get(addr, "/query?q=car");
    assert_eq!(code, 503, "{body}");
    let (code, body) = expiring.join().unwrap();
    assert_eq!(code, 504, "{body}");
    let (code, body) = scored.join().unwrap();
    assert_eq!(code, 200, "{body}");
    lsi_fault::clear();

    let stats = stats_json(addr);
    // Every key lsibench reads, then the two perf_kernels --serve reads:
    // one 200, one 504 and one 503, each counted once.
    for (key, want) in [
        ("batches", 1.0),
        ("batched_queries", 1.0),
        ("shed", 1.0),
        ("timeouts", 1.0),
        ("degrade_level", 0.0),
        ("max_batch_seen", 1.0),
        ("queries", 2.0),
    ] {
        assert_eq!(stat(&stats, key), want, "{key}: {stats:?}");
    }
    let count = |block: &str| {
        stats
            .get(block)
            .and_then(|b| b.get("count"))
            .and_then(|c| c.as_f64())
    };
    assert_eq!(count("latency_us"), Some(2.0), "{stats:?}");
    assert_eq!(count("queue_wait_us"), Some(1.0), "{stats:?}");

    // The drain report renders the same record: nothing happened after
    // the read above, so every counter is equal. Uptime, backlog and the
    // drain flag are live state.
    let report = srv.finish();
    let Json::Obj(fields) = stats else {
        panic!("/stats is not an object: {stats:?}")
    };
    let live = ["uptime_secs", "queue_depth", "draining"];
    let keys = |pairs: &[(String, Json)]| pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    assert_eq!(keys(&report.results), keys(&fields));
    for (key, value) in fields
        .iter()
        .filter(|(key, _)| !live.contains(&key.as_str()))
    {
        let reported = report
            .results
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v);
        assert_eq!(reported, Some(value), "{key}");
    }
}
