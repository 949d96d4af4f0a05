//! Integration tests against the process-global API: nested-span
//! timing monotonicity, flop roll-up, concurrent counters, the
//! disabled fast path, and the JSON exporter round-trip.
//!
//! Tests here share the global registry and enabled flag, so each one
//! holds GLOBAL_LOCK for its whole body and resets state on entry.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use lsi_obs::{parse_json, snapshot_to_json, Json, PhaseStats, RunReport, Snapshot};

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn isolated() -> MutexGuard<'static, ()> {
    let guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    lsi_obs::reset();
    lsi_obs::set_enabled(true);
    guard
}

#[test]
fn nested_span_timing_is_monotone() {
    let _guard = isolated();
    {
        let _outer = lsi_obs::span("outer");
        {
            let _inner = lsi_obs::span("inner");
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let _inner = lsi_obs::span("inner");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    lsi_obs::set_enabled(false);
    let snap = lsi_obs::snapshot();
    let outer = snap.span("outer").expect("outer recorded");
    let inner = snap.span("outer.inner").expect("inner nested under outer");
    assert_eq!(outer.calls, 1);
    assert_eq!(inner.calls, 2);
    // A parent's wall clock covers its children plus its own work.
    assert!(
        outer.secs >= inner.secs,
        "outer {} < nested inner {}",
        outer.secs,
        inner.secs
    );
    assert!(inner.secs >= 0.010, "two 5 ms sleeps, got {}", inner.secs);
    assert!(outer.secs >= inner.secs + 0.002);
}

#[test]
fn flops_roll_up_to_enclosing_spans_but_phases_do_not() {
    let _guard = isolated();
    {
        let _build = lsi_obs::span("build");
        {
            let _svd = lsi_obs::span("svd");
            lsi_obs::add_flops(1000.0);
            lsi_obs::add_bytes(64.0);
            // Out-of-band breakdown: recorded alongside, not added in.
            lsi_obs::record_phase("lanczos.gram", &PhaseStats::once(400.0, 0.1));
        }
        lsi_obs::add_flops(50.0);
    }
    lsi_obs::set_enabled(false);
    let snap = lsi_obs::snapshot();
    let build = snap.span("build").unwrap();
    let svd = snap.span("build.svd").unwrap();
    let gram = snap.span("build.svd.lanczos.gram").unwrap();
    assert_eq!(svd.flops, 1000.0, "svd keeps its own attribution");
    assert_eq!(svd.bytes, 64.0);
    assert_eq!(build.flops, 1050.0, "children roll up into the parent");
    assert_eq!(build.bytes, 64.0);
    assert_eq!(gram.flops, 400.0, "phase breakdown recorded verbatim");
    assert_eq!(gram.secs, 0.1);
}

#[test]
fn zero_duration_spans_still_report_nonzero_wall_time() {
    let _guard = isolated();
    drop(lsi_obs::span("instant"));
    lsi_obs::set_enabled(false);
    let s = *lsi_obs::snapshot().span("instant").unwrap();
    assert!(s.secs > 0.0, "clamped wall time must be nonzero");
}

#[test]
fn concurrent_counters_and_histograms_from_scoped_threads() {
    let _guard = isolated();
    const THREADS: usize = 8;
    const PER: u64 = 5_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER {
                    lsi_obs::count("test.ops.count", 1);
                    lsi_obs::observe("test.lat.us", (t as f64) * 100.0 + (i % 7) as f64);
                }
            });
        }
    });
    lsi_obs::set_enabled(false);
    let snap = lsi_obs::snapshot();
    assert_eq!(snap.counter("test.ops.count"), Some(THREADS as u64 * PER));
    let hist = snap
        .hists
        .iter()
        .find(|(n, _)| n == "test.lat.us")
        .map(|(_, h)| *h)
        .unwrap();
    assert_eq!(hist.count, THREADS as u64 * PER, "no samples lost to races");
}

#[test]
fn spans_on_separate_threads_do_not_nest_into_each_other() {
    let _guard = isolated();
    std::thread::scope(|s| {
        s.spawn(|| {
            let _a = lsi_obs::span("thread_a");
            std::thread::sleep(Duration::from_millis(2));
        });
        s.spawn(|| {
            let _b = lsi_obs::span("thread_b");
            std::thread::sleep(Duration::from_millis(2));
        });
    });
    lsi_obs::set_enabled(false);
    let snap = lsi_obs::snapshot();
    assert!(snap.span("thread_a").is_some());
    assert!(snap.span("thread_b").is_some());
    assert!(snap.span("thread_a.thread_b").is_none());
    assert!(snap.span("thread_b.thread_a").is_none());
}

#[test]
fn disabled_instrumentation_records_nothing() {
    let _guard = isolated();
    lsi_obs::set_enabled(false);
    {
        let _s = lsi_obs::span("ghost");
        lsi_obs::add_flops(1e9);
        lsi_obs::count("ghost.count", 3);
        lsi_obs::observe("ghost.us", 5.0);
        lsi_obs::record_phase("sub", &PhaseStats::once(1.0, 1.0));
    }
    let snap = lsi_obs::snapshot();
    assert!(snap.span("ghost").is_none());
    assert_eq!(snap.counter("ghost.count"), None);
    assert!(snap.hists.iter().all(|(n, _)| n != "ghost.us"));
}

#[test]
fn run_report_round_trips_through_json_text() {
    let _guard = isolated();
    {
        let _q = lsi_obs::span("query");
        lsi_obs::add_flops(2048.0);
        lsi_obs::count("query.count", 1);
        lsi_obs::observe("query.time.us", 130.0);
    }
    lsi_obs::set_enabled(false);

    let mut report = RunReport::new("roundtrip-test").meta("k", Json::Num(64.0));
    report.result("qps", Json::Num(1234.5));
    report.snapshot = lsi_obs::snapshot();
    let json = report.to_json();
    let text = json.to_string_pretty();

    let parsed = parse_json(&text).expect("exporter output parses");
    assert_eq!(parsed, json, "write → parse is lossless");
    assert_eq!(parse_json(&parsed.to_string_pretty()).unwrap(), parsed);

    let metrics = parsed.get("metrics").unwrap();
    let query = metrics.get("spans").unwrap().get("query").unwrap();
    assert_eq!(query.get("flops").unwrap().as_f64(), Some(2048.0));
    assert!(query.get("secs").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        metrics.get("counters").unwrap().get("query.count").unwrap().as_f64(),
        Some(1.0)
    );
    // The sha is recorded only where there is a checkout to read it
    // from; a source export without `.git` omits the key.
    let meta_sha = parsed.get("meta").unwrap().get("git_sha");
    match lsi_obs::git_sha() {
        Some(sha) => {
            assert_eq!(meta_sha.and_then(Json::as_str), Some(sha.as_str()));
            assert_eq!(sha.len(), 40);
            assert!(sha.bytes().all(|b| b.is_ascii_hexdigit()), "{sha}");
        }
        None => assert!(meta_sha.is_none()),
    }
}

#[test]
fn snapshot_json_of_empty_registry_is_valid() {
    let _guard = isolated();
    lsi_obs::set_enabled(false);
    let json = snapshot_to_json(&Snapshot::default());
    assert_eq!(parse_json(&json.to_string_pretty()).unwrap(), json);
}
