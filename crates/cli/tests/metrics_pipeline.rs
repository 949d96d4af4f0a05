//! End-to-end metrics coverage: the full CLI pipeline on the paper's
//! MED example must report every stage with nonzero wall time, flop
//! counts, and allocation attribution, via the same JSON exporter
//! `lsi --metrics=json` prints — plus the Chrome trace the same run
//! produces under `--trace=FILE`, including pool-worker lanes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lsi_cli::commands;
use lsi_corpora::MedExample;
use lsi_obs::Json;

/// The stages the ISSUE acceptance criterion enumerates: parsing,
/// matrix build, SVD (with its Lanczos phase breakdown), database
/// assembly, query, and folding-in.
const REQUIRED_STAGES: &[&str] = &[
    "build.parse",
    "build.matrix",
    "build.svd",
    "build.assemble",
    "query",
    "fold_in",
];

const LANCZOS_PHASES: &[&str] = &[
    "build.svd.lanczos.gram",
    "build.svd.lanczos.reorth",
    "build.svd.lanczos.ritz",
    "build.svd.lanczos.tridiag",
];

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lsi-metrics-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn med_pipeline_reports_all_six_stages_with_nonzero_work() {
    // One test body: the obs registry is process-global, so the whole
    // pipeline runs under a single enable/snapshot cycle. Tracing is
    // armed alongside metrics — exactly what `lsi --trace=FILE
    // --metrics=json` does — so one pipeline validates both exports.
    lsi_obs::reset();
    lsi_obs::reset_trace();
    lsi_obs::set_trace_filter(Some("*"));
    lsi_obs::set_enabled(true);
    lsi_obs::set_trace_enabled(true);
    lsi_obs::register_thread("main");

    let ex = MedExample::build();
    let dir = tmpdir();
    // Arm the structured query log before the first query runs (the
    // sink spec is read once per process).
    let qlog_path = dir.join("queries.jsonl");
    std::env::set_var("LSI_QUERY_LOG", &qlog_path);
    let tsv_path = dir.join("med.tsv");
    let mut tsv = String::new();
    for doc in &ex.corpus.docs {
        tsv.push_str(&format!("{}\t{}\n", doc.id, doc.text.replace('\n', " ")));
    }
    std::fs::write(&tsv_path, &tsv).unwrap();
    let tsv_path = tsv_path.to_string_lossy().into_owned();
    let db = dir.join("med.json").to_string_lossy().into_owned();

    // index → query → add (fold): the three commands that touch every
    // stage of the span taxonomy.
    commands::cmd_index(&[tsv_path], &db, 8, 2, "log-entropy", false, "f64", None).unwrap();
    let hits =
        commands::cmd_query(&db, "the generation of blood cells", 5, None, None, None).unwrap();
    assert!(!hits.trim().is_empty(), "query produced no output");
    // A cluster-pruned query rides the same pipeline and must stamp the
    // index fields into the structured query log.
    let pruned_hits =
        commands::cmd_query(&db, "the generation of blood cells", 5, None, None, Some(1))
            .unwrap();
    assert!(!pruned_hits.trim().is_empty(), "pruned query produced no output");
    let new_doc = dir.join("fresh.txt");
    std::fs::write(
        &new_doc,
        "fibrin products of the blood and their measurement in pressure chambers",
    )
    .unwrap();
    let db2 = dir.join("med2.json").to_string_lossy().into_owned();
    commands::cmd_add(
        &db,
        &[new_doc.to_string_lossy().into_owned()],
        &db2,
        "fold",
    )
    .unwrap();

    // The thesaurus sweep behind `terms` is the one pool dispatch with
    // no size threshold, so it reliably puts task spans on the worker
    // lanes of the trace (when the pool has workers at all).
    let terms = commands::cmd_terms(&db, "blood", 5).unwrap();
    assert!(!terms.trim().is_empty(), "terms produced no output");
    // The sweep's chunks go to whichever thread claims them first, and
    // the submitting thread can claim them all. So one task is pinned
    // to a worker: the inline half of a join waits (bounded) until the
    // published half has started, which only a worker can do meanwhile.
    let pooled = std::env::var("LSI_NUM_THREADS")
        .map(|v| v.trim() != "1")
        .unwrap_or(true)
        && std::thread::available_parallelism().map(|n| n.get() > 1).unwrap_or(false);
    if pooled {
        let started = AtomicBool::new(false);
        rayon::join(
            || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !started.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
            || started.store(true, Ordering::Release),
        );
    }

    let snapshot = lsi_obs::snapshot();
    let trace = lsi_obs::chrome_trace_json();
    lsi_obs::set_trace_enabled(false);
    lsi_obs::set_enabled(false);
    lsi_obs::reset_trace();
    let qlog = std::fs::read_to_string(&qlog_path).expect("query log written");
    std::fs::remove_dir_all(&dir).ok();

    // --- The structured query log from the same pipeline -------------
    // Every served query emits one line with the shared schema keys;
    // the pruned run additionally carries the index fields.
    assert!(qlog.lines().count() >= 2, "expected >=2 query-log lines: {qlog}");
    for key in ["trace_id", "kind", "n_docs", "z", "precision", "path", "total_us"] {
        assert!(
            qlog.lines().all(|l| l.contains(&format!("\"{key}\""))),
            "every query-log line carries {key:?}: {qlog}"
        );
    }
    let pruned_line = qlog
        .lines()
        .find(|l| l.contains("\"path\":\"pruned\""))
        .unwrap_or_else(|| panic!("no pruned query-log line: {qlog}"));
    for key in ["nprobe", "lists_probed", "survivors", "probe_us"] {
        assert!(
            pruned_line.contains(&format!("\"{key}\"")),
            "pruned query-log line missing {key:?}: {pruned_line}"
        );
    }

    // Validate through the JSON exporter — the exact document
    // `lsi --metrics=json` emits — not the in-memory snapshot.
    let text = lsi_obs::snapshot_to_json(&snapshot).to_string_compact();
    let json = lsi_obs::parse_json(&text).unwrap();
    let spans = json.get("spans").expect("report has a spans section");

    for stage in REQUIRED_STAGES {
        let span = spans
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}; report: {text}"));
        let secs = span.get("secs").unwrap().as_f64().unwrap();
        let flops = span.get("flops").unwrap().as_f64().unwrap();
        let calls = span.get("calls").unwrap().as_f64().unwrap();
        assert!(secs > 0.0, "{stage} reports zero wall time");
        assert!(flops > 0.0, "{stage} reports zero flops");
        assert!(calls >= 1.0, "{stage} reports zero calls");
    }

    // Every command loads or saves the database through the streaming
    // codec, and each side times its checksum apart.
    for stage in ["save", "save.checksum", "load", "load.checksum"] {
        let span = spans
            .get(stage)
            .unwrap_or_else(|| panic!("missing span {stage}; report: {text}"));
        assert!(
            span.get("secs").unwrap().as_f64().unwrap() > 0.0,
            "{stage} reports zero wall time"
        );
        assert!(
            span.get("calls").unwrap().as_f64().unwrap() >= 1.0,
            "{stage} reports zero calls"
        );
    }

    // The SVD stage additionally breaks down into Lanczos phases.
    for phase in LANCZOS_PHASES {
        let span = spans
            .get(phase)
            .unwrap_or_else(|| panic!("missing lanczos phase {phase}; report: {text}"));
        assert!(
            span.get("secs").unwrap().as_f64().unwrap() > 0.0,
            "{phase} reports zero wall time"
        );
    }

    // Stage flops must roll up: the parent build span holds at least
    // the sum of what its children attributed.
    let build = spans.get("build").expect("missing build span");
    let build_flops = build.get("flops").unwrap().as_f64().unwrap();
    let child_sum: f64 = ["build.parse", "build.matrix", "build.svd", "build.assemble"]
        .iter()
        .map(|s| spans.get(s).unwrap().get("flops").unwrap().as_f64().unwrap())
        .sum();
    assert!(
        build_flops >= child_sum * (1.0 - 1e-9),
        "parent flops {build_flops} < sum of children {child_sum}"
    );

    // Query latency histogram recorded at least the one query.
    let hist = json
        .get("histograms")
        .unwrap()
        .get("query.time.us")
        .expect("query latency histogram present");
    assert!(hist.get("count").unwrap().as_f64().unwrap() >= 1.0);

    // Per-span memory attribution reaches the JSON export: parsing
    // builds the vocabulary and count matrix, which cannot happen
    // without allocating.
    let parse = spans.get("build.parse").unwrap();
    for key in ["allocs", "alloc_bytes", "alloc_peak"] {
        assert!(
            parse.get(key).is_some(),
            "span JSON missing allocation field {key}; report: {text}"
        );
    }
    assert!(
        parse.get("alloc_bytes").unwrap().as_f64().unwrap() > 0.0,
        "build.parse allocated nothing?"
    );

    // --- The Chrome trace from the same pipeline ---------------------
    let trace_text = trace.to_string_compact();
    let trace = lsi_obs::parse_json(&trace_text).expect("trace JSON parses");
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("trace has no traceEvents array");
    };
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    let name = |e: &Json| e.get("name").and_then(Json::as_str).unwrap_or("").to_string();
    let begins: Vec<&Json> = events.iter().filter(|e| ph(e) == "B").collect();
    assert!(
        begins.iter().any(|e| name(e) == "build.svd"),
        "pipeline stages appear as B events"
    );
    // The E event for build.parse carries the same allocation args the
    // metrics table reported.
    let parse_end = events
        .iter()
        .find(|e| ph(e) == "E" && name(e) == "build.parse")
        .expect("build.parse E event in trace");
    let parse_alloc = parse_end
        .get("args")
        .and_then(|a| a.get("alloc_bytes"))
        .and_then(Json::as_f64)
        .expect("E event carries alloc_bytes");
    assert!(parse_alloc > 0.0);

    // Pool-worker lanes: with more than one thread, the pinned task
    // (and usually some of the terms sweep's) rides a worker tid with a
    // `pool.worker.N` lane name. (verify.sh reruns the suite with
    // LSI_NUM_THREADS=1, where the pool has no workers and everything
    // stays on the main lane.)
    if pooled {
        let worker_tids: Vec<f64> = events
            .iter()
            .filter(|e| {
                ph(e) == "M"
                    && name(e) == "thread_name"
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.starts_with("pool.worker."))
            })
            .map(|e| e.get("tid").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(
            !worker_tids.is_empty(),
            "pool workers must register trace lanes; trace: {trace_text}"
        );
        let task_on_worker = events.iter().any(|e| {
            ph(e) == "B"
                && name(e).ends_with(".task")
                && e.get("tid")
                    .and_then(Json::as_f64)
                    .is_some_and(|tid| worker_tids.contains(&tid))
        });
        assert!(
            task_on_worker,
            "task spans must appear on pool-worker lanes; trace: {trace_text}"
        );
    }
}
