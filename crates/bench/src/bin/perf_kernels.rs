//! Kernel-level performance snapshot used to populate BENCH_kernels.json.
//!
//! Measures the three hot paths the blocked-BLAS work targets:
//! dense GEMM throughput (GFLOP/s), Lanczos wall time at k = 50 with
//! full reorthogonalization, and query-scoring throughput (queries/sec,
//! both one-at-a-time and batched). Prints one JSON run report to
//! stdout (the lsi-obs `RunReport` schema: `name`/`meta`/`results`/
//! `metrics`) so before/after runs can be diffed mechanically:
//!
//! ```text
//! cargo run --release -p lsi-bench --bin perf_kernels           # full sizes
//! cargo run --release -p lsi-bench --bin perf_kernels -- --quick  # CI smoke
//! cargo run --release -p lsi-bench --bin perf_kernels -- --pool   # BENCH_pool.json
//! ```
//!
//! `--quick` shrinks every problem size so the whole run takes a few
//! seconds; the report keys are identical, only the numbers are not
//! comparable to full-size runs (meta records `"quick": true`).
//!
//! `--pool` switches to the thread-pool snapshot used to populate
//! BENCH_pool.json: pooled dispatch latency vs the scoped-spawn cost it
//! replaced, the nnz-balanced SpMV speedup on a Zipf-skewed matrix, and
//! the Lanczos k = 50 wall time (comparable to `lanczos_k50_secs` in
//! BENCH_kernels.json). Combines with `--quick` for a smoke run.
//!
//! `--index` measures the cluster-pruned retrieval curve on a
//! 10x-inflated copy of the kernels corpus: the nprobe sweep
//! (recall@10, throughput, speedup vs the exact scan), the default
//! operating point, bit-identity at `nprobe = n_lists`, and the
//! 1x/10x/100x per-query latency trend. Exits nonzero when recall@10
//! at the default depth falls below 0.95 or full-depth bit-identity
//! breaks. Populates the `index` section of BENCH_kernels.json.
//!
//! `--compressed` measures the precision ladder: batched top-10 scoring
//! throughput on the exact f64 scan vs the f32 and i8 candidate sweeps
//! (same corpus and queries as the kernels run, so
//! `f64_batch_scoring_qps` is comparable to `query_batch_scoring_qps`),
//! plus resident scoring bytes per mode, margin-fallback counts, and
//! the i8 ladder's recall@10 against the exact oracle. Populates the
//! `compressed` section of BENCH_kernels.json.
//!
//! `--serve` runs the daemon load bench: an in-process
//! `lsi_serve::Server` driven by concurrent keep-alive clients over
//! loopback sockets. Measures coalesced-batch serving qps/p50/p99 vs
//! the same daemon pinned to one query per scoring call, the shed rate
//! past a tiny scoring queue, and a drain with requests in flight.
//! Exits nonzero when batching buys < 2x (full size), the bounded
//! queue never sheds, or a drain drops an in-flight request. Populates
//! BENCH_serve.json.
//!
//! `--gate` is the perf-regression gate run by scripts/verify.sh: it
//! re-measures the key metrics at full size with observability
//! *disarmed* (the production configuration), loads the `gate` section
//! of BENCH_kernels.json, and fails (exit 1) with an itemized diff when
//! any metric falls outside its tolerance band. A failing first pass
//! gets one settle-and-retry (the gate runs right after the test
//! suites, when the container's CPU budget is often drained); the
//! direction-aware better of the two measurements stands. It also
//! reports the armed-metrics and armed-tracing overhead on the batched
//! query path (the numbers behind the DESIGN.md §3g overhead table).
//! `LSI_PERF_TOLERANCE=0.5` overrides every band, for slower machines.

use std::time::Instant;

use lsi_core::{BatchQuery, Combine, LsiModel, LsiOptions, MultiQuery};
use lsi_corpora::treclike::trec_like;
use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_linalg::{ops, DenseMatrix};
use lsi_obs::Json;
use lsi_sparse::ops::DualFormat;
use lsi_svd::{lanczos_svd, LanczosOptions, Reorth};
use lsi_text::{ParsingRules, TermWeighting};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Problem sizes for one run; `--quick` selects the small set.
struct Sizes {
    gemm_square_small: usize,
    gemm_square_large: usize,
    gemm_tall: (usize, usize, usize),
    trec_scale: usize,
    lanczos_k: usize,
    topics: usize,
    docs_per_topic: usize,
    model_k: usize,
    time_reps: usize,
    score_reps: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            gemm_square_small: 256,
            gemm_square_large: 512,
            // Tall-skinny shape typical of basis updates.
            gemm_tall: (4500, 128, 128),
            trec_scale: 20, // 4500 x 3500, TREC-shaped sparsity
            lanczos_k: 50,
            topics: 10,
            docs_per_topic: 200,
            model_k: 64,
            time_reps: 3,
            score_reps: 20,
        }
    }

    fn quick() -> Sizes {
        Sizes {
            gemm_square_small: 96,
            gemm_square_large: 128,
            gemm_tall: (600, 48, 48),
            // trec_like's scale is a divisor: larger scale = smaller matrix.
            trec_scale: 200,
            lanczos_k: 20,
            topics: 4,
            docs_per_topic: 30,
            model_k: 16,
            time_reps: 1,
            score_reps: 2,
        }
    }
}

fn random_matrix(m: usize, n: usize, rng: &mut StdRng) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(m, n);
    for j in 0..n {
        for i in 0..m {
            a.set(i, j, rng.random::<f64>() - 0.5);
        }
    }
    a
}

/// Best-of-`reps` wall time for `f`, in seconds.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn gemm_gflops(m: usize, k: usize, n: usize, transposed: bool, reps: usize, rng: &mut StdRng) -> f64 {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    if transposed {
        // C = A^T B with A k-rows-first so shapes line up: A is k x m.
        let a = random_matrix(k, m, rng);
        let b = random_matrix(k, n, rng);
        let secs = best_secs(reps, || {
            std::hint::black_box(ops::matmul_tn(&a, &b).expect("gemm_tn"));
        });
        flops / secs / 1e9
    } else {
        let a = random_matrix(m, k, rng);
        let b = random_matrix(k, n, rng);
        let secs = best_secs(reps, || {
            std::hint::black_box(ops::matmul(&a, &b).expect("gemm"));
        });
        flops / secs / 1e9
    }
}

fn query_model(s: &Sizes) -> (LsiModel, Vec<String>) {
    let gen = SyntheticCorpus::generate(&SyntheticOptions {
        n_topics: s.topics,
        docs_per_topic: s.docs_per_topic,
        doc_len: 30,
        queries_per_topic: 8,
        seed: 77,
        ..Default::default()
    });
    let options = LsiOptions {
        k: s.model_k,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::log_entropy(),
        svd_seed: 7,
    };
    let (model, _) = LsiModel::build(&gen.corpus, &options).expect("model builds");
    let queries = gen.queries.iter().map(|q| q.text.clone()).collect();
    (model, queries)
}

/// The `--pool` report: dispatch latency, SpMV skew behavior, Lanczos
/// wall time. Everything the pool acceptance criteria need in one JSON.
fn pool_report(quick: bool) {
    use rayon::prelude::*;

    let run_start = Instant::now();
    let threads = rayon::current_num_threads();

    // --- Dispatch latency --------------------------------------------
    // Warm the pool (first parallel call spawns the workers), then time
    // empty parallel regions: all that remains is publish + wake +
    // chunk-claim + quiesce, i.e. pure dispatch.
    (0..threads * 4).into_par_iter().for_each(|_| {});
    let reps = if quick { 200 } else { 2000 };
    let t0 = Instant::now();
    for _ in 0..reps {
        (0..threads * 4).into_par_iter().for_each(|_| {});
    }
    let pool_dispatch_us = t0.elapsed().as_secs_f64() / reps as f64 * 1e6;

    // The cost the pool replaced: one scoped OS-thread spawn + join per
    // parallel region (what the shim did before it had a pool).
    let sreps = if quick { 10 } else { 50 };
    let t0 = Instant::now();
    for _ in 0..sreps {
        std::thread::scope(|s| {
            s.spawn(|| {});
        });
    }
    let spawn_dispatch_us = t0.elapsed().as_secs_f64() / sreps as f64 * 1e6;

    // --- SpMV on a Zipf-skewed matrix --------------------------------
    // Term-frequency rows follow a Zipf law, so a handful of rows hold
    // a large share of the nonzeros — the shape that made row-count
    // partitioning lopsided and motivated the nnz-balanced spans.
    // Both sizes must stay above PAR_NNZ_THRESHOLD or the "parallel"
    // column silently measures the serial fallback.
    let (tm, tn, density) = if quick { (8000, 4000, 0.012) } else { (20000, 8000, 0.012) };
    let csc = lsi_sparse::gen::random_term_doc(
        tm,
        tn,
        density,
        lsi_sparse::gen::RowProfile::Zipf { s: 1.1 },
        8,
        99,
    );
    let csr = csc.to_csr();
    let nnz = csr.nnz();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let x: Vec<f64> = (0..tn).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut y = vec![0.0; tm];
    let mreps = if quick { 5 } else { 50 };
    let serial_secs = best_secs(mreps, || {
        csr.matvec_into(&x, &mut y);
        std::hint::black_box(&y);
    });
    let par_secs = best_secs(mreps, || {
        csr.par_matvec_into(&x, &mut y);
        std::hint::black_box(&y);
    });

    // --- Lanczos wall time -------------------------------------------
    // Same shape and options as the kernels bench, so lanczos_k50_secs
    // is directly comparable to the PR 1 BENCH_kernels.json baseline.
    let s = if quick { Sizes::quick() } else { Sizes::full() };
    let matrix = trec_like(s.trec_scale, 7);
    let corpus_shape = format!("trec_like({}) {}x{}", s.trec_scale, matrix.nrows(), matrix.ncols());
    let dual = DualFormat::from_csc(matrix);
    let opts = LanczosOptions {
        reorth: Reorth::Full,
        ..Default::default()
    };
    let mut steps = 0usize;
    let lanczos_secs = best_secs(s.time_reps, || {
        let (svd, report) = lanczos_svd(&dual, s.lanczos_k, &opts).expect("lanczos runs");
        steps = report.steps;
        std::hint::black_box(svd);
    });

    let mut report = lsi_obs::RunReport::new("perf_pool")
        .meta("quick", Json::Bool(quick))
        .meta("corpus", Json::Str(corpus_shape))
        .meta("spmv_shape", Json::Str(format!("{tm}x{tn} zipf(1.1) nnz={nnz}")))
        .meta("wall_secs", Json::Num(run_start.elapsed().as_secs_f64()));
    report.result("pool_threads", Json::Num(threads as f64));
    report.result("pool_dispatch_us", Json::Num(pool_dispatch_us));
    report.result("spawn_dispatch_us", Json::Num(spawn_dispatch_us));
    report.result("spmv_skewed_serial_secs", Json::Num(serial_secs));
    report.result("spmv_skewed_par_secs", Json::Num(par_secs));
    report.result("spmv_skewed_speedup", Json::Num(serial_secs / par_secs));
    report.result("lanczos_k50_secs", Json::Num(lanczos_secs));
    report.result("lanczos_k50_steps", Json::Num(steps as f64));
    report.snapshot = lsi_obs::snapshot();
    print!("{}", report.to_json().to_string_pretty());
}

/// The `--compressed` report: the precision ladder measured end to end
/// through `rank_projected_top` on the kernels-bench corpus.
fn compressed_report(quick: bool) {
    use lsi_core::Precision;

    let s = if quick { Sizes::quick() } else { Sizes::full() };
    let run_start = Instant::now();
    let (model, queries) = query_model(&s);
    let qhats: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| model.project_text(q).expect("projects"))
        .collect();
    let corpus_shape = format!(
        "synthetic {} docs x k={} ({} queries)",
        model.n_docs(),
        model.k(),
        qhats.len()
    );

    // Exact top-10 oracle, for the i8 recall measurement.
    let oracles: Vec<Vec<usize>> = qhats
        .iter()
        .map(|qhat| {
            model
                .rank_projected_top(qhat, 10)
                .expect("oracle ranks")
                .matches
                .iter()
                .map(|m| m.doc)
                .collect()
        })
        .collect();

    let mut report = lsi_obs::RunReport::new("perf_compressed")
        .meta("quick", Json::Bool(quick))
        .meta("corpus", Json::Str(corpus_shape));
    let mut qps_by_mode = [0.0f64; 3];
    for (mi, precision) in [Precision::Exact, Precision::F32, Precision::I8]
        .into_iter()
        .enumerate()
    {
        let mut m = model.clone();
        m.set_precision(precision);
        let name = precision.name();
        let fallbacks_before = lsi_obs::snapshot()
            .counter("score.rerank.fallback.count")
            .unwrap_or(0);
        let secs = best_secs(s.time_reps, || {
            for _ in 0..s.score_reps {
                for qhat in &qhats {
                    let ranked = m.rank_projected_top(qhat, 10).expect("ranks");
                    std::hint::black_box(ranked);
                }
            }
        });
        let fallbacks = lsi_obs::snapshot()
            .counter("score.rerank.fallback.count")
            .unwrap_or(0)
            - fallbacks_before;
        let qps = (s.score_reps * qhats.len()) as f64 / secs;
        qps_by_mode[mi] = qps;
        report.result(&format!("{name}_batch_scoring_qps"), Json::Num(qps));
        report.result(
            &format!("{name}_resident_bytes"),
            Json::Num(m.scoring_resident_bytes() as f64),
        );
        if precision != Precision::Exact {
            report.result(&format!("{name}_fallbacks"), Json::Num(fallbacks as f64));
        }
        if precision == Precision::I8 {
            let mut hit = 0usize;
            let mut total = 0usize;
            for (qhat, oracle) in qhats.iter().zip(oracles.iter()) {
                let approx = m.rank_projected_top(qhat, 10).expect("i8 ranks");
                hit += approx
                    .matches
                    .iter()
                    .filter(|hm| oracle.contains(&hm.doc))
                    .count();
                total += oracle.len();
            }
            report.result("i8_recall_at_10", Json::Num(hit as f64 / total as f64));
        }
    }
    report.result("f32_speedup_vs_f64", Json::Num(qps_by_mode[1] / qps_by_mode[0]));
    report.result("i8_speedup_vs_f64", Json::Num(qps_by_mode[2] / qps_by_mode[0]));
    let report = report.meta("wall_secs", Json::Num(run_start.elapsed().as_secs_f64()));
    let mut report = report;
    report.snapshot = lsi_obs::snapshot();
    print!("{}", report.to_json().to_string_pretty());
}

/// The `--index` report: the cluster-pruned retrieval curve measured
/// end to end through `rank_projected_top` on a 10x-inflated copy of
/// the kernels-bench corpus (`replicate_docs_for_bench`, so the exact
/// rows are comparable to `query_batch_scoring_qps` scaled by 10).
///
/// Reports the nprobe sweep (recall@10 + throughput + speedup vs the
/// exact-scan oracle on the same inflated corpus), the default-depth
/// operating point, bit-identity at `nprobe = n_lists`, and the
/// scaling trend at 1x/10x/100x inflation. Exits nonzero when
/// recall@10 at [`lsi_core::DEFAULT_NPROBE`] drops below 0.95 or the
/// full-depth probe is not bit-identical — the CI floor for the
/// pruning path. Populates the `index` section of BENCH_kernels.json.
fn index_report(quick: bool) -> i32 {
    use lsi_core::{IndexPolicy, Precision, DEFAULT_NPROBE};

    let s = if quick { Sizes::quick() } else { Sizes::full() };
    let run_start = Instant::now();
    let (base, queries) = query_model(&s);
    let qhats: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| base.project_text(q).expect("projects"))
        .collect();

    let inflate = 10usize;
    let mut model = base.clone();
    model.replicate_docs_for_bench(inflate).expect("inflates");
    let n = model.n_docs();

    // Exact-scan oracle (top-10 ids) and exact batched throughput on
    // the inflated corpus — the baseline every pruned row divides by.
    let oracles: Vec<Vec<usize>> = qhats
        .iter()
        .map(|qhat| {
            model
                .rank_projected_top(qhat, 10)
                .expect("oracle ranks")
                .matches
                .iter()
                .map(|m| m.doc)
                .collect()
        })
        .collect();
    let batch_qps = |m: &LsiModel, reps: usize| {
        let secs = best_secs(reps, || {
            for qhat in &qhats {
                let ranked = m.rank_projected_top(qhat, 10).expect("ranks");
                std::hint::black_box(ranked);
            }
        });
        qhats.len() as f64 / secs
    };
    let recall_at_10 = |m: &LsiModel| {
        let mut hit = 0usize;
        let mut total = 0usize;
        for (qhat, oracle) in qhats.iter().zip(oracles.iter()) {
            let ranked = m.rank_projected_top(qhat, 10).expect("pruned ranks");
            hit += ranked.matches.iter().filter(|hm| oracle.contains(&hm.doc)).count();
            total += oracle.len();
        }
        hit as f64 / total as f64
    };
    let exact_qps = batch_qps(&model, s.time_reps);

    // One training pass; the sweep below only changes the probe depth,
    // which reuses the trained index.
    let train_start = Instant::now();
    model
        .set_index_policy(IndexPolicy::Pruned { nprobe: DEFAULT_NPROBE })
        .expect("index trains");
    let train_secs = train_start.elapsed().as_secs_f64();
    let n_lists = model.index_n_lists().expect("index present");

    let mut report = lsi_obs::RunReport::new("perf_index")
        .meta("quick", Json::Bool(quick))
        .meta(
            "corpus",
            Json::Str(format!(
                "synthetic {} docs (10x-inflated) x k={} ({} queries)",
                n,
                model.k(),
                qhats.len()
            )),
        );
    report.result("index_n_lists", Json::Num(n_lists as f64));
    report.result(
        "index_resident_bytes",
        Json::Num(model.index_resident_bytes().unwrap_or(0) as f64),
    );
    report.result("index_train_secs", Json::Num(train_secs));
    report.result("exact_batch_scoring_qps", Json::Num(exact_qps));

    // --- The nprobe sweep: recall@10 vs speedup ----------------------
    let mut failures: Vec<String> = Vec::new();
    for &p in &[1usize, 2, 4, 8, 16, 32, 64] {
        if p > n_lists {
            continue;
        }
        model.set_index_policy(IndexPolicy::Pruned { nprobe: p }).expect("depth change");
        let qps = batch_qps(&model, s.time_reps);
        let recall = recall_at_10(&model);
        report.result(&format!("nprobe{p}_batch_scoring_qps"), Json::Num(qps));
        report.result(&format!("nprobe{p}_recall_at_10"), Json::Num(recall));
        report.result(&format!("nprobe{p}_speedup_vs_exact"), Json::Num(qps / exact_qps));
    }
    // The default operating point (clamped on tiny corpora), the row
    // the recall floor and the perf gate stand on.
    model
        .set_index_policy(IndexPolicy::Pruned { nprobe: DEFAULT_NPROBE })
        .expect("depth change");
    let default_qps = batch_qps(&model, s.time_reps);
    let default_recall = recall_at_10(&model);
    let default_speedup = default_qps / exact_qps;
    report.result("pruned_batch_scoring_qps", Json::Num(default_qps));
    report.result("pruned_recall_at_10", Json::Num(default_recall));
    report.result("pruned_speedup_vs_exact", Json::Num(default_speedup));
    if default_recall < 0.95 {
        failures.push(format!(
            "recall@10 at nprobe={DEFAULT_NPROBE} is {default_recall:.4} (floor 0.95)"
        ));
    }

    // The compressed ladder rides the same survivor sweep: pruned
    // candidate generation in f32 with the exact f64 re-rank.
    {
        let mut m32 = model.clone();
        m32.set_precision(Precision::F32);
        report.result("pruned_f32_batch_scoring_qps", Json::Num(batch_qps(&m32, s.time_reps)));
        report.result("pruned_f32_recall_at_10", Json::Num(recall_at_10(&m32)));
    }

    // --- Bit-identity at full probe depth ----------------------------
    // nprobe = n_lists degenerates to the exact scan: same documents,
    // same order, same cosine bit patterns.
    model
        .set_index_policy(IndexPolicy::Pruned { nprobe: n_lists })
        .expect("depth change");
    let mut exact_policy = model.clone();
    exact_policy.set_index_policy(IndexPolicy::Exact).expect("exact policy");
    let mut identical = true;
    for qhat in &qhats {
        let want = exact_policy.rank_projected_top(qhat, 10).expect("exact ranks");
        let got = model.rank_projected_top(qhat, 10).expect("full-depth ranks");
        identical &= want.matches.len() == got.matches.len()
            && want
                .matches
                .iter()
                .zip(got.matches.iter())
                .all(|(a, b)| a.doc == b.doc && a.cosine.to_bits() == b.cosine.to_bits());
    }
    report.result("full_depth_bit_identical", Json::Num(identical as u64 as f64));
    if !identical {
        failures.push("nprobe = n_lists is not bit-identical to the exact scan".to_string());
    }

    // --- Scaling trend: per-query latency at 1x/10x/100x -------------
    // The exact scan grows linearly with the corpus; the probe stays
    // ~sqrt(n) + survivors, so pruned latency should stay near flat.
    for &factor in &[1usize, 10, 100] {
        let mut m = base.clone();
        m.replicate_docs_for_bench(factor).expect("inflates");
        let exact = batch_qps(&m, 1);
        m.set_index_policy(IndexPolicy::Pruned { nprobe: DEFAULT_NPROBE })
            .expect("index trains");
        let pruned = batch_qps(&m, 1);
        report.result(&format!("scale{factor}x_exact_query_us"), Json::Num(1e6 / exact));
        report.result(&format!("scale{factor}x_pruned_query_us"), Json::Num(1e6 / pruned));
    }

    let mut report = report.meta("wall_secs", Json::Num(run_start.elapsed().as_secs_f64()));
    report.snapshot = lsi_obs::snapshot();
    print!("{}", report.to_json().to_string_pretty());
    if !failures.is_empty() {
        for f in &failures {
            lsi_obs::error!("perf-index: FAIL: {f}");
        }
        return 1;
    }
    0
}

// --- The `--serve` load generator ------------------------------------
//
// Drives a real in-process `lsi_serve::Server` over loopback sockets:
// N keep-alive clients, each issuing GET /query requests back to back.
// Measures batched coalesced serving against the same daemon pinned to
// max_batch = 1 (per-request sequential scoring), then a shed phase
// with a tiny scoring queue, then a drain phase with requests provably
// in flight when the server stops. Populates BENCH_serve.json.

/// Per-phase load result, aggregated over every client.
struct LoadOutcome {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    ok: u64,
    shed: u64,
    timeout: u64,
    dropped: u64,
    wall_secs: f64,
    report: lsi_obs::RunReport,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Read one HTTP/1.1 response off a keep-alive stream. `carry` holds
/// bytes of the next response read past this one. Returns
/// `(status, server_will_close)`.
fn read_one_response(
    stream: &mut std::net::TcpStream,
    carry: &mut Vec<u8>,
) -> std::io::Result<(u16, bool)> {
    use std::io::Read as _;
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = find_blank_line(carry) {
            break end;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let mut content_len = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_len = v.trim().parse().unwrap_or(0);
            }
            if k.trim().eq_ignore_ascii_case("connection")
                && v.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let total = head_end + content_len;
    while carry.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
    }
    carry.drain(..total);
    Ok((status, close))
}

/// One keep-alive client: `n` GET requests round-robining `paths`,
/// reconnecting when the server closes. Returns per-request
/// `(status, latency_us)`; status 0 = no response (dropped).
fn client_loop(
    addr: std::net::SocketAddr,
    n: usize,
    paths: &[String],
    offset: usize,
) -> Vec<(u16, f64)> {
    use std::io::Write as _;
    let mut out = Vec::with_capacity(n);
    let mut conn: Option<(std::net::TcpStream, Vec<u8>)> = None;
    for i in 0..n {
        let path = &paths[(offset + i) % paths.len()];
        let t = Instant::now();
        let status = (|| -> std::io::Result<u16> {
            if conn.is_none() {
                let s = std::net::TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
                conn = Some((s, Vec::new()));
            }
            let (stream, carry) = conn.as_mut().expect("connection present");
            stream.write_all(
                format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
            )?;
            let (status, close) = read_one_response(stream, carry)?;
            if close {
                conn = None;
            }
            Ok(status)
        })();
        let us = t.elapsed().as_secs_f64() * 1e6;
        match status {
            Ok(code) => out.push((code, us)),
            Err(_) => {
                conn = None;
                out.push((0, us));
            }
        }
    }
    out
}

/// Run one load phase: bind, serve `model`, hammer it with
/// `clients` x `per_client` requests, stop, and aggregate.
fn serve_phase(
    model: LsiModel,
    cfg: lsi_serve::ServeConfig,
    clients: usize,
    per_client: usize,
    paths: &[String],
) -> LoadOutcome {
    use std::sync::atomic::Ordering;

    let server = lsi_serve::Server::bind(cfg).expect("serve bench binds");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run(model));
    // Warm up the accept path and the scoring store before timing.
    let _ = client_loop(addr, 1, paths, 0);

    let t0 = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let paths = paths.to_vec();
            std::thread::spawn(move || client_loop(addr, per_client, &paths, c * 7))
        })
        .collect();
    let mut lats: Vec<f64> = Vec::new();
    let (mut ok, mut shed, mut timeout, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    for join in joins {
        for (code, us) in join.join().expect("client thread") {
            match code {
                200 => {
                    ok += 1;
                    lats.push(us);
                }
                503 => shed += 1,
                408 | 504 => timeout += 1,
                _ => dropped += 1,
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    // Relaxed: advisory stop gate; the accept loop re-checks each pass.
    stop.store(true, Ordering::Relaxed);
    let report = handle.join().expect("server thread");
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LoadOutcome {
        qps: ok as f64 / wall_secs,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        ok,
        shed,
        timeout,
        dropped,
        wall_secs,
        report,
    }
}

fn query_paths(queries: &[String]) -> Vec<String> {
    queries
        .iter()
        .map(|q| format!("/query?q={}&top=10", q.replace(' ', "+")))
        .collect()
}

/// The `--serve` report: coalesced-batch serving vs the same daemon
/// pinned to one query per scoring call, plus shed and drain behavior
/// under load. Exits nonzero (full size only) when batching buys less
/// than 2x, when the bounded queue never sheds, or when a drain drops
/// an in-flight request. Populates BENCH_serve.json.
fn serve_report(quick: bool) -> i32 {
    let mut s = if quick { Sizes::quick() } else { Sizes::full() };
    // Serving-sized factor space: retrieval-quality LSI runs at
    // k ~ 100+ (the paper's operating range), where the per-query GEMV
    // re-reads k doc-store columns per request and the coalesced GEMM's
    // one-pass reuse pays off. The kernels-bench k = 64 model
    // understates the daemon's regime.
    if !quick {
        s.model_k = 128;
    }
    let run_start = Instant::now();
    let (base, queries) = query_model(&s);
    // Inflation makes the document sweep memory-bound, the regime
    // batching targets: the coalesced GEMM reads the doc store once
    // per batch where the sequential daemon re-reads it per query.
    // 20x (40k docs, a ~41 MB doc store at k = 128) puts the sweep
    // well past cache so the fixed per-query costs (projection,
    // selection, HTTP framing) don't mask the scoring contrast.
    let inflate = if quick { 3 } else { 20 };
    let mut model = base.clone();
    model.replicate_docs_for_bench(inflate).expect("inflates");
    let paths = query_paths(&queries);
    let clients = if quick { 4 } else { 24 };
    let per_client = if quick { 30 } else { 100 };

    // The degradation ladder is off for the throughput comparison:
    // both phases must score the exact path end to end, or the batched
    // run would quietly win by shedding recall instead of coalescing.
    let flat_cfg = |max_batch: usize| lsi_serve::ServeConfig {
        threads: clients,
        max_batch,
        queue_depth: clients.max(64),
        degrade: false,
        ..lsi_serve::ServeConfig::default()
    };
    let sequential = serve_phase(model.clone(), flat_cfg(1), clients, per_client, &paths);
    let batched = serve_phase(model.clone(), flat_cfg(32), clients, per_client, &paths);
    let speedup = batched.qps / sequential.qps;

    // Shed phase: a scoring queue far smaller than the in-flight load.
    // The server must answer 503 past the bound, never queue unboundedly.
    let shed_cfg = lsi_serve::ServeConfig {
        threads: clients,
        max_batch: 1,
        queue_depth: 2,
        degrade: false,
        ..lsi_serve::ServeConfig::default()
    };
    let shed_phase = serve_phase(model.clone(), shed_cfg, clients, per_client.min(25), &paths);
    let shed_answered = shed_phase.ok + shed_phase.shed + shed_phase.timeout;
    let shed_rate = shed_phase.shed as f64 / shed_answered.max(1) as f64;

    // Drain phase: requests provably in flight (the serve.batch
    // failpoint stalls scoring) when the server stops; every one must
    // still be answered 200 and counted in the final report.
    let drain_clients = 4;
    let drain = {
        use std::sync::atomic::Ordering;
        let server = lsi_serve::Server::bind(lsi_serve::ServeConfig {
            threads: drain_clients,
            ..lsi_serve::ServeConfig::default()
        })
        .expect("drain server binds");
        let addr = server.local_addr();
        let stop = server.stop_handle();
        let mut m = base.clone();
        m.replicate_docs_for_bench(inflate).expect("inflates");
        let handle = std::thread::spawn(move || server.run(m));
        lsi_fault::arm_from_spec("serve.batch=delay-ms(150)").expect("failpoint arms");
        let joins: Vec<_> = (0..drain_clients)
            .map(|c| {
                let paths = paths.clone();
                std::thread::spawn(move || client_loop(addr, 1, &paths, c))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Relaxed: advisory stop gate; the accept loop re-checks each pass.
        stop.store(true, Ordering::Relaxed);
        let report = handle.join().expect("drain server thread");
        lsi_fault::clear();
        let mut ok = 0u64;
        let mut lost = 0u64;
        for join in joins {
            for (code, _) in join.join().expect("drain client") {
                if code == 200 {
                    ok += 1;
                } else {
                    lost += 1;
                }
            }
        }
        (ok, lost, report)
    };
    let (drain_ok, drain_lost, drain_server_report) = drain;

    let mut failures: Vec<String> = Vec::new();
    if !quick && speedup < 2.0 {
        failures.push(format!(
            "batched serving is only {speedup:.2}x the sequential daemon (floor 2.0x)"
        ));
    }
    if shed_phase.shed == 0 {
        failures.push("the depth-2 scoring queue never shed under load".to_string());
    }
    if drain_lost > 0 {
        failures.push(format!("drain dropped {drain_lost} in-flight request(s)"));
    }

    let mut report = lsi_obs::RunReport::new("perf_serve")
        .meta("quick", Json::Bool(quick))
        .meta(
            "corpus",
            Json::Str(format!(
                "synthetic {} docs ({inflate}x-inflated) x k={} ({} query paths)",
                model.n_docs(),
                model.k(),
                paths.len()
            )),
        )
        .meta("clients", Json::Num(clients as f64))
        .meta("requests_per_client", Json::Num(per_client as f64));
    report.result("sequential_qps", Json::Num(sequential.qps));
    report.result("sequential_p50_us", Json::Num(sequential.p50_us));
    report.result("sequential_p99_us", Json::Num(sequential.p99_us));
    report.result("batched_qps", Json::Num(batched.qps));
    report.result("batched_p50_us", Json::Num(batched.p50_us));
    report.result("batched_p99_us", Json::Num(batched.p99_us));
    report.result("batch_speedup", Json::Num(speedup));
    for (phase, out) in [("sequential", &sequential), ("batched", &batched)] {
        report.result(&format!("{phase}_ok"), Json::Num(out.ok as f64));
        report.result(&format!("{phase}_dropped"), Json::Num(out.dropped as f64));
        report.result(&format!("{phase}_wall_secs"), Json::Num(out.wall_secs));
    }
    let max_batch_seen = batched
        .report
        .to_json()
        .get("results")
        .and_then(|r| r.get("max_batch_seen"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    report.result("batched_max_batch_seen", Json::Num(max_batch_seen));
    report.result("shed_phase_qps", Json::Num(shed_phase.qps));
    report.result("shed_count", Json::Num(shed_phase.shed as f64));
    report.result("shed_rate", Json::Num(shed_rate));
    report.result("shed_timeouts", Json::Num(shed_phase.timeout as f64));
    report.result("drain_inflight_ok", Json::Num(drain_ok as f64));
    report.result("drain_inflight_lost", Json::Num(drain_lost as f64));
    let drain_queries = drain_server_report
        .to_json()
        .get("results")
        .and_then(|r| r.get("queries"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    report.result("drain_server_queries", Json::Num(drain_queries));
    let mut report = report.meta("wall_secs", Json::Num(run_start.elapsed().as_secs_f64()));
    report.snapshot = lsi_obs::snapshot();
    print!("{}", report.to_json().to_string_pretty());
    if !failures.is_empty() {
        for f in &failures {
            lsi_obs::error!("perf-serve: FAIL: {f}");
        }
        return 1;
    }
    0
}

/// One row of the gate comparison table.
struct GateRow {
    name: String,
    baseline: f64,
    measured: f64,
    /// `true` when larger values are better (throughput), `false` for
    /// wall times.
    higher_is_better: bool,
    tolerance: f64,
}

impl GateRow {
    /// The worst value still inside the tolerance band.
    fn bound(&self) -> f64 {
        if self.higher_is_better {
            self.baseline * (1.0 - self.tolerance)
        } else {
            self.baseline * (1.0 + self.tolerance)
        }
    }

    fn passes(&self) -> bool {
        if self.higher_is_better {
            self.measured >= self.bound()
        } else {
            self.measured <= self.bound()
        }
    }
}

/// Walk up from the current directory to find BENCH_kernels.json (the
/// gate runs from the repo root under verify.sh, but also from crate
/// subdirectories during development).
fn find_bench_json() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("BENCH_kernels.json");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The `--gate` mode: measure fresh, compare against the committed
/// `gate` section of BENCH_kernels.json, exit nonzero on regression.
/// One full disarmed measurement pass over the gated metrics, plus the
/// armed-overhead trio `[disarmed, +metrics, +metrics+trace]` on the
/// batched-scoring loop. The gate measures the production
/// configuration: spans compiled in but the master switch off, so any
/// regression here is real cost on the default path (including the
/// counting-allocator gate check).
fn gate_measure(s: &Sizes) -> (Vec<(&'static str, f64)>, [f64; 3]) {
    assert!(!lsi_obs::enabled(), "gate must measure the disarmed path");
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let sq = s.gemm_square_small;
    let gemm_nn_small = gemm_gflops(sq, sq, sq, false, 5, &mut rng);

    let matrix = trec_like(s.trec_scale, 7);
    let dual = DualFormat::from_csc(matrix);
    let opts = LanczosOptions {
        reorth: Reorth::Full,
        ..Default::default()
    };
    let lanczos_secs = best_secs(s.time_reps, || {
        let (svd, _) = lanczos_svd(&dual, s.lanczos_k, &opts).expect("lanczos runs");
        std::hint::black_box(svd);
    });

    let (model, queries) = query_model(s);
    let qhats: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| model.project_text(q).expect("projects"))
        .collect();
    let single_secs = best_secs(s.time_reps, || {
        for q in &queries {
            let ranked = model.query(q).expect("query runs");
            std::hint::black_box(ranked.top(10));
        }
    });
    let single_qps = queries.len() as f64 / single_secs;
    let batch = |reps: usize| {
        let secs = best_secs(reps, || {
            for _ in 0..s.score_reps {
                for qhat in &qhats {
                    let ranked = model.rank_projected_top(qhat, 10).expect("ranks");
                    std::hint::black_box(ranked);
                }
            }
        });
        (s.score_reps * qhats.len()) as f64 / secs
    };
    // Warm-up pass: the tight 2% band must not trip on cold caches.
    let _ = batch(1);
    let batch_qps = batch(7);
    let mq = MultiQuery::from_vectors(&model, qhats.clone()).expect("facets");
    let multi_secs = best_secs(s.time_reps, || {
        for _ in 0..s.score_reps {
            let ranked = model.query_multi(&mq, Combine::Max).expect("multi");
            std::hint::black_box(ranked.top(10));
        }
    });
    let multi_qps = (s.score_reps * qhats.len()) as f64 / multi_secs;

    // Pruned batched scoring at the default probe depth on the
    // 10x-inflated corpus — the gated operating point of the cluster
    // index (same corpus and depth as `perf_kernels --index`).
    let mut inflated = model.clone();
    inflated.replicate_docs_for_bench(10).expect("inflates");
    inflated
        .set_index_policy(lsi_core::IndexPolicy::Pruned { nprobe: lsi_core::DEFAULT_NPROBE })
        .expect("index trains");
    let pruned_secs = best_secs(s.time_reps, || {
        for _ in 0..s.score_reps {
            for qhat in &qhats {
                let ranked = inflated.rank_projected_top(qhat, 10).expect("pruned ranks");
                std::hint::black_box(ranked);
            }
        }
    });
    let pruned_qps = (s.score_reps * qhats.len()) as f64 / pruned_secs;

    // Coalesced pairs on the same 10x-inflated corpus under the exact
    // policy: two queries per `query_top_batch` call, the narrow batch
    // a busy daemon forms. Gates the text-to-ranking path of such a
    // batch (sparse projection, one fused sweep of `V` for both).
    let mut serve_model = model.clone();
    serve_model.replicate_docs_for_bench(10).expect("inflates");
    let pair_secs = best_secs(s.time_reps, || {
        for pair in queries.chunks(2) {
            let batch = pair
                .iter()
                .map(|text| BatchQuery { text: text.clone(), z: 10, ctx: None })
                .collect();
            for ranked in serve_model.query_top_batch(batch) {
                std::hint::black_box(ranked.expect("pair batch ranks"));
            }
        }
    });
    let pair_qps = queries.len() as f64 / pair_secs;

    // Save and load of the same 10x-inflated exact model (20,000 docs,
    // k = 64, ~33 MB of JSON): the database codec end to end, body,
    // `#lsi1` trailer and checksum included, and the cold-start row of
    // ROADMAP item 4.
    let mut saved = String::new();
    let save_secs = best_secs(s.time_reps, || {
        saved = serve_model.to_json().expect("model saves");
    });
    let load_secs = best_secs(s.time_reps, || {
        std::hint::black_box(LsiModel::from_json(&saved).expect("model loads"));
    });
    drop(saved);

    // Batched serving throughput end to end through the daemon: real
    // loopback sockets, coalesced scoring, same 10x-inflated corpus as
    // the pruned row. Gates the serve path's whole stack (HTTP parse,
    // queue handoff, batch sweep, response write).
    let serve_paths = query_paths(&queries);
    let serve_out = serve_phase(
        serve_model,
        lsi_serve::ServeConfig {
            threads: 8,
            max_batch: 32,
            degrade: false,
            ..lsi_serve::ServeConfig::default()
        },
        8,
        40,
        &serve_paths,
    );
    let serve_qps = serve_out.qps;

    // Full-workspace static analysis (lexer + per-file rules + call
    // graph + interprocedural rules): caps the wall time of the
    // verify.sh `--ci` stage so the graph layers cannot quietly turn
    // the lint gate into the slowest part of the pipeline.
    let analysis_root =
        lsi_analyze::find_workspace_root(None).expect("workspace root for analysis gate");
    let analysis_secs = best_secs(3, || {
        let analysis = lsi_analyze::analyze(&analysis_root).expect("analysis runs");
        std::hint::black_box(analysis.findings.len());
    });

    // --- Instrumentation overhead on the same batched loop -----------
    // Armed metrics (spans + counters + allocation attribution), then
    // armed metrics + trace buffer. Reported, not gated: the gated
    // guarantee is that the *disarmed* path stays fast.
    lsi_obs::set_enabled(true);
    let batch_qps_metrics = batch(3);
    lsi_obs::set_trace_enabled(true);
    lsi_obs::register_thread("main");
    let batch_qps_trace = batch(3);
    lsi_obs::set_trace_enabled(false);
    lsi_obs::set_enabled(false);
    lsi_obs::reset_trace();

    (
        vec![
            ("gemm_nn_256_gflops", gemm_nn_small),
            ("lanczos_k50_secs", lanczos_secs),
            ("query_single_qps", single_qps),
            ("query_batch_scoring_qps", batch_qps),
            ("query_multi_facet_qps", multi_qps),
            ("query_pruned_batch_qps", pruned_qps),
            ("query_pair_batch_qps", pair_qps),
            ("serve_batch_qps", serve_qps),
            ("model_save_secs", save_secs),
            ("model_load_secs", load_secs),
            ("analysis_full_secs", analysis_secs),
        ],
        [batch_qps, batch_qps_metrics, batch_qps_trace],
    )
}

fn gate_report() -> i32 {
    let s = Sizes::full();
    let run_start = Instant::now();

    // Load the committed bands first so a malformed file fails fast,
    // before a minute of measurement.
    let Some(bench_path) = find_bench_json() else {
        lsi_obs::error!("perf-gate: BENCH_kernels.json not found walking up from the current directory");
        return 2;
    };
    let text = match std::fs::read_to_string(&bench_path) {
        Ok(t) => t,
        Err(e) => {
            lsi_obs::error!("perf-gate: cannot read {}: {e}", bench_path.display());
            return 2;
        }
    };
    let bench = match lsi_obs::parse_json(&text) {
        Ok(j) => j,
        Err(e) => {
            lsi_obs::error!("perf-gate: {} is not valid JSON: {e}", bench_path.display());
            return 2;
        }
    };
    let Some(gate) = bench.get("gate") else {
        lsi_obs::error!(
            "perf-gate: {} has no \"gate\" section; nothing to compare against",
            bench_path.display()
        );
        return 2;
    };
    let Some(Json::Obj(metrics)) = gate.get("metrics") else {
        lsi_obs::error!("perf-gate: \"gate\" section has no \"metrics\" object");
        return 2;
    };
    // LSI_PERF_TOLERANCE widens (or tightens) every band at once — the
    // escape hatch for machines slower than the one that recorded the
    // baselines. Committed per-metric tolerances otherwise apply.
    let tolerance_override = std::env::var("LSI_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());

    // --- Measure, observability disarmed -----------------------------
    let (mut measured, mut overhead) = gate_measure(&s);

    // --- Compare ------------------------------------------------------
    // One settle-and-retry pass: the gate usually runs right after the
    // full test suites, when the container's CPU budget is drained and
    // throughput can sag 10%+ for a few seconds. A metric outside its
    // band gets one fresh measurement after a short settle, and the
    // direction-aware better of the two runs stands — window-level
    // throttling clears; a real regression fails both passes.
    let build_rows = |measured: &[(&str, f64)]| -> Result<(Vec<GateRow>, usize), i32> {
        let mut rows: Vec<GateRow> = Vec::new();
        let mut unknown = 0;
        for (name, spec) in metrics {
            let (Some(baseline), Some(direction)) = (
                spec.get("baseline").and_then(Json::as_f64),
                spec.get("direction").and_then(Json::as_str),
            ) else {
                lsi_obs::error!("perf-gate: gate metric {name} needs \"baseline\" and \"direction\"");
                return Err(2);
            };
            let tolerance = tolerance_override
                .or_else(|| spec.get("tolerance").and_then(Json::as_f64))
                .unwrap_or(0.25);
            let Some(&(_, value)) = measured.iter().find(|(m, _)| *m == name.as_str()) else {
                lsi_obs::error!("perf-gate: gate metric {name} is not one perf_kernels measures");
                unknown += 1;
                continue;
            };
            rows.push(GateRow {
                name: name.clone(),
                baseline,
                measured: value,
                higher_is_better: direction == "higher",
                tolerance,
            });
        }
        Ok((rows, unknown))
    };
    let (mut rows, unknown) = match build_rows(&measured) {
        Ok(v) => v,
        Err(code) => return code,
    };
    if rows.iter().any(|r| !r.passes()) {
        lsi_obs::warn!("perf-gate: metric(s) outside tolerance; settling and re-measuring once");
        std::thread::sleep(std::time::Duration::from_secs(3));
        let (remeasured, reoverhead) = gate_measure(&s);
        for (slot, &(_, fresh)) in measured.iter_mut().zip(&remeasured) {
            let higher = rows
                .iter()
                .find(|r| r.name == slot.0)
                .map_or(true, |r| r.higher_is_better);
            if (fresh > slot.1) == higher {
                slot.1 = fresh;
            }
        }
        overhead = reoverhead;
        (rows, _) = match build_rows(&measured) {
            Ok(v) => v,
            Err(code) => return code,
        };
    }
    let [batch_qps, batch_qps_metrics, batch_qps_trace] = overhead;

    println!("perf-gate: {} vs fresh measurement", bench_path.display());
    println!(
        "  {:<26} {:>12} {:>12} {:>7} {:>12}  status",
        "metric", "baseline", "measured", "ratio", "bound"
    );
    let mut failed = 0;
    for row in &rows {
        let status = if row.passes() { "PASS" } else { "FAIL" };
        if !row.passes() {
            failed += 1;
        }
        println!(
            "  {:<26} {:>12.3} {:>12.3} {:>7.3} {:>12.3}  {} ({}, tol {:.0}%)",
            row.name,
            row.baseline,
            row.measured,
            row.measured / row.baseline,
            row.bound(),
            status,
            if row.higher_is_better { "higher is better" } else { "lower is better" },
            row.tolerance * 100.0
        );
    }
    println!(
        "  overhead on query_batch_scoring_qps: disarmed {:.0}, +metrics {:.0} ({:+.1}%), +trace {:.0} ({:+.1}%)",
        batch_qps,
        batch_qps_metrics,
        (batch_qps_metrics / batch_qps - 1.0) * 100.0,
        batch_qps_trace,
        (batch_qps_trace / batch_qps - 1.0) * 100.0,
    );
    println!("  wall: {:.1}s", run_start.elapsed().as_secs_f64());
    if failed > 0 || unknown > 0 {
        lsi_obs::error!(
            "perf-gate: FAIL ({failed} metric(s) outside tolerance, {unknown} unknown); \
             rerun with LSI_PERF_TOLERANCE=<frac> to widen bands on a slower machine"
        );
        return 1;
    }
    println!("perf-gate: OK ({} metrics within tolerance)", rows.len());
    0
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    if std::env::args().skip(1).any(|a| a == "--gate") {
        std::process::exit(gate_report());
    }
    if std::env::args().skip(1).any(|a| a == "--pool") {
        if std::env::var_os("LSI_NO_OBS").is_none() {
            lsi_obs::set_enabled(true);
        }
        pool_report(quick);
        return;
    }
    if std::env::args().skip(1).any(|a| a == "--index") {
        if std::env::var_os("LSI_NO_OBS").is_none() {
            lsi_obs::set_enabled(true);
        }
        std::process::exit(index_report(quick));
    }
    if std::env::args().skip(1).any(|a| a == "--serve") {
        if std::env::var_os("LSI_NO_OBS").is_none() {
            lsi_obs::set_enabled(true);
        }
        std::process::exit(serve_report(quick));
    }
    if std::env::args().skip(1).any(|a| a == "--compressed") {
        if std::env::var_os("LSI_NO_OBS").is_none() {
            lsi_obs::set_enabled(true);
        }
        compressed_report(quick);
        return;
    }
    let s = if quick { Sizes::quick() } else { Sizes::full() };
    // LSI_NO_OBS=1 measures the uninstrumented baseline (the metrics
    // section of the report then comes out empty).
    if std::env::var_os("LSI_NO_OBS").is_none() {
        lsi_obs::set_enabled(true);
    }
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let run_start = Instant::now();

    // --- Dense GEMM throughput -------------------------------------
    let (gemm_nn_small, gemm_tn_small, gemm_nn_large, gemm_nn_tall) = {
        let _span = lsi_obs::span("bench.gemm");
        let sq = s.gemm_square_small;
        let lg = s.gemm_square_large;
        let (tm, tk, tn) = s.gemm_tall;
        (
            gemm_gflops(sq, sq, sq, false, 5, &mut rng),
            gemm_gflops(sq, sq, sq, true, 5, &mut rng),
            gemm_gflops(lg, lg, lg, false, 5, &mut rng),
            gemm_gflops(tm, tk, tn, false, 5, &mut rng),
        )
    };

    // --- Lanczos, full reorthogonalization -------------------------
    let matrix = trec_like(s.trec_scale, 7);
    let corpus_shape = format!("trec_like({}) {}x{}", s.trec_scale, matrix.nrows(), matrix.ncols());
    let dual = DualFormat::from_csc(matrix);
    let opts = LanczosOptions {
        reorth: Reorth::Full,
        ..Default::default()
    };
    let mut steps = 0usize;
    let lanczos_secs = {
        let _span = lsi_obs::span("bench.lanczos");
        best_secs(s.time_reps, || {
            let (svd, report) = lanczos_svd(&dual, s.lanczos_k, &opts).expect("lanczos runs");
            steps = report.steps;
            std::hint::black_box(svd);
        })
    };

    // --- Query scoring throughput ----------------------------------
    let _query_span = lsi_obs::span("bench.query");
    let (model, queries) = query_model(&s);
    let qhats: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| model.project_text(q).expect("projects"))
        .collect();

    // Single-query path: full text query, top 10 of a ranked list.
    let single_secs = best_secs(s.time_reps, || {
        for q in &queries {
            let ranked = model.query(q).expect("query runs");
            std::hint::black_box(ranked.top(10));
        }
    });
    let single_qps = queries.len() as f64 / single_secs;

    // Scoring-only path: pre-projected vectors ranked top-10. This is
    // the loop the precomputed-norm + top-k selection work targets
    // (rank_projected_top partitions instead of sorting the full list).
    let score_secs = best_secs(s.time_reps, || {
        for _ in 0..s.score_reps {
            for qhat in &qhats {
                let ranked = model.rank_projected_top(qhat, 10).expect("ranks");
                std::hint::black_box(ranked);
            }
        }
    });
    let batch_qps = (s.score_reps * qhats.len()) as f64 / score_secs;

    // Multi-facet query (all facets at once) for the one-GEMM path.
    let mq = MultiQuery::from_vectors(&model, qhats.clone()).expect("facets");
    let multi_secs = best_secs(s.time_reps, || {
        for _ in 0..s.score_reps {
            let ranked = model.query_multi(&mq, Combine::Max).expect("multi");
            std::hint::black_box(ranked.top(10));
        }
    });
    let multi_qps = (s.score_reps * qhats.len()) as f64 / multi_secs;
    drop(_query_span);

    let mut report = lsi_obs::RunReport::new("perf_kernels")
        .meta("k", Json::Num(s.lanczos_k as f64))
        .meta("corpus", Json::Str(corpus_shape))
        .meta("quick", Json::Bool(quick))
        .meta("wall_secs", Json::Num(run_start.elapsed().as_secs_f64()));
    report.result("gemm_nn_256_gflops", Json::Num(gemm_nn_small));
    report.result("gemm_tn_256_gflops", Json::Num(gemm_tn_small));
    report.result("gemm_nn_512_gflops", Json::Num(gemm_nn_large));
    report.result("gemm_nn_tall_gflops", Json::Num(gemm_nn_tall));
    report.result("lanczos_k50_secs", Json::Num(lanczos_secs));
    report.result("lanczos_k50_steps", Json::Num(steps as f64));
    report.result("query_single_qps", Json::Num(single_qps));
    report.result("query_batch_scoring_qps", Json::Num(batch_qps));
    report.result("query_multi_facet_qps", Json::Num(multi_qps));
    report.snapshot = lsi_obs::snapshot();
    print!("{}", report.to_json().to_string_pretty());
}
