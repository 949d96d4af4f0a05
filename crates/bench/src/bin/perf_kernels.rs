//! Kernel-level performance snapshot used to populate BENCH_kernels.json.
//!
//! Measures dense GEMM throughput (GFLOP/s), Lanczos wall time at
//! k = 50 beside DESIGN.md §4's SVD ablations, query-scoring
//! throughput (queries/sec), and the parse layer of an index build
//! (`corpus_parse_secs`). Prints one JSON run report to stdout (the
//! lsi-obs `RunReport` schema: `name`/`meta`/`results`/`metrics`) so
//! before/after runs can be diffed mechanically:
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
//! the Lanczos k = 50 wall time (measured as `lanczos_k50_secs` is).
//! Combines with `--quick` for a smoke run.
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
//! any metric falls outside its tolerance band; rows it shares with the
//! default report are measured by the same functions, which every other
//! mode runs armed. A failing first pass gets one settle-and-retry (the
//! gate runs right after the test suites, when the container's CPU
//! budget is often drained); the direction-aware better of the two
//! measurements stands. It also reports the armed-metrics and
//! armed-tracing overhead on the batched query path, each measured
//! against a disarmed pass in alternating rounds (the numbers behind the
//! DESIGN.md §3g overhead table).
//! `LSI_PERF_TOLERANCE=0.5` overrides every band, for slower machines.

use std::time::Instant;

use lsi_core::{BatchQuery, Combine, LsiModel, LsiOptions, MultiQuery};
use lsi_corpora::treclike::trec_like;
use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_linalg::{ops, DenseMatrix};
use lsi_obs::Json;
use lsi_sparse::ops::DualFormat;
use lsi_svd::{lanczos_svd, randomized_svd, LanczosOptions, RandomizedOptions, Reorth};
use lsi_text::{ParsingRules, TermWeighting, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Problem sizes for one run; `--quick` selects the small set.
struct Sizes {
    quick: bool,
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
    /// Topics of the `corpus_parse_secs` corpus (100 documents each).
    parse_topics: usize,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                quick,
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
                parse_topics: 5,
            }
        } else {
            Sizes {
                quick,
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
                parse_topics: 50,
            }
        }
    }
}

fn random_matrix(m: usize, n: usize, rng: &mut StdRng) -> DenseMatrix {
    let data = (0..m * n).map(|_| rng.random::<f64>() - 0.5).collect();
    DenseMatrix::from_col_major(m, n, data).expect("shape matches buffer")
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

/// GFLOP/s of `C = A B` (m x k times k x n), or of `C = Aᵀ B` with `A`
/// stored k x m when `transposed`.
fn gemm_gflops(m: usize, k: usize, n: usize, transposed: bool, reps: usize, rng: &mut StdRng) -> f64 {
    let a = if transposed { random_matrix(k, m, rng) } else { random_matrix(m, k, rng) };
    let b = random_matrix(k, n, rng);
    let secs = best_secs(reps, || {
        let c = if transposed { ops::matmul_tn(&a, &b) } else { ops::matmul(&a, &b) };
        std::hint::black_box(c.expect("gemm"));
    });
    2.0 * m as f64 * k as f64 * n as f64 / secs / 1e9
}

/// The TREC-shaped matrix every Lanczos row runs on, with its shape
/// for the report's `corpus` meta.
fn lanczos_matrix(s: &Sizes) -> (DualFormat, String) {
    let matrix = trec_like(s.trec_scale, 7);
    let shape = format!("trec_like({}) {}x{}", s.trec_scale, matrix.nrows(), matrix.ncols());
    (DualFormat::from_csc(matrix), shape)
}

/// Best-of-`s.time_reps` Lanczos wall time at `s.lanczos_k` under
/// `reorth`, and the steps the last run took.
fn time_lanczos(s: &Sizes, dual: &DualFormat, reorth: Reorth) -> (f64, usize) {
    let opts = LanczosOptions {
        reorth,
        ..Default::default()
    };
    let mut steps = 0usize;
    let secs = best_secs(s.time_reps, || {
        let (svd, report) = lanczos_svd(dual, s.lanczos_k, &opts).expect("lanczos runs");
        steps = report.steps;
        std::hint::black_box(svd);
    });
    (secs, steps)
}

/// DESIGN.md §4's SVD ablations on the `lanczos_k50_secs` matrix and
/// rank: the randomized SVD with 2 and 0 power iterations, and Lanczos
/// with no reorthogonalization.
fn svd_ablation_rows(s: &Sizes, dual: &DualFormat) -> [(&'static str, f64); 3] {
    let randomized = |power_iters: usize| {
        let opts = RandomizedOptions {
            power_iters,
            ..Default::default()
        };
        best_secs(s.time_reps, || {
            let svd = randomized_svd(dual, s.lanczos_k, &opts).expect("randomized svd runs");
            std::hint::black_box(svd);
        })
    };
    [
        ("randomized_q2_k50_secs", randomized(2)),
        ("randomized_q0_k50_secs", randomized(0)),
        ("lanczos_three_term_k50_secs", time_lanczos(s, dual, Reorth::ThreeTermOnly).0),
    ]
}

/// Best-of-3 time of the parse layer, `Vocabulary::build` then
/// `count_matrix`, on a fixed synthetic corpus of lsibench's ingest
/// shape: at full size 50 topics × 100 documents of 60 tokens over a
/// 500-word background (5,000 documents, ~5,000 terms).
fn corpus_parse_secs(s: &Sizes) -> f64 {
    let gen = SyntheticCorpus::generate(&SyntheticOptions {
        n_topics: s.parse_topics,
        docs_per_topic: 100,
        concepts_per_topic: 30,
        doc_len: 60,
        background_vocab: 500,
        queries_per_topic: 0,
        seed: 11,
        ..Default::default()
    });
    let rules = ParsingRules {
        min_df: 2,
        ..Default::default()
    };
    best_secs(3, || {
        let vocab = Vocabulary::build(&gen.corpus, &rules);
        std::hint::black_box(vocab.count_matrix(&gen.corpus));
    })
}

/// The kernels-bench model, its query texts, and their projections.
fn query_model(s: &Sizes) -> (LsiModel, Vec<String>, Vec<Vec<f64>>) {
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
    let queries: Vec<String> = gen.queries.iter().map(|q| q.text.clone()).collect();
    let qhats = queries
        .iter()
        .map(|q| model.project_text(q).expect("projects"))
        .collect();
    (model, queries, qhats)
}

/// Batched scoring throughput in queries/sec: `rounds` passes of top-10
/// ranking over the pre-projected queries, best of `reps`. This is the
/// loop the precomputed-norm + top-k selection work targets, and every
/// batched row (exact, pruned, compressed) is timed through it.
fn batch_scoring_qps(model: &LsiModel, qhats: &[Vec<f64>], rounds: usize, reps: usize) -> f64 {
    let secs = best_secs(reps, || {
        for _ in 0..rounds {
            for qhat in qhats {
                std::hint::black_box(model.rank_projected_top(qhat, 10).expect("ranks"));
            }
        }
    });
    (rounds * qhats.len()) as f64 / secs
}

/// Each query's top 10 as `(doc, cosine bits)`, best first.
fn top10(model: &LsiModel, qhats: &[Vec<f64>]) -> Vec<Vec<(usize, u64)>> {
    qhats
        .iter()
        .map(|qhat| {
            let ranked = model.rank_projected_top(qhat, 10).expect("ranks");
            ranked.matches.iter().map(|m| (m.doc, m.cosine.to_bits())).collect()
        })
        .collect()
}

/// recall@10 of `model` against the exact oracle's top 10.
fn recall_at_10(model: &LsiModel, qhats: &[Vec<f64>], oracles: &[Vec<(usize, u64)>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (top, oracle) in top10(model, qhats).iter().zip(oracles) {
        hit += top.iter().filter(|(doc, _)| oracle.iter().any(|(d, _)| d == doc)).count();
        total += oracle.len();
    }
    hit as f64 / total as f64
}

/// The query rows of the default report and the gate:
/// `query_single_qps` (full text query, top 10 of the ranked list),
/// `query_batch_scoring_qps` (after a warm-up pass, best of 7: its
/// tight gate band must not trip on cold caches) and
/// `query_multi_facet_qps` (all facets at once through the one-GEMM
/// path).
fn query_rows(
    s: &Sizes,
    model: &LsiModel,
    queries: &[String],
    qhats: &[Vec<f64>],
) -> [(&'static str, f64); 3] {
    let single_secs = best_secs(s.time_reps, || {
        for q in queries {
            std::hint::black_box(model.query(q).expect("query runs").top(10));
        }
    });
    batch_scoring_qps(model, qhats, s.score_reps, 1); // warm-up pass
    let batch_qps = batch_scoring_qps(model, qhats, s.score_reps, 7);
    let mq = MultiQuery::from_vectors(model, qhats.to_vec()).expect("facets");
    let multi_secs = best_secs(s.time_reps, || {
        for _ in 0..s.score_reps {
            std::hint::black_box(model.query_multi(&mq, Combine::Max).expect("multi").top(10));
        }
    });
    [
        ("query_single_qps", queries.len() as f64 / single_secs),
        ("query_batch_scoring_qps", batch_qps),
        ("query_multi_facet_qps", (s.score_reps * qhats.len()) as f64 / multi_secs),
    ]
}

/// Print `report` with its wall time and the metrics snapshot.
fn print_report(mut report: lsi_obs::RunReport, run_start: Instant) {
    report = report.meta("wall_secs", Json::Num(run_start.elapsed().as_secs_f64()));
    report.snapshot = lsi_obs::snapshot();
    print!("{}", report.to_json().to_string_pretty());
}

/// Log each failed floor of a report; 1 when any failed, else 0.
fn exit_code(report: &str, failures: &[String]) -> i32 {
    for f in failures {
        lsi_obs::error!("{report}: FAIL: {f}");
    }
    i32::from(!failures.is_empty())
}

/// The default report: GEMM, Lanczos and its SVD ablations, query
/// scoring.
fn kernels_report(s: &Sizes) {
    let run_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut rows: Vec<(&str, f64)> = Vec::new();
    {
        let _span = lsi_obs::span("bench.gemm");
        let sq = s.gemm_square_small;
        let lg = s.gemm_square_large;
        let (tm, tk, tn) = s.gemm_tall;
        rows.push(("gemm_nn_256_gflops", gemm_gflops(sq, sq, sq, false, 5, &mut rng)));
        rows.push(("gemm_tn_256_gflops", gemm_gflops(sq, sq, sq, true, 5, &mut rng)));
        rows.push(("gemm_nn_512_gflops", gemm_gflops(lg, lg, lg, false, 5, &mut rng)));
        rows.push(("gemm_nn_tall_gflops", gemm_gflops(tm, tk, tn, false, 5, &mut rng)));
    }
    let (dual, corpus_shape) = lanczos_matrix(s);
    {
        let _span = lsi_obs::span("bench.lanczos");
        let (secs, steps) = time_lanczos(s, &dual, Reorth::Full);
        rows.push(("lanczos_k50_secs", secs));
        rows.push(("lanczos_k50_steps", steps as f64));
        rows.extend(svd_ablation_rows(s, &dual));
    }
    {
        let _span = lsi_obs::span("bench.query");
        let (model, queries, qhats) = query_model(s);
        rows.extend(query_rows(s, &model, &queries, &qhats));
    }
    {
        let _span = lsi_obs::span("bench.parse");
        rows.push(("corpus_parse_secs", corpus_parse_secs(s)));
    }
    let mut report = lsi_obs::RunReport::new("perf_kernels")
        .meta("k", Json::Num(s.lanczos_k as f64))
        .meta("corpus", Json::Str(corpus_shape))
        .meta("quick", Json::Bool(s.quick));
    for (name, value) in rows {
        report.result(name, Json::Num(value));
    }
    print_report(report, run_start);
}

/// The `--pool` report: dispatch latency, SpMV skew behavior, Lanczos
/// wall time. Everything the pool acceptance criteria need in one JSON.
fn pool_report(s: &Sizes) {
    use rayon::prelude::*;

    let run_start = Instant::now();
    let threads = rayon::current_num_threads();

    // --- Dispatch latency --------------------------------------------
    // Warm the pool (first parallel call spawns the workers), then time
    // empty parallel regions: all that remains is publish + wake +
    // chunk-claim + quiesce, i.e. pure dispatch.
    (0..threads * 4).into_par_iter().for_each(|_| {});
    let reps = if s.quick { 200 } else { 2000 };
    let t0 = Instant::now();
    for _ in 0..reps {
        (0..threads * 4).into_par_iter().for_each(|_| {});
    }
    let pool_dispatch_us = t0.elapsed().as_secs_f64() / reps as f64 * 1e6;

    // The cost the pool replaced: one scoped OS-thread spawn + join per
    // parallel region (what the shim did before it had a pool).
    let sreps = if s.quick { 10 } else { 50 };
    let t0 = Instant::now();
    for _ in 0..sreps {
        std::thread::scope(|scope| {
            scope.spawn(|| {});
        });
    }
    let spawn_dispatch_us = t0.elapsed().as_secs_f64() / sreps as f64 * 1e6;

    // --- SpMV on a Zipf-skewed matrix --------------------------------
    // Term-frequency rows follow a Zipf law, so a handful of rows hold
    // a large share of the nonzeros — the shape that made row-count
    // partitioning lopsided and motivated the nnz-balanced spans.
    // `A·x` is the gather over the columns of the transpose (the rows
    // of A), as `DualFormat` runs it inside Lanczos.
    // Both sizes must stay above PAR_NNZ_THRESHOLD or the "parallel"
    // column silently measures the serial fallback.
    let (tm, tn, density) = if s.quick { (8000, 4000, 0.012) } else { (20000, 8000, 0.012) };
    let rows = lsi_sparse::gen::random_term_doc(
        tm,
        tn,
        density,
        lsi_sparse::gen::RowProfile::Zipf { s: 1.1 },
        8,
        99,
    )
    .transpose();
    let nnz = rows.nnz();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let x: Vec<f64> = (0..tn).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut y = vec![0.0; tm];
    let mreps = if s.quick { 5 } else { 50 };
    let serial_secs = best_secs(mreps, || {
        rows.matvec_t_into(&x, &mut y);
        std::hint::black_box(&y);
    });
    let par_secs = best_secs(mreps, || {
        rows.par_matvec_t_into(&x, &mut y);
        std::hint::black_box(&y);
    });

    // --- Lanczos wall time: the kernels report's lanczos_k50_secs ----
    let (dual, corpus_shape) = lanczos_matrix(s);
    let (lanczos_secs, steps) = time_lanczos(s, &dual, Reorth::Full);

    let mut report = lsi_obs::RunReport::new("perf_pool")
        .meta("quick", Json::Bool(s.quick))
        .meta("corpus", Json::Str(corpus_shape))
        .meta("spmv_shape", Json::Str(format!("{tm}x{tn} zipf(1.1) nnz={nnz}")));
    report.result("pool_threads", Json::Num(threads as f64));
    report.result("pool_dispatch_us", Json::Num(pool_dispatch_us));
    report.result("spawn_dispatch_us", Json::Num(spawn_dispatch_us));
    report.result("spmv_skewed_serial_secs", Json::Num(serial_secs));
    report.result("spmv_skewed_par_secs", Json::Num(par_secs));
    report.result("spmv_skewed_speedup", Json::Num(serial_secs / par_secs));
    report.result("lanczos_k50_secs", Json::Num(lanczos_secs));
    report.result("lanczos_k50_steps", Json::Num(steps as f64));
    print_report(report, run_start);
}

/// The `--compressed` report: the precision ladder measured end to end
/// through `rank_projected_top` on the kernels-bench corpus.
fn compressed_report(s: &Sizes) {
    use lsi_core::Precision;

    let run_start = Instant::now();
    let (model, _, qhats) = query_model(s);
    let corpus_shape = format!(
        "synthetic {} docs x k={} ({} queries)",
        model.n_docs(),
        model.k(),
        qhats.len()
    );
    // Exact top-10 oracle, for the i8 recall measurement.
    let oracles = top10(&model, &qhats);

    let mut report = lsi_obs::RunReport::new("perf_compressed")
        .meta("quick", Json::Bool(s.quick))
        .meta("corpus", Json::Str(corpus_shape));
    let mut qps_by_mode = [0.0f64; 3];
    for (mi, precision) in [Precision::Exact, Precision::F32, Precision::I8]
        .into_iter()
        .enumerate()
    {
        let mut m = model.clone();
        m.set_precision(precision);
        let name = precision.name();
        let fallback_count = || {
            lsi_obs::snapshot()
                .counter("score.rerank.fallback.count")
                .unwrap_or(0)
        };
        let fallbacks_before = fallback_count();
        let qps = batch_scoring_qps(&m, &qhats, s.score_reps, s.time_reps);
        let fallbacks = fallback_count() - fallbacks_before;
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
            report.result("i8_recall_at_10", Json::Num(recall_at_10(&m, &qhats, &oracles)));
        }
    }
    report.result("f32_speedup_vs_f64", Json::Num(qps_by_mode[1] / qps_by_mode[0]));
    report.result("i8_speedup_vs_f64", Json::Num(qps_by_mode[2] / qps_by_mode[0]));
    print_report(report, run_start);
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
fn index_report(s: &Sizes) -> i32 {
    use lsi_core::{IndexPolicy, Precision, DEFAULT_NPROBE};

    let run_start = Instant::now();
    let (base, _, qhats) = query_model(s);

    let inflate = 10usize;
    let mut model = base.clone();
    model.replicate_docs_for_bench(inflate).expect("inflates");
    let n = model.n_docs();

    // Exact-scan oracle (top-10 ids) and exact batched throughput on
    // the inflated corpus — the baseline every pruned row divides by.
    let oracles = top10(&model, &qhats);
    let exact_qps = batch_scoring_qps(&model, &qhats, 1, s.time_reps);

    // One training pass; the sweep below only changes the probe depth,
    // which reuses the trained index.
    let train_start = Instant::now();
    model
        .set_index_policy(IndexPolicy::Pruned { nprobe: DEFAULT_NPROBE })
        .expect("index trains");
    let train_secs = train_start.elapsed().as_secs_f64();
    let n_lists = model.index_n_lists().expect("index present");

    let mut report = lsi_obs::RunReport::new("perf_index")
        .meta("quick", Json::Bool(s.quick))
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
        let qps = batch_scoring_qps(&model, &qhats, 1, s.time_reps);
        let recall = recall_at_10(&model, &qhats, &oracles);
        report.result(&format!("nprobe{p}_batch_scoring_qps"), Json::Num(qps));
        report.result(&format!("nprobe{p}_recall_at_10"), Json::Num(recall));
        report.result(&format!("nprobe{p}_speedup_vs_exact"), Json::Num(qps / exact_qps));
    }
    // The default operating point (clamped on tiny corpora), the row
    // the recall floor and the perf gate stand on.
    model
        .set_index_policy(IndexPolicy::Pruned { nprobe: DEFAULT_NPROBE })
        .expect("depth change");
    let default_qps = batch_scoring_qps(&model, &qhats, 1, s.time_reps);
    let default_recall = recall_at_10(&model, &qhats, &oracles);
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
        let qps = batch_scoring_qps(&m32, &qhats, 1, s.time_reps);
        report.result("pruned_f32_batch_scoring_qps", Json::Num(qps));
        report.result("pruned_f32_recall_at_10", Json::Num(recall_at_10(&m32, &qhats, &oracles)));
    }

    // --- Bit-identity at full probe depth ----------------------------
    // nprobe = n_lists degenerates to the exact scan: same documents,
    // same order, same cosine bit patterns.
    model
        .set_index_policy(IndexPolicy::Pruned { nprobe: n_lists })
        .expect("depth change");
    let mut exact_policy = model.clone();
    exact_policy.set_index_policy(IndexPolicy::Exact).expect("exact policy");
    let identical = top10(&exact_policy, &qhats) == top10(&model, &qhats);
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
        let exact = batch_scoring_qps(&m, &qhats, 1, 1);
        m.set_index_policy(IndexPolicy::Pruned { nprobe: DEFAULT_NPROBE })
            .expect("index trains");
        let pruned = batch_scoring_qps(&m, &qhats, 1, 1);
        report.result(&format!("scale{factor}x_exact_query_us"), Json::Num(1e6 / exact));
        report.result(&format!("scale{factor}x_pruned_query_us"), Json::Num(1e6 / pruned));
    }

    print_report(report, run_start);
    exit_code("perf-index", &failures)
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

/// Read one HTTP/1.1 response off a keep-alive stream. `carry` holds
/// bytes of the next response read past this one. Returns
/// `(status, server_will_close)`.
fn read_one_response(
    stream: &mut std::net::TcpStream,
    carry: &mut Vec<u8>,
) -> std::io::Result<(u16, bool)> {
    use std::io::Read as _;
    let mut chunk = [0u8; 4096];
    // Append the next read to `carry`; end of stream mid-response is an
    // error.
    let mut fill = |carry: &mut Vec<u8>| -> std::io::Result<()> {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
        Ok(())
    };
    let head_end = loop {
        if let Some(p) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        fill(carry)?;
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
        fill(carry)?;
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
fn serve_report(mut s: Sizes) -> i32 {
    let quick = s.quick;
    // Serving-sized factor space: retrieval-quality LSI runs at
    // k ~ 100+ (the paper's operating range), where the per-query GEMV
    // re-reads k doc-store columns per request and the coalesced GEMM's
    // one-pass reuse pays off. The kernels-bench k = 64 model
    // understates the daemon's regime.
    if !quick {
        s.model_k = 128;
    }
    let run_start = Instant::now();
    let (base, queries, _) = query_model(&s);
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
        queue_depth: 2,
        ..flat_cfg(1)
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
        let codes: Vec<u16> = joins
            .into_iter()
            .flat_map(|join| join.join().expect("drain client"))
            .map(|(code, _)| code)
            .collect();
        let ok = codes.iter().filter(|&&code| code == 200).count() as u64;
        (ok, codes.len() as u64 - ok, report)
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
    let server_result = |server: &lsi_obs::RunReport, key: &str| {
        let value = server.results.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64());
        Json::Num(value.unwrap_or(0.0))
    };
    report.result("batched_max_batch_seen", server_result(&batched.report, "max_batch_seen"));
    report.result("shed_phase_qps", Json::Num(shed_phase.qps));
    report.result("shed_count", Json::Num(shed_phase.shed as f64));
    report.result("shed_rate", Json::Num(shed_rate));
    report.result("shed_timeouts", Json::Num(shed_phase.timeout as f64));
    report.result("drain_inflight_ok", Json::Num(drain_ok as f64));
    report.result("drain_inflight_lost", Json::Num(drain_lost as f64));
    report.result("drain_server_queries", server_result(&drain_server_report, "queries"));
    print_report(report, run_start);
    exit_code("perf-serve", &failures)
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

/// The committed `gate.metrics` bands as rows awaiting a measurement,
/// from the BENCH_kernels.json found walking up from the current
/// directory (the gate runs from the repo root under verify.sh, but
/// also from crate subdirectories during development).
/// `LSI_PERF_TOLERANCE` widens (or tightens) every band at once — the
/// escape hatch for machines slower than the one that recorded the
/// baselines. Committed per-metric tolerances otherwise apply.
fn gate_bands() -> Result<(std::path::PathBuf, Vec<GateRow>), String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    let path = loop {
        let candidate = dir.join("BENCH_kernels.json");
        if candidate.is_file() {
            break candidate;
        }
        if !dir.pop() {
            return Err("BENCH_kernels.json not found walking up from the current directory".into());
        }
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bench = lsi_obs::parse_json(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let Some(Json::Obj(metrics)) = bench.get("gate").and_then(|gate| gate.get("metrics")) else {
        return Err(format!("{} has no \"gate\" section with a \"metrics\" object", path.display()));
    };
    let tolerance_override = std::env::var("LSI_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    let rows = metrics
        .iter()
        .map(|(name, spec)| {
            let (Some(baseline), Some(direction)) = (
                spec.get("baseline").and_then(Json::as_f64),
                spec.get("direction").and_then(Json::as_str),
            ) else {
                return Err(format!("gate metric {name} needs \"baseline\" and \"direction\""));
            };
            let tolerance = tolerance_override
                .or_else(|| spec.get("tolerance").and_then(Json::as_f64))
                .unwrap_or(0.25);
            Ok(GateRow {
                name: name.clone(),
                baseline,
                measured: f64::NAN,
                higher_is_better: direction == "higher",
                tolerance,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((path, rows))
}

/// The `--gate` mode: measure fresh, compare against the committed
/// `gate` section of BENCH_kernels.json, exit nonzero on regression.
/// One full disarmed measurement pass over the gated metrics, plus the
/// overhead trio `[disarmed, +metrics, +metrics+trace]` on the
/// batched-scoring loop, measured in alternating rounds. The gate
/// measures the production configuration: spans compiled in but the
/// master switch off, so any regression here is real cost on the
/// default path (including the counting-allocator gate check).
fn gate_measure(s: &Sizes) -> (Vec<(&'static str, f64)>, [f64; 3]) {
    assert!(!lsi_obs::enabled(), "gate must measure the disarmed path");
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let sq = s.gemm_square_small;
    let mut rows = vec![("gemm_nn_256_gflops", gemm_gflops(sq, sq, sq, false, 5, &mut rng))];
    let (dual, _) = lanczos_matrix(s);
    rows.push(("lanczos_k50_secs", time_lanczos(s, &dual, Reorth::Full).0));
    drop(dual);

    let (model, queries, qhats) = query_model(s);
    rows.extend(query_rows(s, &model, &queries, &qhats));
    rows.push(("corpus_parse_secs", corpus_parse_secs(s)));

    // Pruned batched scoring at the default probe depth on the
    // 10x-inflated corpus — the gated operating point of the cluster
    // index (same corpus and depth as `perf_kernels --index`).
    let mut inflated = model.clone();
    inflated.replicate_docs_for_bench(10).expect("inflates");
    inflated
        .set_index_policy(lsi_core::IndexPolicy::Pruned { nprobe: lsi_core::DEFAULT_NPROBE })
        .expect("index trains");
    rows.push((
        "query_pruned_batch_qps",
        batch_scoring_qps(&inflated, &qhats, s.score_reps, s.time_reps),
    ));
    drop(inflated);

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
    rows.push(("query_pair_batch_qps", queries.len() as f64 / pair_secs));

    // Save and load of the same 10x-inflated exact model (20,000 docs,
    // k = 64, ~33 MB of JSON): the database codec end to end, body,
    // `#lsi1` trailer and checksum included, and the cold-start row of
    // ROADMAP item 4.
    let mut saved = String::new();
    rows.push((
        "model_save_secs",
        best_secs(s.time_reps, || {
            saved = serve_model.to_json().expect("model saves");
        }),
    ));
    rows.push((
        "model_load_secs",
        best_secs(s.time_reps, || {
            std::hint::black_box(LsiModel::from_json(&saved).expect("model loads"));
        }),
    ));
    drop(saved);

    // Batched serving throughput end to end through the daemon: real
    // loopback sockets, coalesced scoring, same 10x-inflated corpus as
    // the pruned row. Gates the serve path's whole stack (HTTP parse,
    // queue handoff, batch sweep, response write).
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
        &query_paths(&queries),
    );
    rows.push(("serve_batch_qps", serve_out.qps));

    // Full-workspace static analysis (lexer + per-file rules + call
    // graph + interprocedural rules): caps the wall time of the
    // verify.sh `--ci` stage so the graph layers cannot quietly turn
    // the lint gate into the slowest part of the pipeline.
    let analysis_root =
        lsi_analyze::find_workspace_root(None).expect("workspace root for analysis gate");
    rows.push((
        "analysis_full_secs",
        best_secs(3, || {
            let analysis = lsi_analyze::analyze(&analysis_root).expect("analysis runs");
            std::hint::black_box(analysis.findings.len());
        }),
    ));

    // --- Instrumentation overhead on the same batched loop -----------
    // Disarmed, armed metrics (spans + counters + allocation
    // attribution) and armed metrics + trace buffer, one pass each in
    // alternating rounds after one shared warm-up round, so a drift in
    // the host's CPU budget lands on all three alike; each reports its
    // best round. Each trace pass starts from an empty buffer.
    // Reported, not gated: the gated guarantee is that the *disarmed*
    // path stays fast.
    const OVERHEAD_ROUNDS: usize = 7;
    lsi_obs::register_thread("main");
    let mut overhead = [0.0f64; 3];
    for round in 0..=OVERHEAD_ROUNDS {
        for (config, best) in overhead.iter_mut().enumerate() {
            lsi_obs::set_enabled(config >= 1);
            lsi_obs::set_trace_enabled(config == 2);
            let qps = batch_scoring_qps(&model, &qhats, s.score_reps, 1);
            lsi_obs::reset_trace();
            if round > 0 {
                *best = best.max(qps);
            }
        }
    }
    lsi_obs::set_trace_enabled(false);
    lsi_obs::set_enabled(false);

    (rows, overhead)
}

fn gate_report() -> i32 {
    let s = Sizes::new(false);
    let run_start = Instant::now();

    // Load the committed bands first so a malformed file fails fast,
    // before a minute of measurement.
    let (bench_path, mut rows) = match gate_bands() {
        Ok(bands) => bands,
        Err(e) => {
            lsi_obs::error!("perf-gate: {e}");
            return 2;
        }
    };

    // --- Measure, observability disarmed -----------------------------
    let (measured, mut overhead) = gate_measure(&s);
    let mut unknown = 0;
    rows.retain_mut(|row| match measured.iter().find(|(m, _)| *m == row.name) {
        Some(&(_, value)) => {
            row.measured = value;
            true
        }
        None => {
            lsi_obs::error!("perf-gate: gate metric {} is not one perf_kernels measures", row.name);
            unknown += 1;
            false
        }
    });

    // --- Compare ------------------------------------------------------
    // One settle-and-retry pass: the gate usually runs right after the
    // full test suites, when the container's CPU budget is drained and
    // throughput can sag 10%+ for a few seconds. A metric outside its
    // band gets one fresh measurement after a short settle, and the
    // direction-aware better of the two runs stands — window-level
    // throttling clears; a real regression fails both passes.
    if rows.iter().any(|r| !r.passes()) {
        lsi_obs::warn!("perf-gate: metric(s) outside tolerance; settling and re-measuring once");
        std::thread::sleep(std::time::Duration::from_secs(3));
        let (remeasured, reoverhead) = gate_measure(&s);
        for row in &mut rows {
            if let Some(&(_, fresh)) = remeasured.iter().find(|(m, _)| *m == row.name) {
                if (fresh > row.measured) == row.higher_is_better {
                    row.measured = fresh;
                }
            }
        }
        overhead = reoverhead;
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let mode = ["--gate", "--pool", "--index", "--serve", "--compressed"]
        .into_iter()
        .find(|&m| has(m));
    // The gate measures the production configuration, lsi-obs
    // disarmed; every other report carries the metrics snapshot.
    if mode != Some("--gate") {
        lsi_obs::set_enabled(true);
    }
    let s = Sizes::new(has("--quick"));
    match mode {
        Some("--gate") => std::process::exit(gate_report()),
        Some("--pool") => pool_report(&s),
        Some("--index") => std::process::exit(index_report(&s)),
        Some("--serve") => std::process::exit(serve_report(s)),
        Some("--compressed") => compressed_report(&s),
        _ => kernels_report(&s),
    }
}
