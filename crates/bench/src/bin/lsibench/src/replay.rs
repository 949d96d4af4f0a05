//! The traced layer replay (`--trace 1`): timed calls into each layer's
//! public functions on the run's own corpus, databases and queries. Each
//! call runs inside an lsi-obs span named after its metric, and the calls
//! made for one replayed query nest under one `replay.query` span, which
//! ties that query's spans together in the Chrome trace.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use lsi_core::{BatchQuery, IndexPolicy, LsiModel, Precision, DEFAULT_NPROBE};
use lsi_linalg::{ops, DenseMatrix};
use lsi_sparse::ops::DualFormat;
use lsi_sparse::MatVec;
use lsi_svd::{robust_svd, LanczosOptions, RobustOptions};
use lsi_text::{Corpus, ParsingRules, TermWeighting, Vocabulary};

use crate::inputs::K;
use crate::report::Metrics;

/// Queries replayed through the per-query calls.
const REPLAY_QUERIES: usize = 200;
/// Calls per sparse matrix-vector product.
const MATVEC_CALLS: usize = 50;
/// Top-k depth of every replayed query, as the load generator asks.
const TOP: usize = 10;

/// Run `f` inside a span called `name`; return its result and seconds.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = lsi_obs::span(name);
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Parse, weight and decompose the base corpus as `lsi index` does, and
/// time the sparse products the Lanczos iteration is made of.
pub fn build_layers(base: &Corpus, out: &mut Metrics) -> Result<(), String> {
    // The parsing rules, weighting and Lanczos seed of `lsi index`.
    let rules = ParsingRules {
        min_df: 2,
        word_ngrams: 1,
        ..Default::default()
    };
    let (vocab, vocab_s) = timed("text.vocab_s", || Vocabulary::build(base, &rules));
    let (counts, count_s) = timed("text.count_s", || vocab.count_matrix(base));
    let (weighted, weight_s) = timed("text.weight_s", || {
        TermWeighting::log_entropy().apply(&counts)
    });
    out.add("text.vocab_s", vocab_s, "s");
    out.add("text.count_s", count_s, "s");
    out.add("text.weight_s", weight_s, "s");

    let op = DualFormat::from_csc(weighted.matrix);
    let options = RobustOptions {
        lanczos: LanczosOptions {
            seed: 0x5EED,
            ..RobustOptions::default().lanczos
        },
        ..Default::default()
    };
    let (svd, lanczos_s) = timed("svd.lanczos_s", || robust_svd(&op, K, &options));
    let (_, report) = svd.map_err(err("robust_svd"))?;
    out.add("svd.lanczos_s", lanczos_s, "s");
    out.add("svd.gram_s", report.gram.secs, "s");
    out.add("svd.reorth_s", report.reorth.secs, "s");
    out.add("svd.ritz_s", report.ritz.secs, "s");
    out.add("svd.steps", report.steps as f64, "count");

    let x = vec![1.0; op.ncols()];
    let mut y = vec![0.0; op.nrows()];
    let matvec: Vec<f64> = (0..MATVEC_CALLS)
        .map(|_| timed("sparse.matvec_us", || op.apply(&x, &mut y)).1 * 1e6)
        .collect();
    let xt = vec![1.0; op.nrows()];
    let mut yt = vec![0.0; op.ncols()];
    let matvec_t: Vec<f64> = (0..MATVEC_CALLS)
        .map(|_| timed("sparse.matvec_t_us", || op.apply_t(&xt, &mut yt)).1 * 1e6)
        .collect();
    black_box((&y, &yt));
    out.add_calls("sparse.matvec_us", &matvec, "us");
    out.add_calls("sparse.matvec_t_us", &matvec_t, "us");
    Ok(())
}

/// Index and query-path calls on the served database. `model` is that
/// database as loaded; `texts` are queries the daemon was sent.
pub fn query_layers(
    mut model: LsiModel,
    texts: &[String],
    out: &mut Metrics,
) -> Result<(), String> {
    // One copy scores exactly; the other under the pruned f32 policy,
    // sharing the index trained here.
    model
        .set_index_policy(IndexPolicy::Exact)
        .map_err(err("set_index_policy"))?;
    model.set_precision(Precision::Exact);
    let (trained, train_s) = timed("core.index.train_s", || model.train_index());
    trained.map_err(err("train_index"))?;
    out.add("core.index.train_s", train_s, "s");
    let mut pruned = model.clone();
    pruned
        .set_index_policy(IndexPolicy::Pruned {
            nprobe: DEFAULT_NPROBE,
        })
        .map_err(err("set_index_policy"))?;
    let ((), f32_s) = timed("core.compressed.build_s", || {
        pruned.set_precision(Precision::F32)
    });
    out.add("core.compressed.build_s", f32_s, "s");

    let n = REPLAY_QUERIES.min(texts.len().saturating_sub(1));
    if n == 0 {
        return Err("no queries to replay".to_string());
    }
    let u = model.term_matrix();
    let v = model.doc_matrix();
    let mut count_vector = Vec::new();
    let mut project = Vec::new();
    let mut rank_exact = Vec::new();
    let mut rank_pruned = Vec::new();
    let mut alloc = Vec::new();
    let mut b1 = Vec::new();
    let mut b2 = Vec::new();
    let mut matvec_t = Vec::new();
    let mut sweep = Vec::new();
    let mut gemm_b2 = Vec::new();
    let before = lsi_obs::snapshot();
    for (text, next) in texts.iter().zip(&texts[1..]).take(n) {
        let _query = lsi_obs::span("replay.query");
        let (counts, t) = timed("text.count_vector_us", || {
            model.vocabulary().count_vector(text)
        });
        count_vector.push(t * 1e6);
        let (qhat, t) = timed("core.query.project_us", || model.project_text(text));
        let qhat = qhat.map_err(err("project_text"))?;
        project.push(t * 1e6);
        let (r, t) = timed("core.query.rank_exact_us", || {
            model.rank_projected_top(&qhat, TOP)
        });
        black_box(r.map_err(err("rank_projected_top"))?);
        rank_exact.push(t * 1e6);
        let (r, t) = timed("core.query.rank_pruned_f32_us", || {
            pruned.rank_projected_top(&qhat, TOP)
        });
        black_box(r.map_err(err("rank_projected_top"))?);
        rank_pruned.push(t * 1e6);
        let ((bytes, r), _) = timed("core.query.alloc_bytes", || {
            let before = lsi_obs::thread_alloc_totals().1;
            let r = model.query_top(text, TOP);
            (lsi_obs::thread_alloc_totals().1 - before, r)
        });
        black_box(r.map_err(err("query_top"))?);
        alloc.push(bytes as f64);

        let one = vec![BatchQuery {
            text: text.clone(),
            z: TOP,
            ctx: None,
        }];
        let (r, t) = timed("core.batch.b1_us", || model.query_top_batch(one));
        check_batch(r)?;
        b1.push(t * 1e6);
        let two = [text, next]
            .into_iter()
            .map(|q| BatchQuery {
                text: q.clone(),
                z: TOP,
                ctx: None,
            })
            .collect();
        let (r, t) = timed("core.batch.b2_us_per_query", || model.query_top_batch(two));
        check_batch(r)?;
        b2.push(t * 1e6 / 2.0);

        let mut w = counts;
        w.resize(u.nrows(), 0.0);
        let (r, t) = timed("linalg.matvec_t_us", || ops::matvec_t(u, &w));
        black_box(r.map_err(err("matvec_t"))?);
        matvec_t.push(t * 1e6);
        let (r, t) = timed("linalg.sweep_us", || ops::matvec(v, &qhat));
        black_box(r.map_err(err("matvec"))?);
        sweep.push(t * 1e6);
        let block = DenseMatrix::from_col_major(qhat.len(), 2, [qhat.as_slice(), &qhat].concat())
            .map_err(err("query block"))?;
        let (r, t) = timed("linalg.gemm_b2_us", || ops::matmul(v, &block));
        black_box(r.map_err(err("matmul"))?);
        gemm_b2.push(t * 1e6);
    }
    let after = lsi_obs::snapshot();
    let delta = |name: &str| {
        let at = |s: &lsi_obs::Snapshot| s.counter(name).unwrap_or(0);
        at(&after).saturating_sub(at(&before)) as f64 / n as f64
    };
    out.add(
        "core.index.survivors_per_query",
        delta("index.survivors.count"),
        "count",
    );
    out.add(
        "core.compressed.fallback_frac",
        delta("score.rerank.fallback.count"),
        "ratio",
    );
    out.add_calls("text.count_vector_us", &count_vector, "us");
    out.add_calls("core.query.project_us", &project, "us");
    out.add_calls("core.query.rank_exact_us", &rank_exact, "us");
    out.add_calls("core.query.rank_pruned_f32_us", &rank_pruned, "us");
    out.add(
        "core.query.alloc_bytes",
        crate::stats::median(&alloc),
        "bytes",
    );
    out.add_calls("core.batch.b1_us", &b1, "us");
    out.add_calls("core.batch.b2_us_per_query", &b2, "us");
    out.add_calls("linalg.matvec_t_us", &matvec_t, "us");
    out.add_calls("linalg.sweep_us", &sweep, "us");
    out.add_calls("linalg.gemm_b2_us", &gemm_b2, "us");
    Ok(())
}

fn check_batch(results: Vec<lsi_core::Result<lsi_core::RankedList>>) -> Result<(), String> {
    for r in results {
        black_box(r.map_err(err("query_top_batch"))?);
    }
    Ok(())
}

/// The save of the database `lsi index` wrote, as loaded (policy and
/// all), then fold-in and SVD-updating of the held-out documents into it,
/// as `lsi add` does, without its load and save.
pub fn update_layers(base_db: &Path, add: &Corpus, out: &mut Metrics) -> Result<(), String> {
    let (base, _) = crate::load_model(base_db)?;
    let (json, save_s) = timed("core.model.save_s", || base.to_json());
    let db_bytes = json.map_err(err("to_json"))?.len();
    out.add("core.model.save_s", save_s, "s");
    out.add("core.model.db_bytes", db_bytes as f64, "bytes");

    let mut folded = base.clone();
    let (r, fold_s) = timed("core.update.fold_in_s", || folded.fold_in_documents(add));
    r.map_err(err("fold_in_documents"))?;
    drop(folded);
    out.add("core.update.fold_in_s", fold_s, "s");

    let mut updated = base;
    let d = updated.vocabulary().count_matrix(add);
    let ids: Vec<String> = add.docs.iter().map(|d| d.id.clone()).collect();
    let (r, update_s) = timed("core.update.svd_update_s", || {
        updated.svd_update_documents(&d, &ids)
    });
    r.map_err(err("svd_update_documents"))?;
    out.add("core.update.svd_update_s", update_s, "s");
    let loss = updated
        .orthogonality_loss()
        .map_err(err("orthogonality_loss"))?;
    out.add(
        "core.update.ortho_loss",
        loss.term_defect.max(loss.doc_defect),
        "ratio",
    );
    Ok(())
}
