//! End-to-end fault-injection tests for the lsi-core boundaries.
//!
//! Failpoints are process-global, so these tests live in their own
//! integration binary (cargo gives it a dedicated process) and
//! serialize on a mutex so concurrently scheduled test threads never
//! see each other's armed failpoints.

use std::sync::Mutex;

use lsi_core::{BatchQuery, Combine, Error, LsiModel, LsiOptions, MultiQuery, Precision};
use lsi_fault::{points, Action};
use lsi_svd::Fallback;
use lsi_text::{Corpus, ParsingRules, TermWeighting};

static SERIAL: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn corpus() -> Corpus {
    Corpus::from_pairs([
        ("d1", "apple banana apple cherry"),
        ("d2", "banana cherry banana date"),
        ("d3", "apple cherry date fig"),
        ("d4", "grape fig date grape"),
        ("d5", "fig grape apple banana"),
    ])
}

fn options() -> LsiOptions {
    LsiOptions {
        k: 2,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::none(),
        svd_seed: 7,
    }
}

fn model() -> LsiModel {
    LsiModel::build(&corpus(), &options()).unwrap().0
}

fn q(text: &str, z: usize) -> BatchQuery {
    BatchQuery {
        text: text.to_string(),
        z,
        ctx: None,
    }
}

#[test]
fn forced_query_score_error_is_typed() {
    let _g = guard();
    let m = model();
    lsi_fault::arm(points::CORE_QUERY_SCORE, Action::ReturnErr, Some(1));
    let err = m.query("apple").unwrap_err();
    lsi_fault::disarm(points::CORE_QUERY_SCORE);
    assert!(
        err.to_string().contains("core.query.score"),
        "got {err}"
    );
    // The failpoint self-disarmed after one firing; queries recover.
    assert!(m.query("apple").is_ok());
}

#[test]
fn injected_nan_score_is_caught_by_the_boundary_guard() {
    let _g = guard();
    let m = model();
    lsi_fault::arm(points::CORE_QUERY_SCORE, Action::InjectNan, Some(1));
    let err = m.query("banana").unwrap_err();
    lsi_fault::disarm(points::CORE_QUERY_SCORE);
    assert!(matches!(err, Error::NonFinite { .. }), "got {err}");
    assert!(m.query("banana").is_ok());
}

#[test]
fn compressed_nan_injection_falls_back_to_the_exact_scan() {
    let _g = guard();
    let exact = model();
    let mut compressed = exact.clone();
    compressed.set_precision(Precision::F32);
    // The injected NaN poisons the *candidate sweep*, where the exact
    // path is still available — the non-finite guard must degrade to
    // it instead of erroring, and the served result must match the
    // oracle bit-for-bit.
    lsi_fault::arm(points::CORE_QUERY_SCORE, Action::InjectNan, Some(1));
    let served = compressed.query_top("apple", 3).unwrap();
    lsi_fault::disarm(points::CORE_QUERY_SCORE);
    let oracle = exact.query_top("apple", 3).unwrap();
    assert_eq!(served.ids(), oracle.ids());
    for (a, b) in served.matches.iter().zip(oracle.matches.iter()) {
        assert_eq!(a.cosine.to_bits(), b.cosine.to_bits());
    }
}

#[test]
fn compressed_forced_error_is_still_typed() {
    let _g = guard();
    let mut m = model();
    m.set_precision(Precision::F32);
    lsi_fault::arm(points::CORE_QUERY_SCORE, Action::ReturnErr, Some(1));
    let err = m.query_top("apple", 3).unwrap_err();
    lsi_fault::disarm(points::CORE_QUERY_SCORE);
    assert!(err.to_string().contains("core.query.score"), "got {err}");
    assert!(m.query_top("apple", 3).is_ok());
}

#[test]
fn compressed_multi_facet_nan_injection_also_falls_back() {
    let _g = guard();
    let exact = model();
    let mut compressed = exact.clone();
    compressed.set_precision(Precision::F32);
    let q = MultiQuery::from_texts(&exact, &["apple", "grape fig"]).unwrap();
    lsi_fault::arm(points::CORE_QUERY_SCORE, Action::InjectNan, Some(1));
    let served = compressed.query_multi_top(&q, Combine::Max, 3).unwrap();
    lsi_fault::disarm(points::CORE_QUERY_SCORE);
    let oracle = exact.query_multi_top(&q, Combine::Max, 3).unwrap();
    assert_eq!(served.ids(), oracle.ids());
}

#[test]
fn poisoned_sweep_fails_only_itself() {
    // A batch error falls back to per-query serving: with the
    // scoring failpoint armed to fire exactly once, the coalesced
    // sweep errors, the fallback re-serves per query, and every
    // query still succeeds (the failpoint is spent).
    let _g = guard();
    let m = model();
    lsi_fault::arm_from_spec("core.query.score=return-err:1").unwrap();
    let got = m.query_top_batch(vec![q("apple", 2), q("grape", 2), q("fig", 2)]);
    lsi_fault::clear();
    assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 3);
}

#[test]
fn projection_error_is_contained_per_query() {
    // project_text never fails on unknown words (zero vector), so
    // force a per-query error through the probe-depth override
    // path instead: a dimension-mismatched model cannot exist
    // here, so exercise containment through the fault fallback
    // with a twice-armed failpoint — batch sweep errs, then one
    // per-query retry errs, the other two serve.
    let _g = guard();
    let m = model();
    lsi_fault::arm_from_spec("core.query.score=return-err:2").unwrap();
    let got = m.query_top_batch(vec![q("apple", 2), q("grape", 2), q("fig", 2)]);
    lsi_fault::clear();
    let ok = got.iter().filter(|r| r.is_ok()).count();
    let err = got.iter().filter(|r| r.is_err()).count();
    assert_eq!((ok, err), (2, 1), "exactly the re-poisoned query fails");
}

#[test]
fn forced_persist_faults_are_typed_errors() {
    let _g = guard();
    let m = model();
    lsi_fault::arm(points::CORE_PERSIST_SAVE, Action::ReturnErr, Some(1));
    let err = m.to_json().unwrap_err();
    assert!(matches!(err, Error::Persist(_)), "got {err}");
    let json = m.to_json().unwrap();

    lsi_fault::arm(points::CORE_PERSIST_LOAD, Action::ReturnErr, Some(1));
    let err = LsiModel::from_json(&json).unwrap_err();
    assert!(matches!(err, Error::Persist(_)), "got {err}");
    assert!(LsiModel::from_json(&json).is_ok());
}

#[test]
fn lanczos_faults_during_build_degrade_to_a_fallback_rung() {
    let _g = guard();
    // Every Lanczos iteration fails, so the robust ladder must hand the
    // build to the randomized rung — the model still comes out usable.
    lsi_fault::arm(points::SVD_LANCZOS_ITER, Action::ReturnErr, None);
    let built = LsiModel::build(&corpus(), &options());
    lsi_fault::disarm(points::SVD_LANCZOS_ITER);
    let (m, report) = built.unwrap();
    assert_ne!(report.fallback, Fallback::None);
    assert_eq!(m.k(), 2);
    let ranked = m.query("apple banana").unwrap();
    assert_eq!(ranked.matches.len(), 5);
}

#[test]
fn nan_injection_during_lanczos_also_degrades_gracefully() {
    let _g = guard();
    lsi_fault::arm(points::SVD_LANCZOS_ITER, Action::InjectNan, None);
    let built = LsiModel::build(&corpus(), &options());
    lsi_fault::disarm(points::SVD_LANCZOS_ITER);
    let (m, report) = built.unwrap();
    assert_ne!(report.fallback, Fallback::None);
    assert!(m.query("cherry").is_ok());
}
