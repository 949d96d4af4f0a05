//! Coalesced batch scoring at a realistic factor count.
//!
//! A batch of exact all-rows queries reads `V` once for all of them.
//! Below `GEMM_MIN_COLS_THRESHOLD` queries that is the fused block
//! sweep, each of whose columns replays the GEMV that serves a query
//! alone, so narrow batches return bit-identical results. From the
//! threshold on it is one GEMM, whose FMA tiles round differently in
//! the last bits, so wide batches guarantee the same documents in the
//! same order, with cosines within 1e-12.

use lsi_core::{BatchQuery, LsiModel, LsiOptions};
use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_linalg::ops::GEMM_MIN_COLS_THRESHOLD;
use lsi_text::{ParsingRules, TermWeighting};

/// A k = 32 model of 300 synthetic documents and its 40 queries.
fn model_and_queries() -> (LsiModel, Vec<String>) {
    let gen = SyntheticCorpus::generate(&SyntheticOptions {
        n_topics: 10,
        docs_per_topic: 30,
        queries_per_topic: 4,
        seed: 7,
        ..Default::default()
    });
    assert_eq!(gen.corpus.len(), 300);
    let options = LsiOptions {
        k: 32,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::log_entropy(),
        svd_seed: 11,
    };
    let (model, _) = LsiModel::build(&gen.corpus, &options).unwrap();
    assert_eq!(model.k(), 32);
    let queries = gen.queries.iter().map(|q| q.text.clone()).collect();
    (model, queries)
}

fn batch_of(texts: &[String], z: usize) -> Vec<BatchQuery> {
    texts
        .iter()
        .map(|text| BatchQuery {
            text: text.clone(),
            z,
            ctx: None,
        })
        .collect()
}

/// All 40 queries in one batch: above the crossover, so the GEMM side.
#[test]
fn batch_matches_per_query_documents_and_order_at_k32() {
    let (model, queries) = model_and_queries();
    assert_eq!(queries.len(), 40);
    assert!(queries.len() >= GEMM_MIN_COLS_THRESHOLD);
    let z = 10;
    let got = model.query_top_batch(batch_of(&queries, z));
    assert_eq!(got.len(), queries.len());
    let mut compared = 0usize;
    for (q, batched) in queries.iter().zip(got) {
        let batched = batched.unwrap();
        let solo = model.query_top(q, z).unwrap();
        assert_eq!(batched.ids(), solo.ids(), "query {q:?}");
        for (a, b) in batched.matches.iter().zip(&solo.matches) {
            assert!(
                (a.cosine - b.cosine).abs() <= 1e-12,
                "query {q:?} doc {}: batched {} vs solo {}",
                a.doc,
                a.cosine,
                b.cosine
            );
            compared += 1;
        }
    }
    assert_eq!(compared, queries.len() * z);
}

/// The same 40 queries in batches of 2 and of 3 (the last batch of 3
/// holds one query): the block-sweep side, bit-identical to solo.
#[test]
fn narrow_batches_match_per_query_results_bitwise_at_k32() {
    let (model, queries) = model_and_queries();
    let z = 10;
    for width in [2usize, 3] {
        assert!(width < GEMM_MIN_COLS_THRESHOLD);
        let mut compared = 0usize;
        for chunk in queries.chunks(width) {
            let got = model.query_top_batch(batch_of(chunk, z));
            for (q, batched) in chunk.iter().zip(got) {
                let batched = batched.unwrap();
                let solo = model.query_top(q, z).unwrap();
                assert_eq!(batched.ids(), solo.ids(), "width {width} query {q:?}");
                for (a, b) in batched.matches.iter().zip(&solo.matches) {
                    assert_eq!(
                        a.cosine.to_bits(),
                        b.cosine.to_bits(),
                        "width {width} query {q:?} doc {}",
                        a.doc
                    );
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, queries.len() * z, "width {width}");
    }
}
