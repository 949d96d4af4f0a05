//! Coalesced batch scoring at a realistic factor count.
//!
//! A batch of exact all-rows queries is scored as one GEMM, whose FMA
//! tiles round differently in the last bits from the GEMV that serves a
//! query alone. So the guarantee is: the same documents in the same
//! order, with cosines within 1e-12 — not bit-identical cosines.

use lsi_core::{BatchQuery, LsiModel, LsiOptions};
use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_text::{ParsingRules, TermWeighting};

#[test]
fn batch_matches_per_query_documents_and_order_at_k32() {
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

    let z = 10;
    let batch: Vec<BatchQuery> = gen
        .queries
        .iter()
        .map(|q| BatchQuery {
            text: q.text.clone(),
            z,
            ctx: None,
        })
        .collect();
    let got = model.query_top_batch(batch);
    assert_eq!(got.len(), gen.queries.len());
    let mut compared = 0usize;
    for (q, batched) in gen.queries.iter().zip(got) {
        let batched = batched.unwrap();
        let solo = model.query_top(&q.text, z).unwrap();
        assert_eq!(batched.ids(), solo.ids(), "query {:?}", q.text);
        for (a, b) in batched.matches.iter().zip(&solo.matches) {
            assert!(
                (a.cosine - b.cosine).abs() <= 1e-12,
                "query {:?} doc {}: batched {} vs solo {}",
                q.text,
                a.doc,
                a.cosine,
                b.cosine
            );
            compared += 1;
        }
    }
    assert_eq!(compared, gen.queries.len() * z);
}
