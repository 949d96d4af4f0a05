//! Cross-crate pipeline tests: parse → weight → SVD → query → update →
//! persist, on generated corpora, checking invariants that span crate
//! boundaries.

use lsi_core::{LsiModel, LsiOptions};
use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

fn options(k: usize) -> LsiOptions {
    LsiOptions {
        k,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::log_entropy(),
        svd_seed: 10,
    }
}

fn corpus(seed: u64) -> SyntheticCorpus {
    SyntheticCorpus::generate(&SyntheticOptions {
        n_topics: 5,
        docs_per_topic: 10,
        seed,
        ..Default::default()
    })
}

#[test]
fn end_to_end_build_query_persist_reload() {
    let gen = corpus(1);
    let (model, report) = LsiModel::build(&gen.corpus, &options(10)).unwrap();
    assert!(report.accepted >= 10);

    // Queries retrieve their own topic.
    let mut hits = 0usize;
    for q in &gen.queries {
        let ranked = model.query(&q.text).unwrap();
        if gen.doc_topics[ranked.matches[0].doc] == q.topic {
            hits += 1;
        }
    }
    assert!(
        hits * 10 >= gen.queries.len() * 8,
        "top-1 accuracy {hits}/{}",
        gen.queries.len()
    );

    // Persist and reload: identical ranking.
    let json = model.to_json().unwrap();
    let restored = LsiModel::from_json(&json).unwrap();
    let before = model.query(&gen.queries[0].text).unwrap();
    let after = restored.query(&gen.queries[0].text).unwrap();
    assert_eq!(before.ids(), after.ids());
}

#[test]
fn incremental_updates_converge_to_batch_build() {
    // Build on 40 docs then SVD-update 10 more, vs build on all 50:
    // singular values should agree closely (exactly at full rank,
    // closely at truncation).
    let gen = corpus(3);
    let all = &gen.corpus;
    let first: Corpus = Corpus {
        docs: all.docs[..40].to_vec(),
    };
    let rest: Corpus = Corpus {
        docs: all.docs[40..].to_vec(),
    };

    let (mut incremental, _) = LsiModel::build(&first, &options(12)).unwrap();
    let d = incremental.vocabulary().count_matrix(&rest);
    let ids: Vec<String> = rest.docs.iter().map(|d| d.id.clone()).collect();
    incremental.svd_update_documents(&d, &ids).unwrap();

    // Batch model sharing the same vocabulary/weights: recompute from
    // the incrementally grown matrix.
    let mut batch = incremental.clone();
    batch.recompute(12).unwrap();

    for (a, b) in incremental
        .singular_values()
        .iter()
        .zip(batch.singular_values().iter())
    {
        assert!(
            (a - b).abs() / b < 0.08,
            "incremental sigma {a:.4} vs batch {b:.4}"
        );
    }

    // Rankings correlate: the top-3 sets overlap for each query.
    for q in gen.queries.iter().take(5) {
        let inc: Vec<usize> = incremental
            .query(&q.text)
            .unwrap()
            .matches
            .iter()
            .take(3)
            .map(|m| m.doc)
            .collect();
        let bat: Vec<usize> = batch
            .query(&q.text)
            .unwrap()
            .matches
            .iter()
            .take(3)
            .map(|m| m.doc)
            .collect();
        let overlap = inc.iter().filter(|d| bat.contains(d)).count();
        assert!(overlap >= 2, "top-3 overlap {overlap} for query {:?}", q.text);
    }
}

#[test]
fn fold_in_then_recompute_drops_folded_rows() {
    let gen = corpus(4);
    let (mut model, _) = LsiModel::build(&gen.corpus, &options(8)).unwrap();
    let n = model.n_docs();
    model
        .fold_in_documents(&Corpus {
            docs: vec![Document::new("extra", gen.corpus.docs[0].text.clone())],
        })
        .unwrap();
    assert_eq!(model.n_docs(), n + 1);
    model.recompute(8).unwrap();
    assert_eq!(model.n_docs(), n, "folded row is not part of the stored matrix");
}

#[test]
fn term_updates_extend_the_vocabulary_view() {
    let gen = corpus(5);
    let (mut model, _) = LsiModel::build(&gen.corpus, &options(8)).unwrap();
    let n_docs = model.n_docs();
    let counts: Vec<f64> = (0..n_docs).map(|j| if j % 5 == 0 { 2.0 } else { 0.0 }).collect();
    model
        .svd_update_terms(&[("brandnewterm".to_string(), counts)])
        .unwrap();
    let idx = model.term_index("brandnewterm").expect("new term indexed");
    assert_eq!(idx, model.n_terms() - 1);
    // The new term participates in queries.
    let qhat = model.project_text("brandnewterm").unwrap();
    assert!(qhat.iter().any(|&x| x.abs() > 1e-12));
}

#[test]
fn lanczos_and_dense_oracle_agree_through_the_model_api() {
    let gen = corpus(6);
    let (model, _) = LsiModel::build(&gen.corpus, &options(8)).unwrap();
    let oracle = lsi_svd::dense_oracle(model.weighted_matrix(), 8).unwrap();
    for (got, want) in model.singular_values().iter().zip(oracle.s.iter()) {
        assert!(
            (got - want).abs() < 1e-6 * want.max(1.0),
            "{got} vs oracle {want}"
        );
    }
}
