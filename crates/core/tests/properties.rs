//! Property-based tests on the LSI model: factor invariants, query
//! geometry, and updating exactness over randomly generated corpora.

use lsi_core::{LsiModel, LsiOptions};
use lsi_linalg::ops::matmul_tn;
use lsi_linalg::DenseMatrix;
use lsi_sparse::CscMatrix;
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};
use proptest::prelude::*;

/// The closed vocabulary of the generated corpora.
const WORDS: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

/// Strategy: a corpus of `n_docs` documents over a small closed
/// vocabulary, so min_df = 2 keeps most words.
fn corpus_strategy() -> impl Strategy<Value = Corpus> {
    let word = prop::sample::select(WORDS.to_vec());
    let doc = prop::collection::vec(word, 3..12);
    prop::collection::vec(doc, 4..10).prop_map(|docs| Corpus {
        docs: docs
            .into_iter()
            .enumerate()
            .map(|(i, words)| Document::new(format!("d{i}"), words.join(" ")))
            .collect(),
    })
}

fn build(corpus: &Corpus, k: usize) -> Option<LsiModel> {
    let options = LsiOptions {
        k,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::none(),
        svd_seed: 9,
    };
    let (model, _) = LsiModel::build(corpus, &options).ok()?;
    if model.k() == 0 {
        None
    } else {
        Some(model)
    }
}

fn orthonormality(m: &DenseMatrix) -> f64 {
    if m.ncols() == 0 {
        return 0.0;
    }
    matmul_tn(m, m)
        .unwrap()
        .fro_distance(&DenseMatrix::identity(m.ncols()))
        .unwrap()
}

/// xorshift64: the data of one interleaving step from its seed.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A vector of `len` small counts (0–3), at least one of them nonzero.
fn counts(state: &mut u64, len: usize) -> Vec<f64> {
    let mut c: Vec<f64> = (0..len).map(|_| (next(state) % 4) as f64).collect();
    c[(next(state) as usize) % len] = 1.0;
    c
}

/// What the model's stored weighted matrix should hold: one dense row
/// per `Svd`-origin term row and one column per `Svd`-origin document
/// row, tracked next to the origin of every factor row.
struct Tracked {
    stored: DenseMatrix,
    svd_terms: Vec<bool>,
    svd_docs: Vec<bool>,
    term_names: Vec<String>,
    doc_ids: Vec<String>,
}

impl Tracked {
    /// `x` in stored coordinates: its entries on the rows that `svd`
    /// marks as `Svd`-origin.
    fn svd_entries(x: &[f64], svd: &[bool]) -> Vec<f64> {
        x.iter()
            .zip(svd)
            .filter(|(_, &s)| s)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Add `delta` to the stored row of `term_row`, if it has one.
    fn add_rank_one(&mut self, term_row: usize, delta: &[f64]) {
        if !self.svd_terms[term_row] {
            return;
        }
        let i = self.svd_terms[..term_row].iter().filter(|&&s| s).count();
        for (j, v) in Self::svd_entries(delta, &self.svd_docs)
            .into_iter()
            .enumerate()
        {
            self.stored.add_to(i, j, v);
        }
    }
}

/// σ and (when σ_k is separated from σ_{k+1}) the rank-k reconstruction
/// of `model` match the dense SVD of `target`, and both factors are
/// orthonormal.
fn assert_exact_update(model: &LsiModel, target: &DenseMatrix, what: &str) {
    let oracle = lsi_linalg::dense_svd(target).unwrap();
    let k = model.k();
    for (got, want) in model.singular_values().iter().zip(&oracle.s) {
        assert!(
            (got - want).abs() < 1e-8 * want.max(1.0),
            "{}: σ {} vs {}",
            what,
            got,
            want
        );
    }
    let gap = oracle.s[k - 1] - oracle.s.get(k).copied().unwrap_or(0.0);
    if gap > 1e-6 * oracle.s[0] {
        let ours = model.reconstruct_ak().unwrap();
        let theirs = oracle.truncate(k).reconstruct().unwrap();
        let err = ours.fro_distance(&theirs).unwrap();
        assert!(
            err < 1e-8 * theirs.fro_norm().max(1.0),
            "{}: reconstruction off by {}",
            what,
            err
        );
    }
    assert!(
        orthonormality(model.term_matrix()) < 1e-8,
        "{}: U not orthonormal",
        what
    );
    assert!(
        orthonormality(model.doc_matrix()) < 1e-8,
        "{}: V not orthonormal",
        what
    );
}

/// Run one interleaving of fold-ins and SVD-updates (`steps`: an
/// update kind and a seed for its data), checking every SVD-update
/// against the dense SVD of `[U Σ Vᵀ ⊕ 0] + X Yᵀ` and the stored matrix
/// against a dense copy kept alongside, then recompute.
fn check_interleaving(corpus: &Corpus, steps: &[(u8, u64)]) {
    let Some(mut model) = build(corpus, 3) else {
        return;
    };
    let k = model.k();
    let vocab = model.vocabulary().len();
    let mut t = Tracked {
        stored: model.weighted_matrix().to_dense(),
        svd_terms: vec![true; model.n_terms()],
        svd_docs: vec![true; model.n_docs()],
        term_names: Vec::new(),
        doc_ids: model.doc_ids().iter().map(|id| id.to_string()).collect(),
    };
    // SVD-updating is exact for `[U Σ Vᵀ ⊕ 0] + X Yᵀ` while U and V are
    // orthonormal; a fold-in appends rows that are not (§4.3), so the
    // oracle applies until the first one.
    let mut folded = false;
    for (step, &(op, seed)) in steps.iter().enumerate() {
        let mut state = seed | 1;
        let (m, n) = (model.n_terms(), model.n_docs());
        let ak = model.reconstruct_ak().unwrap();
        match op {
            0 => {
                let text: Vec<&str> = (0..4)
                    .map(|_| WORDS[(next(&mut state) % 10) as usize])
                    .collect();
                let id = format!("f{step}");
                model
                    .fold_in_documents(&Corpus {
                        docs: vec![Document::new(id.clone(), text.join(" "))],
                    })
                    .unwrap();
                t.svd_docs.push(false);
                t.doc_ids.push(id);
                folded = true;
            }
            1 => {
                let name = format!("t{step}");
                model
                    .fold_in_terms(&[(name.clone(), counts(&mut state, n))])
                    .unwrap();
                t.svd_terms.push(false);
                t.term_names.push(name);
                folded = true;
            }
            2 => {
                // D over every term row, folded-in ones included.
                let p = 1 + (next(&mut state) % 2) as usize;
                let cols: Vec<Vec<f64>> = (0..p).map(|_| counts(&mut state, m)).collect();
                let ids: Vec<String> = (0..p).map(|j| format!("u{step}_{j}")).collect();
                let mut d = CscMatrix::zeros(m, 0);
                for c in &cols {
                    let rows: Vec<usize> = (0..m).filter(|&i| c[i] != 0.0).collect();
                    let vals: Vec<f64> = rows.iter().map(|&i| c[i]).collect();
                    d.push_col(&rows, &vals).unwrap();
                }
                model.svd_update_documents(&d, &ids).unwrap();
                let new_cols: Vec<Vec<f64>> = cols
                    .iter()
                    .map(|c| Tracked::svd_entries(c, &t.svd_terms))
                    .collect();
                t.stored = t
                    .stored
                    .hcat(&DenseMatrix::from_cols(&new_cols).unwrap())
                    .unwrap();
                t.svd_docs.extend(vec![true; p]);
                t.doc_ids.extend(ids);
                if !folded {
                    let target = ak.hcat(&DenseMatrix::from_cols(&cols).unwrap()).unwrap();
                    assert_exact_update(&model, &target, "svd_update_documents");
                }
            }
            3 => {
                let q = 1 + (next(&mut state) % 2) as usize;
                let rows: Vec<Vec<f64>> = (0..q).map(|_| counts(&mut state, n)).collect();
                let terms: Vec<(String, Vec<f64>)> = rows
                    .iter()
                    .enumerate()
                    .map(|(j, r)| (format!("s{step}_{j}"), r.clone()))
                    .collect();
                model.svd_update_terms(&terms).unwrap();
                let new_rows: Vec<Vec<f64>> = rows
                    .iter()
                    .map(|r| Tracked::svd_entries(r, &t.svd_docs))
                    .collect();
                t.stored = t
                    .stored
                    .vcat(&DenseMatrix::from_rows(&new_rows).unwrap())
                    .unwrap();
                t.svd_terms.extend(vec![true; q]);
                t.term_names.extend(terms.into_iter().map(|(name, _)| name));
                if !folded {
                    let target = ak.vcat(&DenseMatrix::from_rows(&rows).unwrap()).unwrap();
                    assert_exact_update(&model, &target, "svd_update_terms");
                }
            }
            _ => {
                // Weight corrections on any term row, folded-in ones included.
                let changes: Vec<(usize, Vec<f64>)> = (0..1 + (next(&mut state) % 2) as usize)
                    .map(|_| {
                        let delta = counts(&mut state, n)
                            .iter()
                            .map(|c| 0.25 * (c - 1.5))
                            .collect();
                        ((next(&mut state) as usize) % m, delta)
                    })
                    .collect();
                model.svd_update_weights(&changes).unwrap();
                let mut target = ak;
                for (row, delta) in &changes {
                    t.add_rank_one(*row, delta);
                    for (j, &dv) in delta.iter().enumerate() {
                        target.add_to(*row, j, dv);
                    }
                }
                if !folded {
                    assert_exact_update(&model, &target, "svd_update_weights");
                }
            }
        }
        let stored = model.weighted_matrix().to_dense();
        assert_eq!(stored.shape(), t.stored.shape());
        assert!(
            stored.fro_distance(&t.stored).unwrap() < 1e-12,
            "stored matrix drifted at step {}",
            step
        );
    }

    // Recomputing keeps exactly the `Svd`-origin documents and terms,
    // and decomposes the tracked matrix.
    model.recompute(k).unwrap();
    let kept_ids: Vec<&str> = t
        .doc_ids
        .iter()
        .zip(&t.svd_docs)
        .filter(|(_, &s)| s)
        .map(|(id, _)| id.as_str())
        .collect();
    let ids: Vec<&str> = model.doc_ids().iter().map(|id| id.as_ref()).collect();
    assert_eq!(ids, kept_ids);
    assert_eq!(model.n_terms(), t.svd_terms.iter().filter(|&&s| s).count());
    let mut row = vocab;
    for (name, &svd) in t.term_names.iter().zip(&t.svd_terms[vocab..]) {
        if svd {
            assert_eq!(model.term_index(name), Some(row));
            row += 1;
        } else {
            assert_eq!(model.term_index(name), None);
        }
    }
    let oracle = lsi_linalg::dense_svd(&t.stored).unwrap();
    for (got, want) in model.singular_values().iter().zip(&oracle.s) {
        assert!(
            (got - want).abs() < 1e-8 * want.max(1.0),
            "recomputed σ {} vs {}",
            got,
            want
        );
    }
    assert!(orthonormality(model.term_matrix()) < 1e-8);
    assert!(orthonormality(model.doc_matrix()) < 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn factors_are_orthonormal_and_sigma_sorted(corpus in corpus_strategy()) {
        let Some(model) = build(&corpus, 4) else { return Ok(()); };
        prop_assert!(orthonormality(model.term_matrix()) < 1e-8);
        prop_assert!(orthonormality(model.doc_matrix()) < 1e-8);
        for w in model.singular_values().windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(model.singular_values().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn query_cosines_are_bounded_and_self_retrieval_works(corpus in corpus_strategy()) {
        let Some(model) = build(&corpus, 4) else { return Ok(()); };
        for (j, doc) in corpus.docs.iter().enumerate().take(3) {
            let ranked = model.query(&doc.text).unwrap();
            for m in &ranked.matches {
                prop_assert!(m.cosine <= 1.0 + 1e-9 && m.cosine >= -1.0 - 1e-9);
            }
            // Querying with a document's own text ranks that document
            // highly (ties possible with duplicate docs).
            let self_rank = ranked.matches.iter().position(|m| m.doc == j).unwrap();
            let self_cos = ranked.matches[self_rank].cosine;
            let best_cos = ranked.matches[0].cosine;
            prop_assert!(
                best_cos - self_cos < 1e-6 || self_rank < corpus.docs.len(),
                "self-retrieval cosine {} vs best {}", self_cos, best_cos
            );
        }
    }

    #[test]
    fn fold_in_never_moves_existing_rows(corpus in corpus_strategy()) {
        let Some(mut model) = build(&corpus, 3) else { return Ok(()); };
        let before: Vec<Vec<f64>> = (0..model.n_docs()).map(|j| model.doc_vector(j)).collect();
        model
            .fold_in_documents(&Corpus {
                docs: vec![Document::new("fresh", "alpha beta gamma")],
            })
            .unwrap();
        for (j, b) in before.iter().enumerate() {
            prop_assert_eq!(&model.doc_vector(j), b);
        }
    }

    #[test]
    fn svd_update_matches_dense_oracle_of_ak_extension(corpus in corpus_strategy()) {
        let Some(mut model) = build(&corpus, 3) else { return Ok(()); };
        let ak = model.reconstruct_ak().unwrap();
        let new = Corpus {
            docs: vec![Document::new("n0", "alpha gamma epsilon epsilon")],
        };
        let d = model.vocabulary().count_matrix(&new);
        let b = ak.hcat(&d.to_dense()).unwrap();
        let oracle = lsi_linalg::dense_svd(&b).unwrap();
        model
            .svd_update_documents(&d, &["n0".to_string()])
            .unwrap();
        for (got, want) in model.singular_values().iter().zip(oracle.s.iter()) {
            prop_assert!((got - want).abs() < 1e-8 * want.max(1.0), "{} vs {}", got, want);
        }
        prop_assert!(orthonormality(model.term_matrix()) < 1e-8);
        prop_assert!(orthonormality(model.doc_matrix()) < 1e-8);
    }

    #[test]
    fn every_update_kind_matches_the_dense_low_rank_oracle(
        corpus in corpus_strategy(),
        steps in prop::collection::vec((0u8..5, 0u64..u64::MAX), 1..9),
    ) {
        check_interleaving(&corpus, &steps);
    }

    #[test]
    fn persistence_roundtrip_is_lossless(corpus in corpus_strategy()) {
        let Some(model) = build(&corpus, 3) else { return Ok(()); };
        let back = LsiModel::from_json(&model.to_json().unwrap()).unwrap();
        prop_assert_eq!(back.singular_values(), model.singular_values());
        prop_assert_eq!(back.doc_ids(), model.doc_ids());
        let q = "alpha beta";
        let r1 = model.query(q).unwrap();
        let r2 = back.query(q).unwrap();
        prop_assert_eq!(r1.ids(), r2.ids());
    }

    #[test]
    fn reconstruction_error_shrinks_with_k(corpus in corpus_strategy()) {
        let mut last_err = f64::INFINITY;
        for k in 1..=3 {
            let Some(model) = build(&corpus, k) else { return Ok(()); };
            let dense = model.weighted_matrix().to_dense();
            let err = model
                .reconstruct_ak()
                .unwrap()
                .fro_distance(&dense)
                .unwrap();
            prop_assert!(err <= last_err + 1e-9, "error grew: {} -> {}", last_err, err);
            last_err = err;
        }
    }
}
