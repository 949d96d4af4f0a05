//! Query projection (Eq. 6) against the dense formula it replaced.
//!
//! The reference computes `q̂ = qᵀ U_k Σ_k⁻¹` the long way: count the
//! query over every term row of `U`, weight that dense vector, run
//! `ops::matvec_t` over all of `U`, then divide by σ.
//! `LsiModel::project_text` and `LsiModel::project_counts` gather only
//! the query's own rows and must reproduce it bit for bit: under every
//! weighting, with phrase terms, with repeated words, for terms added
//! by folding-in and by SVD-updating, and for an all-unknown query.

use lsi_core::{LsiModel, LsiOptions};
use lsi_linalg::ops;
use lsi_text::{Corpus, ParsingRules, TermWeighting};

const WORDS: [&str; 24] = [
    "engine", "motor", "car", "wheel", "driver", "road", "lion", "zebra", "elephant", "giraffe",
    "savanna", "herd", "violin", "cello", "sonata", "tempo", "melody", "chord", "kernel",
    "thread", "cache", "stack", "heap", "mutex",
];

/// Deterministic documents over [`WORDS`], each also carrying one of a
/// few fixed phrases so bigram terms pass the document-frequency rule.
fn corpus() -> Corpus {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let phrases = ["blood pressure", "heart rate", "string quartet"];
    let docs: Vec<(String, String)> = (0..40)
        .map(|d| {
            let theme = d % 4;
            let mut words: Vec<&str> = (0..10)
                .map(|_| WORDS[theme * 6 + (next() % 6) as usize])
                .collect();
            words.push(WORDS[(next() % 24) as usize]);
            words.push(phrases[d % 3]);
            (format!("d{d}"), words.join(" "))
        })
        .collect();
    Corpus::from_pairs(docs.iter().map(|(id, text)| (id.as_str(), text.as_str())))
}

fn model(weighting: TermWeighting, word_ngrams: usize) -> LsiModel {
    let options = LsiOptions {
        k: 6,
        rules: ParsingRules {
            min_df: 2,
            word_ngrams,
            ..Default::default()
        },
        weighting,
        svd_seed: 5,
    };
    LsiModel::build(&corpus(), &options).unwrap().0
}

/// The query's raw counts over every term row of `U`: vocabulary
/// units first, then tokens that name folded-in or SVD-updated rows.
fn dense_counts(model: &LsiModel, text: &str) -> Vec<f64> {
    let mut counts = model.vocabulary().count_vector(text);
    counts.resize(model.n_terms(), 0.0);
    for tok in lsi_text::tokenize(text) {
        if model.vocabulary().index_of(&tok).is_none() {
            if let Some(i) = model.term_index(&tok) {
                counts[i] += 1.0;
            }
        }
    }
    counts
}

/// Eq. 6 over the dense vector: weight, `matvec_t` over all of `U`,
/// divide by σ.
fn dense_projection(model: &LsiModel, counts: &[f64]) -> Vec<f64> {
    let local = model.weighting().local;
    let global = model.global_weights();
    let weighted: Vec<f64> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| local.apply(c) * global.get(i).copied().unwrap_or(1.0))
        .collect();
    let mut qhat = ops::matvec_t(model.term_matrix(), &weighted).unwrap();
    for (q, &s) in qhat.iter_mut().zip(model.singular_values()) {
        if s > 0.0 {
            *q /= s;
        }
    }
    qhat
}

fn assert_projects_like_dense(model: &LsiModel, text: &str, what: &str) {
    let counts = dense_counts(model, text);
    let want = dense_projection(model, &counts);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let by_text = model.project_text(text).unwrap();
    assert_eq!(bits(&by_text), bits(&want), "{what}: project_text({text:?})");
    let by_counts = model.project_counts(&counts).unwrap();
    assert_eq!(bits(&by_counts), bits(&want), "{what}: project_counts({text:?})");
}

/// Queries covering repeated words, mixed case, phrases, unknown words
/// and every term row at once (so rows in `matvec_t`'s tail are hit).
fn queries(model: &LsiModel) -> Vec<String> {
    let mut all: Vec<String> = model.vocabulary().terms().to_vec();
    all.extend(WORDS.iter().map(|w| w.to_string()));
    vec![
        "car engine car wheel car".to_string(),
        "Lion ZEBRA giraffe unknownword".to_string(),
        "blood pressure high blood pressure heart rate".to_string(),
        "sonata".to_string(),
        "mutex heap heap stack cache thread kernel".to_string(),
        all.join(" "),
    ]
}

#[test]
fn sparse_projection_matches_the_dense_formula_bitwise() {
    let schemes = [
        ("raw", TermWeighting::none()),
        ("log-entropy", TermWeighting::log_entropy()),
        ("tf-idf", TermWeighting::tf_idf()),
    ];
    for (name, weighting) in schemes {
        for ngrams in [1, 2] {
            let m = model(weighting, ngrams);
            if ngrams == 2 {
                assert!(m.vocabulary().index_of("blood pressure").is_some());
            }
            for text in queries(&m) {
                assert_projects_like_dense(&m, &text, &format!("{name} ngrams={ngrams}"));
            }
        }
    }
}

#[test]
fn terms_added_after_build_project_like_dense() {
    let mut m = model(TermWeighting::log_entropy(), 1);
    let n = m.n_docs();
    let counts = |stride: usize| -> Vec<f64> {
        (0..n).map(|d| if d % stride == 0 { 2.0 } else { 0.0 }).collect()
    };
    m.fold_in_terms(&[("tuba".to_string(), counts(4)), ("Oboe".to_string(), counts(3))])
        .unwrap();
    let folded = m.n_terms();
    m.svd_update_terms(&[("harp".to_string(), counts(5))]).unwrap();
    assert!(m.n_terms() > folded && folded > m.vocabulary().len());
    for text in [
        "tuba oboe harp",
        "harp harp car tuba",
        "oboe sonata oboe",
        "harp",
        "car engine wheel",
    ] {
        assert_projects_like_dense(&m, text, "after fold_in_terms + svd_update_terms");
    }
    let with_added = m.project_text("tuba harp").unwrap();
    assert!(with_added.iter().any(|&x| x != 0.0));
}

#[test]
fn all_unknown_query_projects_to_the_zero_vector() {
    let m = model(TermWeighting::log_entropy(), 2);
    let qhat = m.project_text("xylophone quux the and").unwrap();
    assert_eq!(qhat.len(), m.k());
    assert!(qhat.iter().all(|x| x.to_bits() == 0), "{qhat:?}");
    let zeros = m.project_counts(&vec![0.0; m.n_terms()]).unwrap();
    assert!(zeros.iter().all(|x| x.to_bits() == 0), "{zeros:?}");
}

/// The flop count charged for a projection: each distinct query term's
/// weighting (2) and its row's `k` multiply-adds (2k), then the `k`
/// divides by σ — not `(2k + 2)` per vocabulary term.
#[test]
fn projection_charges_flops_for_the_gathered_pairs_only() {
    let m = model(TermWeighting::log_entropy(), 1);
    let text = "car engine car wheel unknownword";
    let pairs = m.vocabulary().sparse_count_vector(text).len();
    assert_eq!(pairs, 3);
    let counts = dense_counts(&m, text);
    lsi_obs::set_enabled(true);
    {
        let _span = lsi_obs::span("test.project_text");
        m.project_text(text).unwrap();
    }
    {
        let _span = lsi_obs::span("test.project_counts");
        m.project_counts(&counts).unwrap();
    }
    lsi_obs::set_enabled(false);
    let k = m.k();
    let want = ((2 * k + 2) * pairs + k) as f64;
    let snap = lsi_obs::snapshot();
    for span in ["test.project_text", "test.project_counts"] {
        let stats = snap.span(span).unwrap_or_else(|| panic!("{span} recorded"));
        assert_eq!(stats.flops, want, "{span}");
    }
}
