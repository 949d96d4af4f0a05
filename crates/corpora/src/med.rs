//! The paper's §3 example database: 18 medical topics drawn from the
//! MEDLINE test collection (Tables 2 and 5), the derived 18×14
//! term-document matrix (Table 3), and the published query/SVD constants
//! (Figure 5, Table 4) used as reproduction targets.
//!
//! Provenance note: the machine-readable copy of the paper this
//! reproduction works from has OCR damage in Table 3 (at least the
//! *respect* row disagrees with the topic texts of Table 2). The matrix
//! embedded here is derived from the Table 2 *texts* under the paper's
//! stated parsing rule — keywords appear in more than one topic, stop
//! words removed, trivial plurals folded — which reproduces the
//! published vocabulary exactly and the published rankings closely (see
//! EXPERIMENTS.md for the per-value comparison).

use lsi_sparse::CscMatrix;
use lsi_text::{Corpus, ParsingRules, Vocabulary};

/// The 14 original medical topics of Table 2.
pub const TOPICS: [(&str, &str); 14] = [
    (
        "M1",
        "study of depressed patients after discharge with regard to age of onset and culture",
    ),
    (
        "M2",
        "culture of pleuropneumonia like organisms found in vaginal discharge of patients",
    ),
    (
        "M3",
        "study showed oestrogen production is depressed by ovarian irradiation",
    ),
    (
        "M4",
        "cortisone rapidly depressed the secondary rise in oestrogen output of patients",
    ),
    (
        "M5",
        "boys tend to react to death anxiety by acting out behavior while girls tended to become depressed",
    ),
    (
        "M6",
        "changes in children s behavior following hospitalization studied a week after discharge",
    ),
    ("M7", "surgical technique to close ventricular septal defects"),
    (
        "M8",
        "chromosomal abnormalities in blood cultures and bone marrow from leukaemic patients",
    ),
    (
        "M9",
        "study of christmas disease with respect to generation and culture",
    ),
    (
        "M10",
        "insulin not responsible for metabolic abnormalities accompanying a prolonged fast",
    ),
    (
        "M11",
        "close relationship between high blood pressure and vascular disease",
    ),
    (
        "M12",
        "mouse kidneys show a decline with respect to age in the ability to concentrate the urine during a water fast",
    ),
    ("M13", "fast cell generation in the eye lens epithelium of rats"),
    ("M14", "fast rise of cerebral oxygen pressure in rats"),
];

/// The two fictitious update topics of Table 5.
pub const UPDATE_TOPICS: [(&str, &str); 2] = [
    ("M15", "behavior of rats after detected rise in oestrogen"),
    ("M16", "depressed patients who feel the pressure to fast"),
];

/// The 18 indexed keywords, alphabetical — the row order of Table 3.
pub const TERMS: [&str; 18] = [
    "abnormalities",
    "age",
    "behavior",
    "blood",
    "close",
    "culture",
    "depressed",
    "discharge",
    "disease",
    "fast",
    "generation",
    "oestrogen",
    "patients",
    "pressure",
    "rats",
    "respect",
    "rise",
    "study",
];

/// The example query of §3.1 (before stop-word removal).
pub const QUERY: &str = "age of children with blood abnormalities";

/// Terms of the query that are indexed (after stop-word and
/// unknown-word removal): §3.1's "age blood abnormalities".
pub const QUERY_TERMS: [&str; 3] = ["age", "blood", "abnormalities"];

/// Paper constants (Figure 5): the two largest singular values of the
/// 18×14 matrix as published.
pub const PAPER_SIGMA: [f64; 2] = [3.5919, 2.6471];

/// Paper constants (Figure 5): the published query coordinates
/// `q̂ = qᵀ U₂ Σ₂⁻¹`.
pub const PAPER_QUERY_COORDS: [f64; 2] = [0.1491, -0.1199];

/// Paper constants (Figure 5): the published `U₂` (18×2), row order as
/// [`TERMS`].
pub const PAPER_U2: [[f64; 2]; 18] = [
    [0.1623, -0.1372],
    [0.2068, -0.0488],
    [0.0597, 0.0614],
    [0.1663, -0.1313],
    [0.0258, -0.1246],
    [0.4534, 0.0386],
    [0.3579, 0.1710],
    [0.2931, 0.1426],
    [0.0690, -0.1576],
    [0.0940, -0.6535],
    [0.0599, -0.2378],
    [0.1560, 0.0661],
    [0.4948, 0.1091],
    [0.0460, -0.3393],
    [0.0369, -0.4196],
    [0.1797, -0.1456],
    [0.1087, -0.2126],
    [0.3814, 0.0941],
];

/// Paper constants (Table 4): documents returned within cosine 0.40 of
/// the query, as `(doc id, cosine)`, for k = 2, 4, 8.
pub const PAPER_TABLE4_K2: [(&str, f64); 11] = [
    ("M9", 1.00),
    ("M12", 0.88),
    ("M8", 0.85),
    ("M11", 0.82),
    ("M10", 0.79),
    ("M7", 0.74),
    ("M14", 0.72),
    ("M13", 0.71),
    ("M4", 0.67),
    ("M1", 0.56),
    ("M2", 0.42),
];

/// Table 4, k = 4 column.
pub const PAPER_TABLE4_K4: [(&str, f64); 5] = [
    ("M8", 0.92),
    ("M9", 0.89),
    ("M2", 0.64),
    ("M10", 0.48),
    ("M12", 0.46),
];

/// Table 4, k = 8 column.
pub const PAPER_TABLE4_K8: [(&str, f64); 4] =
    [("M8", 0.67), ("M12", 0.55), ("M10", 0.54), ("M11", 0.40)];

/// Documents the paper reports lexical matching would return for the
/// query (§3.2), and the relevant document lexical matching misses.
pub const PAPER_LEXICAL_MATCHES: [&str; 5] = ["M1", "M8", "M10", "M11", "M12"];

/// §3.2: "topic M9 would be missed" by lexical matching; LSI retrieves
/// it top-ranked because "christmas disease is the name associated \[with\]
/// hemophilia in young children".
pub const PAPER_LEXICAL_MISS: &str = "M9";

/// The assembled example: corpus, vocabulary, count matrix.
#[derive(Debug, Clone)]
pub struct MedExample {
    /// The 14 original topics.
    pub corpus: Corpus,
    /// Vocabulary under the paper's parsing rules (18 terms).
    pub vocab: Vocabulary,
    /// The 18×14 raw count matrix (Table 3).
    pub matrix: CscMatrix,
}

impl MedExample {
    /// Build the example exactly as §3 describes.
    pub fn build() -> MedExample {
        let corpus = Corpus::from_pairs(TOPICS);
        let vocab = Vocabulary::build(&corpus, &ParsingRules::paper_example());
        let matrix = vocab.count_matrix(&corpus);
        MedExample {
            corpus,
            vocab,
            matrix,
        }
    }

    /// The corpus extended with the Table 5 update topics (16 docs) —
    /// the input to the §3.3/§4.4 updating experiments.
    pub fn extended_corpus() -> Corpus {
        let mut corpus = Corpus::from_pairs(TOPICS);
        for (id, text) in UPDATE_TOPICS {
            corpus.push(lsi_text::Document::new(id, text));
        }
        corpus
    }

    /// Count matrix of just the two new documents against the original
    /// vocabulary — the `D` of Eq. 10.
    pub fn update_documents_matrix(&self) -> CscMatrix {
        let update = Corpus::from_pairs(UPDATE_TOPICS);
        self.vocab.count_matrix(&update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_exactly_the_papers_18_terms() {
        let ex = MedExample::build();
        assert_eq!(ex.vocab.len(), 18);
        let terms: Vec<&str> = ex.vocab.terms().iter().map(|s| s.as_str()).collect();
        assert_eq!(terms, TERMS);
    }

    #[test]
    fn matrix_shape_is_18_by_14() {
        let ex = MedExample::build();
        assert_eq!(ex.matrix.shape(), (18, 14));
    }

    #[test]
    fn matrix_matches_table3_spot_checks() {
        // Spot-check cells the paper narrates: "in medical topic M2 ...
        // culture, discharge, and patients all occur once".
        let ex = MedExample::build();
        let m2 = 1; // column index of M2
        for term in ["culture", "discharge", "patients"] {
            let i = ex.vocab.index_of(term).unwrap();
            assert_eq!(ex.matrix.get(i, m2), 1.0, "{term} in M2");
        }
        // culture row: M1, M2, M8 ("cultures"), M9.
        let culture = ex.vocab.index_of("culture").unwrap();
        let expect = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for (j, &want) in expect.iter().enumerate() {
            assert_eq!(ex.matrix.get(culture, j), want, "culture in doc {}", j + 1);
        }
        // fast row: M10, M12, M13, M14.
        let fast = ex.vocab.index_of("fast").unwrap();
        for (j, want) in [(9, 1.0), (11, 1.0), (12, 1.0), (13, 1.0), (0, 0.0)] {
            assert_eq!(ex.matrix.get(fast, j), want);
        }
    }

    #[test]
    fn every_term_occurs_in_more_than_one_topic() {
        // The paper's parsing rule, verified on the realized matrix.
        let ex = MedExample::build();
        let rows = ex.matrix.transpose();
        for (i, term) in TERMS.iter().enumerate() {
            let (cols, _) = rows.col(i);
            assert!(cols.len() >= 2, "term {term} has df {}", cols.len());
        }
    }

    #[test]
    fn all_entries_are_zero_or_one() {
        // No keyword repeats within a single topic in this example.
        let ex = MedExample::build();
        for (_, _, v) in ex.matrix.iter() {
            assert!(v == 1.0, "unexpected count {v}");
        }
    }

    #[test]
    fn query_reduces_to_age_blood_abnormalities() {
        let ex = MedExample::build();
        let q = ex.vocab.count_vector(QUERY);
        let nonzero: Vec<&str> = (0..18).filter(|&i| q[i] != 0.0).map(|i| TERMS[i]).collect();
        let mut want = QUERY_TERMS.to_vec();
        want.sort();
        assert_eq!(nonzero, want);
    }

    #[test]
    fn update_topics_add_no_new_terms() {
        // §3.3: M15/M16 reuse existing keywords (all underlined words
        // appear across the 16 topics).
        let ex = MedExample::build();
        let d = ex.update_documents_matrix();
        assert_eq!(d.shape(), (18, 2));
        // M15: behavior, rats, rise, oestrogen.
        for term in ["behavior", "rats", "rise", "oestrogen"] {
            let i = ex.vocab.index_of(term).unwrap();
            assert_eq!(d.get(i, 0), 1.0, "{term} in M15");
        }
        // M16: depressed, patients, pressure, fast.
        for term in ["depressed", "patients", "pressure", "fast"] {
            let i = ex.vocab.index_of(term).unwrap();
            assert_eq!(d.get(i, 1), 1.0, "{term} in M16");
        }
        assert_eq!(d.nnz(), 8);
    }

    #[test]
    fn extended_corpus_has_16_docs() {
        assert_eq!(MedExample::extended_corpus().len(), 16);
    }

    #[test]
    fn singular_values_close_to_published() {
        let ex = MedExample::build();
        let svd = lsi_linalg::dense_svd(&ex.matrix.to_dense()).unwrap();
        // OCR damage in the source means we match to ~3 %, not to the
        // printed 4 decimals; see module docs.
        assert!((svd.s[0] - PAPER_SIGMA[0]).abs() / PAPER_SIGMA[0] < 0.03,
            "sigma_1 {} vs published {}", svd.s[0], PAPER_SIGMA[0]);
        assert!((svd.s[1] - PAPER_SIGMA[1]).abs() / PAPER_SIGMA[1] < 0.03,
            "sigma_2 {} vs published {}", svd.s[1], PAPER_SIGMA[1]);
    }
}
