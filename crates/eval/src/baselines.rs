//! The paper's comparison systems.
//!
//! * [`VectorSpaceModel`] — "the standard keyword vector method in
//!   SMART" (§5.1): cosine between the weighted query vector and each
//!   weighted document column in the *full* term space (no dimension
//!   reduction).
//! * [`LexicalMatcher`] — the literal term-matching strawman of §3.2:
//!   a document matches if it shares at least one indexed query term.

use lsi_sparse::CscMatrix;
use lsi_text::{Corpus, TermWeighting, Vocabulary};

/// SMART-style keyword vector retrieval over the raw term space.
#[derive(Debug, Clone)]
pub struct VectorSpaceModel {
    vocab: Vocabulary,
    weighting: TermWeighting,
    global: Vec<f64>,
    /// Weighted matrix, documents as columns.
    matrix: CscMatrix,
    doc_norms: Vec<f64>,
}

impl VectorSpaceModel {
    /// Index `corpus` with an existing vocabulary and weighting scheme
    /// (use the same scheme as the LSI model under comparison).
    pub fn build(corpus: &Corpus, vocab: Vocabulary, weighting: TermWeighting) -> Self {
        let counts = vocab.count_matrix(corpus);
        let weighted = weighting.apply(&counts);
        let doc_norms = weighted.matrix.col_norms();
        VectorSpaceModel {
            vocab,
            weighting,
            global: weighted.global,
            matrix: weighted.matrix,
            doc_norms,
        }
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.matrix.ncols()
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Rank all documents by cosine to the weighted query vector,
    /// best first. Returns `(doc index, cosine)` pairs.
    pub fn rank(&self, query: &str) -> Vec<(usize, f64)> {
        let counts = self.vocab.count_vector(query);
        let weighted = self.weighting.weight_query(&counts, &self.global);
        let qnorm = lsi_linalg::vecops::nrm2(&weighted);
        let mut scores: Vec<(usize, f64)> = (0..self.n_docs())
            .map(|j| {
                let (rows, vals) = self.matrix.col(j);
                let mut dot = 0.0;
                for (&r, &v) in rows.iter().zip(vals.iter()) {
                    dot += weighted[r] * v;
                }
                let denom = qnorm * self.doc_norms[j];
                (j, if denom > 0.0 { dot / denom } else { 0.0 })
            })
            .collect();
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        scores
    }

    /// Ranking as a plain doc-index list (for the metrics functions).
    pub fn ranking(&self, query: &str) -> Vec<usize> {
        self.rank(query).into_iter().map(|(d, _)| d).collect()
    }
}

/// Literal lexical matching (§3.2): a document is returned iff it shares
/// at least one indexed term with the query; matches are ordered by
/// overlap count.
#[derive(Debug, Clone)]
pub struct LexicalMatcher {
    vocab: Vocabulary,
    matrix: CscMatrix,
}

impl LexicalMatcher {
    /// Index `corpus` against `vocab`.
    pub fn build(corpus: &Corpus, vocab: Vocabulary) -> Self {
        let matrix = vocab.count_matrix(corpus);
        LexicalMatcher { vocab, matrix }
    }

    /// Documents sharing at least one indexed term with the query,
    /// ordered by number of distinct shared terms (ties by index).
    pub fn matches(&self, query: &str) -> Vec<(usize, usize)> {
        let counts = self.vocab.count_vector(query);
        let qterms: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(i, _)| i)
            .collect();
        let mut out = Vec::new();
        for j in 0..self.matrix.ncols() {
            let (rows, _) = self.matrix.col(j);
            let overlap = qterms.iter().filter(|t| rows.contains(t)).count();
            if overlap > 0 {
                out.push((j, overlap));
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Matching document indices only.
    pub fn matching_docs(&self, query: &str) -> Vec<usize> {
        self.matches(query).into_iter().map(|(d, _)| d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_text::ParsingRules;

    fn corpus() -> Corpus {
        Corpus::from_pairs([
            ("d0", "apple banana apple"),
            ("d1", "banana cherry banana"),
            ("d2", "cherry apple date"),
            ("d3", "date date cherry"),
        ])
    }

    fn vocab() -> Vocabulary {
        Vocabulary::build(
            &corpus(),
            &ParsingRules {
                min_df: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn vsm_ranks_exact_match_first() {
        let vsm = VectorSpaceModel::build(&corpus(), vocab(), TermWeighting::none());
        let ranked = vsm.rank("apple apple banana");
        assert_eq!(ranked[0].0, 0, "d0 is the exact topical match");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn vsm_gives_zero_to_disjoint_docs() {
        let vsm = VectorSpaceModel::build(&corpus(), vocab(), TermWeighting::none());
        let ranked = vsm.rank("apple");
        let d3 = ranked.iter().find(|(d, _)| *d == 3).unwrap();
        assert_eq!(d3.1, 0.0, "d3 shares no terms with the query");
    }

    #[test]
    fn vsm_cosines_are_bounded() {
        let vsm = VectorSpaceModel::build(&corpus(), vocab(), TermWeighting::log_entropy());
        for (_, c) in vsm.rank("banana cherry") {
            assert!((-1e-12..=1.0 + 1e-12).contains(&c));
        }
    }

    #[test]
    fn lexical_matcher_returns_overlapping_docs_only() {
        let lex = LexicalMatcher::build(&corpus(), vocab());
        let m = lex.matching_docs("apple date");
        // d0 (apple), d2 (apple+date -> top), d3 (date).
        assert_eq!(m[0], 2);
        assert_eq!(m.len(), 3);
        assert!(!m.contains(&1));
    }

    #[test]
    fn lexical_matcher_empty_query_matches_nothing() {
        let lex = LexicalMatcher::build(&corpus(), vocab());
        assert!(lex.matching_docs("zzz qqq").is_empty());
    }

    #[test]
    fn lexical_ordering_by_overlap() {
        let lex = LexicalMatcher::build(&corpus(), vocab());
        let m = lex.matches("cherry date");
        // d2 and d3 both contain cherry and date; ties break by index.
        assert_eq!(m[0].0, 2);
        assert_eq!(m[0].1, 2);
        assert_eq!(m[1].0, 3);
        assert_eq!(m[1].1, 2);
    }
}
