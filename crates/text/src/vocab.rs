//! Vocabulary construction and term-document count matrices.
//!
//! Applies the paper's parsing rules: stop-word removal, an optional
//! plural fold, and the document-frequency threshold ("keywords appear
//! in more than one topic", §3). Terms are ordered alphabetically by
//! display form — the ordering Table 3 and Figure 5 of the paper use.

use std::collections::HashMap;

use lsi_sparse::{CooMatrix, CscMatrix};

use crate::corpus::Corpus;
use crate::normalize::TokenFold;
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;

/// Rules governing which tokens become indexed terms.
#[derive(Debug, Clone)]
pub struct ParsingRules {
    /// Minimum number of distinct documents a term must occur in.
    /// The §3 example uses 2 ("appear in more than one topic").
    pub min_df: usize,
    /// Maximum fraction of documents a term may occur in (1.0 disables
    /// the cap). Very common terms carry little signal.
    pub max_df_fraction: f64,
    /// Minimum token length in characters.
    pub min_token_len: usize,
    /// Whether the stop-word list applies.
    pub use_stopwords: bool,
    /// Token folding mode (plural equivalence for the MED example).
    pub fold: TokenFold,
    /// Highest order of word n-grams indexed as terms (1 = single
    /// words only; 2 adds adjacent word pairs — the paper's §5.4
    /// "phrases or n-grams could also be included as rows in the
    /// matrix"). Pairs are formed over the stop-word-filtered token
    /// stream and are subject to the same df window as words.
    pub word_ngrams: usize,
}

impl Default for ParsingRules {
    fn default() -> Self {
        ParsingRules {
            min_df: 2,
            max_df_fraction: 1.0,
            min_token_len: 1,
            use_stopwords: true,
            fold: TokenFold::None,
            word_ngrams: 1,
        }
    }
}

impl ParsingRules {
    /// The exact rules of the paper's §3 MED example.
    pub fn paper_example() -> Self {
        ParsingRules {
            min_df: 2,
            max_df_fraction: 1.0,
            min_token_len: 1,
            use_stopwords: true,
            fold: TokenFold::PluralFold,
            word_ngrams: 1,
        }
    }
}

/// Map each fold-key to its row (a repeated key keeps its last row).
fn term_map(keys: &[String]) -> HashMap<String, usize> {
    keys.iter().enumerate().map(|(i, k)| (k.clone(), i)).collect()
}

/// An indexed vocabulary: term keys, display forms, and statistics.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    rules: ParsingRules,
    /// Display form of each term, sorted ascending; row `i` of the
    /// term-document matrix is `displays[i]`.
    displays: Vec<String>,
    /// Fold-key of each term, parallel to `displays`.
    keys: Vec<String>,
    /// Map fold-key -> term index.
    index: HashMap<String, usize>,
    /// Document frequency of each term.
    doc_freq: Vec<usize>,
    /// Global (corpus-wide) frequency of each term.
    global_freq: Vec<usize>,
    /// Number of documents the vocabulary was built from.
    n_docs: usize,
}

impl Vocabulary {
    /// Build a vocabulary from a corpus under the given rules.
    pub fn build(corpus: &Corpus, rules: &ParsingRules) -> Vocabulary {
        // Pass 1: per-key stats and surface-form counts.
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut gf: HashMap<String, usize> = HashMap::new();
        let mut surface_counts: HashMap<String, HashMap<String, usize>> = HashMap::new();
        for doc in &corpus.docs {
            let mut seen_in_doc: HashMap<String, bool> = HashMap::new();
            for (surface, key) in Self::index_units(&doc.text, rules) {
                *gf.entry(key.clone()).or_insert(0) += 1;
                *surface_counts
                    .entry(key.clone())
                    .or_default()
                    .entry(surface)
                    .or_insert(0) += 1;
                seen_in_doc.entry(key).or_insert(true);
            }
            for key in seen_in_doc.into_keys() {
                *df.entry(key).or_insert(0) += 1;
            }
        }

        let n_docs = corpus.len();
        let max_df = if rules.max_df_fraction >= 1.0 {
            usize::MAX
        } else {
            (rules.max_df_fraction * n_docs as f64).floor() as usize
        };

        // Select keys passing the df window; pick the most frequent
        // surface form (ties: lexicographically first) as display. Every
        // key was counted with its surface forms, so each has one.
        let mut entries: Vec<(String, String, usize, usize)> = surface_counts
            .into_iter()
            .filter_map(|(key, surfaces)| {
                let d = df
                    .get(&key)
                    .copied()
                    .filter(|&d| d >= rules.min_df && d <= max_df)?;
                let g = gf.get(&key).copied()?;
                let display = surfaces
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?
                    .0;
                Some((display, key, d, g))
            })
            .collect();
        // Keys are distinct, so the counts never decide the order.
        entries.sort();

        let mut displays = Vec::with_capacity(entries.len());
        let mut keys = Vec::with_capacity(entries.len());
        let mut doc_freq = Vec::with_capacity(entries.len());
        let mut global_freq = Vec::with_capacity(entries.len());
        for (display, key, d, g) in entries {
            displays.push(display);
            keys.push(key);
            doc_freq.push(d);
            global_freq.push(g);
        }
        let index = term_map(&keys);

        lsi_obs::count("text.vocab.terms.count", keys.len() as u64);
        lsi_obs::count("text.vocab.docs.count", n_docs as u64);

        Vocabulary {
            rules: rules.clone(),
            displays,
            keys,
            index,
            doc_freq,
            global_freq,
            n_docs,
        }
    }

    /// Rebuild a vocabulary from its stored parts (a persisted LSI
    /// database). The term map is derived from `keys`, so it always
    /// points inside the vocabulary. Errors if the parallel arrays
    /// differ in length or a key repeats.
    pub fn from_parts(
        rules: ParsingRules,
        displays: Vec<String>,
        keys: Vec<String>,
        doc_freq: Vec<usize>,
        global_freq: Vec<usize>,
        n_docs: usize,
    ) -> Result<Vocabulary, String> {
        let m = keys.len();
        if displays.len() != m || doc_freq.len() != m || global_freq.len() != m {
            return Err(format!(
                "{} displays, {m} keys, {} doc frequencies and {} global frequencies",
                displays.len(),
                doc_freq.len(),
                global_freq.len()
            ));
        }
        let index = term_map(&keys);
        if index.len() != m {
            return Err(format!("{} distinct keys among {m} terms", index.len()));
        }
        Ok(Vocabulary {
            rules,
            displays,
            keys,
            index,
            doc_freq,
            global_freq,
            n_docs,
        })
    }

    /// Tokens of `text` that pass the token-level rules (length, stop
    /// words) — before df filtering.
    fn admissible_tokens(text: &str, rules: &ParsingRules) -> impl Iterator<Item = String> {
        let use_stop = rules.use_stopwords;
        let min_len = rules.min_token_len;
        tokenize(text).into_iter().filter(move |t| {
            t.chars().count() >= min_len && !(use_stop && is_stopword(t))
        })
    }

    /// The indexable units of `text` as `(surface, fold-key)` pairs:
    /// each admissible word, plus — when `rules.word_ngrams >= 2` —
    /// each pair of adjacent admissible words (a "phrase row" in the
    /// §5.4 sense), joined with a single space.
    fn index_units(text: &str, rules: &ParsingRules) -> Vec<(String, String)> {
        let toks: Vec<String> = Self::admissible_tokens(text, rules).collect();
        let mut units: Vec<(String, String)> = toks
            .iter()
            .map(|t| (t.clone(), rules.fold.key(t).to_string()))
            .collect();
        if rules.word_ngrams >= 2 {
            for w in toks.windows(2) {
                let surface = format!("{} {}", w[0], w[1]);
                let key = format!("{} {}", rules.fold.key(&w[0]), rules.fold.key(&w[1]));
                units.push((surface, key));
            }
        }
        units
    }

    /// Number of indexed terms (`m` of the paper).
    pub fn len(&self) -> usize {
        self.displays.len()
    }

    /// Is the vocabulary empty?
    pub fn is_empty(&self) -> bool {
        self.displays.is_empty()
    }

    /// Number of documents the vocabulary was built from.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Display form of term `i`.
    pub fn term(&self, i: usize) -> &str {
        &self.displays[i]
    }

    /// All display forms, in row order.
    pub fn terms(&self) -> &[String] {
        &self.displays
    }

    /// Row index of `token` (tokenizes/folds the input first), if
    /// indexed. Phrase terms are looked up by their space-separated
    /// form ("blood pressure").
    pub fn index_of(&self, token: &str) -> Option<usize> {
        let lowered = token.to_lowercase();
        let key: String = lowered
            .split_whitespace()
            .map(|w| self.rules.fold.key(w))
            .collect::<Vec<_>>()
            .join(" ");
        self.index.get(key.as_str()).copied()
    }

    /// Fold-keys of all terms, in row order.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Document frequency of each term, in row order.
    pub fn doc_freqs(&self) -> &[usize] {
        &self.doc_freq
    }

    /// Corpus-wide frequency of each term, in row order.
    pub fn global_freqs(&self) -> &[usize] {
        &self.global_freq
    }

    /// The parsing rules this vocabulary was built with.
    pub fn rules(&self) -> &ParsingRules {
        &self.rules
    }

    /// Count raw term frequencies of `text` against this vocabulary
    /// (the paper's query vector `q` before weighting).
    pub fn count_vector(&self, text: &str) -> Vec<f64> {
        let mut counts = vec![0.0; self.len()];
        for (_, key) in Self::index_units(text, &self.rules) {
            if let Some(&i) = self.index.get(&key) {
                counts[i] += 1.0;
            }
        }
        counts
    }

    /// Sparse version of [`Vocabulary::count_vector`]: the nonzero
    /// `(term, count)` pairs, in ascending term order. Only the units of
    /// `text` itself are looked up and counted, so the cost follows the
    /// query's length, not the vocabulary's.
    pub fn sparse_count_vector(&self, text: &str) -> Vec<(usize, f64)> {
        let mut hits: Vec<usize> = Self::index_units(text, &self.rules)
            .into_iter()
            .filter_map(|(_, key)| self.index.get(&key).copied())
            .collect();
        hits.sort_unstable();
        let mut counts: Vec<(usize, f64)> = Vec::with_capacity(hits.len());
        for i in hits {
            match counts.last_mut() {
                Some((j, c)) if *j == i => *c += 1.0,
                _ => counts.push((i, 1.0)),
            }
        }
        counts
    }

    /// Build the raw term-document *count* matrix for `corpus`
    /// (Eq. 4 of the paper: `a_ij` = frequency of term `i` in doc `j`).
    ///
    /// The corpus need not be the one the vocabulary was built from —
    /// that is exactly what folding-in new documents requires.
    pub fn count_matrix(&self, corpus: &Corpus) -> CscMatrix {
        let mut coo = CooMatrix::new(self.len(), corpus.len());
        for (j, doc) in corpus.docs.iter().enumerate() {
            for (i, count) in self.sparse_count_vector(&doc.text) {
                // `index` is built from `keys`, so `i` is a row of the
                // shape and `j` one of its columns: the push cannot fail.
                if let Err(e) = coo.push(i, j, count) {
                    lsi_obs::error!("count_matrix: dropped a count outside the shape: {e}");
                }
            }
        }
        let csc = coo.to_csc();
        lsi_obs::count("text.count_matrix.nnz.count", csc.nnz() as u64);
        csc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        Corpus::from_pairs([
            ("d1", "the cat sat on the mat"),
            ("d2", "a cat and a dog"),
            ("d3", "the dog chased the cat"),
        ])
    }

    #[test]
    fn min_df_filters_rare_terms() {
        let v = Vocabulary::build(&tiny_corpus(), &ParsingRules::default());
        // cat (df 3) and dog (df 2) survive; sat/mat/chased (df 1) do
        // not; the/a/and/on are stop words.
        assert_eq!(v.terms(), &["cat", "dog"]);
        assert_eq!(v.doc_freqs(), &[3, 2]);
    }

    #[test]
    fn from_parts_rebuilds_the_term_map_and_checks_lengths() {
        let v = Vocabulary::build(&tiny_corpus(), &ParsingRules::default());
        let rebuild = |keys: Vec<String>, doc_freq: Vec<usize>| {
            Vocabulary::from_parts(
                v.rules().clone(),
                v.terms().to_vec(),
                keys,
                doc_freq,
                v.global_freqs().to_vec(),
                v.n_docs(),
            )
        };
        let back = rebuild(v.keys().to_vec(), v.doc_freqs().to_vec()).unwrap();
        assert_eq!(back.index_of("dog"), v.index_of("dog"));
        assert_eq!(back.count_vector("cat dog cat"), v.count_vector("cat dog cat"));
        assert!(rebuild(v.keys().to_vec(), vec![3]).is_err());
        let repeated = vec![v.keys()[0].clone(); v.len()];
        assert!(rebuild(repeated, v.doc_freqs().to_vec()).is_err());
    }

    #[test]
    fn terms_are_alphabetical() {
        let c = Corpus::from_pairs([("1", "zebra apple zebra"), ("2", "apple zebra mango")]);
        let v = Vocabulary::build(&c, &ParsingRules::default());
        assert_eq!(v.terms(), &["apple", "zebra"]);
    }

    #[test]
    fn min_df_one_keeps_everything_content() {
        let rules = ParsingRules {
            min_df: 1,
            ..Default::default()
        };
        let v = Vocabulary::build(&tiny_corpus(), &rules);
        assert!(v.terms().contains(&"sat".to_string()));
        assert!(!v.terms().contains(&"the".to_string()));
    }

    #[test]
    fn max_df_fraction_drops_ubiquitous_terms() {
        let rules = ParsingRules {
            min_df: 1,
            max_df_fraction: 0.67,
            ..Default::default()
        };
        let v = Vocabulary::build(&tiny_corpus(), &rules);
        // cat appears in all 3 docs (df fraction 1.0 > 0.67) -> dropped.
        assert!(!v.terms().contains(&"cat".to_string()));
        assert!(v.terms().contains(&"dog".to_string()));
    }

    #[test]
    fn plural_fold_merges_and_picks_majority_display() {
        let c = Corpus::from_pairs([
            ("1", "culture culture"),
            ("2", "cultures"),
            ("3", "culture"),
        ]);
        let rules = ParsingRules {
            fold: TokenFold::PluralFold,
            ..Default::default()
        };
        let v = Vocabulary::build(&c, &rules);
        assert_eq!(v.terms(), &["culture"]);
        assert_eq!(v.doc_freqs()[0], 3);
        assert_eq!(v.global_freqs()[0], 4);
        // Both surface forms resolve to the same row.
        assert_eq!(v.index_of("culture"), Some(0));
        assert_eq!(v.index_of("cultures"), Some(0));
    }

    #[test]
    fn count_matrix_matches_frequencies() {
        let c = Corpus::from_pairs([("1", "cat cat dog"), ("2", "dog cat")]);
        let rules = ParsingRules {
            min_df: 1,
            ..Default::default()
        };
        let v = Vocabulary::build(&c, &rules);
        let m = v.count_matrix(&c);
        assert_eq!(m.shape(), (2, 2));
        let cat = v.index_of("cat").unwrap();
        let dog = v.index_of("dog").unwrap();
        assert_eq!(m.get(cat, 0), 2.0);
        assert_eq!(m.get(dog, 0), 1.0);
        assert_eq!(m.get(cat, 1), 1.0);
    }

    #[test]
    fn count_vector_ignores_unknown_and_stop_words() {
        let v = Vocabulary::build(&tiny_corpus(), &ParsingRules::default());
        let q = v.count_vector("the cat saw another cat and a unicorn");
        let cat = v.index_of("cat").unwrap();
        assert_eq!(q[cat], 2.0);
        assert_eq!(q.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn sparse_count_vector_matches_dense() {
        let v = Vocabulary::build(&tiny_corpus(), &ParsingRules::default());
        for text in ["dog dog cat", "the cat and a unicorn", "", "zebra", "cat dog cat dog dog"] {
            let sparse = v.sparse_count_vector(text);
            let mut expanded = vec![0.0; v.len()];
            for &(i, c) in &sparse {
                expanded[i] = c;
            }
            assert_eq!(expanded, v.count_vector(text), "{text:?}");
            assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0), "{text:?}");
            assert!(sparse.iter().all(|&(_, c)| c > 0.0), "{text:?}");
        }
    }

    #[test]
    fn sparse_count_vector_counts_phrases() {
        let c = Corpus::from_pairs([
            ("1", "blood pressure blood pressure"),
            ("2", "blood pressure"),
            ("3", "pressure blood"),
        ]);
        let rules = ParsingRules {
            min_df: 2,
            word_ngrams: 2,
            ..Default::default()
        };
        let v = Vocabulary::build(&c, &rules);
        let text = "blood pressure blood pressure unknown";
        let mut expanded = vec![0.0; v.len()];
        for (i, c) in v.sparse_count_vector(text) {
            expanded[i] = c;
        }
        assert_eq!(expanded, v.count_vector(text));
        assert_eq!(expanded[v.index_of("blood pressure").unwrap()], 2.0);
    }

    #[test]
    fn count_matrix_on_unseen_corpus() {
        // Folding-in: count a new document against an existing vocab.
        let v = Vocabulary::build(&tiny_corpus(), &ParsingRules::default());
        let new_corpus = Corpus::from_pairs([("new", "a cat a dog a zebra")]);
        let m = v.count_matrix(&new_corpus);
        assert_eq!(m.shape(), (2, 1));
        assert_eq!(m.get(0, 0), 1.0); // cat
        assert_eq!(m.get(1, 0), 1.0); // dog; zebra ignored
    }

    #[test]
    fn word_bigrams_become_phrase_terms() {
        let c = Corpus::from_pairs([
            ("1", "high blood pressure is dangerous"),
            ("2", "high blood pressure and heart disease"),
            ("3", "blood donation saves lives"),
        ]);
        let rules = ParsingRules {
            min_df: 2,
            word_ngrams: 2,
            ..Default::default()
        };
        let v = Vocabulary::build(&c, &rules);
        // Phrases appearing in >1 doc are indexed alongside words.
        assert!(v.index_of("blood pressure").is_some(), "terms: {:?}", v.terms());
        assert!(v.index_of("high blood").is_some());
        // A phrase occurring once is not.
        assert!(v.index_of("blood donation").is_none());
        // Its constituent word still is.
        assert!(v.index_of("blood").is_some());
    }

    #[test]
    fn phrase_counting_respects_adjacency() {
        let c = Corpus::from_pairs([
            ("1", "blood pressure blood pressure"),
            ("2", "blood pressure"),
            ("3", "pressure blood"), // reversed: a different phrase
        ]);
        let rules = ParsingRules {
            min_df: 2,
            word_ngrams: 2,
            ..Default::default()
        };
        let v = Vocabulary::build(&c, &rules);
        let bp = v.index_of("blood pressure").unwrap();
        let m = v.count_matrix(&c);
        assert_eq!(m.get(bp, 0), 2.0);
        assert_eq!(m.get(bp, 1), 1.0);
        assert_eq!(m.get(bp, 2), 0.0, "reversed pair is not the phrase");
        // "pressure blood" occurs in doc 0 (between the two phrase
        // copies) and doc 2, so it is indexed too.
        assert!(v.index_of("pressure blood").is_some());
    }

    #[test]
    fn phrase_query_vector_counts_phrases() {
        let c = Corpus::from_pairs([
            ("1", "machine learning rocks"),
            ("2", "machine learning wins"),
        ]);
        let rules = ParsingRules {
            min_df: 2,
            word_ngrams: 2,
            ..Default::default()
        };
        let v = Vocabulary::build(&c, &rules);
        let q = v.count_vector("machine learning");
        let ml = v.index_of("machine learning").unwrap();
        assert_eq!(q[ml], 1.0);
        // And the unigrams count too.
        assert_eq!(q[v.index_of("machine").unwrap()], 1.0);
        assert_eq!(q[v.index_of("learning").unwrap()], 1.0);
    }

    #[test]
    fn unigram_mode_indexes_no_phrases() {
        let c = Corpus::from_pairs([("1", "blood pressure"), ("2", "blood pressure")]);
        let v = Vocabulary::build(&c, &ParsingRules::default());
        assert!(v.index_of("blood pressure").is_none());
        assert!(v.index_of("blood").is_some());
    }

    #[test]
    fn index_of_handles_case() {
        let v = Vocabulary::build(&tiny_corpus(), &ParsingRules::default());
        assert_eq!(v.index_of("CAT"), v.index_of("cat"));
    }
}
