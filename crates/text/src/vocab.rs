//! Vocabulary construction and term-document count matrices.
//!
//! Applies the paper's parsing rules: stop-word removal, an optional
//! plural fold, and the document-frequency threshold ("keywords appear
//! in more than one topic", §3). Terms are ordered alphabetically by
//! display form — the ordering Table 3 and Figure 5 of the paper use.
//!
//! Every path reads a text the same way: [`for_each_token`] streams its
//! tokens, and one unit walker turns them into index units (admissible
//! words, then adjacent pairs when phrases are on). [`Vocabulary::build`]
//! interns each distinct surface once — its admissibility and fold key
//! are computed at first sight — and counts document, global and
//! surface frequencies by id; strings are made only for the terms it
//! keeps. The count paths look each unit's key up by `&str`, a phrase's
//! key built in a reused buffer, so parsing allocates nothing per token.

use std::collections::HashMap;

use lsi_sparse::CscMatrix;

use crate::corpus::Corpus;
use crate::normalize::TokenFold;
use crate::stopwords::is_stopword;
use crate::tokenize::for_each_token;

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

    /// Is `token` an indexable word: long enough, and not a stop word
    /// when those apply? (The df window applies later, to whole terms.)
    fn admits(&self, token: &str) -> bool {
        token.chars().count() >= self.min_token_len && !(self.use_stopwords && is_stopword(token))
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
        // Pass 1: each distinct surface interned, every count by id.
        let mut tally = Tally {
            rules,
            doc: 0,
            table: Interned::default(),
            phrase: String::new(),
            phrase_key: String::new(),
        };
        for (j, doc) in corpus.docs.iter().enumerate() {
            tally.doc = j;
            walk_units(&doc.text, rules, &mut tally);
        }
        let Interned { ids, key_ids, surfaces, key_stats } = tally.table;

        let n_docs = corpus.len();
        let max_df = if rules.max_df_fraction >= 1.0 {
            usize::MAX
        } else {
            (rules.max_df_fraction * n_docs as f64).floor() as usize
        };

        // Select keys passing the df window; pick the most frequent
        // surface form (ties: lexicographically first) as display. Every
        // key was counted with its surface forms, so each has one.
        let mut surface_text = vec![""; surfaces.len()];
        for (text, id) in &ids {
            if let Some(s) = *id {
                surface_text[s] = text;
            }
        }
        let mut key_text = vec![""; key_stats.len()];
        for (text, &k) in &key_ids {
            key_text[k] = text;
        }
        let mut shown: Vec<Option<(usize, &str)>> = vec![None; key_stats.len()];
        for (&(k, count), &text) in surfaces.iter().zip(&surface_text) {
            let d = key_stats[k].df;
            if d >= rules.min_df
                && d <= max_df
                && shown[k].is_none_or(|(c, t)| count > c || (count == c && text < t))
            {
                shown[k] = Some((count, text));
            }
        }
        let mut entries: Vec<(&str, &str, usize, usize)> = shown
            .iter()
            .zip(&key_text)
            .zip(&key_stats)
            .filter_map(|((best, &key), k)| Some((best.as_ref()?.1, key, k.df, k.gf)))
            .collect();
        // Keys are distinct, so the counts never decide the order.
        entries.sort();

        let mut displays = Vec::with_capacity(entries.len());
        let mut keys = Vec::with_capacity(entries.len());
        let mut doc_freq = Vec::with_capacity(entries.len());
        let mut global_freq = Vec::with_capacity(entries.len());
        for (display, key, d, g) in entries {
            displays.push(display.to_string());
            keys.push(key.to_string());
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

    /// A walk that looks units up in this vocabulary.
    fn rows(&self) -> Rows<'_> {
        Rows {
            vocab: self,
            phrase: String::new(),
            rows: Vec::new(),
        }
    }

    /// Count raw term frequencies of `text` against this vocabulary
    /// (the paper's query vector `q` before weighting).
    pub fn count_vector(&self, text: &str) -> Vec<f64> {
        let mut counts = vec![0.0; self.len()];
        for (i, count) in run_counts(self.rows().of(text)) {
            counts[i] = count;
        }
        counts
    }

    /// Sparse version of [`Vocabulary::count_vector`]: the nonzero
    /// `(term, count)` pairs, in ascending term order. Only the units of
    /// `text` itself are looked up and counted, so the cost follows the
    /// query's length, not the vocabulary's.
    pub fn sparse_count_vector(&self, text: &str) -> Vec<(usize, f64)> {
        run_counts(self.rows().of(text)).collect()
    }

    /// Build the raw term-document *count* matrix for `corpus`
    /// (Eq. 4 of the paper: `a_ij` = frequency of term `i` in doc `j`),
    /// one CSC column per document.
    ///
    /// The corpus need not be the one the vocabulary was built from —
    /// that is exactly what folding-in new documents requires.
    pub fn count_matrix(&self, corpus: &Corpus) -> CscMatrix {
        let mut walk = self.rows();
        let mut indptr = Vec::with_capacity(corpus.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for doc in &corpus.docs {
            for (i, count) in run_counts(walk.of(&doc.text)) {
                indices.push(i);
                values.push(count);
            }
            indptr.push(indices.len());
        }
        // Each column's rows come from `index`, built from `keys`: they
        // are in the shape, ascending and distinct, so this cannot fail.
        let csc = CscMatrix::from_raw(self.len(), corpus.len(), indptr, indices, values)
            .unwrap_or_else(|e| {
                lsi_obs::error!("count_matrix: dropped every count: {e}");
                CscMatrix::zeros(self.len(), corpus.len())
            });
        lsi_obs::count("text.count_matrix.nnz.count", csc.nnz() as u64);
        csc
    }
}

/// What [`walk_units`] does with the index units of a text.
trait Units {
    /// What stands for an admissible word.
    type Word: Copy;
    /// The handle of `token`, or `None` when the rules do not admit it.
    fn word(&mut self, token: &str) -> Option<Self::Word>;
    /// One index unit: the admissible `token` (whose handle is `word`)
    /// alone, or the phrase of `prev`, the admissible word before it, and
    /// `token`.
    fn unit(&mut self, prev: Option<&str>, token: &str, word: Self::Word);
}

/// Walk the index units of `text`: each admissible word, and — when
/// `rules.word_ngrams >= 2` — each pair of adjacent admissible words (a
/// "phrase row" in the §5.4 sense; the tokens the rules drop between
/// two words do not break their pair).
fn walk_units<U: Units>(text: &str, rules: &ParsingRules, units: &mut U) {
    let pairs = rules.word_ngrams >= 2;
    // The admissible word before `token`, in a buffer reused along the
    // text; empty before the first (a token never is).
    let mut prev = String::new();
    for_each_token(text, |token| {
        let Some(word) = units.word(token) else {
            return;
        };
        units.unit(None, token, word);
        if pairs {
            if !prev.is_empty() {
                units.unit(Some(&prev), token, word);
            }
            prev.clear();
            prev.push_str(token);
        }
    });
}

/// The frequencies of one fold key.
struct KeyStats {
    df: usize,
    gf: usize,
    /// The last document `df` counted.
    last_doc: usize,
}

/// Each distinct surface — a token as the text spells it, or two
/// adjacent words joined by a space — with its fold key, interned once.
#[derive(Default)]
struct Interned {
    /// Surface → its id; `None` for a token the rules do not admit.
    ids: HashMap<Box<str>, Option<usize>>,
    /// Fold key → its id.
    key_ids: HashMap<Box<str>, usize>,
    /// The key id and count of each surface.
    surfaces: Vec<(usize, usize)>,
    key_stats: Vec<KeyStats>,
}

impl Interned {
    /// Intern `surface`, not seen before, under the fold key `key`; its id.
    fn add(&mut self, surface: &str, key: &str) -> usize {
        let k = match self.key_ids.get(key) {
            Some(&k) => k,
            None => {
                self.key_stats.push(KeyStats { df: 0, gf: 0, last_doc: usize::MAX });
                self.key_ids.insert(key.into(), self.key_stats.len() - 1);
                self.key_stats.len() - 1
            }
        };
        self.surfaces.push((k, 0));
        self.ids.insert(surface.into(), Some(self.surfaces.len() - 1));
        self.surfaces.len() - 1
    }
}

/// Write `a b` into `buf`.
fn join_into(buf: &mut String, a: &str, b: &str) {
    buf.clear();
    buf.push_str(a);
    buf.push(' ');
    buf.push_str(b);
}

/// The first pass of [`Vocabulary::build`]: surfaces interned, and
/// every frequency counted by id.
struct Tally<'r> {
    rules: &'r ParsingRules,
    /// The document being walked.
    doc: usize,
    table: Interned,
    /// A phrase's surface and key, spelt for their lookups.
    phrase: String,
    phrase_key: String,
}

impl Units for Tally<'_> {
    /// The surface id.
    type Word = usize;

    fn word(&mut self, token: &str) -> Option<usize> {
        if let Some(&id) = self.table.ids.get(token) {
            return id;
        }
        if self.rules.admits(token) {
            Some(self.table.add(token, self.rules.fold.key(token)))
        } else {
            self.table.ids.insert(token.into(), None);
            None
        }
    }

    fn unit(&mut self, prev: Option<&str>, token: &str, word: usize) {
        let s = match prev {
            None => word,
            Some(prev) => {
                join_into(&mut self.phrase, prev, token);
                match self.table.ids.get(self.phrase.as_str()) {
                    Some(&Some(s)) => s,
                    _ => {
                        let fold = self.rules.fold;
                        join_into(&mut self.phrase_key, fold.key(prev), fold.key(token));
                        self.table.add(&self.phrase, &self.phrase_key)
                    }
                }
            }
        };
        let (k, count) = &mut self.table.surfaces[s];
        *count += 1;
        let key = &mut self.table.key_stats[*k];
        key.gf += 1;
        if key.last_doc != self.doc {
            key.last_doc = self.doc;
            key.df += 1;
        }
    }
}

/// The count paths' walk: the row of each unit's fold key, where the
/// vocabulary has one.
struct Rows<'v> {
    vocab: &'v Vocabulary,
    /// A phrase's key, built for its lookup.
    phrase: String,
    /// The rows of the units walked, one per occurrence.
    rows: Vec<usize>,
}

impl Rows<'_> {
    /// The rows of `text`'s units, ascending, one per occurrence.
    fn of(&mut self, text: &str) -> &[usize] {
        self.rows.clear();
        let rules = &self.vocab.rules;
        walk_units(text, rules, self);
        self.rows.sort_unstable();
        &self.rows
    }
}

impl Units for Rows<'_> {
    type Word = ();

    fn word(&mut self, token: &str) -> Option<()> {
        self.vocab.rules.admits(token).then_some(())
    }

    fn unit(&mut self, prev: Option<&str>, token: &str, (): ()) {
        let fold = self.vocab.rules.fold;
        let key = match prev {
            None => fold.key(token),
            Some(prev) => {
                join_into(&mut self.phrase, fold.key(prev), fold.key(token));
                &self.phrase
            }
        };
        if let Some(&row) = self.vocab.index.get(key) {
            self.rows.push(row);
        }
    }
}

/// Each distinct row of ascending `rows` with its number of occurrences.
fn run_counts(rows: &[usize]) -> impl Iterator<Item = (usize, f64)> + '_ {
    rows.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as f64))
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
