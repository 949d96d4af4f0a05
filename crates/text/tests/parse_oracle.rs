//! The parse's exact oracle: `tokenize`, `Vocabulary::build`,
//! `count_matrix`, `count_vector` and `sparse_count_vector` against the
//! straightforward algorithm kept below as the reference — every token
//! an owned `String`, every statistic in a `HashMap` keyed by it, and
//! the count matrix assembled through a `CooMatrix`. The streaming
//! tokenizer and the interning build must agree with it to the bit,
//! under every combination of the parsing rules.

use std::collections::HashMap;

use lsi_sparse::{CooMatrix, CscMatrix};
use lsi_text::normalize::TokenFold;
use lsi_text::stopwords::is_stopword;
use lsi_text::{tokenize, Corpus, ParsingRules, Vocabulary};
use proptest::prelude::*;

/// The reference algorithm.
mod reference {
    use super::*;

    pub fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                for lc in ch.to_lowercase() {
                    current.push(lc);
                }
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    /// `(surface, fold-key)` of each word, then of each adjacent pair.
    fn index_units(text: &str, rules: &ParsingRules) -> Vec<(String, String)> {
        let toks: Vec<String> = tokenize(text)
            .into_iter()
            .filter(|t| {
                t.chars().count() >= rules.min_token_len
                    && !(rules.use_stopwords && is_stopword(t))
            })
            .collect();
        let mut units: Vec<(String, String)> =
            toks.iter().map(|t| (t.clone(), rules.fold.key(t).to_string())).collect();
        if rules.word_ngrams >= 2 {
            for w in toks.windows(2) {
                let surface = format!("{} {}", w[0], w[1]);
                let key = format!("{} {}", rules.fold.key(&w[0]), rules.fold.key(&w[1]));
                units.push((surface, key));
            }
        }
        units
    }

    pub struct Vocab {
        pub rules: ParsingRules,
        pub displays: Vec<String>,
        pub keys: Vec<String>,
        pub doc_freq: Vec<usize>,
        pub global_freq: Vec<usize>,
        pub index: HashMap<String, usize>,
    }

    pub fn build(corpus: &Corpus, rules: &ParsingRules) -> Vocab {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut gf: HashMap<String, usize> = HashMap::new();
        let mut surface_counts: HashMap<String, HashMap<String, usize>> = HashMap::new();
        for doc in &corpus.docs {
            let mut seen_in_doc: HashMap<String, bool> = HashMap::new();
            for (surface, key) in index_units(&doc.text, rules) {
                *gf.entry(key.clone()).or_insert(0) += 1;
                *surface_counts.entry(key.clone()).or_default().entry(surface).or_insert(0) += 1;
                seen_in_doc.entry(key).or_insert(true);
            }
            for key in seen_in_doc.into_keys() {
                *df.entry(key).or_insert(0) += 1;
            }
        }
        let max_df = if rules.max_df_fraction >= 1.0 {
            usize::MAX
        } else {
            (rules.max_df_fraction * corpus.len() as f64).floor() as usize
        };
        let mut entries: Vec<(String, String, usize, usize)> = surface_counts
            .into_iter()
            .filter_map(|(key, surfaces)| {
                let d = df[&key];
                if d < rules.min_df || d > max_df {
                    return None;
                }
                let display = surfaces
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?
                    .0;
                let g = gf[&key];
                Some((display, key, d, g))
            })
            .collect();
        entries.sort();
        let index = entries.iter().enumerate().map(|(i, e)| (e.1.clone(), i)).collect();
        Vocab {
            rules: rules.clone(),
            displays: entries.iter().map(|e| e.0.clone()).collect(),
            keys: entries.iter().map(|e| e.1.clone()).collect(),
            doc_freq: entries.iter().map(|e| e.2).collect(),
            global_freq: entries.iter().map(|e| e.3).collect(),
            index,
        }
    }

    impl Vocab {
        pub fn count_vector(&self, text: &str) -> Vec<f64> {
            let mut counts = vec![0.0; self.keys.len()];
            for (_, key) in index_units(text, &self.rules) {
                if let Some(&i) = self.index.get(&key) {
                    counts[i] += 1.0;
                }
            }
            counts
        }

        pub fn sparse_count_vector(&self, text: &str) -> Vec<(usize, f64)> {
            let mut hits: Vec<usize> = index_units(text, &self.rules)
                .into_iter()
                .filter_map(|(_, key)| self.index.get(&key).copied())
                .collect();
            hits.sort_unstable();
            let mut counts: Vec<(usize, f64)> = Vec::new();
            for i in hits {
                match counts.last_mut() {
                    Some((j, c)) if *j == i => *c += 1.0,
                    _ => counts.push((i, 1.0)),
                }
            }
            counts
        }

        pub fn count_matrix(&self, corpus: &Corpus) -> CscMatrix {
            let mut coo = CooMatrix::new(self.keys.len(), corpus.len());
            for (j, doc) in corpus.docs.iter().enumerate() {
                for (i, count) in self.sparse_count_vector(&doc.text) {
                    coo.push(i, j, count).unwrap();
                }
            }
            coo.to_csc()
        }
    }
}

/// Words the corpora draw from: stop words, plurals and their singulars
/// (`class` keeps its `ss`), digits, capitals, words shorter than 3
/// characters, and letters with non-ASCII lowercase forms (`İ` lowers to
/// two chars).
const WORDS: &[&str] = &[
    "the", "of", "and", "a", "s", "with", "is", "cultures", "culture", "Cultures", "class",
    "classes", "patients", "patient", "gas", "blood", "BLOOD", "Blood", "pressure", "2", "42",
    "1000", "x9", "ab", "go", "İ", "İstanbul", "naïve", "ΣIGMA", "σigma",
];

/// Words only the second corpus uses: fold-in and updating count texts
/// with terms the vocabulary never saw.
const UNSEEN: &[&str] = &["zebra", "Unseen", "zebras", "99"];

const SEPARATORS: &[&str] = &[" ", "  ", ", ", "! ", "'", " - ", "\t", "...", "\n", "("];

/// A text of up to 12 words joined by random separators (possibly
/// empty), drawn from `WORDS` and, with `unseen`, also from `UNSEEN`.
fn text(unseen: bool) -> impl Strategy<Value = String> {
    let pool = if unseen { WORDS.len() + UNSEEN.len() } else { WORDS.len() };
    prop::collection::vec((0..pool, 0..SEPARATORS.len()), 0..13).prop_map(|parts| {
        let mut out = String::new();
        for (w, sep) in parts {
            out.push_str(WORDS.get(w).copied().unwrap_or_else(|| UNSEEN[w - WORDS.len()]));
            out.push_str(SEPARATORS[sep]);
        }
        out
    })
}

fn corpus(unseen: bool) -> impl Strategy<Value = Corpus> {
    prop::collection::vec(text(unseen), 1..9).prop_map(|texts| {
        Corpus::from_pairs(texts.into_iter().enumerate().map(|(i, t)| (format!("d{i}"), t)))
    })
}

/// One of the 64 rule combinations, by the bits of `bits`.
fn rules(bits: u32) -> ParsingRules {
    let bit = |i: u32| bits >> i & 1 == 1;
    ParsingRules {
        min_df: if bit(0) { 2 } else { 1 },
        max_df_fraction: if bit(1) { 0.5 } else { 1.0 },
        min_token_len: if bit(2) { 3 } else { 1 },
        use_stopwords: bit(3),
        fold: if bit(4) { TokenFold::PluralFold } else { TokenFold::None },
        word_ngrams: if bit(5) { 2 } else { 1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_parse_matches_the_reference(
        bits in 0u32..64,
        base in corpus(false),
        more in corpus(true),
    ) {
        let rules = rules(bits);
        let v = Vocabulary::build(&base, &rules);
        let r = reference::build(&base, &rules);
        prop_assert_eq!(v.terms(), &r.displays[..], "{:?}", rules);
        prop_assert_eq!(v.keys(), &r.keys[..], "{:?}", rules);
        prop_assert_eq!(v.doc_freqs(), &r.doc_freq[..], "{:?}", rules);
        prop_assert_eq!(v.global_freqs(), &r.global_freq[..], "{:?}", rules);
        prop_assert_eq!(v.n_docs(), base.len());
        for c in [&base, &more] {
            prop_assert_eq!(v.count_matrix(c), r.count_matrix(c), "{:?}", rules);
            for text in c.texts() {
                prop_assert_eq!(tokenize(text), reference::tokenize(text));
                prop_assert_eq!(v.count_vector(text), r.count_vector(text), "{:?} {:?}", rules, text);
                prop_assert_eq!(
                    v.sparse_count_vector(text),
                    r.sparse_count_vector(text),
                    "{:?} {:?}",
                    rules,
                    text
                );
            }
        }
    }
}

/// Every rule combination, on one corpus that holds each case the
/// random draws are meant to reach.
#[test]
fn every_rule_combination_matches_the_reference_on_a_fixed_corpus() {
    let base = Corpus::from_pairs([
        ("1", "Blood cultures of the patients, with BLOOD culture!"),
        ("2", "blood culture class classes 42 İstanbul"),
        ("3", ""),
        ("4", "the class of 42 patients: blood pressure, Blood Pressure"),
        ("5", "İstanbul naïve ΣIGMA σigma ab go gas gas"),
    ]);
    let more = Corpus::from_pairs([("n1", "zebra blood cultures"), ("n2", ""), ("n3", "Unseen 99")]);
    for bits in 0..64 {
        let rules = rules(bits);
        let v = Vocabulary::build(&base, &rules);
        let r = reference::build(&base, &rules);
        assert_eq!(v.terms(), &r.displays[..], "{rules:?}");
        assert_eq!(v.keys(), &r.keys[..], "{rules:?}");
        assert_eq!(v.doc_freqs(), &r.doc_freq[..], "{rules:?}");
        assert_eq!(v.global_freqs(), &r.global_freq[..], "{rules:?}");
        for c in [&base, &more] {
            assert_eq!(v.count_matrix(c), r.count_matrix(c), "{rules:?}");
            for text in c.texts() {
                assert_eq!(v.sparse_count_vector(text), r.sparse_count_vector(text), "{rules:?}");
                assert_eq!(v.count_vector(text), r.count_vector(text), "{rules:?}");
            }
        }
    }
}
