//! Text processing for LSI: tokenization, vocabulary construction, and
//! term weighting.
//!
//! The paper's pipeline (§1) starts with "parsing document texts,
//! creating a term by document matrix". Its conventions, which this
//! crate follows exactly:
//!
//! * words are "identified by looking for white spaces and punctuation"
//!   (§5.4) — [`tokenize()`],
//! * "no stemming is used" beyond surface-form identity (§5.4); the
//!   small MED example of §3 does fold trivial plurals ("blood
//!   *cultures*" indexes under *culture*), so an optional
//!   plural-equivalence fold is provided — [`normalize`],
//! * "the parsing rule ... required that keywords appear in more than
//!   one topic" (§3) — the `min_df` rule of [`vocab::ParsingRules`],
//! * stop words ("of", "children", "with" are dropped from the §3.1
//!   query because they are "not indexed terms") — [`stopwords`],
//! * cell values are term frequencies (Eq. 4) transformed by local and
//!   global weights (Eq. 5): `a_ij = L(i,j) × G(i)` — [`weighting`].
//!
//! Parsing allocates nothing per token. One streaming tokenizer,
//! [`tokenize::for_each_token`], hands each lowercase token to a
//! callback from a reused buffer ([`tokenize()`] collects it). On top of
//! it, [`Vocabulary::build`] interns each distinct surface form once —
//! deciding its admissibility and fold key at first sight — and counts
//! document, global and surface frequencies by id, spelling out strings
//! only for the terms it keeps. The count paths
//! ([`Vocabulary::count_matrix`], [`Vocabulary::count_vector`],
//! [`Vocabulary::sparse_count_vector`]) look each unit's key up by
//! `&str` and write CSC columns directly.

pub mod corpus;
pub mod ngram;
pub mod normalize;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;
pub mod weighting;

pub use corpus::{Corpus, Document};
pub use tokenize::tokenize;
pub use vocab::{ParsingRules, Vocabulary};
pub use weighting::{GlobalWeight, LocalWeight, TermWeighting, WeightedMatrix};
