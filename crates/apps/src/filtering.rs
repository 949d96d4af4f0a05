//! Information filtering (§5.3).
//!
//! "A user's interest is represented as one (or more) vectors in this
//! reduced-dimension LSI space. Each new document is matched against
//! the vector and if it is similar enough to the interest vector it is
//! recommended to the user. Learning methods like relevance feedback
//! can be used to improve the representation of interest vectors over
//! time."

use lsi_core::LsiModel;
use lsi_linalg::vecops;

/// A standing interest profile in the LSI space.
#[derive(Debug, Clone)]
pub struct InterestProfile {
    /// Owner label.
    pub name: String,
    /// The profile vector (k-dimensional).
    pub vector: Vec<f64>,
    /// Cosine threshold above which a document is recommended.
    pub threshold: f64,
}

impl InterestProfile {
    /// Profile from a free-text interest statement.
    pub fn from_text(
        model: &LsiModel,
        name: impl Into<String>,
        text: &str,
        threshold: f64,
    ) -> lsi_core::Result<InterestProfile> {
        Ok(InterestProfile {
            name: name.into(),
            vector: model.project_text(text)?,
            threshold,
        })
    }

    /// Profile from known relevant documents — "the most effective
    /// method used vectors derived from known relevant documents (like
    /// relevance feedback)" (§5.3, Dumais & Foltz).
    pub fn from_relevant_docs(
        model: &LsiModel,
        name: impl Into<String>,
        docs: &[usize],
        threshold: f64,
    ) -> lsi_core::Result<InterestProfile> {
        if docs.is_empty() {
            return Err(lsi_core::Error::Inconsistent {
                context: "profile needs at least one relevant document".to_string(),
            });
        }
        let k = model.k();
        let mut vector = vec![0.0; k];
        for &d in docs {
            if d >= model.n_docs() {
                return Err(lsi_core::Error::Inconsistent {
                    context: format!("document {d} out of range"),
                });
            }
            let dv = model.doc_vector(d);
            for (a, b) in vector.iter_mut().zip(dv.iter()) {
                *a += b;
            }
        }
        for a in vector.iter_mut() {
            *a /= docs.len() as f64;
        }
        Ok(InterestProfile {
            name: name.into(),
            vector,
            threshold,
        })
    }

    /// Cosine between the profile and a projected document vector.
    pub fn score(&self, doc_vector: &[f64]) -> f64 {
        vecops::cosine(&self.vector, doc_vector)
    }

    /// Nudge the profile toward a document the user liked (simple
    /// exponential moving average — the "learning" of §5.3).
    pub fn reinforce(&mut self, doc_vector: &[f64], rate: f64) {
        assert_eq!(doc_vector.len(), self.vector.len());
        for (p, d) in self.vector.iter_mut().zip(doc_vector.iter()) {
            *p = (1.0 - rate) * *p + rate * d;
        }
    }
}

/// A filtering decision for one streamed document.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterDecision {
    /// Profile name.
    pub profile: String,
    /// Cosine score.
    pub score: f64,
    /// Whether the document was recommended.
    pub recommended: bool,
}

/// Match one new document text against all profiles ("an ongoing stream
/// of new information \[matched\] to relatively stable user interests").
/// The document is projected by folding-in arithmetic (Eq. 7) but never
/// stored — filtering does not grow the model.
pub fn filter_document(
    model: &LsiModel,
    profiles: &[InterestProfile],
    text: &str,
) -> lsi_core::Result<Vec<FilterDecision>> {
    let dv = model.project_text(text)?;
    Ok(profiles
        .iter()
        .map(|p| {
            let score = p.score(&dv);
            FilterDecision {
                profile: p.name.clone(),
                score,
                recommended: score >= p.threshold,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_core::LsiOptions;
    use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
    use lsi_text::{ParsingRules, TermWeighting};

    fn setup() -> (LsiModel, SyntheticCorpus) {
        let gen = SyntheticCorpus::generate(&SyntheticOptions {
            n_topics: 4,
            docs_per_topic: 10,
            seed: 31,
            ..Default::default()
        });
        let options = LsiOptions {
            k: 8,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::log_entropy(),
            svd_seed: 4,
        };
        (LsiModel::build(&gen.corpus, &options).unwrap().0, gen)
    }

    #[test]
    fn profile_from_docs_matches_its_topic() {
        let (model, gen) = setup();
        // Profile for topic 0 from its first three documents.
        let profile =
            InterestProfile::from_relevant_docs(&model, "topic0", &[0, 1, 2], 0.5).unwrap();
        // A fresh topic-0 query should score higher than topic-2 text.
        let same = model.project_text(&gen.queries[0].text).unwrap();
        let other_q = gen.queries.iter().find(|q| q.topic == 2).unwrap();
        let other = model.project_text(&other_q.text).unwrap();
        assert!(
            profile.score(&same) > profile.score(&other),
            "on-topic {} vs off-topic {}",
            profile.score(&same),
            profile.score(&other)
        );
    }

    #[test]
    fn filter_document_flags_only_matching_profiles() {
        let (model, gen) = setup();
        let p0 = InterestProfile::from_relevant_docs(&model, "t0", &[0, 1, 2], 0.6).unwrap();
        let docs_t3: Vec<usize> = (0..gen.n_docs()).filter(|&d| gen.doc_topics[d] == 3).collect();
        let p3 =
            InterestProfile::from_relevant_docs(&model, "t3", &docs_t3[..3], 0.6).unwrap();
        // Stream a topic-0 document (a held-out style query text).
        let decisions = filter_document(&model, &[p0, p3], &gen.queries[0].text).unwrap();
        assert_eq!(decisions.len(), 2);
        assert!(decisions[0].score > decisions[1].score);
    }

    #[test]
    fn reinforce_moves_profile_toward_document() {
        let (model, _) = setup();
        let mut p = InterestProfile::from_relevant_docs(&model, "x", &[0], 0.5).unwrap();
        let target = model.doc_vector(20);
        let before = p.score(&target);
        for _ in 0..10 {
            p.reinforce(&target, 0.3);
        }
        let after = p.score(&target);
        assert!(after > before, "{after} should exceed {before}");
        assert!(after > 0.95);
    }

    #[test]
    fn empty_profile_inputs_rejected() {
        let (model, _) = setup();
        assert!(InterestProfile::from_relevant_docs(&model, "x", &[], 0.5).is_err());
        assert!(InterestProfile::from_relevant_docs(&model, "x", &[9999], 0.5).is_err());
    }

    #[test]
    fn threshold_controls_recommendation() {
        let (model, gen) = setup();
        let strict =
            InterestProfile::from_relevant_docs(&model, "strict", &[0, 1], 0.999).unwrap();
        let lax = InterestProfile {
            threshold: -1.0,
            ..strict.clone()
        };
        let text = &gen.queries[gen.queries.len() - 1].text;
        let decisions = filter_document(&model, &[lax, strict], text).unwrap();
        assert!(decisions[0].recommended);
        // A strict threshold on an off-topic doc should reject.
        assert!(!decisions[1].recommended || decisions[1].score >= 0.999);
    }
}
