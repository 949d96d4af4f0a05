//! Multiple-points-of-interest queries.
//!
//! §5.4 of the paper: "Queries can even be represented as multiple
//! points of interest" (Kane-Esrig et al., the relevance density
//! method). Instead of collapsing a multi-facet information need into
//! one centroid vector — which can land in empty space between the
//! facets — each facet keeps its own vector and a document scores by
//! its *best* (or density-weighted) proximity to any facet.

use crate::model::LsiModel;
use crate::query::{Ask, RankedList};
use crate::querylog::Record;
use crate::{Error, Result};

/// How per-facet cosines combine into one document score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Combine {
    /// Best facet wins (`max_i cos_i`) — a document satisfying any
    /// interest is returned.
    Max,
    /// Mean of the facet cosines — documents must do tolerably well on
    /// all facets.
    Mean,
    /// Softmax-weighted density with the given sharpness: approaches
    /// `Max` as the sharpness grows, `Mean` at zero. This mirrors the
    /// "relevance density" flavour of Kane-Esrig et al.
    Density {
        /// Sharpness β of the softmax weights.
        sharpness: f64,
    },
}

impl Combine {
    pub(crate) fn combine(&self, cosines: &[f64]) -> f64 {
        if cosines.is_empty() {
            return 0.0;
        }
        match self {
            Combine::Max => cosines.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            Combine::Mean => cosines.iter().sum::<f64>() / cosines.len() as f64,
            Combine::Density { sharpness } => {
                let b = *sharpness;
                let mx = cosines.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> =
                    cosines.iter().map(|&c| ((c - mx) * b).exp()).collect();
                let wsum: f64 = weights.iter().sum();
                cosines
                    .iter()
                    .zip(weights.iter())
                    .map(|(c, w)| c * w)
                    .sum::<f64>()
                    / wsum
            }
        }
    }

    /// Lipschitz constant of the combine in the ∞-norm over per-facet
    /// cosines — how far the fused score can move when every facet
    /// cosine moves by at most ε. Scales the compressed sweep's
    /// per-facet error bound up to a fused-score certificate margin.
    ///
    /// `Max` and `Mean` are 1-Lipschitz. For `Density`, the gradient
    /// w.r.t. facet `j` is `w_j/W + β·w_j·(c_j − fused)/W` with softmax
    /// weights `w`; summing over facets and using `|c_j − fused| ≤ 2`
    /// (cosines live in [-1, 1]) bounds the ∞-norm gradient by
    /// `1 + 2|β|`.
    pub(crate) fn lipschitz(&self) -> f64 {
        match self {
            Combine::Max | Combine::Mean => 1.0,
            Combine::Density { sharpness } => 1.0 + 2.0 * sharpness.abs(),
        }
    }
}

/// A multi-facet query: one projected vector per point of interest.
#[derive(Debug, Clone)]
pub struct MultiQuery {
    facets: Vec<Vec<f64>>,
}

impl MultiQuery {
    /// Build from facet texts (each projected via Eq. 6).
    pub fn from_texts(model: &LsiModel, texts: &[&str]) -> Result<MultiQuery> {
        if texts.is_empty() {
            return Err(Error::Inconsistent {
                context: "a multi-facet query needs at least one facet".to_string(),
            });
        }
        let facets = texts
            .iter()
            .map(|t| model.project_text(t))
            .collect::<Result<Vec<_>>>()?;
        if facets.iter().all(|f| f.iter().all(|&x| x == 0.0)) {
            return Err(Error::Inconsistent {
                context: "no facet contains any indexed term".to_string(),
            });
        }
        Ok(MultiQuery { facets })
    }

    /// Build from already-projected vectors (e.g. document vectors used
    /// as exemplars).
    pub fn from_vectors(model: &LsiModel, vectors: Vec<Vec<f64>>) -> Result<MultiQuery> {
        if vectors.is_empty() {
            return Err(Error::Inconsistent {
                context: "a multi-facet query needs at least one facet".to_string(),
            });
        }
        for v in &vectors {
            if v.len() != model.k() {
                return Err(Error::Inconsistent {
                    context: format!(
                        "facet has {} dimensions but the model has {} factors",
                        v.len(),
                        model.k()
                    ),
                });
            }
        }
        Ok(MultiQuery { facets: vectors })
    }
}

impl LsiModel {
    /// Rank all documents against a multi-facet query: all facet
    /// cosines come out of one f64 sweep of `V` for the facet block
    /// (the fused block sweep, or GEMM from
    /// [`lsi_linalg::ops::GEMM_MIN_COLS_THRESHOLD`] facets on) before
    /// the per-document combine.
    pub fn query_multi(&self, query: &MultiQuery, combine: Combine) -> Result<RankedList> {
        let facets: Vec<&[f64]> = query.facets.iter().map(Vec::as_slice).collect();
        let ask = Ask {
            cols: &facets,
            combine: Some(combine),
            z: self.n_docs(),
        };
        self.rank_one(&ask, None, None, &mut Record::off())
    }

    /// The `z` best documents for a multi-facet query, through the same
    /// scoring executor as [`LsiModel::rank_projected_top`] over all
    /// rows (the cluster probe is defined for one query direction).
    /// Under a reduced [`crate::Precision`] the certificate margin is
    /// scaled by [`Combine::lipschitz`].
    ///
    /// Compressed caveat: the exact re-rank recomputes each candidate's
    /// facet cosines through the row-subset GEMV, whose accumulation
    /// order matches the fused block sweep but differs in the last ulp
    /// from the GEMM that the f64 sweep uses from
    /// [`lsi_linalg::ops::GEMM_MIN_COLS_THRESHOLD`] facets on. The f32
    /// margin check absorbs that (the margin dwarfs an ulp), so for
    /// such wide queries the returned *document set and order* agree
    /// with the exact scan away from exact fused-score ties, but fused
    /// scores may differ from `query_multi`'s in the final bit. Below
    /// that width the fused scores are bit-identical too.
    ///
    /// A combine that turns finite cosines into non-finite fused scores
    /// (an infinite or NaN `Density` sharpness) is a typed
    /// [`Error::NonFinite`] at every precision, here and in
    /// [`LsiModel::query_multi`].
    pub fn query_multi_top(
        &self,
        query: &MultiQuery,
        combine: Combine,
        z: usize,
    ) -> Result<RankedList> {
        let facets: Vec<&[f64]> = query.facets.iter().map(Vec::as_slice).collect();
        let ask = Ask {
            cols: &facets,
            combine: Some(combine),
            z,
        };
        self.rank_one(&ask, None, self.compressed.as_ref(), &mut Record::off())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LsiOptions;
    use lsi_text::{Corpus, ParsingRules, TermWeighting};

    fn model() -> LsiModel {
        let corpus = Corpus::from_pairs([
            ("cars1", "car engine wheel motor car"),
            ("cars2", "automobile engine motor chassis"),
            ("cars3", "car automobile driver wheel"),
            ("zoo1", "elephant lion zebra elephant"),
            ("zoo2", "lion zebra giraffe elephant"),
            ("zoo3", "zebra giraffe lion safari"),
            ("mix1", "driver elephant car lion"),
        ]);
        let options = LsiOptions {
            k: 3,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::none(),
            svd_seed: 3,
        };
        LsiModel::build(&corpus, &options).unwrap().0
    }

    #[test]
    fn max_combine_returns_docs_satisfying_either_facet() {
        let m = model();
        let q = MultiQuery::from_texts(&m, &["car motor", "lion zebra"]).unwrap();
        let ranked = m.query_multi(&q, Combine::Max).unwrap();
        // Top 6 should include docs from both domains.
        let top: Vec<&str> = ranked.ids().into_iter().take(6).collect();
        assert!(top.iter().any(|d| d.starts_with("cars")));
        assert!(top.iter().any(|d| d.starts_with("zoo")));
    }

    #[test]
    fn mean_combine_prefers_documents_spanning_both_facets() {
        let m = model();
        let q = MultiQuery::from_texts(&m, &["car", "lion"]).unwrap();
        let mean = m.query_multi(&q, Combine::Mean).unwrap();
        // mix1 touches both topics, so under Mean it should outrank
        // single-topic documents' worst case.
        let mix_rank = mean.rank_of("mix1").unwrap();
        assert!(mix_rank <= 2, "mix1 ranked #{}", mix_rank + 1);
    }

    #[test]
    fn single_facet_multi_query_equals_plain_query() {
        let m = model();
        let q = MultiQuery::from_texts(&m, &["car motor"]).unwrap();
        let multi = m.query_multi(&q, Combine::Max).unwrap();
        let plain = m.query("car motor").unwrap();
        assert_eq!(multi.ids(), plain.ids());
    }

    #[test]
    fn density_interpolates_between_mean_and_max() {
        let m = model();
        let q = MultiQuery::from_texts(&m, &["car motor", "lion zebra"]).unwrap();
        let max = m.query_multi(&q, Combine::Max).unwrap();
        let mean = m.query_multi(&q, Combine::Mean).unwrap();
        let sharp = m
            .query_multi(&q, Combine::Density { sharpness: 50.0 })
            .unwrap();
        let flat = m
            .query_multi(&q, Combine::Density { sharpness: 1e-9 })
            .unwrap();
        // Sharp density ~ max ordering; flat density ~ mean ordering.
        assert_eq!(sharp.ids(), max.ids());
        assert_eq!(flat.ids(), mean.ids());
    }

    #[test]
    fn rejects_empty_or_mismatched_facets() {
        let m = model();
        assert!(MultiQuery::from_texts(&m, &[]).is_err());
        assert!(MultiQuery::from_texts(&m, &["qqqq zzzz"]).is_err());
        assert!(MultiQuery::from_vectors(&m, vec![vec![1.0]]).is_err());
        assert!(MultiQuery::from_vectors(&m, vec![]).is_err());
    }

    #[test]
    fn multi_top_matches_the_full_ranking_prefix() {
        let m = model();
        let q = MultiQuery::from_texts(&m, &["car motor", "lion zebra"]).unwrap();
        for combine in [
            Combine::Max,
            Combine::Mean,
            Combine::Density { sharpness: 3.0 },
        ] {
            let full = m.query_multi(&q, combine).unwrap();
            let top = m.query_multi_top(&q, combine, 3).unwrap();
            assert_eq!(top.ids(), full.ids()[..3].to_vec());
        }
    }

    #[test]
    fn compressed_multi_top_agrees_with_exact_within_tolerance() {
        let m = model();
        let mut mc = m.clone();
        mc.set_precision(crate::Precision::F32);
        let q = MultiQuery::from_texts(&m, &["car motor", "lion zebra"]).unwrap();
        for combine in [Combine::Max, Combine::Mean, Combine::Density { sharpness: 2.0 }] {
            let exact = m.query_multi_top(&q, combine, 3).unwrap();
            let comp = mc.query_multi_top(&q, combine, 3).unwrap();
            // nf > 1 re-ranks through the single-row GEMV, whose
            // accumulation order differs in the last ulp from the GEMM
            // that sweeps facet blocks of GEMM_MIN_COLS_THRESHOLD or
            // more — same documents, near-identical scores. (Two facets
            // take the fused block sweep, which agrees to the bit.)
            for (a, b) in exact.matches.iter().zip(comp.matches.iter()) {
                assert_eq!(a.doc, b.doc);
                assert!((a.cosine - b.cosine).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lipschitz_constants_cover_the_combines() {
        assert_eq!(Combine::Max.lipschitz(), 1.0);
        assert_eq!(Combine::Mean.lipschitz(), 1.0);
        assert_eq!(Combine::Density { sharpness: -3.0 }.lipschitz(), 7.0);
    }

    #[test]
    fn non_finite_fused_scores_are_a_typed_error_at_every_precision() {
        let m = model();
        let q = MultiQuery::from_texts(&m, &["car motor", "lion zebra"]).unwrap();
        for precision in [crate::Precision::Exact, crate::Precision::F32] {
            let mut m = m.clone();
            m.set_precision(precision);
            for sharpness in [f64::INFINITY, f64::NAN] {
                let combine = Combine::Density { sharpness };
                let top = m.query_multi_top(&q, combine, 3);
                assert!(
                    matches!(top, Err(Error::NonFinite { .. })),
                    "{precision:?} {sharpness}: query_multi_top gave {top:?}"
                );
                let full = m.query_multi(&q, combine);
                assert!(
                    matches!(full, Err(Error::NonFinite { .. })),
                    "{precision:?} {sharpness}: query_multi gave {full:?}"
                );
            }
        }
    }
}
