//! §4.3: orthogonality loss under folding-in.
//!
//! "The folding-in process corrupts the orthogonality of Û_k and V̂_k by
//! appending non-orthogonal submatrices ... the loss of orthogonality
//! can be measured by ‖ÛᵀÛ − I‖₂ and ‖V̂ᵀV̂ − I‖₂. ... the amount by
//! which the folding-in method perturbs the orthogonality ... does
//! indicate how much distortion has occurred." The paper proposes
//! monitoring this and correlating it with retrieval quality as future
//! research; `repro --ortho` runs that experiment.

use lsi_linalg::ortho::orthogonality_defect_spectral;

use crate::model::LsiModel;
use crate::Result;

/// The two defects of §4.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrthogonalityLoss {
    /// `‖ÛᵀÛ − I_k‖₂` over all term rows (SVD-derived + folded).
    pub term_defect: f64,
    /// `‖V̂ᵀV̂ − I_k‖₂` over all document rows.
    pub doc_defect: f64,
}

impl LsiModel {
    /// Measure the current orthogonality loss of both factor matrices.
    ///
    /// For a freshly built or SVD-updated model both defects are at
    /// rounding level; every folded-in row can only increase them.
    pub fn orthogonality_loss(&self) -> Result<OrthogonalityLoss> {
        let k = self.k();
        Ok(OrthogonalityLoss {
            term_defect: orthogonality_defect_spectral(&self.u, k)?,
            doc_defect: orthogonality_defect_spectral(&self.v, k)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::model::LsiOptions;
    use lsi_text::{Corpus, ParsingRules, TermWeighting};

    fn build() -> crate::LsiModel {
        let corpus = Corpus::from_pairs([
            ("d1", "alpha beta alpha gamma"),
            ("d2", "beta gamma beta delta"),
            ("d3", "alpha gamma delta epsilon"),
            ("d4", "zeta epsilon delta zeta"),
            ("d5", "epsilon zeta alpha beta"),
        ]);
        let options = LsiOptions {
            k: 3,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::none(),
            svd_seed: 5,
        };
        crate::LsiModel::build(&corpus, &options).unwrap().0
    }

    #[test]
    fn fresh_model_has_no_defect() {
        let m = build();
        let loss = m.orthogonality_loss().unwrap();
        assert!(loss.term_defect < 1e-9, "term defect {}", loss.term_defect);
        assert!(loss.doc_defect < 1e-9, "doc defect {}", loss.doc_defect);
    }

    #[test]
    fn folding_in_increases_doc_defect_monotonically() {
        let mut m = build();
        let mut last = m.orthogonality_loss().unwrap().doc_defect;
        for i in 0..4 {
            m.fold_in_documents(&Corpus::from_pairs([(
                format!("f{i}"),
                "alpha beta gamma delta".to_string(),
            )]))
            .unwrap();
            let now = m.orthogonality_loss().unwrap().doc_defect;
            assert!(
                now >= last - 1e-12,
                "defect should not decrease: {now} after {last}"
            );
            last = now;
        }
        assert!(last > 1e-6, "repeated folding should visibly corrupt V");
    }

    #[test]
    fn svd_updating_preserves_orthogonality() {
        let mut m = build();
        let d = m
            .vocabulary()
            .count_matrix(&Corpus::from_pairs([("n1", "alpha beta gamma delta")]));
        m.svd_update_documents(&d, &["n1".to_string()]).unwrap();
        let loss = m.orthogonality_loss().unwrap();
        assert!(loss.term_defect < 1e-9);
        assert!(loss.doc_defect < 1e-9);
    }
}
