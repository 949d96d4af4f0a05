//! Local and global term weighting (Eq. 5 of the paper:
//! `a_ij = L(i, j) × G(i)`).
//!
//! §5.1 of the paper: "A log transformation of the local cell entries
//! combined with a global entropy weight for terms is the most effective
//! term-weighting scheme. Averaged over five test collections,
//! log × entropy weighting was 40% more effective than raw term
//! weighting." All schemes compared there are implemented here.

use lsi_sparse::CscMatrix;

/// Local weighting `L(i, j)` applied to each cell's raw frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalWeight {
    /// Raw term frequency (the paper's unweighted baseline).
    #[default]
    RawTf,
    /// `log2(1 + tf)` — the paper's best local scheme.
    Log,
    /// `1` if the term occurs, else `0`.
    Binary,
}

impl LocalWeight {
    /// Apply to a raw frequency.
    pub fn apply(&self, tf: f64) -> f64 {
        match self {
            LocalWeight::RawTf => tf,
            LocalWeight::Log => (1.0 + tf).log2(),
            LocalWeight::Binary => {
                if tf > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Global weighting `G(i)`, one factor per term (matrix row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalWeight {
    /// No global weighting.
    #[default]
    None,
    /// Inverse document frequency: `log2(n / df_i) + 1`.
    Idf,
    /// Entropy weighting — the paper's best global scheme:
    /// `1 + Σ_j (p_ij log2 p_ij) / log2 n`, `p_ij = tf_ij / gf_i`.
    Entropy,
    /// `gf_i / df_i` (global frequency over document frequency).
    GfIdf,
    /// `1 / sqrt(Σ_j tf_ij²)` — row normalization.
    Normal,
}

/// A complete weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TermWeighting {
    /// The local component.
    pub local: LocalWeight,
    /// The global component.
    pub global: GlobalWeight,
}

impl TermWeighting {
    /// Raw counts, no weighting (the §3 example: "For simplicity, term
    /// weighting is not used").
    pub fn none() -> Self {
        TermWeighting {
            local: LocalWeight::RawTf,
            global: GlobalWeight::None,
        }
    }

    /// The paper's recommended `log × entropy` scheme.
    pub fn log_entropy() -> Self {
        TermWeighting {
            local: LocalWeight::Log,
            global: GlobalWeight::Entropy,
        }
    }

    /// Classic `tf × idf`.
    pub fn tf_idf() -> Self {
        TermWeighting {
            local: LocalWeight::RawTf,
            global: GlobalWeight::Idf,
        }
    }

    /// Compute the per-term global weights for a raw count matrix.
    pub fn global_weights(&self, counts: &CscMatrix) -> Vec<f64> {
        let m = counts.nrows();
        let n = counts.ncols();
        let mut df = vec![0usize; m];
        let mut gf = vec![0.0f64; m];
        let mut sumsq = vec![0.0f64; m];
        for (r, _, v) in counts.iter() {
            if v != 0.0 {
                df[r] += 1;
                gf[r] += v;
                sumsq[r] += v * v;
            }
        }
        match self.global {
            GlobalWeight::None => vec![1.0; m],
            GlobalWeight::Idf => (0..m)
                .map(|i| {
                    if df[i] == 0 {
                        0.0
                    } else {
                        (n as f64 / df[i] as f64).log2() + 1.0
                    }
                })
                .collect(),
            GlobalWeight::GfIdf => (0..m)
                .map(|i| if df[i] == 0 { 0.0 } else { gf[i] / df[i] as f64 })
                .collect(),
            GlobalWeight::Normal => (0..m)
                .map(|i| {
                    let s = sumsq[i].sqrt();
                    if s == 0.0 {
                        0.0
                    } else {
                        1.0 / s
                    }
                })
                .collect(),
            GlobalWeight::Entropy => {
                let logn = (n as f64).log2();
                let mut entropy_sum = vec![0.0f64; m];
                for (r, _, v) in counts.iter() {
                    if v > 0.0 && gf[r] > 0.0 {
                        let p = v / gf[r];
                        entropy_sum[r] += p * p.log2();
                    }
                }
                (0..m)
                    .map(|i| {
                        if df[i] == 0 {
                            0.0
                        } else if logn == 0.0 {
                            1.0
                        } else {
                            1.0 + entropy_sum[i] / logn
                        }
                    })
                    .collect()
            }
        }
    }

    /// Weight a raw count matrix, returning the weighted matrix and the
    /// global weight vector (needed to weight queries consistently).
    pub fn apply(&self, counts: &CscMatrix) -> WeightedMatrix {
        lsi_obs::add_flops(2.0 * counts.nnz() as f64);
        lsi_obs::count("text.weighting.nnz.count", counts.nnz() as u64);
        let global = self.global_weights(counts);
        let mut weighted = counts.clone();
        let local = self.local;
        weighted.map_values(|v| local.apply(v));
        weighted
            .scale_rows(&global)
            .expect("global weight vector has one entry per row");
        WeightedMatrix {
            matrix: weighted,
            global,
            scheme: *self,
        }
    }

    /// Weight a query's raw term counts using stored global weights
    /// ("the vector of words in the user's query, multiplied by the
    /// appropriate term weights", §2.2).
    pub fn weight_query(&self, counts: &[f64], global: &[f64]) -> Vec<f64> {
        assert_eq!(counts.len(), global.len());
        counts
            .iter()
            .zip(global.iter())
            .map(|(&c, &g)| self.local.apply(c) * g)
            .collect()
    }
}

/// A weighted term-document matrix plus the reusable global weights.
#[derive(Debug, Clone)]
pub struct WeightedMatrix {
    /// The weighted matrix `A` of Eq. 5.
    pub matrix: CscMatrix,
    /// Per-term global weights `G(i)`.
    pub global: Vec<f64>,
    /// The scheme used.
    pub scheme: TermWeighting,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_sparse::CooMatrix;

    fn counts() -> CscMatrix {
        // term 0: [2, 0, 1]; term 1: [1, 1, 1]; term 2: [0, 4, 0]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (2, 1, 4.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn raw_none_is_identity() {
        let w = TermWeighting::none().apply(&counts());
        assert_eq!(w.matrix, counts());
        assert_eq!(w.global, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn log_local_transform() {
        let scheme = TermWeighting {
            local: LocalWeight::Log,
            global: GlobalWeight::None,
        };
        let w = scheme.apply(&counts());
        assert!((w.matrix.get(0, 0) - 3.0f64.log2()).abs() < 1e-12);
        assert!((w.matrix.get(2, 1) - 5.0f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn binary_local_transform() {
        let scheme = TermWeighting {
            local: LocalWeight::Binary,
            global: GlobalWeight::None,
        };
        let w = scheme.apply(&counts());
        assert_eq!(w.matrix.get(0, 0), 1.0);
        assert_eq!(w.matrix.get(2, 1), 1.0);
        assert_eq!(w.matrix.get(2, 0), 0.0);
    }

    #[test]
    fn idf_weights() {
        let scheme = TermWeighting::tf_idf();
        let g = scheme.global_weights(&counts());
        // term 0: df 2 -> log2(3/2)+1; term 1: df 3 -> log2(1)+1 = 1;
        // term 2: df 1 -> log2(3)+1.
        assert!((g[0] - (1.5f64.log2() + 1.0)).abs() < 1e-12);
        assert!((g[1] - 1.0).abs() < 1e-12);
        assert!((g[2] - (3.0f64.log2() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn entropy_weights_bounds_and_extremes() {
        let scheme = TermWeighting::log_entropy();
        let g = scheme.global_weights(&counts());
        // Term 2 occurs in exactly one document: maximally informative,
        // entropy weight 1.
        assert!((g[2] - 1.0).abs() < 1e-12);
        // Term 1 occurs evenly in all documents: minimally informative,
        // entropy weight 0.
        assert!(g[1].abs() < 1e-12);
        // All weights in [0, 1].
        for &w in &g {
            assert!((-1e-12..=1.0 + 1e-12).contains(&w));
        }
        // Term 0 is in between.
        assert!(g[0] > g[1] && g[0] < g[2]);
    }

    #[test]
    fn gfidf_weights() {
        let scheme = TermWeighting {
            local: LocalWeight::RawTf,
            global: GlobalWeight::GfIdf,
        };
        let g = scheme.global_weights(&counts());
        assert!((g[0] - 1.5).abs() < 1e-12); // gf 3 / df 2
        assert!((g[1] - 1.0).abs() < 1e-12); // gf 3 / df 3
        assert!((g[2] - 4.0).abs() < 1e-12); // gf 4 / df 1
    }

    #[test]
    fn normal_weights_normalize_rows() {
        let scheme = TermWeighting {
            local: LocalWeight::RawTf,
            global: GlobalWeight::Normal,
        };
        let w = scheme.apply(&counts());
        // Each nonzero row of the weighted matrix has unit 2-norm.
        let rows = w.matrix.transpose();
        for r in 0..3 {
            let (_, vals) = rows.col(r);
            let norm: f64 = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-12, "row {r} norm {norm}");
        }
    }

    #[test]
    fn query_weighting_consistent_with_matrix() {
        let scheme = TermWeighting::log_entropy();
        let w = scheme.apply(&counts());
        let q = scheme.weight_query(&[1.0, 0.0, 2.0], &w.global);
        assert!((q[0] - 2.0f64.log2() * w.global[0]).abs() < 1e-12);
        assert_eq!(q[1], 0.0);
        assert!((q[2] - 3.0f64.log2() * w.global[2]).abs() < 1e-12);
    }

    #[test]
    fn empty_row_gets_zero_weight() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        let counts = coo.to_csc();
        for scheme in [
            TermWeighting::tf_idf(),
            TermWeighting::log_entropy(),
            TermWeighting {
                local: LocalWeight::RawTf,
                global: GlobalWeight::Normal,
            },
        ] {
            let g = scheme.global_weights(&counts);
            assert_eq!(g[1], 0.0, "scheme {scheme:?}");
        }
    }
}
