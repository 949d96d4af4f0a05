//! Randomized subspace-iteration SVD.
//!
//! A modern alternative to Lanczos (Halko–Martinsson–Tropp style):
//! sketch the range with a Gaussian test matrix, optionally run power
//! iterations to sharpen the spectrum, orthonormalize, and solve the
//! small projected problem densely. Included as the ablation baseline
//! the DESIGN document calls for — the benchmark compares its
//! product count and accuracy against the Lanczos driver on the same
//! matrices.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lsi_linalg::qr::mgs_orthonormalize;
use lsi_linalg::svd::Svd;
use lsi_linalg::{dense_svd, ops, vecops, DenseMatrix};
use lsi_sparse::MatVec;

use crate::{Error, Result};

/// Options for [`randomized_svd`].
#[derive(Debug, Clone)]
pub struct RandomizedOptions {
    /// Oversampling beyond the target rank (default 10).
    pub oversample: usize,
    /// Number of power iterations (default 2); each costs one extra
    /// round trip `A Aᵀ` but sharpens decaying spectra considerably.
    pub power_iters: usize,
    /// RNG seed (deterministic in this seed).
    pub seed: u64,
}

impl Default for RandomizedOptions {
    fn default() -> Self {
        RandomizedOptions {
            oversample: 10,
            power_iters: 2,
            seed: 0xDECADE,
        }
    }
}

/// Approximate truncated SVD of `a` with target rank `k`.
pub fn randomized_svd<M: MatVec + ?Sized>(
    a: &M,
    k: usize,
    opts: &RandomizedOptions,
) -> Result<Svd> {
    let _span = lsi_obs::span("randomized_svd");
    let m = a.nrows();
    let n = a.ncols();
    let max_rank = m.min(n);
    if k > max_rank {
        return Err(Error::RankTooLarge {
            requested: k,
            max: max_rank,
        });
    }
    if k == 0 {
        return Ok(Svd {
            u: DenseMatrix::zeros(m, 0),
            s: Vec::new(),
            v: DenseMatrix::zeros(n, 0),
        });
    }
    let l = (k + opts.oversample).min(max_rank);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Y = A * Omega, Omega n x l uniform(-0.5, 0.5).
    let mut y = DenseMatrix::zeros(m, l);
    let mut omega_col = vec![0.0; n];
    for j in 0..l {
        for v in omega_col.iter_mut() {
            *v = rng.random::<f64>() - 0.5;
        }
        a.apply(&omega_col, y.col_mut(j));
    }

    // Power iterations with re-orthonormalization for stability:
    // Y <- A (Aᵀ Q) after Q = orth(Y).
    let mut tmp_n = vec![0.0; n];
    for _ in 0..opts.power_iters {
        mgs_orthonormalize(&mut y);
        let mut z = DenseMatrix::zeros(n, l);
        for j in 0..l {
            a.apply_t(y.col(j), &mut tmp_n);
            z.col_mut(j).copy_from_slice(&tmp_n);
        }
        mgs_orthonormalize(&mut z);
        for j in 0..l {
            a.apply(z.col(j), y.col_mut(j));
        }
    }
    let kept = mgs_orthonormalize(&mut y);
    // Drop dependent columns (rank < l).
    let q_cols: Vec<Vec<f64>> = (0..l)
        .filter(|&j| kept[j])
        .map(|j| y.col(j).to_vec())
        .collect();
    if q_cols.is_empty() {
        return Ok(Svd {
            u: DenseMatrix::zeros(m, 0),
            s: Vec::new(),
            v: DenseMatrix::zeros(n, 0),
        });
    }
    let q = DenseMatrix::from_cols(&q_cols)?;
    let ql = q.ncols();

    // B = Qᵀ A  (ql x n), computed row-wise via Aᵀ q_j.
    let mut b = DenseMatrix::zeros(ql, n);
    for j in 0..ql {
        a.apply_t(q.col(j), &mut tmp_n);
        for (c, &val) in tmp_n.iter().enumerate() {
            b.set(j, c, val);
        }
    }

    let small = dense_svd(&b)?;
    let take = k.min(small.s.len());
    // Filter numerically-zero singular values like the Lanczos driver.
    let scale = small.s.first().copied().unwrap_or(0.0);
    let rank_cut = small.s[..take]
        .iter()
        .take_while(|&&sv| sv > scale * 1e-10 && sv > 0.0)
        .count();

    let u = ops::matmul(&q, &small.u.truncate_cols(rank_cut))?;
    let v = small.v.truncate_cols(rank_cut);
    let s = small.s[..rank_cut].to_vec();
    // Normalize U columns (matmul of orthonormal factors is orthonormal
    // up to rounding; cheap cleanup keeps tests tight).
    let mut u = u;
    for j in 0..u.ncols() {
        vecops::normalize(u.col_mut(j));
    }
    Ok(Svd { u, s, v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_oracle;
    use lsi_sparse::gen::{planted_spectrum, random_term_doc, RowProfile};

    #[test]
    fn randomized_matches_oracle_on_decaying_spectrum() {
        let (a, sigmas) = planted_spectrum(50, 35, &[10.0, 6.0, 3.0, 1.0, 0.3], 21);
        let svd = randomized_svd(&a, 5, &RandomizedOptions::default()).unwrap();
        for (got, want) in svd.s.iter().zip(sigmas.iter()) {
            assert!((got - want).abs() < 1e-6 * want.max(1.0), "{got} vs {want}");
        }
    }

    #[test]
    fn randomized_close_to_oracle_on_random_matrix() {
        let a = random_term_doc(60, 40, 0.15, RowProfile::Uniform, 3, 33);
        let svd = randomized_svd(&a, 6, &RandomizedOptions::default()).unwrap();
        let oracle = dense_oracle(&a, 6).unwrap();
        // Randomized SVD is approximate on flat spectra; 1 % is enough
        // to show correctness of the machinery.
        for (got, want) in svd.s.iter().zip(oracle.s.iter()) {
            assert!((got - want).abs() < 0.01 * want.max(1.0), "{got} vs {want}");
        }
    }

    #[test]
    fn randomized_rank_deficient() {
        let (a, _) = planted_spectrum(20, 20, &[5.0, 2.0], 5);
        let svd = randomized_svd(&a, 6, &RandomizedOptions::default()).unwrap();
        assert_eq!(svd.s.len(), 2, "only the two true triplets survive");
    }

    #[test]
    fn randomized_deterministic_in_seed() {
        let a = random_term_doc(30, 30, 0.2, RowProfile::Uniform, 2, 8);
        let o = RandomizedOptions::default();
        let s1 = randomized_svd(&a, 4, &o).unwrap();
        let s2 = randomized_svd(&a, 4, &o).unwrap();
        assert_eq!(s1.s, s2.s);
    }

    #[test]
    fn randomized_rejects_oversized_rank() {
        let a = random_term_doc(5, 4, 0.5, RowProfile::Uniform, 2, 4);
        assert!(randomized_svd(&a, 10, &RandomizedOptions::default()).is_err());
    }

    #[test]
    fn randomized_k_zero() {
        let a = random_term_doc(5, 4, 0.5, RowProfile::Uniform, 2, 4);
        let svd = randomized_svd(&a, 0, &RandomizedOptions::default()).unwrap();
        assert!(svd.s.is_empty());
    }

    #[test]
    fn randomized_zero_matrix() {
        let a = lsi_sparse::CscMatrix::zeros(6, 6);
        let svd = randomized_svd(&a, 3, &RandomizedOptions::default()).unwrap();
        assert!(svd.s.is_empty());
    }
}
