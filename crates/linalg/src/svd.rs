//! SVD result type and the dense-SVD front door.

use crate::jacobi::jacobi_svd;
use crate::matrix::DenseMatrix;
use crate::vecops;
use crate::Result;

/// A (thin) singular value decomposition `A = U diag(s) V^T`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, one per column (`m x r`).
    pub u: DenseMatrix,
    /// Singular values, descending and nonnegative (`r` of them).
    pub s: Vec<f64>,
    /// Right singular vectors, one per column (`n x r`).
    pub v: DenseMatrix,
}

impl Svd {
    /// Rank-`k` truncation (the paper's `A_k` of Eq. 2): keep the `k`
    /// largest singular triplets.
    pub fn truncate(&self, k: usize) -> Svd {
        let k = k.min(self.s.len());
        Svd {
            u: self.u.truncate_cols(k),
            s: self.s[..k].to_vec(),
            v: self.v.truncate_cols(k),
        }
    }

    /// Number of retained triplets.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstruct the (possibly truncated) matrix `U diag(s) V^T`.
    pub fn reconstruct(&self) -> Result<DenseMatrix> {
        crate::ops::reconstruct(&self.u, &self.s, &self.v)
    }

    /// Normalize singular-vector signs so the largest-magnitude entry of
    /// each `u` column is positive (flipping the paired `v` column too).
    ///
    /// Singular vectors are only determined up to sign; this canonical
    /// form lets results be compared against published values such as
    /// the paper's Figure 5.
    pub fn sign_normalize(&mut self) {
        for j in 0..self.s.len() {
            if let Some((_, v)) = vecops::argmax_abs(self.u.col(j)) {
                if v < 0.0 {
                    vecops::scal(-1.0, self.u.col_mut(j));
                    vecops::scal(-1.0, self.v.col_mut(j));
                }
            }
        }
    }

    /// The paper's Theorem 2.2 error: `||A - A_k||_F^2 = sigma_{k+1}^2 +
    /// ... + sigma_r^2`, computed from the retained spectrum.
    pub fn truncation_error_fro(&self, k: usize) -> f64 {
        self.s.iter().skip(k).map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Dense SVD entry point (currently one-sided Jacobi; see
/// [`crate::bidiag::golub_kahan_svd`] for the independent alternative).
pub fn dense_svd(a: &DenseMatrix) -> Result<Svd> {
    jacobi_svd(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Svd {
        let a = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
        ])
        .unwrap();
        dense_svd(&a).unwrap()
    }

    #[test]
    fn truncate_keeps_largest() {
        let svd = example();
        let t = svd.truncate(2);
        assert_eq!(t.s, vec![4.0, 3.0]);
        assert_eq!(t.u.ncols(), 2);
        assert_eq!(t.v.ncols(), 2);
        // Truncating beyond rank is a no-op.
        assert_eq!(svd.truncate(10).rank(), 3);
    }

    #[test]
    fn truncation_error_matches_theorem_2_2() {
        let svd = example();
        // ||A - A_1||_F = sqrt(3^2 + 2^2).
        assert!((svd.truncation_error_fro(1) - (13.0f64).sqrt()).abs() < 1e-12);
        assert!(svd.truncation_error_fro(3) < 1e-12);
    }

    #[test]
    fn sign_normalize_makes_dominant_entries_positive() {
        let mut svd = example();
        // Force a negative column.
        vecops::scal(-1.0, svd.u.col_mut(0));
        vecops::scal(-1.0, svd.v.col_mut(0));
        let before = svd.reconstruct().unwrap();
        svd.sign_normalize();
        let after = svd.reconstruct().unwrap();
        // Reconstruction invariant under sign normalization.
        assert!(before.fro_distance(&after).unwrap() < 1e-12);
        for j in 0..svd.rank() {
            let (_, v) = vecops::argmax_abs(svd.u.col(j)).unwrap();
            assert!(v > 0.0);
        }
    }

    #[test]
    fn reconstruct_roundtrip() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let svd = dense_svd(&a).unwrap();
        assert!(svd.reconstruct().unwrap().fro_distance(&a).unwrap() < 1e-12);
    }
}
