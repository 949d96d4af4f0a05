//! One-sided Jacobi SVD.
//!
//! Applies plane rotations from the right until all column pairs of the
//! working matrix are numerically orthogonal; the column norms are then
//! the singular values, the normalized columns are `U`, and the
//! accumulated rotations are `V`. With de Rijk-style pivoting (process
//! the pair with the largest inner product first within each sweep by
//! ordering columns by norm) convergence is fast and the computed small
//! singular values are highly accurate — which matters for the
//! `Sigma^-1` scaling in LSI query projection (Eq. 6 of the paper).

use crate::matrix::DenseMatrix;
use crate::svd::Svd;
use crate::vecops;
use crate::{Error, Result};

/// Maximum number of full sweeps before reporting failure.
const MAX_SWEEPS: usize = 60;

/// Compute the full (thin) SVD of `a` by one-sided Jacobi rotation.
///
/// Returns factors with `u: m x r`, `v: n x r`, `r = min(m, n)`,
/// singular values descending. For `m < n` the routine transposes
/// internally and swaps the factors back.
pub fn jacobi_svd(a: &DenseMatrix) -> Result<Svd> {
    if !a.is_finite() {
        return Err(Error::NotFinite);
    }
    if a.nrows() < a.ncols() {
        let svd = jacobi_svd(&a.transpose())?;
        return Ok(Svd {
            u: svd.v,
            s: svd.s,
            v: svd.u,
        });
    }

    let m = a.nrows();
    let n = a.ncols();
    if n == 0 {
        return Ok(Svd {
            u: DenseMatrix::zeros(m, 0),
            s: Vec::new(),
            v: DenseMatrix::zeros(0, 0),
        });
    }

    let mut w = a.clone();
    let mut v = DenseMatrix::identity(n);
    let fro = w.fro_norm();
    if fro == 0.0 {
        // Zero matrix: zero singular values, canonical axes.
        let mut u = DenseMatrix::zeros(m, n);
        for j in 0..n.min(m) {
            u.set(j, j, 1.0);
        }
        return Ok(Svd { u, s: vec![0.0; n], v });
    }
    // Rotation threshold: below this cosine the pair counts as
    // orthogonal. `eps * max(m, n)` leaves headroom above the roundoff
    // floor of the inner products — with repeated singular values the
    // off-diagonal cosines bottom out at a small multiple of eps and a
    // tighter threshold would spin forever on noise.
    let tol = f64::EPSILON * (m.max(n) as f64);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;

        // de Rijk pivoting: keep columns ordered by decreasing norm so the
        // dominant directions settle first. The input is finite and norms
        // are ≥ +0, so `total_cmp` orders them as `partial_cmp` would.
        let mut norms: Vec<f64> = (0..n).map(|j| vecops::nrm2(w.col(j))).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
        permute_cols(&mut w, &order);
        permute_cols(&mut v, &order);
        norms.sort_by(|x, y| y.total_cmp(x));

        // Columns whose norm has decayed below eps^2 of the dominant
        // column are pure rounding residue; their squared norms underflow
        // toward subnormals and the rotation formulas stall on them.
        // Flush them to exact zero (their singular value is 0).
        let dead = norms[0] * f64::EPSILON * f64::EPSILON;
        for j in 0..n {
            if norms[j] > 0.0 && norms[j] < dead {
                for x in w.col_mut(j) {
                    *x = 0.0;
                }
            }
        }

        for p in 0..n - 1 {
            for q in p + 1..n {
                let alpha = vecops::dot(w.col(p), w.col(p));
                let beta = vecops::dot(w.col(q), w.col(q));
                let gamma = vecops::dot(w.col(p), w.col(q));
                if alpha == 0.0 || beta == 0.0 {
                    continue;
                }
                let cos_angle = gamma.abs() / (alpha.sqrt() * beta.sqrt());
                if cos_angle <= tol {
                    continue;
                }
                rotated = true;
                // Two-by-two symmetric Schur decomposition of
                // [[alpha, gamma], [gamma, beta]].
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = if zeta >= 0.0 {
                    1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                } else {
                    -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_cols(&mut w, p, q, c, s);
                rotate_cols(&mut v, p, q, c, s);
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(Error::NoConvergence {
            routine: "jacobi_svd",
            iterations: MAX_SWEEPS,
        });
    }

    // Extract singular values (column norms), sort descending, normalize U.
    let norms: Vec<f64> = (0..n).map(|j| vecops::nrm2(w.col(j))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    permute_cols(&mut w, &order);
    permute_cols(&mut v, &order);
    let s: Vec<f64> = order.iter().map(|&j| norms[j]).collect();

    let mut u = w;
    for (j, &sj) in s.iter().enumerate() {
        if sj > 0.0 {
            vecops::scal(1.0 / sj, u.col_mut(j));
        } else {
            // Null-space column: fill with a vector orthogonal to the kept
            // columns so U stays orthonormal.
            fill_orthonormal_column(&mut u, j);
        }
    }

    Ok(Svd { u, s, v })
}

/// Rotate columns `p` and `q` of `m` by the plane rotation `(c, s)`.
fn rotate_cols(m: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let nrows = m.nrows();
    debug_assert!(p < q);
    // Split borrow: columns are disjoint slices of the column-major buffer.
    let (left, right) = m.data_mut().split_at_mut(q * nrows);
    let colp = &mut left[p * nrows..(p + 1) * nrows];
    let colq = &mut right[..nrows];
    for (a, b) in colp.iter_mut().zip(colq.iter_mut()) {
        let ap = c * *a - s * *b;
        let aq = s * *a + c * *b;
        *a = ap;
        *b = aq;
    }
}

/// Reorder the columns of `m` according to `order` (new column `j` is old
/// column `order[j]`).
fn permute_cols(m: &mut DenseMatrix, order: &[usize]) {
    let cols: Vec<Vec<f64>> = order.iter().map(|&j| m.col(j).to_vec()).collect();
    for (j, c) in cols.into_iter().enumerate() {
        m.col_mut(j).copy_from_slice(&c);
    }
}

/// Replace zero column `j` of `u` with a unit vector orthogonal to all
/// other (already orthonormal) columns.
fn fill_orthonormal_column(u: &mut DenseMatrix, j: usize) {
    let m = u.nrows();
    for trial in 0..m {
        let mut cand = vec![0.0; m];
        cand[trial] = 1.0;
        for other in 0..u.ncols() {
            if other == j {
                continue;
            }
            let proj = vecops::dot(u.col(other), &cand);
            let oc = u.col(other).to_vec();
            vecops::axpy(-proj, &oc, &mut cand);
        }
        if vecops::normalize(&mut cand) > 0.5 {
            u.col_mut(j).copy_from_slice(&cand);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{matmul_tn, reconstruct};

    fn check_svd(a: &DenseMatrix, tol: f64) -> Svd {
        let svd = jacobi_svd(a).unwrap();
        let r = a.nrows().min(a.ncols());
        assert_eq!(svd.u.shape(), (a.nrows(), r));
        assert_eq!(svd.v.shape(), (a.ncols(), r));
        assert_eq!(svd.s.len(), r);
        // Descending, nonnegative.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
        // Orthonormal factors.
        let utu = matmul_tn(&svd.u, &svd.u).unwrap();
        assert!(utu.fro_distance(&DenseMatrix::identity(r)).unwrap() < tol);
        let vtv = matmul_tn(&svd.v, &svd.v).unwrap();
        assert!(vtv.fro_distance(&DenseMatrix::identity(r)).unwrap() < tol);
        // Reconstruction.
        let rec = reconstruct(&svd.u, &svd.s, &svd.v).unwrap();
        assert!(
            rec.fro_distance(a).unwrap() < tol * a.fro_norm().max(1.0),
            "reconstruction error {}",
            rec.fro_distance(a).unwrap()
        );
        svd
    }

    #[test]
    fn svd_of_diagonal() {
        let a = DenseMatrix::from_diag(&[3.0, 1.0, 2.0]);
        let svd = check_svd(&a, 1e-12);
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
        assert!((svd.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_of_known_2x2() {
        // A = [[1, 1], [0, 1]]: singular values are golden-ratio related:
        // sigma = sqrt((3 ± sqrt 5)/2).
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let svd = check_svd(&a, 1e-12);
        let s1 = ((3.0 + 5f64.sqrt()) / 2.0).sqrt();
        let s2 = ((3.0 - 5f64.sqrt()) / 2.0).sqrt();
        assert!((svd.s[0] - s1).abs() < 1e-12);
        assert!((svd.s[1] - s2).abs() < 1e-12);
    }

    #[test]
    fn svd_of_tall_matrix() {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, -1.0],
        ])
        .unwrap();
        check_svd(&a, 1e-11);
    }

    #[test]
    fn svd_of_wide_matrix() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]])
            .unwrap();
        check_svd(&a, 1e-11);
    }

    #[test]
    fn svd_of_rank_deficient() {
        // Rank 1: all columns parallel.
        let a = DenseMatrix::from_cols(&[
            vec![1.0, 2.0, 2.0],
            vec![2.0, 4.0, 4.0],
            vec![-1.0, -2.0, -2.0],
        ])
        .unwrap();
        let svd = check_svd(&a, 1e-11);
        assert!(svd.s[1] < 1e-10);
        assert!(svd.s[2] < 1e-10);
        // sigma_1 = ||A||_F for rank-1.
        assert!((svd.s[0] - a.fro_norm()).abs() < 1e-10);
    }

    #[test]
    fn svd_of_zero_matrix() {
        let a = DenseMatrix::zeros(3, 2);
        let svd = check_svd(&a, 1e-12);
        assert_eq!(svd.s, vec![0.0, 0.0]);
    }

    #[test]
    fn svd_singular_values_match_eigenvalues_of_gram() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![-1.0, 1.0, 0.0],
            vec![3.0, 1.0, 1.0],
            vec![0.0, 2.0, -1.0],
        ])
        .unwrap();
        let svd = check_svd(&a, 1e-11);
        let gram = matmul_tn(&a, &a).unwrap();
        let (evals, _) = crate::symeig::sym_eigen(&gram).unwrap();
        for (sig, lam) in svd.s.iter().zip(evals.iter()) {
            assert!((sig * sig - lam).abs() < 1e-9, "{} vs {}", sig * sig, lam);
        }
    }

    #[test]
    fn svd_rejects_nan() {
        let a = DenseMatrix::from_rows(&[vec![f64::NAN]]).unwrap();
        assert!(jacobi_svd(&a).is_err());
    }

    #[test]
    fn svd_of_graded_matrix_keeps_small_values_accurate() {
        // Diagonal with hugely different scales: Jacobi retains relative
        // accuracy on the small singular value.
        let a = DenseMatrix::from_diag(&[1e8, 1e-6]);
        let svd = jacobi_svd(&a).unwrap();
        assert!((svd.s[0] - 1e8).abs() / 1e8 < 1e-14);
        assert!((svd.s[1] - 1e-6).abs() / 1e-6 < 1e-10);
    }
}
