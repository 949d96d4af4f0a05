//! Symmetric tridiagonal eigensolver.
//!
//! The Lanczos process (crate `lsi-svd`) reduces the Gram operator
//! `A^T A` to a symmetric tridiagonal matrix `T`; its eigenpairs are the
//! Ritz approximations to singular values/vectors. Two independent
//! solvers are provided:
//!
//! * [`tridiag_eigen`] — implicit QL with Wilkinson shifts, accumulating
//!   eigenvectors (the classic `tqli` algorithm); [`tridiag_eigen_last_row`]
//!   runs the same sweeps but keeps only the last eigenvector row,
//! * [`sturm_eigenvalues`] — bisection on the Sturm sequence, values
//!   only, used as an oracle in property tests and for cheap
//!   eigenvalue-count queries.

use crate::matrix::DenseMatrix;
use crate::{Error, Result};

/// A symmetric tridiagonal matrix given by its diagonal and
/// off-diagonal entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SymTridiag {
    /// Diagonal entries (`n` of them).
    pub diag: Vec<f64>,
    /// Off-diagonal entries (`n - 1` of them).
    pub offdiag: Vec<f64>,
}

impl SymTridiag {
    /// Construct, validating the off-diagonal length.
    pub fn new(diag: Vec<f64>, offdiag: Vec<f64>) -> Result<Self> {
        if !diag.is_empty() && offdiag.len() + 1 != diag.len() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "tridiagonal matrix with {} diagonal and {} off-diagonal entries",
                    diag.len(),
                    offdiag.len()
                ),
            });
        }
        Ok(SymTridiag { diag, offdiag })
    }

    /// Dimension of the matrix.
    pub fn n(&self) -> usize {
        self.diag.len()
    }

    /// Dense representation (for tests and small problems).
    pub fn to_dense(&self) -> DenseMatrix {
        let n = self.n();
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, self.diag[i]);
        }
        for i in 0..n.saturating_sub(1) {
            m.set(i, i + 1, self.offdiag[i]);
            m.set(i + 1, i, self.offdiag[i]);
        }
        m
    }

    /// Number of eigenvalues strictly less than `x` (Sturm sequence
    /// count), computed without forming any matrix.
    pub fn count_less_than(&self, x: f64) -> usize {
        let n = self.n();
        let mut count = 0usize;
        let mut d = 1.0f64;
        let tiny = f64::MIN_POSITIVE / f64::EPSILON;
        for i in 0..n {
            let off2 = if i == 0 { 0.0 } else { self.offdiag[i - 1] * self.offdiag[i - 1] };
            d = self.diag[i] - x - off2 / d;
            if d == 0.0 {
                d = -tiny;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    }
}

/// Eigen-decomposition of a symmetric tridiagonal matrix.
///
/// Eigenvalues are returned in **descending** order (LSI wants the
/// largest singular triplets first) along with the matching eigenvector
/// columns.
pub fn tridiag_eigen(t: &SymTridiag) -> Result<(Vec<f64>, DenseMatrix)> {
    let n = t.n();
    let mut z = DenseMatrix::identity(n);
    let d = ql_sweeps(t, "tridiag_eigen", |i, s, c| {
        // Columns i and i+1 of the column-major Z lie side by side.
        let (zi, zi1) = z.data_mut()[i * n..(i + 2) * n].split_at_mut(n);
        for (a, b) in zi.iter_mut().zip(zi1) {
            let (zk, f) = (*a, *b);
            *b = s * zk + c * f;
            *a = c * zk - s * f;
        }
    })?;
    let order = descending(&d);
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    // Column copies into a zeroed matrix: no fallible constructor, so
    // no error or panic path after the sweeps.
    let mut vecs = DenseMatrix::zeros(n, n);
    for (j, &i) in order.iter().enumerate() {
        vecs.col_mut(j).copy_from_slice(z.col(i));
    }
    Ok((values, vecs))
}

/// Eigenvalues of a symmetric tridiagonal matrix plus the **last row**
/// of its eigenvector matrix, in descending eigenvalue order.
///
/// This is the Lanczos convergence test's exact need: the residual
/// bound for Ritz pair `i` is `|β_n · S[n-1, i]|`, so only row `n-1`
/// of `S` ever gets read. Running the same implicit-QL sweeps as
/// [`tridiag_eigen`] but applying the rotations to that one row
/// instead of the full matrix turns each accumulation step from
/// `O(n)` into `O(1)` — the whole call drops from `O(n³)` to `O(n²)` —
/// while producing bit-identical eigenvalues and last-row entries.
pub fn tridiag_eigen_last_row(t: &SymTridiag) -> Result<(Vec<f64>, Vec<f64>)> {
    // Row n-1 of the accumulated rotation product, seeded from the
    // identity.
    let mut zrow = vec![0.0f64; t.n()];
    if let Some(last) = zrow.last_mut() {
        *last = 1.0;
    }
    let d = ql_sweeps(t, "tridiag_eigen_last_row", |i, s, c| {
        let (zk, f) = (zrow[i], zrow[i + 1]);
        zrow[i + 1] = s * zk + c * f;
        zrow[i] = c * zk - s * f;
    })?;
    let order = descending(&d);
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let row: Vec<f64> = order.iter().map(|&i| zrow[i]).collect();
    Ok((values, row))
}

/// Implicit QL with Wilkinson shifts (the classic `tqli` algorithm):
/// the eigenvalues of `t`, in the order the sweeps leave them. Each
/// plane rotation `(i, s, c)` the sweeps apply is handed to `rotate`,
/// which applies it to eigenvector columns `i` and `i + 1` —
/// `(z_i, z_{i+1}) ← (c·z_i − s·z_{i+1}, s·z_i + c·z_{i+1})` — of
/// whatever part of the eigenvector matrix its caller keeps.
fn ql_sweeps(
    t: &SymTridiag,
    routine: &'static str,
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<Vec<f64>> {
    let n = t.n();
    let mut d = t.diag.clone();
    // e is padded to length n with a trailing zero as tqli expects.
    let mut e: Vec<f64> = t.offdiag.iter().copied().chain(std::iter::once(0.0)).collect();
    if d.iter().any(|v| !v.is_finite()) || e.iter().any(|v| !v.is_finite()) {
        return Err(Error::NotFinite);
    }

    const MAX_SWEEPS: usize = 50;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_SWEEPS {
                return Err(Error::NoConvergence {
                    routine,
                    iterations: MAX_SWEEPS,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(d)
}

/// Indices of `d` by descending value.
fn descending(d: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
    order
}

/// All eigenvalues of `t` by Sturm-sequence bisection, descending.
///
/// `tol` is the absolute bisection tolerance; pass e.g.
/// `1e-12 * ||T||` for full accuracy.
pub fn sturm_eigenvalues(t: &SymTridiag, tol: f64) -> Vec<f64> {
    let n = t.n();
    if n == 0 {
        return Vec::new();
    }
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let r = (if i > 0 { t.offdiag[i - 1].abs() } else { 0.0 })
            + (if i + 1 < n { t.offdiag[i].abs() } else { 0.0 });
        lo = lo.min(t.diag[i] - r);
        hi = hi.max(t.diag[i] + r);
    }
    let tol = tol.max(f64::EPSILON * (hi - lo).abs().max(1.0));
    // Find the j-th smallest eigenvalue for each j by bisection on the
    // count function.
    let mut vals = Vec::with_capacity(n);
    for j in 0..n {
        let mut a = lo;
        let mut b = hi;
        while b - a > tol {
            let mid = 0.5 * (a + b);
            // count_less_than(mid) <= j  means lambda_j >= mid.
            if t.count_less_than(mid) <= j {
                a = mid;
            } else {
                b = mid;
            }
        }
        vals.push(0.5 * (a + b));
    }
    vals.reverse();
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    fn residual(t: &SymTridiag, vals: &[f64], vecs: &DenseMatrix) -> f64 {
        let dense = t.to_dense();
        let av = matmul(&dense, vecs).unwrap();
        let mut worst = 0.0f64;
        for (j, &lam) in vals.iter().enumerate() {
            let col = av.col(j);
            let v = vecs.col(j);
            let r: f64 = col
                .iter()
                .zip(v.iter())
                .map(|(a, b)| (a - lam * b) * (a - lam * b))
                .sum::<f64>()
                .sqrt();
            worst = worst.max(r);
        }
        worst
    }

    #[test]
    fn eigen_of_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let t = SymTridiag::new(vec![2.0, 2.0], vec![1.0]).unwrap();
        let (vals, vecs) = tridiag_eigen(&t).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        assert!(residual(&t, &vals, &vecs) < 1e-12);
    }

    #[test]
    fn eigen_of_laplacian_matches_closed_form() {
        // Discrete Laplacian diag=2, off=-1 has eigenvalues
        // 2 - 2 cos(k pi / (n+1)).
        let n = 12;
        let t = SymTridiag::new(vec![2.0; n], vec![-1.0; n - 1]).unwrap();
        let (vals, vecs) = tridiag_eigen(&t).unwrap();
        let mut expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (got, want) in vals.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
        assert!(residual(&t, &vals, &vecs) < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 9;
        let diag: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| (i as f64 * 0.7).cos()).collect();
        let t = SymTridiag::new(diag, off).unwrap();
        let (_, vecs) = tridiag_eigen(&t).unwrap();
        let vtv = crate::ops::matmul_tn(&vecs, &vecs).unwrap();
        let eye = DenseMatrix::identity(n);
        assert!(vtv.fro_distance(&eye).unwrap() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let t = SymTridiag::new(vec![1.0, 5.0, 3.0], vec![0.0, 0.0]).unwrap();
        let (vals, _) = tridiag_eigen(&t).unwrap();
        assert_eq!(vals, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn empty_and_singleton() {
        let t = SymTridiag::new(vec![], vec![]).unwrap();
        let (vals, _) = tridiag_eigen(&t).unwrap();
        assert!(vals.is_empty());
        let t1 = SymTridiag::new(vec![7.0], vec![]).unwrap();
        let (vals, vecs) = tridiag_eigen(&t1).unwrap();
        assert_eq!(vals, vec![7.0]);
        assert_eq!(vecs.get(0, 0).abs(), 1.0);
    }

    #[test]
    fn new_rejects_bad_offdiag_length() {
        assert!(SymTridiag::new(vec![1.0, 2.0], vec![]).is_err());
    }

    #[test]
    fn sturm_count_is_monotone_and_correct() {
        let t = SymTridiag::new(vec![2.0, 2.0], vec![1.0]).unwrap();
        // Eigenvalues 1 and 3.
        assert_eq!(t.count_less_than(0.0), 0);
        assert_eq!(t.count_less_than(2.0), 1);
        assert_eq!(t.count_less_than(4.0), 2);
    }

    #[test]
    fn sturm_bisection_matches_ql() {
        let n = 10;
        let diag: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 1.0).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| ((i * 3 % 4) as f64) * 0.5 + 0.1).collect();
        let t = SymTridiag::new(diag, off).unwrap();
        let (ql_vals, _) = tridiag_eigen(&t).unwrap();
        let bis_vals = sturm_eigenvalues(&t, 1e-12);
        for (a, b) in ql_vals.iter().zip(bis_vals.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn last_row_variant_matches_full_decomposition() {
        let n = 40;
        let diag: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 2.0).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| ((i * 5 % 9) as f64) * 0.3 + 0.05).collect();
        let t = SymTridiag::new(diag, off).unwrap();
        let (vals, vecs) = tridiag_eigen(&t).unwrap();
        let (lvals, lrow) = tridiag_eigen_last_row(&t).unwrap();
        // Same rotation sequence, so eigenvalues and the last
        // eigenvector row agree bitwise.
        assert_eq!(vals, lvals);
        for j in 0..n {
            assert_eq!(vecs.get(n - 1, j), lrow[j], "row entry {j}");
        }
    }

    #[test]
    fn rejects_nan_input() {
        let t = SymTridiag::new(vec![f64::NAN, 0.0], vec![0.0]).unwrap();
        assert!(tridiag_eigen(&t).is_err());
    }
}
