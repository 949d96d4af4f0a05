//! Gram–Schmidt orthonormalization.
//!
//! Modified Gram–Schmidt ([`mgs_orthonormalize`]) orthonormalizes the
//! dense bases produced by SVD-updating and the randomized SVD's range
//! sketches; two-pass classical Gram–Schmidt ("twice is enough"), built
//! on blocked panel kernels, is what the Lanczos driver uses to keep its
//! basis orthogonal.

use crate::gemm;
use crate::matrix::DenseMatrix;
use crate::vecops;

/// Modified Gram–Schmidt orthonormalization of the columns of `a`,
/// with a single reorthogonalization pass for numerical robustness.
///
/// Columns that are (numerically) linearly dependent on their
/// predecessors come out as zero columns; the returned vector flags
/// which columns were kept.
pub fn mgs_orthonormalize(a: &mut DenseMatrix) -> Vec<bool> {
    let n = a.ncols();
    let mut kept = vec![false; n];
    for j in 0..n {
        let norm_before = vecops::nrm2(a.col(j));
        for _pass in 0..2 {
            for i in 0..j {
                if !kept[i] {
                    continue;
                }
                let proj = vecops::dot(a.col(i), a.col(j));
                let qi = a.col(i).to_vec();
                vecops::axpy(-proj, &qi, a.col_mut(j));
            }
        }
        let norm_after = vecops::nrm2(a.col(j));
        // Column is dependent if orthogonalization wiped it out.
        if norm_after > 1e-12 * norm_before.max(1.0) && norm_after > 0.0 {
            vecops::scal(1.0 / norm_after, a.col_mut(j));
            kept[j] = true;
        } else {
            for v in a.col_mut(j) {
                *v = 0.0;
            }
        }
    }
    kept
}

/// DGKS reorthogonalization threshold: a classical Gram–Schmidt pass
/// that keeps at least this fraction of the input norm lost no
/// significant digits to cancellation, so one pass already leaves the
/// result orthogonal to working precision (Daniel–Gragg–Kaufman–
/// Stewart). Below it, a second pass is required.
const DGKS_ETA: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Orthogonalize vector `x` against the first `ncols` columns of `basis`
/// (assumed orthonormal). Returns the remaining norm of `x`.
///
/// This is the reorthogonalization step of the Lanczos iteration,
/// implemented as adaptive *classical* Gram–Schmidt (CGS2 with the DGKS
/// criterion): each pass computes all projection coefficients at once
/// (`y = Q^T x`) and then applies them in one panel update (`x -= Q y`).
/// If the first pass keeps at least `DGKS_ETA` of the norm — the common
/// case inside full-reorthogonalization Lanczos, where the three-term
/// recurrence already removed almost all of the projection — once is
/// enough and the second pass is skipped. Otherwise a second pass runs
/// ("twice is enough"). Either way the work is BLAS-2 panel kernels —
/// four fused columns per sweep of `x` — instead of `2·ncols` dependent
/// dot/axpy pairs.
///
/// The DGKS reading is only meaningful when the basis really is
/// orthonormal; callers whose basis may have degenerated (the Lanczos
/// restart and Ritz-vector recovery, which also run under the bare
/// three-term recurrence) must use [`orthogonalize_against_robust`]
/// instead.
pub fn orthogonalize_against(basis: &DenseMatrix, ncols: usize, x: &mut [f64]) -> f64 {
    debug_assert!(ncols <= basis.ncols());
    debug_assert_eq!(basis.nrows(), x.len());
    let norm_in = vecops::nrm2(x);
    cgs_pass(basis, ncols, x);
    let norm1 = vecops::nrm2(x);
    if norm1 >= DGKS_ETA * norm_in && norm1 <= norm_in * (1.0 + 1e-12) {
        return norm1;
    }
    cgs_pass(basis, ncols, x);
    vecops::nrm2(x)
}

/// Like [`orthogonalize_against`], but safe against a basis that may
/// have *lost* orthonormality (a Lanczos basis built by the bare
/// three-term recurrence, which admits ghost Ritz vectors). Always runs
/// both CGS
/// passes — a degenerate basis makes the single-pass DGKS reading
/// meaningless — and falls back to two MGS sweeps if the pair of
/// passes *grew* the norm, which an orthonormal basis can never do.
pub fn orthogonalize_against_robust(basis: &DenseMatrix, ncols: usize, x: &mut [f64]) -> f64 {
    debug_assert!(ncols <= basis.ncols());
    debug_assert_eq!(basis.nrows(), x.len());
    let norm_in = vecops::nrm2(x);
    cgs_pass(basis, ncols, x);
    cgs_pass(basis, ncols, x);
    let norm_out = vecops::nrm2(x);
    if norm_out <= norm_in * (1.0 + 1e-12) {
        return norm_out;
    }
    // Degenerate basis: redo the cleanup with modified Gram–Schmidt.
    // (The CGS passes above only added components inside the basis's
    // span, which the MGS sweep removes along with the originals.)
    for _pass in 0..2 {
        for j in 0..ncols {
            let proj = vecops::dot(basis.col(j), x);
            vecops::axpy(-proj, basis.col(j), x);
        }
    }
    vecops::nrm2(x)
}

/// One classical Gram–Schmidt pass on the panel kernels:
/// `x -= Q (Qᵀ x)`.
#[inline]
fn cgs_pass(basis: &DenseMatrix, ncols: usize, x: &mut [f64]) {
    let y = gemm::panel_qt_w(basis, ncols, x);
    gemm::panel_w_minus_qy(basis, ncols, &y, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul_tn;

    fn assert_orthonormal(q: &DenseMatrix, tol: f64) {
        let qtq = matmul_tn(q, q).unwrap();
        let eye = DenseMatrix::identity(q.ncols());
        assert!(
            qtq.fro_distance(&eye).unwrap() < tol,
            "Q^T Q deviates from identity by {}",
            qtq.fro_distance(&eye).unwrap()
        );
    }

    #[test]
    fn mgs_orthonormalizes_independent_columns() {
        let mut a =
            DenseMatrix::from_cols(&[vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]])
                .unwrap();
        let kept = mgs_orthonormalize(&mut a);
        assert_eq!(kept, vec![true, true, true]);
        assert_orthonormal(&a, 1e-12);
    }

    #[test]
    fn mgs_flags_dependent_columns() {
        let mut a = DenseMatrix::from_cols(&[
            vec![1.0, 0.0],
            vec![2.0, 0.0], // parallel to column 0
            vec![0.0, 3.0],
        ])
        .unwrap();
        let kept = mgs_orthonormalize(&mut a);
        assert_eq!(kept, vec![true, false, true]);
        assert!(vecops::nrm2(a.col(1)) == 0.0);
    }

    #[test]
    fn orthogonalize_against_removes_components() {
        let basis = DenseMatrix::from_cols(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]).unwrap();
        let mut x = vec![3.0, 4.0, 5.0];
        let rem = orthogonalize_against(&basis, 2, &mut x);
        assert!((rem - 5.0).abs() < 1e-12);
        assert!(x[0].abs() < 1e-12 && x[1].abs() < 1e-12);
        assert!((x[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn qr_handles_pathologically_close_columns() {
        // Classical Gram-Schmidt would lose orthogonality here; MGS with
        // its reorthogonalization pass keeps both columns.
        let e = 1e-10;
        let mut a = DenseMatrix::from_cols(&[
            vec![1.0, e, 0.0],
            vec![1.0, 0.0, e],
        ])
        .unwrap();
        let kept = mgs_orthonormalize(&mut a);
        assert_eq!(kept, vec![true, true]);
        assert_orthonormal(&a, 1e-10);
    }
}
