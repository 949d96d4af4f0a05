//! BLAS-2/3 style dense matrix kernels.
//!
//! The SVD-updating phases of the paper (§4.2) are dominated by dense
//! products of the form `U_k * U_F` with tall-skinny operands. All
//! three product shapes (`A B`, `A^T B`, `A B^T`) route through the
//! cache-blocked, register-tiled kernel in [`crate::gemm`], which packs
//! operand panels so transposition never produces a strided inner loop
//! and splits output columns across cores for large products.

use rayon::prelude::*;

use crate::gemm::{self, View};
use crate::matrix::DenseMatrix;
use crate::vecops;
use crate::{Error, Result};

/// Element count (m·n) below which dense GEMV stays serial. GEMV is
/// memory-bound — the sweep reads 8·m·n bytes once — so the threshold
/// is in elements, not flops. Measured directly (`cargo test -p
/// lsi-linalg --release --test par_kernels -- --ignored --nocapture`,
/// once pooled and once under `LSI_NUM_THREADS=1`): the pooled split
/// ties serial at 1<<18 elements (70 µs vs 68 µs — the dispatch eats
/// the win) and pulls ahead from 1<<19 (118 µs vs 146 µs warm, 1.8x by
/// 1<<20). 1<<19 ≈ 4 MiB also leaves ~30 µs of margin for the
/// worker-wakeup cost seen when GEMV interleaves with serial phases.
pub const MATVEC_PAR_MIN_ELEMS: usize = 1 << 19;

/// One row span of the GEMV: `y[i] += sum_j x[j] * A[r0 + i, j]` for
/// the rows `r0 .. r0 + y.len()`, sweeping columns in 4-wide blocks and
/// skipping all-zero coefficient blocks (sparse query vectors). The
/// serial path is this with `r0 = 0` and the full `y`; the parallel
/// path hands out disjoint row spans, and because every span runs the
/// identical j-loop, each `y[i]` sees the same operation order either
/// way — results are bit-for-bit independent of the thread count.
fn matvec_span(data: &[f64], m: usize, x: &[f64], r0: usize, y: &mut [f64]) {
    let rows = y.len();
    let mut j = 0;
    while j < x.len() {
        let block = (x.len() - j).min(4);
        if x[j..j + block].iter().all(|&v| v == 0.0) {
            j += block;
            continue;
        }
        if block == 4 {
            let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
            let c0 = &data[j * m + r0..j * m + r0 + rows];
            let c1 = &data[(j + 1) * m + r0..(j + 1) * m + r0 + rows];
            let c2 = &data[(j + 2) * m + r0..(j + 2) * m + r0 + rows];
            let c3 = &data[(j + 3) * m + r0..(j + 3) * m + r0 + rows];
            for i in 0..rows {
                y[i] += x0 * c0[i] + x1 * c1[i] + x2 * c2[i] + x3 * c3[i];
            }
        } else {
            for jj in j..j + block {
                if x[jj] != 0.0 {
                    let c = &data[jj * m + r0..jj * m + r0 + rows];
                    vecops::axpy(x[jj], c, y);
                }
            }
        }
        j += block;
    }
}

/// `y = A * x` (dense GEMV). Columns with a zero coefficient are
/// skipped, which matters for sparse query vectors; dense stretches of
/// four columns are fused into one sweep of `y`. Above
/// [`MATVEC_PAR_MIN_ELEMS`] the rows are split across the pool — this
/// is the single-query scoring hot path (the scoring executor's f64
/// sweep does one `V * q̂` per query).
pub fn matvec(a: &DenseMatrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.ncols() != x.len() {
        return Err(Error::DimensionMismatch {
            context: format!("matvec: {}x{} with vector {}", a.nrows(), a.ncols(), x.len()),
        });
    }
    let m = a.nrows();
    let mut y = vec![0.0; m];
    let data = a.data();
    let nthreads = rayon::current_num_threads();
    if m * x.len() >= MATVEC_PAR_MIN_ELEMS && nthreads > 1 && m > 1 {
        let span = m.div_ceil(nthreads * 2).max(1);
        y.par_chunks_mut(span).enumerate().for_each(|(ci, yspan)| {
            matvec_span(data, m, x, ci * span, yspan);
        });
    } else {
        matvec_span(data, m, x, 0, &mut y);
    }
    Ok(y)
}

/// [`matvec`] restricted to a set of rows, columns outermost: every
/// 4-wide column block is loaded once and applied to all requested
/// rows before moving right. With the rows sorted ascending the inner
/// loop walks each column's candidate band in address order, which
/// turns the re-rank's scattered stride-`nrows` reads into
/// prefetch-friendly sweeps — the per-row arithmetic (block order,
/// zero-block skip, fused sum) is exactly [`matvec_span`]'s, so each
/// output is bit-identical to the full GEMV's `y[rows[i]]`. This is the
/// exact-re-rank kernel of compressed scoring and the survivor kernel
/// of cluster-pruned scoring.
pub fn matvec_rows(a: &DenseMatrix, x: &[f64], rows: &[usize]) -> Result<Vec<f64>> {
    let m = a.nrows();
    if a.ncols() != x.len() || rows.iter().any(|&r| r >= m) {
        return Err(Error::DimensionMismatch {
            context: format!(
                "matvec_rows: {} rows of {}x{} with vector {}",
                rows.len(),
                m,
                a.ncols(),
                x.len()
            ),
        });
    }
    let data = a.data();
    let mut y = vec![0.0f64; rows.len()];
    let mut j = 0;
    while j < x.len() {
        let block = (x.len() - j).min(4);
        // lsi-analyze: allow(float-safety) — exact zero-block skip keeps outputs bit-identical to matvec_span; NaN blocks are not skipped.
        if x[j..j + block].iter().all(|&v| v == 0.0) {
            j += block;
            continue;
        }
        if block == 4 {
            let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
            let c0 = &data[j * m..(j + 1) * m];
            let c1 = &data[(j + 1) * m..(j + 2) * m];
            let c2 = &data[(j + 2) * m..(j + 3) * m];
            let c3 = &data[(j + 3) * m..(j + 4) * m];
            for (yi, &r) in y.iter_mut().zip(rows.iter()) {
                *yi += x0 * c0[r] + x1 * c1[r] + x2 * c2[r] + x3 * c3[r];
            }
        } else {
            for jj in j..j + block {
                // lsi-analyze: allow(float-safety) — exact zero skip, bit-identical to matvec_span; NaN is not skipped.
                if x[jj] != 0.0 {
                    let c = &data[jj * m..jj * m + m];
                    for (yi, &r) in y.iter_mut().zip(rows.iter()) {
                        *yi += x[jj] * c[r];
                    }
                }
            }
        }
        j += block;
    }
    Ok(y)
}

/// `y = A^T * x`. Each output is an independent column dot product, so
/// above [`MATVEC_PAR_MIN_ELEMS`] the columns are split across the pool
/// (query projection `qᵀ U_k` is this shape: vocabulary-length columns,
/// k of them). One dot per output either way — bit-for-bit identical
/// across thread counts.
pub fn matvec_t(a: &DenseMatrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.nrows() != x.len() {
        return Err(Error::DimensionMismatch {
            context: format!("matvec_t: {}x{} with vector {}", a.nrows(), a.ncols(), x.len()),
        });
    }
    if a.nrows() * a.ncols() >= MATVEC_PAR_MIN_ELEMS && rayon::current_num_threads() > 1 {
        return Ok((0..a.ncols())
            .into_par_iter()
            .map(|j| vecops::dot(a.col(j), x))
            .collect());
    }
    Ok((0..a.ncols()).map(|j| vecops::dot(a.col(j), x)).collect())
}

/// Dense `C = A * B` via the cache-blocked kernel, parallelized over
/// blocks of output columns when the product is large enough to
/// amortize task spawning.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.ncols() != b.nrows() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "matmul: {}x{} with {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let (m, n, k) = (a.nrows(), b.ncols(), a.ncols());
    let c = gemm::gemm(m, n, k, View::normal(a), View::normal(b));
    DenseMatrix::from_col_major(m, n, c)
}

/// `C = A^T * B` without materializing the transpose: the packing step
/// of the blocked kernel absorbs the transposition.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.nrows() != b.nrows() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "matmul_tn: {}x{} (transposed) with {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let (m, n, k) = (a.ncols(), b.ncols(), a.nrows());
    let c = gemm::gemm(m, n, k, View::transposed(a), View::normal(b));
    DenseMatrix::from_col_major(m, n, c)
}

/// `C = A * B^T` without materializing the transpose: the packing step
/// of the blocked kernel absorbs the transposition.
pub fn matmul_nt(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.ncols() != b.ncols() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "matmul_nt: {}x{} with {}x{} (transposed)",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let (m, n, k) = (a.nrows(), b.nrows(), a.ncols());
    let c = gemm::gemm(m, n, k, View::normal(a), View::transposed(b));
    DenseMatrix::from_col_major(m, n, c)
}

/// Scale column `j` of `a` by `s[j]` (i.e. `A * diag(s)`), in place.
pub fn scale_cols(a: &mut DenseMatrix, s: &[f64]) -> Result<()> {
    if a.ncols() != s.len() {
        return Err(Error::DimensionMismatch {
            context: format!("scale_cols: {} columns with {} scales", a.ncols(), s.len()),
        });
    }
    for (j, &sj) in s.iter().enumerate() {
        vecops::scal(sj, a.col_mut(j));
    }
    Ok(())
}

/// Scale row `i` of `a` by `s[i]` (i.e. `diag(s) * A`), in place.
pub fn scale_rows(a: &mut DenseMatrix, s: &[f64]) -> Result<()> {
    if a.nrows() != s.len() {
        return Err(Error::DimensionMismatch {
            context: format!("scale_rows: {} rows with {} scales", a.nrows(), s.len()),
        });
    }
    let m = a.nrows();
    for j in 0..a.ncols() {
        let col = a.col_mut(j);
        for i in 0..m {
            col[i] *= s[i];
        }
    }
    Ok(())
}

/// Reconstruct `U * diag(s) * V^T` — the rank-k approximation `A_k` of the
/// paper's Eq. (2).
pub fn reconstruct(u: &DenseMatrix, s: &[f64], v: &DenseMatrix) -> Result<DenseMatrix> {
    if u.ncols() != s.len() || v.ncols() != s.len() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "reconstruct: U has {} cols, V has {} cols, {} singular values",
                u.ncols(),
                v.ncols(),
                s.len()
            ),
        });
    }
    let mut us = u.clone();
    scale_cols(&mut us, s)?;
    matmul_nt(&us, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DenseMatrix, DenseMatrix) {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![7.0, 8.0, 9.0], vec![10.0, 11.0, 12.0]]).unwrap();
        (a, b)
    }

    #[test]
    fn matvec_known() {
        let (a, _) = sample();
        let y = matvec(&a, &[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn matvec_rows_is_bit_identical_to_full_gemv() {
        // Mix of dense and zero coefficients so every branch of the
        // span kernel (fused block, skipped block, tail) is replayed.
        let mut a = DenseMatrix::zeros(9, 11);
        for i in 0..9 {
            for j in 0..11 {
                a.set(i, j, ((i * 13 + j * 5) as f64).sin() * 2.0);
            }
        }
        let mut x: Vec<f64> = (0..11).map(|j| (j as f64 * 1.3).cos()).collect();
        x[0] = 0.0;
        x[1] = 0.0;
        x[2] = 0.0;
        x[3] = 0.0;
        x[9] = 0.0;
        let y = matvec(&a, &x).unwrap();
        // Unsorted, duplicated rows: the batch kernel must not depend
        // on candidate order or uniqueness for its per-row bits.
        let rows = [7usize, 0, 3, 3, 8, 1];
        let batch = matvec_rows(&a, &x, &rows).unwrap();
        for (out, &r) in batch.iter().zip(rows.iter()) {
            assert_eq!(out.to_bits(), y[r].to_bits());
        }
        assert!(matvec_rows(&a, &x, &[9]).is_err());
        assert!(matvec_rows(&a, &x[..4], &[0]).is_err());
        assert_eq!(matvec_rows(&a, &x, &[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn matvec_t_known() {
        let (a, _) = sample();
        let y = matvec_t(&a, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![9.0, 12.0]);
        assert!(matvec_t(&a, &[1.0]).is_err());
    }

    #[test]
    fn matmul_known() {
        let (a, b) = sample();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 3));
        // Row 0: [1*7+2*10, 1*8+2*11, 1*9+2*12] = [27, 30, 33]
        assert_eq!(c.row(0), vec![27.0, 30.0, 33.0]);
        assert_eq!(c.row(2), vec![95.0, 106.0, 117.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let (a, _) = sample();
        assert!(matmul(&a, &a).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let (a, b) = sample();
        let c1 = matmul_tn(&a, &a).unwrap();
        let c2 = matmul(&a.transpose(), &a).unwrap();
        assert!(c1.fro_distance(&c2).unwrap() < 1e-12);
        assert!(matmul_tn(&a, &b).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let (a, _) = sample();
        let c1 = matmul_nt(&a, &a).unwrap();
        let c2 = matmul(&a, &a.transpose()).unwrap();
        assert!(c1.fro_distance(&c2).unwrap() < 1e-12);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let (a, _) = sample();
        let i = DenseMatrix::identity(2);
        let c = matmul(&a, &i).unwrap();
        assert!(c.fro_distance(&a).unwrap() < 1e-15);
    }

    #[test]
    fn scale_cols_and_rows() {
        let (mut a, _) = sample();
        scale_cols(&mut a, &[2.0, 0.5]).unwrap();
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), 1.0);
        scale_rows(&mut a, &[1.0, 0.0, 1.0]).unwrap();
        assert_eq!(a.row(1), vec![0.0, 0.0]);
    }

    #[test]
    fn reconstruct_rank_one() {
        // A = 2 * u v^T with unit u, v.
        let u = DenseMatrix::from_cols(&[vec![1.0, 0.0]]).unwrap();
        let v = DenseMatrix::from_cols(&[vec![0.0, 1.0]]).unwrap();
        let a = reconstruct(&u, &[2.0], &v).unwrap();
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn large_matmul_parallel_path_agrees_with_serial_semantics() {
        // Exercise the rayon path (work >= threshold) against hand-computed
        // structure: multiplying by a permutation-like matrix.
        let n = 40;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a.set(i, (i + 1) % n, 1.0);
        }
        let b = DenseMatrix::identity(n);
        let c = matmul(&a, &b).unwrap();
        assert!(c.fro_distance(&a).unwrap() < 1e-15);
        let c2 = matmul(&a, &a).unwrap();
        // Permutation squared shifts by two.
        for i in 0..n {
            assert_eq!(c2.get(i, (i + 2) % n), 1.0);
        }
    }
}
