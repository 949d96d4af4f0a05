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

/// Rows per cache tile of the fused block sweep ([`matvec_block`]).
/// Each 4-column block of a tile (4 × 256 doubles = 8 KiB) is read
/// from memory once and applied to every right-hand side while it sits
/// in L1, next to each column's 2 KiB output tile. In the harness cited
/// at [`GEMM_MIN_COLS_THRESHOLD`], tiles of 128–512 rows tied within
/// noise and 2048 was slowest (2.5 ms against 2.0 ms at 20000×128,
/// width 8).
const BLOCK_TILE_ROWS: usize = 256;

/// Narrowest block of right-hand sides that the scoring sweep sends
/// through GEMM ([`matmul`]) instead of the fused block sweep
/// ([`matvec_block`]). GEMM packs all of `A` on every call (once per
/// pool worker, since it splits output columns), which a few columns
/// cannot amortize once `A` outgrows the cache. Measured with the
/// calibration harness `cargo test -p lsi-linalg --release --test
/// par_kernels -- --ignored --nocapture block_sweep` (pooled, 2-vCPU
/// AVX-512 host, best of 20–60, ranges over 2–5 runs):
///
/// | shape     | width | block sweep   | GEMM          |
/// |-----------|-------|---------------|---------------|
/// | 20000×128 | 2     | 0.69–0.75 ms  | 4.2–4.9 ms    |
/// | 20000×128 | 8     | 1.95–2.09 ms  | 4.2–7.3 ms    |
/// | 20000×128 | 32    | 5.9–7.6 ms    | 7.6–10.0 ms   |
/// | 20000×128 | 80    | 13.4–17.6 ms  | 13.0–16.1 ms  |
/// | 2000×64   | 8     | 121–169 µs    | 131–184 µs    |
/// | 2000×64   | 12    | 172–253 µs    | 148–205 µs    |
/// | 2000×64   | 16    | 228–333 µs    | 296–408 µs    |
/// | 2000×64   | 20    | 287–409 µs    | 232–264 µs    |
/// | 2000×64   | 80    | 1.14–1.64 ms  | 0.65–0.66 ms  |
///
/// On the cache-resident 2000×64 shape the two cross between 10 and 20
/// columns; at 20000×128 the block sweep leads until 48–64. 16 keeps
/// the usual serving batch (one to a few concurrent queries) on the
/// block sweep and wide facet blocks (an 80-facet multi-query) on GEMM.
pub const GEMM_MIN_COLS_THRESHOLD: usize = 16;

/// `y += x0·c0 + x1·c1 + x2·c2 + x3·c3` elementwise, summed left to
/// right: the per-row arithmetic of one dense 4-column block.
#[inline(always)]
fn fused4(y: &mut [f64], x: [f64; 4], c: [&[f64]; 4]) {
    let [x0, x1, x2, x3] = x;
    let rows = y.iter_mut().zip(c[0]).zip(c[1]).zip(c[2]).zip(c[3]);
    for ((((yi, &a0), &a1), &a2), &a3) in rows {
        *yi += x0 * a0 + x1 * a1 + x2 * a2 + x3 * a3;
    }
}

/// One row span of the block sweep: `ys[c][i] += sum_j xs[c][j] *
/// A[r0 + i, j]` for every column `c` and the rows `r0 .. r0 + len`.
/// The span is walked in [`BLOCK_TILE_ROWS`] tiles; inside a tile the
/// coefficient columns go in 4-wide blocks, each applied to every
/// right-hand side before moving right, skipping a column's all-zero
/// blocks (sparse query vectors). Every output row therefore sees the
/// same block order, skips and fused sums whatever the tile, span or
/// column count — so each column is bit-identical to a one-column
/// call, and results do not depend on the thread count.
#[inline(always)]
fn block_span_body(data: &[f64], m: usize, xs: &[&[f64]], r0: usize, ys: &mut [&mut [f64]]) {
    let (Some(len), Some(k)) = (ys.first().map(|y| y.len()), xs.first().map(|x| x.len())) else {
        return;
    };
    for t0 in (0..len).step_by(BLOCK_TILE_ROWS) {
        let t1 = (t0 + BLOCK_TILE_ROWS).min(len);
        let col = |j: usize| &data[j * m + r0 + t0..j * m + r0 + t1];
        let mut j = 0;
        while j + 4 <= k {
            let c = [col(j), col(j + 1), col(j + 2), col(j + 3)];
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                let xb = [x[j], x[j + 1], x[j + 2], x[j + 3]];
                // lsi-analyze: allow(float-safety) — exact zero-block skip (a skipped block adds ±0.0); NaN blocks are not skipped.
                if xb.iter().all(|&v| v == 0.0) {
                    continue;
                }
                fused4(&mut y[t0..t1], xb, c);
            }
            j += 4;
        }
        for jj in j..k {
            let c = col(jj);
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                // lsi-analyze: allow(float-safety) — exact zero skip in the column tail; NaN is not skipped.
                if x[jj] != 0.0 {
                    vecops::axpy(x[jj], c, &mut y[t0..t1]);
                }
            }
        }
    }
}

/// [`block_span_body`] compiled with AVX2 enabled, so the fused row
/// loop runs 4 doubles wide instead of the baseline target's 2. FMA
/// stays disabled: without it every multiply and add rounds
/// separately, exactly as in the portable build, so the bits do not
/// depend on which one runs. In the [`GEMM_MIN_COLS_THRESHOLD`]
/// harness the portable build took 0.97–1.00 ms at 20000×128 width 2
/// (this one 0.69–0.75 ms) and 210–230 µs at 2000×64 width 8 (this one
/// 121–169 µs).
///
/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must ensure the CPU supports `avx2`; `block_span`
// checks via `is_x86_feature_detected!` before calling.
unsafe fn block_span_avx2(data: &[f64], m: usize, xs: &[&[f64]], r0: usize, ys: &mut [&mut [f64]]) {
    block_span_body(data, m, xs, r0, ys)
}

/// Dispatch one row span of the block sweep to the widest build the
/// host supports.
fn block_span(data: &[f64], m: usize, xs: &[&[f64]], r0: usize, ys: &mut [&mut [f64]]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the runtime probe above confirmed avx2 is
            // available on this CPU.
            return unsafe { block_span_avx2(data, m, xs, r0, ys) };
        }
    }
    block_span_body(data, m, xs, r0, ys)
}

/// `Y = A [x_0 … x_{b−1}]` for a block of `b` right-hand sides, as
/// column-major `m × b` storage (column `c` is `A x_c`). `A` is read
/// once, tile by tile, for all of them — the fused block sweep behind
/// narrow query batches, where GEMM would pack all of `A` to fill a
/// few columns (see [`GEMM_MIN_COLS_THRESHOLD`]). Zero coefficient
/// blocks are skipped per column. Above [`MATVEC_PAR_MIN_ELEMS`]
/// elements of `A` the rows are split across the pool. Each column is
/// bit-identical to [`matvec`] of that column, at any thread count.
pub fn matvec_block(a: &DenseMatrix, xs: &[&[f64]]) -> Result<Vec<f64>> {
    check_block(a, xs)?;
    let mut y = vec![0.0; a.nrows() * xs.len()];
    block_sweep(a, xs, &mut y);
    Ok(y)
}

/// [`matvec_block`] into `y`, resized to the `m × b` result and
/// overwritten, so that a caller sweeping block after block reuses one
/// buffer instead of allocating each result.
pub fn matvec_block_into(a: &DenseMatrix, xs: &[&[f64]], y: &mut Vec<f64>) -> Result<()> {
    check_block(a, xs)?;
    y.clear();
    y.resize(a.nrows() * xs.len(), 0.0);
    block_sweep(a, xs, y);
    Ok(())
}

fn check_block(a: &DenseMatrix, xs: &[&[f64]]) -> Result<()> {
    let (m, k) = (a.nrows(), a.ncols());
    match xs.iter().find(|x| x.len() != k) {
        Some(x) => Err(Error::DimensionMismatch {
            context: format!("matvec_block: {m}x{k} with vector {}", x.len()),
        }),
        None => Ok(()),
    }
}

/// The body of [`matvec_block`], accumulating into the zeroed `y`.
fn block_sweep(a: &DenseMatrix, xs: &[&[f64]], y: &mut [f64]) {
    let (m, k) = (a.nrows(), a.ncols());
    if m == 0 || xs.is_empty() {
        return;
    }
    let data = a.data();
    let nthreads = rayon::current_num_threads();
    let span = if m * k >= MATVEC_PAR_MIN_ELEMS && nthreads > 1 && m > 1 {
        m.div_ceil(nthreads * 2)
    } else {
        m
    };
    // spans[s][c]: row span `s` of output column `c`.
    let mut spans: Vec<Vec<&mut [f64]>> =
        (0..m.div_ceil(span)).map(|_| Vec::with_capacity(xs.len())).collect();
    for col in y.chunks_mut(m) {
        for (s, part) in spans.iter_mut().zip(col.chunks_mut(span)) {
            s.push(part);
        }
    }
    if let [ys] = spans.as_mut_slice() {
        block_span(data, m, xs, 0, ys);
    } else {
        spans
            .par_iter_mut()
            .enumerate()
            .for_each(|(s, ys)| block_span(data, m, xs, s * span, ys));
    }
}

/// `y = A * x` (dense GEMV): the one-column case of [`matvec_block`].
/// Columns with a zero coefficient are skipped, which matters for
/// sparse query vectors; dense stretches of four columns are fused into
/// one sweep of `y`. Above [`MATVEC_PAR_MIN_ELEMS`] the rows are split
/// across the pool — this is the single-query scoring hot path (the
/// scoring executor's f64 sweep does one `V * q̂` per query).
pub fn matvec(a: &DenseMatrix, x: &[f64]) -> Result<Vec<f64>> {
    matvec_block(a, &[x])
}

/// [`matvec`] restricted to a set of rows, columns outermost: every
/// 4-wide column block is loaded once and applied to all requested
/// rows before moving right. With the rows sorted ascending the inner
/// loop walks each column's candidate band in address order, which
/// turns the re-rank's scattered stride-`nrows` reads into
/// prefetch-friendly sweeps — the per-row arithmetic (block order,
/// zero-block skip, fused sum) is exactly [`matvec_block`]'s, so each
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
        // lsi-analyze: allow(float-safety) — exact zero-block skip keeps outputs bit-identical to matvec_block; NaN blocks are not skipped.
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
                // lsi-analyze: allow(float-safety) — exact zero skip, bit-identical to matvec_block; NaN is not skipped.
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

/// `y = A^T * x` for a sparse `x` given as `(row, value)` pairs in
/// strictly ascending row order: a gather of only those rows of `A`,
/// `2·ncols` flops per pair. Query projection `qᵀ U_k` is this shape —
/// a handful of query terms against a vocabulary of thousands.
///
/// Each output replays [`vecops::dot`]'s accumulation (four lanes by
/// row index mod 4, then the rows past the last full group of four as
/// the tail, summed `lane0 + lane1 + lane2 + lane3 + tail`) over just
/// the given rows. Every row it leaves out would have added `±0.0` to
/// a partial sum that starts at `+0.0`, which cannot change its bits,
/// so the result is bit-identical to [`matvec_t`] of the dense
/// expansion of `x` whenever `A` is finite.
///
/// An out-of-range row is a `DimensionMismatch`; unsorted or repeated
/// rows are an `InvalidArgument`.
pub fn matvec_t_sparse(a: &DenseMatrix, x: &[(usize, f64)]) -> Result<Vec<f64>> {
    let (m, k) = (a.nrows(), a.ncols());
    if let Some(&(i, _)) = x.iter().find(|&&(i, _)| i >= m) {
        return Err(Error::DimensionMismatch {
            context: format!("matvec_t_sparse: row {i} of a {m}x{k} matrix"),
        });
    }
    if x.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(Error::InvalidArgument {
            context: "matvec_t_sparse: rows must be strictly ascending".to_string(),
        });
    }
    let data = a.data();
    let head = 4 * (m / 4);
    // acc[j]: the four dot lanes of output j, then its tail.
    let mut acc = vec![[0.0f64; 5]; k];
    for &(i, v) in x {
        let lane = if i < head { i % 4 } else { 4 };
        for (j, out) in acc.iter_mut().enumerate() {
            out[lane] += data[j * m + i] * v;
        }
    }
    Ok(acc.iter().map(|l| l[0] + l[1] + l[2] + l[3] + l[4]).collect())
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

/// [`matmul`] into `c`, resized to the `a.nrows() x b.ncols()`
/// column-major result and overwritten, so that a caller multiplying
/// block after block reuses one buffer.
pub fn matmul_into(a: &DenseMatrix, b: &DenseMatrix, c: &mut Vec<f64>) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "matmul_into: {}x{} with {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let (m, n, k) = (a.nrows(), b.ncols(), a.ncols());
    c.clear();
    c.resize(m * n, 0.0);
    gemm::gemm_into(c, m, n, k, View::normal(a), View::normal(b));
    Ok(())
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

/// [`matmul_nt`] into `c`, resized to the `a.nrows() x b.nrows()`
/// column-major result and overwritten, as [`matmul_into`].
pub fn matmul_nt_into(a: &DenseMatrix, b: &DenseMatrix, c: &mut Vec<f64>) -> Result<()> {
    if a.ncols() != b.ncols() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "matmul_nt_into: {}x{} with {}x{} (transposed)",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let (m, n, k) = (a.nrows(), b.nrows(), a.ncols());
    c.clear();
    c.resize(m * n, 0.0);
    gemm::gemm_into(c, m, n, k, View::normal(a), View::transposed(b));
    Ok(())
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
