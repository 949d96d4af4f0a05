//! Reduced-precision scoring kernels (f32 and scaled-i8 GEMV).
//!
//! Query scoring at collection scale is memory-bandwidth-bound: the
//! sweep streams the whole document matrix once per query batch and
//! does two flops per loaded element. Halving (f32) or eighthing (i8)
//! the bytes per element converts directly into throughput, and the
//! candidate set the sweep produces is re-ranked exactly in f64 by the
//! caller, so the reduced precision never reaches a returned score.
//!
//! The kernels mirror the structure of [`crate::ops::matvec`]: column
//! blocks of four fused into one unit-stride pass over the output span,
//! written so the inner loop autovectorizes (plain indexed f32
//! arithmetic with no cross-iteration dependence), and parallelized
//! over disjoint row spans on the existing pool. Every span runs the
//! identical column loop, so results are bit-for-bit independent of the
//! thread count — the same determinism contract as the f64 kernels.

use rayon::prelude::*;

use crate::{Error, Result};

/// Element count (m·n) below which the f32 GEMV stays serial. Measured
/// on the calibration harness (`cargo test -p lsi-linalg --release
/// --test lowp_kernels -- --ignored --nocapture`, once pooled and once
/// under `LSI_NUM_THREADS=1`): the pooled split ties the serial sweep
/// inside the L2-resident sizes (10.5 vs 10.8 µs at 1<<17, 23.5 vs
/// 24.1 µs at 1<<18 — dispatch eats the win) and pulls clearly ahead
/// once the operand exceeds cache: 55 vs 78 µs at 1<<19 and 165 vs
/// 214 µs at 1<<20 against the serial pass. 1<<19 elements ≈ 2 MiB of
/// f32 — the same resident-byte crossover as the f64 kernel's
/// [`crate::ops::MATVEC_PAR_MIN_ELEMS`] at half the element count.
pub const MATVEC_F32_PAR_MIN_ELEMS: usize = 1 << 19;

/// One row span of the f32 GEMV: `y[i] += sum_j x[j] * A[r0 + i, j]`
/// for rows `r0 .. r0 + y.len()` of the column-major `data` (leading
/// dimension `m`). Columns are swept in fixed blocks of four fused
/// into one unit-stride pass over the span; the inner loop is
/// straight-line f32 arithmetic that LLVM autovectorizes 8-wide.
fn matvec_span_f32(data: &[f32], m: usize, x: &[f32], r0: usize, y: &mut [f32]) {
    let rows = y.len();
    let mut j = 0;
    while j + 4 <= x.len() {
        let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
        let c0 = &data[j * m + r0..j * m + r0 + rows];
        let c1 = &data[(j + 1) * m + r0..(j + 1) * m + r0 + rows];
        let c2 = &data[(j + 2) * m + r0..(j + 2) * m + r0 + rows];
        let c3 = &data[(j + 3) * m + r0..(j + 3) * m + r0 + rows];
        for i in 0..rows {
            y[i] += x0 * c0[i] + x1 * c1[i] + x2 * c2[i] + x3 * c3[i];
        }
        j += 4;
    }
    for jj in j..x.len() {
        let xj = x[jj];
        let c = &data[jj * m + r0..jj * m + r0 + rows];
        for i in 0..rows {
            y[i] += xj * c[i];
        }
    }
}

/// One row span of the scaled-i8 GEMV. Identical structure to
/// [`matvec_span_f32`]; each stored byte is widened to f32 in the
/// register, so the sweep still streams one byte per element from
/// memory. Per-row scale factors are applied by the caller.
fn matvec_span_i8(data: &[i8], m: usize, x: &[f32], r0: usize, y: &mut [f32]) {
    let rows = y.len();
    let mut j = 0;
    while j + 4 <= x.len() {
        let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
        let c0 = &data[j * m + r0..j * m + r0 + rows];
        let c1 = &data[(j + 1) * m + r0..(j + 1) * m + r0 + rows];
        let c2 = &data[(j + 2) * m + r0..(j + 2) * m + r0 + rows];
        let c3 = &data[(j + 3) * m + r0..(j + 3) * m + r0 + rows];
        for i in 0..rows {
            y[i] += x0 * c0[i] as f32
                + x1 * c1[i] as f32
                + x2 * c2[i] as f32
                + x3 * c3[i] as f32;
        }
        j += 4;
    }
    for jj in j..x.len() {
        let xj = x[jj];
        let c = &data[jj * m + r0..jj * m + r0 + rows];
        for i in 0..rows {
            y[i] += xj * c[i] as f32;
        }
    }
}

fn check_gemv_dims(kind: &str, len: usize, nrows: usize, ncols: usize, x: usize) -> Result<()> {
    if len != nrows * ncols {
        return Err(Error::DimensionMismatch {
            context: format!("{kind}: buffer of {len} entries for a {nrows}x{ncols} matrix"),
        });
    }
    if ncols != x {
        return Err(Error::DimensionMismatch {
            context: format!("{kind}: {nrows}x{ncols} with vector {x}"),
        });
    }
    Ok(())
}

/// `y = A * x` over a column-major f32 buffer (`nrows` leading
/// dimension). Above [`MATVEC_F32_PAR_MIN_ELEMS`] the rows split across
/// the pool in disjoint spans; bit-for-bit identical at any thread
/// count.
pub fn matvec_f32(data: &[f32], nrows: usize, ncols: usize, x: &[f32]) -> Result<Vec<f32>> {
    check_gemv_dims("matvec_f32", data.len(), nrows, ncols, x.len())?;
    let mut y = vec![0.0f32; nrows];
    let nthreads = rayon::current_num_threads();
    if nrows * ncols >= MATVEC_F32_PAR_MIN_ELEMS && nthreads > 1 && nrows > 1 {
        let span = nrows.div_ceil(nthreads * 2).max(1);
        y.par_chunks_mut(span).enumerate().for_each(|(ci, yspan)| {
            matvec_span_f32(data, nrows, x, ci * span, yspan);
        });
    } else {
        matvec_span_f32(data, nrows, x, 0, &mut y);
    }
    Ok(y)
}

/// `y = A * x` over a column-major scaled-i8 buffer. Same span split
/// and determinism contract as [`matvec_f32`].
pub fn matvec_i8(data: &[i8], nrows: usize, ncols: usize, x: &[f32]) -> Result<Vec<f32>> {
    check_gemv_dims("matvec_i8", data.len(), nrows, ncols, x.len())?;
    let mut y = vec![0.0f32; nrows];
    let nthreads = rayon::current_num_threads();
    if nrows * ncols >= MATVEC_F32_PAR_MIN_ELEMS && nthreads > 1 && nrows > 1 {
        let span = nrows.div_ceil(nthreads * 2).max(1);
        y.par_chunks_mut(span).enumerate().for_each(|(ci, yspan)| {
            matvec_span_i8(data, nrows, x, ci * span, yspan);
        });
    } else {
        matvec_span_i8(data, nrows, x, 0, &mut y);
    }
    Ok(y)
}

fn check_rows_in_range(kind: &str, nrows: usize, rows: &[u32]) -> Result<()> {
    if rows.iter().any(|&r| r as usize >= nrows) {
        return Err(Error::DimensionMismatch {
            context: format!("{kind}: row index out of range for {nrows} rows"),
        });
    }
    Ok(())
}

/// [`matvec_f32`] restricted to a subset of rows, columns outermost:
/// each 4-wide column block is loaded once and applied to every
/// requested row before moving right, so with ascending `rows` the
/// inner loop walks each column's survivor band in address order —
/// the cluster-pruned sweep's scattered reads become prefetch-friendly
/// bands. The per-row block order and fused sum replicate
/// [`matvec_f32`]'s span kernel exactly, so `y[i]` is bit-identical to
/// the full sweep's `y[rows[i]]`. Serial by design: the pruned path
/// shards survivors across the pool at a coarser granularity.
pub fn matvec_f32_rows(
    data: &[f32],
    nrows: usize,
    ncols: usize,
    x: &[f32],
    rows: &[u32],
) -> Result<Vec<f32>> {
    check_gemv_dims("matvec_f32_rows", data.len(), nrows, ncols, x.len())?;
    check_rows_in_range("matvec_f32_rows", nrows, rows)?;
    let m = nrows;
    let mut y = vec![0.0f32; rows.len()];
    let mut j = 0;
    while j + 4 <= x.len() {
        let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
        let c0 = &data[j * m..(j + 1) * m];
        let c1 = &data[(j + 1) * m..(j + 2) * m];
        let c2 = &data[(j + 2) * m..(j + 3) * m];
        let c3 = &data[(j + 3) * m..(j + 4) * m];
        for (yi, &r) in y.iter_mut().zip(rows.iter()) {
            let r = r as usize;
            *yi += x0 * c0[r] + x1 * c1[r] + x2 * c2[r] + x3 * c3[r];
        }
        j += 4;
    }
    for jj in j..x.len() {
        let xj = x[jj];
        let c = &data[jj * m..jj * m + m];
        for (yi, &r) in y.iter_mut().zip(rows.iter()) {
            *yi += xj * c[r as usize];
        }
    }
    Ok(y)
}

/// [`matvec_i8`] restricted to a subset of rows; same structure and
/// bit-identity contract as [`matvec_f32_rows`] (each stored byte is
/// widened in the register, caller applies per-row scale factors).
pub fn matvec_i8_rows(
    data: &[i8],
    nrows: usize,
    ncols: usize,
    x: &[f32],
    rows: &[u32],
) -> Result<Vec<f32>> {
    check_gemv_dims("matvec_i8_rows", data.len(), nrows, ncols, x.len())?;
    check_rows_in_range("matvec_i8_rows", nrows, rows)?;
    let m = nrows;
    let mut y = vec![0.0f32; rows.len()];
    let mut j = 0;
    while j + 4 <= x.len() {
        let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
        let c0 = &data[j * m..(j + 1) * m];
        let c1 = &data[(j + 1) * m..(j + 2) * m];
        let c2 = &data[(j + 2) * m..(j + 3) * m];
        let c3 = &data[(j + 3) * m..(j + 4) * m];
        for (yi, &r) in y.iter_mut().zip(rows.iter()) {
            let r = r as usize;
            *yi += x0 * c0[r] as f32
                + x1 * c1[r] as f32
                + x2 * c2[r] as f32
                + x3 * c3[r] as f32;
        }
        j += 4;
    }
    for jj in j..x.len() {
        let xj = x[jj];
        let c = &data[jj * m..jj * m + m];
        for (yi, &r) in y.iter_mut().zip(rows.iter()) {
            *yi += xj * c[r as usize] as f32;
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_gemv(data: &[f32], m: usize, n: usize, x: &[f32]) -> Vec<f64> {
        let mut y = vec![0.0f64; m];
        for j in 0..n {
            for i in 0..m {
                y[i] += data[j * m + i] as f64 * x[j] as f64;
            }
        }
        y
    }

    fn sample(m: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let data: Vec<f32> = (0..m * n)
            .map(|i| ((i * 2654435761 % 1000) as f32) / 500.0 - 1.0)
            .collect();
        let x: Vec<f32> = (0..n).map(|j| ((j * 40503 % 97) as f32) / 48.0 - 1.0).collect();
        (data, x)
    }

    #[test]
    fn matvec_f32_matches_reference_across_shapes() {
        for (m, n) in [(1, 1), (5, 4), (7, 9), (64, 13), (33, 8)] {
            let (data, x) = sample(m, n);
            let y = matvec_f32(&data, m, n, &x).unwrap();
            let r = reference_gemv(&data, m, n, &x);
            for i in 0..m {
                assert!((y[i] as f64 - r[i]).abs() < 1e-3, "({m},{n}) row {i}");
            }
        }
    }

    #[test]
    fn matvec_f32_rejects_bad_dims() {
        assert!(matvec_f32(&[0.0; 6], 2, 3, &[0.0; 2]).is_err());
        assert!(matvec_f32(&[0.0; 5], 2, 3, &[0.0; 3]).is_err());
    }

    #[test]
    fn matvec_i8_matches_widened_reference() {
        let m = 9;
        let n = 6;
        let data: Vec<i8> = (0..m * n).map(|i| ((i * 37) % 255) as i8).collect();
        let x: Vec<f32> = (0..n).map(|j| j as f32 * 0.5 - 1.0).collect();
        let y = matvec_i8(&data, m, n, &x).unwrap();
        let widened: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let r = reference_gemv(&widened, m, n, &x);
        for i in 0..m {
            assert!((y[i] as f64 - r[i]).abs() < 1e-3);
        }
        assert!(matvec_i8(&data, m, n, &[0.0; 2]).is_err());
    }

    #[test]
    fn row_subset_kernels_are_bit_identical_to_full_sweeps() {
        let (m, n) = (23, 13);
        let (data, x) = sample(m, n);
        let full = matvec_f32(&data, m, n, &x).unwrap();
        // Unsorted, duplicated rows: per-row bits must not depend on
        // order or uniqueness.
        let rows = [19u32, 0, 7, 7, 22, 3];
        let sub = matvec_f32_rows(&data, m, n, &x, &rows).unwrap();
        for (yi, &r) in sub.iter().zip(rows.iter()) {
            assert_eq!(yi.to_bits(), full[r as usize].to_bits());
        }
        let data8: Vec<i8> = (0..m * n).map(|i| ((i * 37) % 255) as i8).collect();
        let full8 = matvec_i8(&data8, m, n, &x).unwrap();
        let sub8 = matvec_i8_rows(&data8, m, n, &x, &rows).unwrap();
        for (yi, &r) in sub8.iter().zip(rows.iter()) {
            assert_eq!(yi.to_bits(), full8[r as usize].to_bits());
        }
        assert!(matvec_f32_rows(&data, m, n, &x, &[23]).is_err());
        assert!(matvec_i8_rows(&data8, m, n, &x[..2], &[0]).is_err());
        assert_eq!(matvec_f32_rows(&data, m, n, &x, &[]).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn parallel_threshold_path_is_bit_identical_to_serial_span() {
        // Big enough to cross MATVEC_F32_PAR_MIN_ELEMS when a pool is
        // present; under LSI_NUM_THREADS=1 this exercises the serial
        // branch, and both must agree bit-for-bit with the plain span.
        let m = 2048;
        let n = 512;
        let (data, x) = sample(m, n);
        let y = matvec_f32(&data, m, n, &x).unwrap();
        let mut serial = vec![0.0f32; m];
        matvec_span_f32(&data, m, &x, 0, &mut serial);
        assert_eq!(y, serial);
    }
}
