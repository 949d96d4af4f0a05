//! Pooled-vs-serial consistency for the parallel dense kernels: the
//! CGS panel BLAS-2 pair, the row-split GEMV and fused block sweep, the
//! column-split transposed GEMV, and its sparse gather.
//!
//! Sizes are chosen to straddle the calibrated thresholds
//! (`PANEL_PAR_MIN_FLOPS`, `MATVEC_PAR_MIN_ELEMS`) so both the serial
//! and the pooled paths run. Where the parallel decomposition keeps
//! each output element's reduction loop identical (panel dots, GEMV
//! row spans, transposed-GEMV column dots), agreement is asserted
//! *bit-for-bit* via repeat-determinism plus an exact oracle; the
//! mathematical cross-checks against naive loops use 1e-12. The suite
//! must also pass under `LSI_NUM_THREADS=1`.

use lsi_linalg::gemm::{panel_qt_w, panel_w_minus_qy, PANEL_PAR_MIN_FLOPS};
use lsi_linalg::ops::{
    matvec, matvec_block, matvec_t, matvec_t_sparse, GEMM_MIN_COLS_THRESHOLD,
    MATVEC_PAR_MIN_ELEMS,
};
use lsi_linalg::{vecops, DenseMatrix, Error};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..m * n).map(|_| rng.random::<f64>() - 0.5).collect();
    DenseMatrix::from_col_major(m, n, data).unwrap()
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()
}

/// Shapes below and above the panel threshold (flops = 2·m·n).
fn panel_shapes() -> Vec<(usize, usize)> {
    let above = (PANEL_PAR_MIN_FLOPS / 2 / 64) + 64;
    vec![(64, 7), (301, 13), (above, 64), (above + 17, 93)]
}

#[test]
fn panel_qt_w_matches_column_dots_and_is_deterministic() {
    for (i, &(m, n)) in panel_shapes().iter().enumerate() {
        let q = random_matrix(m, n, 100 + i as u64);
        let w = random_vec(m, 200 + i as u64);
        let y = panel_qt_w(&q, n, &w);
        // Tolerance oracle: vecops::dot accumulates in four lanes, the
        // panel kernel per-column — same sum, different association.
        for j in 0..n {
            let want = vecops::dot(q.col(j), &w);
            assert!((y[j] - want).abs() < 1e-12 * m as f64, "col {j} of {m}x{n}");
        }
        // Determinism: the pooled 4-column blocks land on different
        // workers every run; the bits may not move.
        for _ in 0..10 {
            assert_eq!(y, panel_qt_w(&q, n, &w), "{m}x{n} repeat drifted");
        }
    }
}

#[test]
fn panel_w_minus_qy_matches_axpy_loop_and_is_deterministic() {
    for (i, &(m, n)) in panel_shapes().iter().enumerate() {
        let q = random_matrix(m, n, 300 + i as u64);
        let y = random_vec(n, 400 + i as u64);
        let w0 = random_vec(m, 500 + i as u64);

        // Tolerance oracle: sequential per-column AXPYs associate the
        // subtraction differently from the fused 4-column kernel.
        let mut want = w0.clone();
        for j in 0..n {
            vecops::axpy(-y[j], q.col(j), &mut want);
        }
        let mut w = w0.clone();
        panel_w_minus_qy(&q, n, &y, &mut w);
        for r in 0..m {
            assert!((w[r] - want[r]).abs() < 1e-12 * n as f64, "row {r} of {m}x{n}");
        }

        // Determinism: repeats are bit-identical even though the row
        // spans land on different workers every run.
        for _ in 0..10 {
            let mut w2 = w0.clone();
            panel_w_minus_qy(&q, n, &y, &mut w2);
            assert_eq!(w, w2, "{m}x{n} repeat drifted");
        }
    }
}

#[test]
fn parallel_gemv_matches_naive_and_is_deterministic() {
    // m*n above and below MATVEC_PAR_MIN_ELEMS; tall shapes mimic the
    // scoring use (document rows x k factors).
    let above_rows = MATVEC_PAR_MIN_ELEMS / 64 + 100;
    for (i, &(m, n)) in [(128usize, 64usize), (above_rows, 64), (above_rows + 31, 96)]
        .iter()
        .enumerate()
    {
        let a = random_matrix(m, n, 600 + i as u64);
        let x = random_vec(n, 700 + i as u64);
        let y = matvec(&a, &x).unwrap();

        let mut want = vec![0.0; m];
        for j in 0..n {
            vecops::axpy(x[j], a.col(j), &mut want);
        }
        for r in 0..m {
            assert!((y[r] - want[r]).abs() < 1e-12 * n as f64, "row {r} of {m}x{n}");
        }
        for _ in 0..10 {
            assert_eq!(y, matvec(&a, &x).unwrap(), "{m}x{n} repeat drifted");
        }
    }
}

#[test]
fn parallel_gemv_skips_zero_blocks_identically() {
    // Sparse query vectors: most coefficients zero. The zero-block
    // skip must behave the same on every row span.
    let m = MATVEC_PAR_MIN_ELEMS / 32;
    let n = 48;
    let a = random_matrix(m, n, 800);
    let mut x = vec![0.0; n];
    x[5] = 1.25;
    x[30] = -0.75;
    let y = matvec(&a, &x).unwrap();
    let mut want = vec![0.0; m];
    vecops::axpy(1.25, a.col(5), &mut want);
    vecops::axpy(-0.75, a.col(30), &mut want);
    for r in 0..m {
        assert!((y[r] - want[r]).abs() < 1e-12, "row {r}");
    }
}

/// Calibration harness behind `MATVEC_PAR_MIN_ELEMS` and
/// `PANEL_PAR_MIN_FLOPS`: run once with the pool and once under
/// `LSI_NUM_THREADS=1`, compare the printed per-size timings, and set
/// the thresholds where the pooled run starts winning:
/// `cargo test -p lsi-linalg --release --test par_kernels -- --ignored --nocapture`
#[test]
#[ignore = "prints timings; run with --ignored --nocapture"]
fn measure_gemv_and_panel_rates() {
    use std::time::Instant;
    fn best(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut b = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            b = b.min(t.elapsed().as_secs_f64());
        }
        b
    }
    for n in [64usize, 128] {
        for m in [1024usize, 4096, 16384, 65536] {
            let a = random_matrix(m, n, 1);
            let x = random_vec(n, 2);
            let secs = best(30, || {
                std::hint::black_box(matvec(&a, &x).unwrap());
            });
            println!("gemv {m:>6}x{n:<4} ({:>8} elems): {:>8.1} us", m * n, secs * 1e6);
        }
    }
    for ncols in [32usize, 64, 128, 256] {
        let m = 3500;
        let q = random_matrix(m, ncols, 3);
        let w = random_vec(m, 4);
        let secs = best(30, || {
            std::hint::black_box(panel_qt_w(&q, ncols, &w));
        });
        println!(
            "panel_qt_w {m}x{ncols:<4} ({:>8} flops): {:>8.1} us",
            2 * m * ncols,
            secs * 1e6
        );
        let y = random_vec(ncols, 5);
        let secs = best(30, || {
            let mut wc = w.clone();
            panel_w_minus_qy(&q, ncols, &y, &mut wc);
            std::hint::black_box(wc);
        });
        println!(
            "panel_w_minus_qy {m}x{ncols:<4} ({:>8} flops): {:>8.1} us",
            2 * m * ncols,
            secs * 1e6
        );
    }
}

#[test]
fn parallel_matvec_t_matches_column_dots_exactly() {
    // matvec_t's parallel path runs the very same vecops::dot per
    // column as the serial path — exact agreement required.
    let m = MATVEC_PAR_MIN_ELEMS / 16;
    for n in [3usize, 24] {
        let a = random_matrix(m, n, 900 + n as u64);
        let x = random_vec(m, 950 + n as u64);
        let y = matvec_t(&a, &x).unwrap();
        for j in 0..n {
            assert_eq!(y[j], vecops::dot(a.col(j), &x), "col {j}");
        }
        for _ in 0..5 {
            assert_eq!(y, matvec_t(&a, &x).unwrap());
        }
    }
}

/// Calibration harness behind `GEMM_MIN_COLS_THRESHOLD`: the fused
/// block sweep against GEMM by block width, at the gate model's shape
/// (2,000×64) and the served database's (20,000×128). Run pooled; the
/// crossover is the narrowest width where GEMM is faster:
/// `cargo test -p lsi-linalg --release --test par_kernels -- --ignored --nocapture block_sweep`
#[test]
#[ignore = "prints timings; run with --ignored --nocapture"]
fn measure_block_sweep_against_gemm() {
    use lsi_linalg::ops::{matmul, matvec_block};
    use std::time::Instant;
    fn best(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut b = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            b = b.min(t.elapsed().as_secs_f64());
        }
        b
    }
    for (m, k) in [(2000usize, 64usize), (20000, 128)] {
        let a = random_matrix(m, k, 11);
        let reps = if m > 10_000 { 20 } else { 60 };
        for b in [1usize, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 80] {
            let xs: Vec<Vec<f64>> = (0..b).map(|c| random_vec(k, 20 + c as u64)).collect();
            let cols: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
            let q = DenseMatrix::from_col_major(k, b, xs.concat()).unwrap();
            let block = best(reps, || {
                std::hint::black_box(matvec_block(&a, &cols).unwrap());
            });
            let gemm = best(reps, || {
                std::hint::black_box(matmul(&a, &q).unwrap());
            });
            println!(
                "block_sweep {m:>6}x{k:<4} width {b:>2}: block {:>8.1} us  gemm {:>8.1} us  ({})",
                block * 1e6,
                gemm * 1e6,
                if block < gemm { "block" } else { "gemm" }
            );
        }
    }
}

/// Scalar replay of one GEMV output row as the scoring kernels define
/// it: 4-column blocks left to right, an all-zero block skipped, a
/// dense block added as one left-to-right fused sum, then the tail
/// columns one AXPY step each, zero coefficients skipped.
fn gemv_row_reference(a: &DenseMatrix, x: &[f64], r: usize) -> f64 {
    let mut y = 0.0;
    let head = 4 * (x.len() / 4);
    for j in (0..head).step_by(4) {
        if x[j..j + 4].iter().all(|&v| v == 0.0) {
            continue;
        }
        y += x[j] * a.get(r, j)
            + x[j + 1] * a.get(r, j + 1)
            + x[j + 2] * a.get(r, j + 2)
            + x[j + 3] * a.get(r, j + 3);
    }
    for (j, &xj) in x.iter().enumerate().skip(head) {
        if xj != 0.0 {
            y += xj * a.get(r, j);
        }
    }
    y
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn matvec_block_columns_equal_their_gemv_bit_for_bit() {
    // Row counts off the 256-row tile and on both sides of the pooled
    // split; k not a multiple of 4.
    let above = MATVEC_PAR_MIN_ELEMS / 30 + 131;
    for (i, &(m, k)) in [(1000usize, 13usize), (301, 64), (above, 30)].iter().enumerate() {
        let a = random_matrix(m, k, 1000 + i as u64);
        let mut xs: Vec<Vec<f64>> = (0..GEMM_MIN_COLS_THRESHOLD)
            .map(|c| random_vec(k, 1100 + (i * 100 + c) as u64))
            .collect();
        // Zero blocks in some columns only: a skipped first block in
        // column 0, first and third blocks in column 1, an all-zero
        // column, a zero tail.
        xs[0][..4].fill(0.0);
        xs[1][..4].fill(0.0);
        xs[1][8..12].fill(0.0);
        xs[4].fill(0.0);
        xs[6][4 * (k / 4)..].fill(0.0);
        // A NaN in one column must stay in that column.
        xs[2][5] = f64::NAN;
        let solo: Vec<Vec<f64>> = xs.iter().map(|x| matvec(&a, x).unwrap()).collect();
        for (c, (x, y)) in xs.iter().zip(&solo).enumerate() {
            for r in (0..m).step_by(7) {
                let want = gemv_row_reference(&a, x, r);
                assert!(same_bits(y[r], want), "{m}x{k} col {c} row {r}");
            }
        }
        assert!(solo[2].iter().all(|v| v.is_nan()));
        assert!(solo[4].iter().all(|v| v.to_bits() == 0));
        for width in 1..=GEMM_MIN_COLS_THRESHOLD {
            let cols: Vec<&[f64]> = xs[..width].iter().map(Vec::as_slice).collect();
            let y = matvec_block(&a, &cols).unwrap();
            assert_eq!(y.len(), m * width);
            for (c, want) in solo[..width].iter().enumerate() {
                let got = &y[c * m..(c + 1) * m];
                for r in 0..m {
                    assert!(same_bits(got[r], want[r]), "{m}x{k} width {width} col {c} row {r}");
                }
            }
        }
    }
}

#[test]
fn matvec_block_edge_shapes() {
    let a = random_matrix(9, 6, 1200);
    let x = random_vec(6, 1201);
    assert_eq!(matvec_block(&a, &[]).unwrap(), Vec::<f64>::new());
    assert!(matches!(
        matvec_block(&a, &[&x, &x[..5]]),
        Err(Error::DimensionMismatch { .. })
    ));
    let empty = DenseMatrix::zeros(0, 6);
    assert_eq!(matvec_block(&empty, &[&x, &x]).unwrap(), Vec::<f64>::new());
    let no_cols = DenseMatrix::zeros(5, 0);
    assert_eq!(matvec_block(&no_cols, &[&[], &[]]).unwrap(), vec![0.0; 10]);
}

#[test]
fn sparse_gather_equals_dense_matvec_t_bit_for_bit() {
    // Row counts with a tail (m % 4 != 0) on both sides of matvec_t's
    // pooled split.
    let above = MATVEC_PAR_MIN_ELEMS / 128 + 3;
    for (i, &(m, k)) in [(1003usize, 7usize), (above, 128), (6, 5)].iter().enumerate() {
        let a = random_matrix(m, k, 1300 + i as u64);
        let tail = 4 * (m / 4);
        let weights = random_vec(m, 1400 + i as u64);
        let mut rows: Vec<usize> = vec![0, 1, 2, 3, tail - 1, tail, m - 1];
        rows.extend((5..m).step_by(97).take(6));
        rows.sort_unstable();
        rows.dedup();
        let mut pairs: Vec<(usize, f64)> = rows.iter().map(|&r| (r, weights[r])).collect();
        // A repeated weight and an explicit zero among the pairs.
        pairs[1].1 = pairs[0].1;
        pairs[2].1 = 0.0;
        let mut dense = vec![0.0; m];
        for &(r, v) in &pairs {
            dense[r] = v;
        }
        let want = matvec_t(&a, &dense).unwrap();
        let got = matvec_t_sparse(&a, &pairs).unwrap();
        assert_eq!(got.len(), k);
        for j in 0..k {
            assert_eq!(got[j].to_bits(), want[j].to_bits(), "{m}x{k} col {j}");
        }
        // Tail rows alone, and the empty pair list (the zero vector).
        let tail_only: Vec<(usize, f64)> = (tail..m).map(|r| (r, weights[r])).collect();
        let mut dense = vec![0.0; m];
        for &(r, v) in &tail_only {
            dense[r] = v;
        }
        let want = matvec_t(&a, &dense).unwrap();
        let got = matvec_t_sparse(&a, &tail_only).unwrap();
        assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        let zero = matvec_t_sparse(&a, &[]).unwrap();
        assert_eq!(zero.len(), k);
        assert!(zero.iter().all(|v| v.to_bits() == 0));
        assert!(matches!(
            matvec_t_sparse(&a, &[(0, 1.0), (m, 1.0)]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            matvec_t_sparse(&a, &[(1, 1.0), (1, 1.0)]),
            Err(Error::InvalidArgument { .. })
        ));
        assert!(matches!(
            matvec_t_sparse(&a, &[(2, 1.0), (1, 1.0)]),
            Err(Error::InvalidArgument { .. })
        ));
    }
}
