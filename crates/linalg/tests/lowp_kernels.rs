//! Integration tests for the reduced-precision scoring kernels
//! (`lowp`): agreement with f64 references at realistic scoring shapes,
//! thread-count independence of the span split, and the calibration
//! harness behind `MATVEC_F32_PAR_MIN_ELEMS`.
//!
//! Thread-mode coverage: the pool size is fixed per process from
//! `LSI_NUM_THREADS`, so `scripts/verify.sh` runs this whole suite
//! twice — once pooled, once serial — and both passes must produce
//! identical bits.

use lsi_linalg::lowp::{matvec_f32, matvec_i8, MATVEC_F32_PAR_MIN_ELEMS};
use lsi_linalg::{ops, DenseMatrix};

/// Deterministic xorshift values in [-1, 1).
fn xorshift_vec(n: usize, mut state: u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn f32_sweep_tracks_f64_gemv_within_error_bound() {
    // The scoring shape: n docs x k factors, dense q̂.
    for (n, k) in [(500usize, 32usize), (2000, 64), (777, 48)] {
        let vdata = xorshift_vec(n * k, 0x1234_5678 + n as u64);
        let v = DenseMatrix::from_col_major(n, k, vdata.clone()).unwrap();
        let q = xorshift_vec(k, 99 + k as u64);
        let exact = ops::matvec(&v, &q).unwrap();
        let v32: Vec<f32> = vdata.iter().map(|&x| x as f32).collect();
        let q32: Vec<f32> = q.iter().map(|&x| x as f32).collect();
        let approx = matvec_f32(&v32, n, k, &q32).unwrap();
        // Row dot of k unit-scale entries: |error| well under k·2^-20.
        let tol = k as f64 * 2f64.powi(-20) * (k as f64).sqrt();
        for i in 0..n {
            assert!(
                (approx[i] as f64 - exact[i]).abs() < tol,
                "({n},{k}) row {i}: {} vs {}",
                approx[i],
                exact[i]
            );
        }
    }
}

#[test]
fn pooled_and_span_results_are_bit_identical_above_threshold() {
    // Cross the parallel threshold; with a pool the rows split into
    // spans, and the result must equal a per-row serial replay exactly.
    let k = 64;
    let n = MATVEC_F32_PAR_MIN_ELEMS / k + 17;
    let vdata = xorshift_vec(n * k, 0xBEEF);
    let v32: Vec<f32> = vdata.iter().map(|&x| x as f32).collect();
    let q32: Vec<f32> = xorshift_vec(k, 7).iter().map(|&x| x as f32).collect();
    let y = matvec_f32(&v32, n, k, &q32).unwrap();
    let y2 = matvec_f32(&v32, n, k, &q32).unwrap();
    assert_eq!(y, y2);
    // Per-row reference with the same 4-wide block order.
    for i in [0usize, 1, n / 2, n - 1] {
        let mut acc = 0.0f32;
        let mut j = 0;
        while j + 4 <= k {
            acc += q32[j] * v32[j * n + i]
                + q32[j + 1] * v32[(j + 1) * n + i]
                + q32[j + 2] * v32[(j + 2) * n + i]
                + q32[j + 3] * v32[(j + 3) * n + i];
            j += 4;
        }
        for jj in j..k {
            acc += q32[jj] * v32[jj * n + i];
        }
        assert_eq!(y[i], acc, "row {i}");
    }
}

#[test]
fn i8_sweep_recovers_scaled_rows() {
    // Quantize a known matrix with per-row max-abs scales and verify
    // the GEMV-plus-rescale reconstructs the f64 scores to i8 accuracy.
    let (n, k) = (300usize, 24usize);
    let vdata = xorshift_vec(n * k, 42);
    let v = DenseMatrix::from_col_major(n, k, vdata.clone()).unwrap();
    let mut data8 = vec![0i8; n * k];
    let mut scales = vec![0.0f64; n];
    for i in 0..n {
        let row = v.row(i);
        let sc = row.iter().fold(0.0f64, |a, x| a.max(x.abs()));
        scales[i] = sc;
        if sc > 0.0 {
            for j in 0..k {
                data8[j * n + i] = (row[j] / sc * 127.0).round() as i8;
            }
        }
    }
    let q = xorshift_vec(k, 1234);
    let q32: Vec<f32> = q.iter().map(|&x| x as f32).collect();
    let y8 = matvec_i8(&data8, n, k, &q32).unwrap();
    let exact = ops::matvec(&v, &q).unwrap();
    for i in 0..n {
        let recovered = y8[i] as f64 * scales[i] / 127.0;
        // One quantization step per addend: k · (scale/254) · |q|∞.
        let tol = k as f64 * scales[i] / 254.0 + 1e-6;
        assert!(
            (recovered - exact[i]).abs() <= tol,
            "row {i}: {recovered} vs {}",
            exact[i]
        );
    }
}

/// Calibration harness for `MATVEC_F32_PAR_MIN_ELEMS`: prints the f32
/// sweep time across sizes straddling the threshold, pooled vs serial.
/// Run once with the pool and once under `LSI_NUM_THREADS=1`:
/// `cargo test -p lsi-linalg --release --test lowp_kernels -- --ignored --nocapture`
#[test]
#[ignore = "prints timings; run with --ignored --nocapture"]
fn measure_f32_gemv_crossover() {
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
    let k = 64usize;
    for shift in [17usize, 18, 19, 20, 21] {
        let n = (1usize << shift) / k;
        let v32: Vec<f32> = xorshift_vec(n * k, shift as u64)
            .iter()
            .map(|&x| x as f32)
            .collect();
        let q32: Vec<f32> = xorshift_vec(k, 3).iter().map(|&x| x as f32).collect();
        let secs = best(30, || {
            std::hint::black_box(matvec_f32(&v32, n, k, &q32).unwrap());
        });
        println!(
            "matvec_f32 {n:>6}x{k:<4} (1<<{shift} elems): {:>8.1} us",
            secs * 1e6
        );
    }
}
