//! Pooled-vs-serial consistency for the nnz-balanced parallel matvecs.
//!
//! The parallel gather promises *bit-for-bit* agreement with its serial
//! counterparts: every output element is produced by exactly one task
//! running the identical reduction loop, so no floating-point
//! reassociation can occur regardless of thread count or scheduling.
//! `A·x` runs that gather over the columns of `Aᵀ` (the rows of `A`),
//! so the same contract covers both Lanczos products, and it must also
//! equal the serial scatter over `A` bit for bit. These tests pin that
//! on matrices large enough to actually take the parallel path (above
//! `PAR_NNZ_THRESHOLD`), including the pathologies nnz-balancing exists
//! for: one dense row holding most of the nonzeros, and long runs of
//! empty rows. The whole suite must also pass under
//! `LSI_NUM_THREADS=1`, where every kernel is forced serial.

use lsi_sparse::gen::{random_term_doc, RowProfile};
use lsi_sparse::ops::DualFormat;
use lsi_sparse::{nnz_balanced_spans, CooMatrix, CscMatrix, MatVec, PAR_NNZ_THRESHOLD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform in `[-1, 1)` with no exact zeros: the serial scatter skips a
/// zero `x[c]` while the gather adds its `0·v` terms, so only nonzero
/// entries make the two kernels run the same additions.
fn random_x(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| loop {
            let v = rng.random::<f64>() * 2.0 - 1.0;
            if v != 0.0 {
                break v;
            }
        })
        .collect()
}

/// A Zipf-shaped term-document matrix comfortably above the parallel
/// threshold (the skew RowProfile is the matrix shape the nnz-balanced
/// spans are designed around), with its transpose.
fn skewed_pair(seed: u64) -> (CscMatrix, CscMatrix) {
    let a = random_term_doc(2400, 1800, 0.06, RowProfile::Zipf { s: 1.1 }, 8, seed);
    assert!(
        a.nnz() >= PAR_NNZ_THRESHOLD,
        "test matrix too small to exercise the parallel path ({} nnz)",
        a.nnz()
    );
    let at = a.transpose();
    (a, at)
}

/// `DualFormat`'s two products against the serial kernels of `a`: the
/// pooled gather over `Aᵀ` equals the serial scatter `a.matvec`, and the
/// pooled gather over `A` equals the serial gather `a.matvec_t`.
fn assert_dual_matches_serial(a: &CscMatrix, x: &[f64], xt: &[f64]) {
    let dual = DualFormat::from_csc(a.clone());
    let mut y = vec![0.0; a.nrows()];
    dual.apply(x, &mut y);
    assert_eq!(y, a.matvec(x).unwrap());
    let mut z = vec![0.0; a.ncols()];
    dual.apply_t(xt, &mut z);
    assert_eq!(z, a.matvec_t(xt).unwrap());
}

#[test]
fn par_matvec_is_bit_identical_on_zipf_matrices() {
    for seed in [3u64, 17, 99] {
        let (a, at) = skewed_pair(seed);
        let x = random_x(a.ncols(), seed ^ 0xA5);
        let xt = random_x(a.nrows(), seed ^ 0x5A);
        // Exact equality — not a tolerance — is the determinism contract.
        assert_eq!(at.matvec_t(&x).unwrap(), at.par_matvec_t(&x).unwrap());
        assert_eq!(a.matvec_t(&xt).unwrap(), a.par_matvec_t(&xt).unwrap());
        assert_dual_matches_serial(&a, &x, &xt);
    }
}

#[test]
fn one_dense_row_is_bit_identical_and_balanced() {
    // Row 7 is fully dense and holds the overwhelming majority of the
    // nonzeros; the rest of the matrix is a sparse sprinkle. Row-count
    // partitioning would hand almost all work to one span.
    let nrows = 4000;
    let ncols = 3000;
    let mut coo = CooMatrix::new(nrows, ncols);
    for c in 0..ncols {
        coo.push(7, c, (c as f64).sin() + 2.0).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..150_000 {
        let r = rng.random_range(0..nrows);
        let c = rng.random_range(0..ncols);
        if r != 7 {
            coo.push(r, c, rng.random::<f64>() - 0.5).unwrap();
        }
    }
    let a = coo.to_csc();
    let at = a.transpose();
    assert!(a.nnz() >= PAR_NNZ_THRESHOLD);

    let x = random_x(ncols, 42);
    assert_eq!(at.matvec_t(&x).unwrap(), at.par_matvec_t(&x).unwrap());
    let xt = random_x(nrows, 43);
    assert_eq!(a.matvec_t(&xt).unwrap(), a.par_matvec_t(&xt).unwrap());
    assert_dual_matches_serial(&a, &x, &xt);

    // The span partition must not let the dense row's span swallow the
    // rows after it: with 4 requested spans something must start at or
    // after row 8.
    let (indptr, _, _) = at.raw();
    let spans = nnz_balanced_spans(indptr, 4);
    assert!(spans.iter().any(|&(lo, _)| lo >= 8), "spans: {spans:?}");
}

#[test]
fn empty_rows_are_bit_identical_and_zero() {
    // Rows [0, 1000) and [3000, 4000) are empty; the middle band is
    // dense enough to cross the threshold.
    let nrows = 4000;
    let ncols = 500;
    let mut coo = CooMatrix::new(nrows, ncols);
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..170_000 {
        let r = rng.random_range(1000..3000);
        let c = rng.random_range(0..ncols);
        coo.push(r, c, rng.random::<f64>() - 0.5).unwrap();
    }
    let a = coo.to_csc();
    let at = a.transpose();
    assert!(a.nnz() >= PAR_NNZ_THRESHOLD);
    let x = random_x(ncols, 7);
    let serial = at.matvec_t(&x).unwrap();
    let parallel = at.par_matvec_t(&x).unwrap();
    assert_eq!(serial, parallel);
    assert!(parallel[..1000].iter().all(|&v| v == 0.0));
    assert!(parallel[3000..].iter().all(|&v| v == 0.0));
    assert_dual_matches_serial(&a, &x, &random_x(nrows, 8));
}

#[test]
fn par_matvec_is_reproducible_across_repeats() {
    // Same inputs, many runs: scheduling may differ every time, the
    // bits may not.
    let (a, at) = skewed_pair(5);
    let x = random_x(a.ncols(), 1);
    let xt = random_x(a.nrows(), 2);
    let y0 = at.par_matvec_t(&x).unwrap();
    let z0 = a.par_matvec_t(&xt).unwrap();
    for _ in 0..20 {
        assert_eq!(y0, at.par_matvec_t(&x).unwrap());
        assert_eq!(z0, a.par_matvec_t(&xt).unwrap());
    }
}

/// Calibration harness behind `PAR_NNZ_THRESHOLD`: prints serial vs
/// pooled SpMV (`A·x`, the gather over the columns of `Aᵀ`) time across
/// nnz sizes straddling the threshold. Rows below the threshold show
/// the serial fallback (pooled ≈ serial, as shipped); to probe the raw
/// pooled kernel down there, temporarily lower `PAR_NNZ_THRESHOLD` and
/// rerun:
/// `cargo test -p lsi-sparse --release --test par_consistency -- --ignored --nocapture`
#[test]
#[ignore = "prints timings; run with --ignored --nocapture"]
fn measure_spmv_break_even() {
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
    for (nrows, ncols, density) in [
        (1200, 900, 0.04),
        (2000, 1500, 0.04),
        (3000, 2200, 0.04),
        (4500, 3500, 0.04),
        (9000, 7000, 0.04),
    ] {
        let at =
            random_term_doc(nrows, ncols, density, RowProfile::Zipf { s: 1.1 }, 4, 77).transpose();
        let x = random_x(at.nrows(), 9);
        let mut y = vec![0.0; at.ncols()];
        let serial = best(50, || at.matvec_t_into(&x, &mut y));
        let par = best(50, || at.par_matvec_t_into(&x, &mut y));
        println!(
            "spmv nnz {:>8}: serial {:>7.1} us  pooled {:>7.1} us  ({:.2}x)",
            at.nnz(),
            serial * 1e6,
            par * 1e6,
            serial / par
        );
    }
}

#[test]
fn spans_partition_random_indptrs() {
    // Property: for arbitrary nnz profiles the spans always form a
    // contiguous, non-empty, complete partition.
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..200 {
        let n = rng.random_range(1..200);
        let mut indptr = vec![0usize];
        for _ in 0..n {
            let step = if rng.random::<f64>() < 0.3 {
                0
            } else {
                rng.random_range(0..50)
            };
            indptr.push(indptr.last().unwrap() + step);
        }
        for n_spans in [1usize, 2, 3, 8, 64] {
            let spans = nnz_balanced_spans(&indptr, n_spans);
            let mut next = 0;
            for &(lo, hi) in &spans {
                assert_eq!(lo, next);
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, n);
            assert!(spans.len() <= n_spans);
        }
    }
}
