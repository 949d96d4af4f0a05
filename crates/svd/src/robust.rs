//! Hardened truncated-SVD driver: Lanczos under a watchdog, with a
//! staged fallback ladder.
//!
//! [`lanczos_svd`] is the fast path, but it can fail in ways a
//! production pipeline must survive: a non-finite value escaping the
//! operator (hardware fault, corrupted input, injected via
//! `lsi-fault`), or a stagnating iteration (inconsistent operator,
//! hopeless tolerance). [`robust_svd`] converts those failures into
//! *degradation*:
//!
//! 1. **Lanczos** with the stagnation watchdog armed
//!    ([`LanczosOptions::stall_after`]) and every returned factor
//!    checked finite;
//! 2. **randomized subspace iteration** ([`randomized_svd`]) — slower
//!    to equal accuracy but structurally immune to Lanczos's recurrence
//!    pathologies, likewise finite-checked;
//! 3. **dense Jacobi** on an explicitly materialized operator — the
//!    last resort, gated on problem size.
//!
//! Every degradation is visible: the returned
//! [`LanczosReport::fallback`] names the rung that served the request,
//! a warn-level event fires, and `svd.fallback.{randomized,dense}.count`
//! tick in the metrics registry. Only configuration errors
//! ([`Error::RankTooLarge`]) and a ladder with no rung left propagate
//! as errors.

use lsi_linalg::svd::Svd;
use lsi_linalg::DenseMatrix;
use lsi_sparse::MatVec;

use crate::lanczos::{lanczos_svd, Fallback, LanczosOptions, LanczosReport};
use crate::randomized::{randomized_svd, RandomizedOptions};
use crate::{Error, Result};

/// Tuning for [`robust_svd`].
#[derive(Debug, Clone)]
pub struct RobustOptions {
    /// Options for the Lanczos rung. The default arms the stagnation
    /// watchdog at 64 progress-free convergence checks (= 512 steps at
    /// the default `check_every`), far beyond anything a healthy run
    /// exhibits before its basis budget ends.
    pub lanczos: LanczosOptions,
    /// Options for the randomized rung.
    pub randomized: RandomizedOptions,
    /// The dense rung materializes the full `m × n` operator; skip it
    /// when `m * n` exceeds this bound (the default, `1 << 22` ≈ 32 MB
    /// of doubles, covers every corpus in this workspace's test tier).
    pub dense_max_elems: usize,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            lanczos: LanczosOptions {
                stall_after: Some(64),
                ..LanczosOptions::default()
            },
            randomized: RandomizedOptions::default(),
            dense_max_elems: 1 << 22,
        }
    }
}

/// Every factor entry and singular value is finite (a decomposition
/// with a NaN/Inf anywhere is worse than no decomposition: it poisons
/// every query that touches it).
fn svd_is_finite(svd: &Svd) -> bool {
    if !svd.s.iter().all(|s| s.is_finite()) {
        return false;
    }
    for i in 0..svd.u.ncols() {
        if !svd.u.col(i).iter().all(|x| x.is_finite()) {
            return false;
        }
    }
    for i in 0..svd.v.ncols() {
        if !svd.v.col(i).iter().all(|x| x.is_finite()) {
            return false;
        }
    }
    true
}

/// Synthesize a report for a fallback rung: the Lanczos phase stats are
/// genuinely zero (the rung bypassed the recurrence entirely).
fn fallback_report(svd: &Svd, rung: Fallback, side_is_ata: bool) -> LanczosReport {
    LanczosReport {
        steps: 0,
        converged: svd.s.len(),
        accepted: svd.s.len(),
        restarts: 0,
        side_is_ata,
        gram: Default::default(),
        reorth: Default::default(),
        ritz: Default::default(),
        tridiag: Default::default(),
        fallback: rung,
    }
}

/// Truncated SVD that degrades instead of failing: Lanczos →
/// randomized → dense, returning the first finite decomposition and a
/// report whose `fallback` field names the rung that produced it.
///
/// A Lanczos run that reaches its basis cap before every pair meets the
/// tolerance is not a failure: its decomposition is returned as it
/// stands, and the report's `converged` below `accepted` says how many
/// pairs did.
///
/// Errors surface only for configuration mistakes (`RankTooLarge`) or
/// when every rung failed or was gated off.
pub fn robust_svd<M: MatVec + ?Sized>(
    a: &M,
    k: usize,
    opts: &RobustOptions,
) -> Result<(Svd, LanczosReport)> {
    // No span of its own: the happy path must keep recording Lanczos
    // phases under the caller's span name (e.g. `build.svd.lanczos.*`),
    // which an extra stack level here would rename. Fallback rungs are
    // reported through counts and warn events instead.
    let side_is_ata = a.ncols() <= a.nrows();
    let first_failure = match lanczos_svd(a, k, &opts.lanczos) {
        Ok((svd, report)) => {
            if svd_is_finite(&svd) {
                return Ok((svd, report));
            }
            Error::NonFinite {
                what: "Lanczos result factor",
                step: report.steps,
            }
        }
        Err(e @ Error::RankTooLarge { .. }) => return Err(e),
        Err(e) => e,
    };
    lsi_obs::warn!(
        "robust_svd: Lanczos failed ({first_failure}); falling back to randomized SVD"
    );
    lsi_obs::count("svd.fallback.randomized.count", 1);
    match randomized_svd(a, k, &opts.randomized) {
        // An *empty* result for k > 0 is how the randomized driver
        // reports "every Ritz value sat at the noise floor" — on a
        // poisoned operator that means it saw garbage, not a zero
        // matrix, so it does not count as usable here.
        Ok(svd) if svd_is_finite(&svd) && (!svd.s.is_empty() || k == 0) => {
            let report = fallback_report(&svd, Fallback::Randomized, side_is_ata);
            return Ok((svd, report));
        }
        Ok(_) => lsi_obs::warn!(
            "robust_svd: randomized SVD produced non-finite or empty factors"
        ),
        Err(e) => lsi_obs::warn!("robust_svd: randomized SVD failed ({e})"),
    }
    let (m, n) = (a.nrows(), a.ncols());
    if m.saturating_mul(n) > opts.dense_max_elems {
        lsi_obs::warn!(
            "robust_svd: dense fallback gated off ({m}x{n} exceeds {} elements); \
             surfacing the original failure",
            opts.dense_max_elems
        );
        return Err(first_failure);
    }
    lsi_obs::count("svd.fallback.dense.count", 1);
    lsi_obs::warn!("robust_svd: falling back to dense Jacobi on the materialized operator");
    // Materialize column by column through the operator's own `apply`
    // (unit basis vectors), so the rung works for any `MatVec` — not
    // just explicit sparse matrices.
    let mut dense = DenseMatrix::zeros(m, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        a.apply(&e, dense.col_mut(j));
        e[j] = 0.0;
    }
    let svd = lsi_linalg::dense_svd(&dense)
        .map_err(Error::Linalg)?
        .truncate(k);
    if !svd_is_finite(&svd) {
        // Even the oracle saw non-finite data: the operator itself is
        // poisoned, and the most informative error is the first one.
        return Err(first_failure);
    }
    let report = fallback_report(&svd, Fallback::Dense, side_is_ata);
    Ok((svd, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_oracle;
    use lsi_sparse::gen::{random_term_doc, RowProfile};
    use lsi_sparse::CscMatrix;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An operator that poisons its output with NaN — but only for
    /// non-basis inputs, so the dense rung (which materializes through
    /// unit vectors) can still see the clean matrix. `budget` bounds
    /// how many applies get poisoned (`usize::MAX` = every one).
    struct NanInjector<'a> {
        inner: &'a CscMatrix,
        budget: AtomicUsize,
    }

    impl NanInjector<'_> {
        fn poison(&self, x: &[f64], y: &mut [f64]) {
            let basis_vector = x.iter().filter(|v| **v != 0.0).count() <= 1;
            if !basis_vector
                && self
                    .budget
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                    .is_ok()
            {
                if let Some(y0) = y.first_mut() {
                    *y0 = f64::NAN;
                }
            }
        }
    }

    impl lsi_sparse::MatVec for NanInjector<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
            self.poison(x, y);
        }
        fn apply_t(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply_t(x, y);
            self.poison(x, y);
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
    }

    /// An operator whose `apply_t` is *not* the transpose of `apply`:
    /// the implied Gram operator is non-symmetric, so Lanczos Ritz
    /// values never settle — the canonical stagnation adversary.
    struct Inconsistent<'a> {
        inner: &'a CscMatrix,
    }

    impl lsi_sparse::MatVec for Inconsistent<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
        }
        fn apply_t(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply_t(x, y);
            // Shear the result: y_i += 0.7 * y_{i+1}. Deterministic,
            // finite, and decisively not Aᵀ.
            for i in 0..y.len().saturating_sub(1) {
                y[i] += 0.7 * y[i + 1];
            }
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
    }

    #[test]
    fn clean_operator_takes_the_lanczos_rung() {
        let a = random_term_doc(40, 30, 0.15, RowProfile::Uniform, 3, 7);
        let (svd, report) = robust_svd(&a, 5, &RobustOptions::default()).unwrap();
        assert_eq!(report.fallback, Fallback::None);
        assert!(report.steps > 0, "the Lanczos rung actually ran");
        let oracle = dense_oracle(&a, 5).unwrap();
        for (got, want) in svd.s.iter().zip(oracle.s.iter()) {
            assert!((got - want).abs() < 1e-8 * want.max(1.0));
        }
    }

    #[test]
    fn nan_budget_falls_back_to_randomized() {
        // One poisoned apply kills the Lanczos attempt; the randomized
        // rung then runs against the (now clean) operator.
        let a = random_term_doc(40, 30, 0.15, RowProfile::Uniform, 3, 7);
        let adversary = NanInjector {
            inner: &a,
            budget: AtomicUsize::new(1),
        };
        let (svd, report) = robust_svd(&adversary, 4, &RobustOptions::default()).unwrap();
        assert_eq!(report.fallback, Fallback::Randomized);
        assert!(svd.s.iter().all(|s| s.is_finite()));
        // Usable result: singular values match the clean oracle.
        let oracle = dense_oracle(&a, 4).unwrap();
        // Subspace iteration at default settings is a coarser tool than
        // Lanczos — "usable" here means percent-level agreement, not
        // convergence-tolerance agreement.
        for (got, want) in svd.s.iter().zip(oracle.s.iter()) {
            assert!(
                (got - want).abs() < 2e-2 * want.max(1.0),
                "randomized fallback should still be usable: {got} vs {want}"
            );
        }
    }

    #[test]
    fn persistent_nan_falls_back_to_dense() {
        // Every non-basis apply is poisoned: Lanczos and randomized both
        // fail, and the dense rung (materializing via unit vectors)
        // recovers the true decomposition.
        let a = random_term_doc(25, 20, 0.2, RowProfile::Uniform, 3, 11);
        let adversary = NanInjector {
            inner: &a,
            budget: AtomicUsize::new(usize::MAX),
        };
        let (svd, report) = robust_svd(&adversary, 3, &RobustOptions::default()).unwrap();
        assert_eq!(report.fallback, Fallback::Dense);
        let oracle = dense_oracle(&a, 3).unwrap();
        for (got, want) in svd.s.iter().zip(oracle.s.iter()) {
            assert!((got - want).abs() < 1e-8 * want.max(1.0));
        }
    }

    #[test]
    fn lanczos_alone_reports_nonfinite_error() {
        let a = random_term_doc(30, 20, 0.2, RowProfile::Uniform, 3, 3);
        let adversary = NanInjector {
            inner: &a,
            budget: AtomicUsize::new(usize::MAX),
        };
        let err = lanczos_svd(&adversary, 3, &LanczosOptions::default()).unwrap_err();
        assert!(
            matches!(err, Error::NonFinite { .. }),
            "expected NonFinite, got {err:?}"
        );
    }

    #[test]
    fn stagnating_operator_trips_the_watchdog_and_degrades() {
        let a = random_term_doc(60, 50, 0.15, RowProfile::Uniform, 3, 13);
        let adversary = Inconsistent { inner: &a };
        // Directly: the watchdog converts endless iteration into a
        // typed stall. `max_steps` must stay below the Gram dimension
        // (50): exhausting the whole space makes the tridiagonal
        // problem exact, which legitimately marks everything converged.
        let opts = LanczosOptions {
            stall_after: Some(6),
            max_steps: Some(40),
            tol: 1e-14,
            check_every: 1,
            ..LanczosOptions::default()
        };
        match lanczos_svd(&adversary, 5, &opts) {
            Err(Error::Stalled { .. }) => {}
            Ok((_, report)) => panic!(
                "non-symmetric Gram should not converge cleanly: {report:?}"
            ),
            Err(other) => panic!("expected Stalled, got {other:?}"),
        }
        // Through the ladder: robust_svd still hands back a finite,
        // flagged decomposition.
        let robust_opts = RobustOptions {
            lanczos: opts,
            ..RobustOptions::default()
        };
        let (svd, report) = robust_svd(&adversary, 5, &robust_opts).unwrap();
        assert_ne!(report.fallback, Fallback::None);
        assert!(svd.s.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn dense_rung_respects_the_size_gate() {
        let a = random_term_doc(25, 20, 0.2, RowProfile::Uniform, 3, 11);
        let adversary = NanInjector {
            inner: &a,
            budget: AtomicUsize::new(usize::MAX),
        };
        let opts = RobustOptions {
            dense_max_elems: 10, // 25*20 = 500 > 10: gated off
            ..RobustOptions::default()
        };
        let err = robust_svd(&adversary, 3, &opts).unwrap_err();
        assert!(
            matches!(err, Error::NonFinite { .. }),
            "the original Lanczos failure should surface, got {err:?}"
        );
    }

    #[test]
    fn rank_too_large_is_not_retried() {
        let a = random_term_doc(10, 8, 0.3, RowProfile::Uniform, 2, 5);
        let err = robust_svd(&a, 9, &RobustOptions::default()).unwrap_err();
        assert!(matches!(err, Error::RankTooLarge { requested: 9, max: 8 }));
    }
}
