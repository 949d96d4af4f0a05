//! Single-vector Lanczos truncated SVD with full reorthogonalization.
//!
//! This follows the structure the paper assumes for its §4.2 cost model
//! (and that SVDPACKC's `las2` implements): tridiagonalize the Gram
//! operator `G` with `I` Lanczos iterations, solve the small symmetric
//! tridiagonal eigenproblem, and extract each accepted triplet's other
//! singular vector with one extra sparse product (`u = A v / σ`).
//!
//! Full reorthogonalization (two-pass classical Gram–Schmidt against
//! the whole basis per step, run on blocked panel kernels — `y = Qᵀw`
//! then `w -= Q y`) is used instead of `las2`'s selective scheme: at
//! the scales exercised here the `O(I² · dim)` cost is small next to
//! the sparse products, and it eliminates spurious duplicate Ritz
//! values entirely. The `perf_kernels` rows `lanczos_k50_secs` and
//! `lanczos_three_term_k50_secs` quantify that trade-off.
//! Ritz vectors are assembled with one blocked GEMM (`Y = Q S`), and
//! the report carries per-phase flop and wall-time accounting.
//!
//! Every hot phase runs on the persistent thread pool once the problem
//! crosses the calibrated thresholds: the Gram products use the
//! nnz-balanced sparse matvecs (`lsi-sparse`), the reorthogonalization
//! sweeps ride the parallel panel kernels (`lsi-linalg::gemm`), and
//! the Ritz GEMM splits output columns. All of them are element-
//! deterministic, so results are bit-identical for any
//! `LSI_NUM_THREADS` setting.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lsi_linalg::ops::matmul;
use lsi_linalg::qr::{orthogonalize_against, orthogonalize_against_robust};
use lsi_linalg::svd::Svd;
use lsi_linalg::tridiag::{tridiag_eigen, tridiag_eigen_last_row, SymTridiag};
use lsi_linalg::{vecops, DenseMatrix};
use lsi_sparse::MatVec;

use crate::operator::{gram_apply, GramSide};
use crate::{Error, Result};

/// Reorthogonalization policy for the Lanczos basis.
///
/// In exact arithmetic the three-term recurrence keeps the basis
/// orthogonal by itself; in floating point it famously does not
/// (spurious duplicate Ritz values appear as soon as a triplet
/// converges). The two strategies trade the `O(I² · dim)` cleanup cost
/// against that risk — `perf_kernels` times both on one matrix
/// (`lanczos_k50_secs`, `lanczos_three_term_k50_secs`), and the
/// duplicate-Ritz pathology of `ThreeTermOnly` is demonstrated in this
/// module's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reorth {
    /// Two classical Gram–Schmidt panel passes against the whole basis
    /// each step (robust default; what SVDPACK calls full
    /// reorthogonalization).
    #[default]
    Full,
    /// The bare three-term recurrence. Fast and *unreliable* beyond a
    /// few dozen steps — present for the ablation, not for use.
    ThreeTermOnly,
}

/// Tuning knobs for [`lanczos_svd`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Maximum Lanczos basis size. `None` picks
    /// `min(dim, max(2k + 30, 4k))`, which comfortably brackets the
    /// usual "few iterations per wanted triplet" behaviour.
    pub max_steps: Option<usize>,
    /// Relative convergence tolerance on the Ritz residual bound
    /// (`|β_j s_last| ≤ tol · θ_max`).
    pub tol: f64,
    /// Seed for the random starting vector (the run is deterministic in
    /// this seed).
    pub seed: u64,
    /// How often (in steps) the tridiagonal eigenproblem is solved to
    /// test convergence.
    pub check_every: usize,
    /// Reorthogonalization policy.
    pub reorth: Reorth,
    /// Stagnation watchdog: abort with [`Error::Stalled`] after this
    /// many consecutive convergence checks in which the count of
    /// converged triplets never reached a new maximum. `None` (the
    /// default) disables the watchdog and preserves the historical
    /// accept-what-we-have behaviour; [`crate::robust_svd`] arms it so
    /// a wedged iteration falls through to the next rung of the
    /// fallback ladder instead of burning the full basis budget.
    pub stall_after: Option<usize>,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_steps: None,
            tol: 1e-12,
            seed: 0x5EED,
            check_every: 8,
            reorth: Reorth::Full,
            stall_after: None,
        }
    }
}

/// Which rung of the staged SVD ladder produced the result (see
/// [`crate::robust_svd`]). Plain [`lanczos_svd`] always reports
/// [`Fallback::None`]; the robust driver upgrades the flag when the
/// Lanczos attempt failed and a lower rung served the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// The Lanczos driver itself produced the decomposition.
    #[default]
    None,
    /// Lanczos failed; randomized subspace iteration served the request.
    Randomized,
    /// Both iterative drivers failed; the dense Jacobi oracle served it.
    Dense,
}

/// Flop and wall-clock accounting for one phase of the driver.
///
/// Since the observability refactor this is `lsi-obs`'s unified
/// [`PhaseStats`] (which adds call counts, byte accounting, and a
/// clamped [`PhaseStats::mflops`] that stays finite on sub-tick
/// phases); the re-export keeps the historical `lsi_svd::PhaseStats`
/// path working.
pub use lsi_obs::PhaseStats;

/// Execution report: the quantities of the paper's cost model, plus
/// per-phase flop/time accounting for the kernel work.
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosReport {
    /// Lanczos iterations performed — the `I` of §4.2's
    /// `I × cost(GᵀG x) + trp × cost(G x)`.
    pub steps: usize,
    /// Triplets that met the residual tolerance at the last convergence
    /// check. Below `accepted` when the basis cap ended the run first.
    pub converged: usize,
    /// Accepted triplets returned (`trp` in the cost model).
    pub accepted: usize,
    /// Invariant-subspace restarts performed.
    pub restarts: usize,
    /// Which Gram side was used.
    pub side_is_ata: bool,
    /// Sparse Gram-operator applies (`w = G q`, 4·nnz flops each).
    pub gram: PhaseStats,
    /// Reorthogonalization work: the CGS2 panel sweeps of every step,
    /// restart cleanups, and the other-side incremental cleanup.
    pub reorth: PhaseStats,
    /// Ritz-vector assembly (`Y = Q S`, one blocked GEMM) plus the
    /// other-side recovery products.
    pub ritz: PhaseStats,
    /// The tridiagonal eigensolves: the last-row solve of every
    /// convergence check and the full solve at final extraction. Wall
    /// time only; their flops are not modelled.
    pub tridiag: PhaseStats,
    /// Which rung of the staged fallback ladder produced the result
    /// ([`Fallback::None`] unless [`crate::robust_svd`] degraded).
    pub fallback: Fallback,
}

/// Truncated SVD: the `k` largest singular triplets of `a`.
///
/// Returns the decomposition and a [`LanczosReport`]. If `a` has rank
/// `r < k`, only the `r` numerically nonzero triplets are returned (the
/// report's `accepted` reflects this).
pub fn lanczos_svd<M: MatVec + ?Sized>(
    a: &M,
    k: usize,
    opts: &LanczosOptions,
) -> Result<(Svd, LanczosReport)> {
    let _lanczos_span = lsi_obs::span("lanczos");
    let m = a.nrows();
    let n = a.ncols();
    let max_rank = m.min(n);
    if k > max_rank {
        return Err(Error::RankTooLarge {
            requested: k,
            max: max_rank,
        });
    }
    let side = GramSide::auto(m, n);
    let dim = side.dim(m, n);
    let report_empty = LanczosReport {
        steps: 0,
        converged: 0,
        accepted: 0,
        restarts: 0,
        side_is_ata: side == GramSide::AtA,
        gram: PhaseStats::default(),
        reorth: PhaseStats::default(),
        ritz: PhaseStats::default(),
        tridiag: PhaseStats::default(),
        fallback: Fallback::None,
    };
    if k == 0 || dim == 0 {
        return Ok((
            Svd {
                u: DenseMatrix::zeros(m, 0),
                s: Vec::new(),
                v: DenseMatrix::zeros(n, 0),
            },
            report_empty,
        ));
    }

    let max_basis = opts
        .max_steps
        .unwrap_or_else(|| (2 * k + 30).max(4 * k))
        .min(dim)
        .max(k.min(dim));

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut basis = DenseMatrix::zeros(dim, max_basis);
    let mut alphas: Vec<f64> = Vec::with_capacity(max_basis);
    let mut betas: Vec<f64> = Vec::with_capacity(max_basis);
    let mut scratch = vec![0.0; m.max(n)];
    let mut w = vec![0.0; dim];
    let mut restarts = 0usize;

    // Random unit start vector.
    {
        let q0 = basis.col_mut(0);
        for v in q0.iter_mut() {
            *v = rng.random::<f64>() - 0.5;
        }
        vecops::normalize(q0);
    }

    let mut theta_max_est = 0.0f64;
    let mut steps = 0usize;
    let mut converged = 0usize;
    let mut gram_stats = PhaseStats::default();
    let mut reorth_stats = PhaseStats::default();
    let mut ritz_stats = PhaseStats::default();
    let mut tridiag_stats = PhaseStats::default();
    let gram_apply_flops = 4.0 * a.nnz() as f64;
    // One CGS2 sweep against `c` basis columns: two passes of
    // (y = Qᵀw, w -= Q y), each 4·c·dim flops.
    let cgs2_flops = |c: usize| 8.0 * c as f64 * dim as f64;

    // Stagnation watchdog state: checks since `converged` last reached
    // a new maximum (the ratchet ignores transient dips, which happen
    // when a new direction perturbs an almost-settled Ritz pair).
    let mut max_converged = 0usize;
    let mut checks_since_progress = 0usize;

    while steps < max_basis {
        let j = steps;
        // w = G q_j
        let inject_nan = match lsi_fault::eval(lsi_fault::points::SVD_LANCZOS_ITER) {
            Some(lsi_fault::Fired::ReturnErr) => {
                return Err(Error::Fault {
                    point: lsi_fault::points::SVD_LANCZOS_ITER,
                })
            }
            Some(lsi_fault::Fired::InjectNan) => true,
            None => false,
        };
        let t0 = Instant::now();
        gram_apply(a, side, basis.col(j), &mut w, &mut scratch);
        gram_stats.add(gram_apply_flops, t0.elapsed().as_secs_f64());
        if inject_nan {
            w[0] = f64::NAN;
        }
        // No debug_assert on `w` here: a non-finite Gram product is
        // *expected* hostile input (adversarial operator, injected
        // fault), handled by the checked alpha/beta guards below.
        let alpha = vecops::dot(basis.col(j), &w);
        // A single NaN/Inf escaping the operator poisons `alpha` (a dot
        // over all of `w`), so this one scalar check guards the whole
        // product without touching the hot loop's memory traffic.
        if !alpha.is_finite() {
            return Err(Error::NonFinite {
                what: "Lanczos diagonal alpha",
                step: j,
            });
        }
        alphas.push(alpha);
        theta_max_est = theta_max_est.max(alpha.abs());
        // Three-term recurrence then full reorthogonalization (the
        // reorthogonalization subsumes the recurrence's subtraction, but
        // doing the explicit subtraction first keeps the corrections
        // small and cheap). `w` is separate storage, so the basis
        // columns are borrowed in place — no copies.
        vecops::axpy(-alpha, basis.col(j), &mut w);
        if j > 0 {
            vecops::axpy(-betas[j - 1], basis.col(j - 1), &mut w);
        }
        let t0 = Instant::now();
        let beta = match opts.reorth {
            Reorth::Full => {
                let b = orthogonalize_against(&basis, j + 1, &mut w);
                reorth_stats.add(cgs2_flops(j + 1), t0.elapsed().as_secs_f64());
                b
            }
            Reorth::ThreeTermOnly => vecops::nrm2(&w),
        };
        if !beta.is_finite() {
            return Err(Error::NonFinite {
                what: "Lanczos off-diagonal beta",
                step: j,
            });
        }
        steps += 1;

        let breakdown = beta <= f64::EPSILON * theta_max_est.max(1.0) * 16.0;
        if steps < max_basis {
            if breakdown {
                // Invariant subspace found. If it already spans at least
                // k directions we can stop; otherwise restart with a
                // fresh random vector orthogonal to the basis.
                betas.push(0.0);
                let mut fresh = vec![0.0; dim];
                let mut ok = false;
                for _try in 0..4 {
                    for v in fresh.iter_mut() {
                        *v = rng.random::<f64>() - 0.5;
                    }
                    let t0 = Instant::now();
                    // A restart vector is random, so most of it lies in
                    // the basis's span; use the robust variant (the
                    // basis may also have drifted under
                    // `Reorth::ThreeTermOnly`).
                    let rem = orthogonalize_against_robust(&basis, steps, &mut fresh);
                    reorth_stats.add(cgs2_flops(steps), t0.elapsed().as_secs_f64());
                    if rem > 1e-8 {
                        vecops::normalize(&mut fresh);
                        ok = true;
                        break;
                    }
                }
                if !ok {
                    // The basis spans the whole space; T is exact.
                    betas.pop();
                    break;
                }
                restarts += 1;
                basis.col_mut(steps).copy_from_slice(&fresh);
            } else {
                betas.push(beta);
                vecops::scal(1.0 / beta, &mut w);
                basis.col_mut(steps).copy_from_slice(&w);
            }
        } else if breakdown {
            // Final step ended on an invariant subspace: T is exact for
            // the spanned subspace.
        }

        // Convergence test.
        let at_end = steps == max_basis;
        if steps >= k && (steps.is_multiple_of(opts.check_every) || at_end || breakdown) {
            let t = SymTridiag::new(alphas.clone(), betas[..steps - 1].to_vec())?;
            // The residual bound only reads the last eigenvector row,
            // so the O(n²) last-row solver suffices here; the full
            // O(n³) decomposition runs once, at final extraction.
            let t0 = Instant::now();
            let (theta, s_last) = tridiag_eigen_last_row(&t)?;
            tridiag_stats.add(0.0, t0.elapsed().as_secs_f64());
            // The next basis vector's weight: zero only at a breakdown,
            // where T is exact for the spanned subspace. At the basis
            // cap it is not, and pairs it leaves unconverged stay so.
            let beta_last = if breakdown { 0.0 } else { beta };
            let theta_scale = theta.first().copied().unwrap_or(0.0).abs().max(1e-300);
            converged = 0;
            for i in 0..k.min(theta.len()) {
                let bound = (beta_last * s_last[i]).abs();
                if bound <= opts.tol * theta_scale {
                    converged += 1;
                } else {
                    break;
                }
            }
            // The cap ends the run before the watchdog can: what it
            // returns is what the basis holds, converged or not.
            if converged >= k || breakdown && steps >= dim || at_end {
                break;
            }
            // Stagnation watchdog: a healthy run keeps ratcheting the
            // converged count upward; a wedged one (non-symmetric or
            // inconsistent operator, hopeless tolerance) stops making
            // progress long before the basis budget runs out.
            if converged > max_converged {
                max_converged = converged;
                checks_since_progress = 0;
            } else {
                checks_since_progress += 1;
                if let Some(limit) = opts.stall_after {
                    if checks_since_progress >= limit {
                        lsi_obs::count("svd.lanczos.stalls.count", 1);
                        return Err(Error::Stalled { converged });
                    }
                }
            }
        }
    }

    // Final Ritz extraction.
    let t = SymTridiag::new(alphas.clone(), betas[..steps - 1].to_vec())?;
    let t0 = Instant::now();
    let (theta, s) = tridiag_eigen(&t)?;
    tridiag_stats.add(0.0, t0.elapsed().as_secs_f64());
    let keep = k.min(theta.len());

    // Ritz vectors Y = Q S, assembled in one blocked GEMM over the
    // retained eigenvector columns.
    let basis_used = basis.truncate_cols(steps);
    let t0 = Instant::now();
    let mut ritz = matmul(&basis_used, &s.truncate_cols(keep)).map_err(Error::Linalg)?;
    for i in 0..keep {
        vecops::normalize(ritz.col_mut(i));
    }
    ritz_stats.add(
        2.0 * dim as f64 * steps as f64 * keep as f64,
        t0.elapsed().as_secs_f64(),
    );

    // Singular values; drop triplets whose Ritz value sits at the noise
    // floor of the Gram operator. Working on AᵀA squares the spectrum,
    // so eigenvalues below ~eps·θ₁ are indistinguishable from zero —
    // equivalently, singular values below ~sqrt(eps)·σ₁ cannot be
    // resolved (the same limitation SVDPACK's las2 documents).
    let sigma_all: Vec<f64> = theta
        .iter()
        .take(keep)
        .map(|&t| t.max(0.0).sqrt())
        .collect();
    let theta_scale = theta.first().copied().unwrap_or(0.0).max(0.0);
    let theta_floor = theta_scale * f64::EPSILON * 64.0;
    let rank_cut = theta[..keep]
        .iter()
        .take_while(|&&t| t > theta_floor && t > 0.0)
        .count();
    let sigma = sigma_all[..rank_cut].to_vec();
    let ritz = ritz.truncate_cols(rank_cut);

    // Recover the other side: other_i = Op(y_i) / sigma_i.
    let other_len = match side {
        GramSide::AtA => m,
        GramSide::AAt => n,
    };
    let mut other = DenseMatrix::zeros(other_len, rank_cut);
    let mut tmp = vec![0.0; other_len];
    for i in 0..rank_cut {
        let t0 = Instant::now();
        match side {
            GramSide::AtA => a.apply(ritz.col(i), &mut tmp),
            GramSide::AAt => a.apply_t(ritz.col(i), &mut tmp),
        }
        ritz_stats.add(2.0 * a.nnz() as f64, t0.elapsed().as_secs_f64());
        vecops::scal(1.0 / sigma[i], &mut tmp);
        // Clean residual non-orthogonality against previous columns.
        if i > 0 {
            let t0 = Instant::now();
            orthogonalize_against_robust(&other, i, &mut tmp);
            reorth_stats.add(
                8.0 * i as f64 * other_len as f64,
                t0.elapsed().as_secs_f64(),
            );
            vecops::normalize(&mut tmp);
        }
        other.col_mut(i).copy_from_slice(&tmp);
    }

    let (u, v) = match side {
        GramSide::AtA => (other, ritz),
        GramSide::AAt => (ritz, other),
    };

    // Publish the per-phase breakdown under the open span (e.g.
    // `build.svd.lanczos.gram` when the model builder drives this).
    // These phases were timed out-of-band, so they sit alongside the
    // span's own totals rather than adding into them.
    lsi_obs::record_phase("gram", &gram_stats);
    lsi_obs::record_phase("reorth", &reorth_stats);
    lsi_obs::record_phase("ritz", &ritz_stats);
    lsi_obs::record_phase("tridiag", &tridiag_stats);
    lsi_obs::count("svd.lanczos.steps.count", steps as u64);
    lsi_obs::count("svd.lanczos.restarts.count", restarts as u64);

    let report = LanczosReport {
        steps,
        converged: converged.min(rank_cut),
        accepted: rank_cut,
        restarts,
        side_is_ata: side == GramSide::AtA,
        gram: gram_stats,
        reorth: reorth_stats,
        ritz: ritz_stats,
        tridiag: tridiag_stats,
        fallback: Fallback::None,
    };
    Ok((Svd { u, s: sigma, v }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_oracle;
    use lsi_linalg::ops::matmul_tn;
    use lsi_sparse::gen::{planted_spectrum, random_term_doc, RowProfile};
    use lsi_sparse::CooMatrix;

    fn check_against_oracle(a: &lsi_sparse::CscMatrix, k: usize, tol: f64) {
        let (svd, report) = lanczos_svd(a, k, &LanczosOptions::default()).unwrap();
        let oracle = dense_oracle(a, k).unwrap();
        assert!(report.accepted <= k);
        for (i, (got, want)) in svd.s.iter().zip(oracle.s.iter()).enumerate() {
            assert!(
                (got - want).abs() < tol * want.max(1.0),
                "sigma_{i}: {got} vs oracle {want}"
            );
        }
        // Residual check: ||A v - sigma u|| small.
        let dense = a.to_dense();
        for i in 0..svd.s.len() {
            let av = lsi_linalg::ops::matvec(&dense, svd.v.col(i)).unwrap();
            let r: f64 = av
                .iter()
                .zip(svd.u.col(i).iter())
                .map(|(x, y)| (x - svd.s[i] * y).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(r < tol * svd.s[0].max(1.0), "triplet {i} residual {r}");
        }
        // Orthonormality of both factors.
        let r = svd.s.len();
        let utu = matmul_tn(&svd.u, &svd.u).unwrap();
        assert!(utu.fro_distance(&DenseMatrix::identity(r)).unwrap() < 1e-8);
        let vtv = matmul_tn(&svd.v, &svd.v).unwrap();
        assert!(vtv.fro_distance(&DenseMatrix::identity(r)).unwrap() < 1e-8);
    }

    #[test]
    fn lanczos_matches_oracle_on_random_tall() {
        let a = random_term_doc(60, 25, 0.15, RowProfile::Uniform, 3, 1);
        check_against_oracle(&a, 8, 1e-8);
    }

    #[test]
    fn lanczos_matches_oracle_on_random_wide() {
        let a = random_term_doc(20, 70, 0.12, RowProfile::Uniform, 3, 2);
        check_against_oracle(&a, 6, 1e-8);
    }

    #[test]
    fn lanczos_recovers_planted_spectrum() {
        let (a, sigmas) = planted_spectrum(40, 30, &[9.0, 5.0, 2.0, 0.5], 3);
        let (svd, _) = lanczos_svd(&a, 4, &LanczosOptions::default()).unwrap();
        for (got, want) in svd.s.iter().zip(sigmas.iter()) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn lanczos_handles_rank_deficiency() {
        // Rank-2 matrix, ask for 5 triplets: only 2 returned.
        let (a, _) = planted_spectrum(15, 12, &[4.0, 1.0], 9);
        let (svd, report) = lanczos_svd(&a, 5, &LanczosOptions::default()).unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(svd.s.len(), 2);
        assert!((svd.s[0] - 4.0).abs() < 1e-7);
        assert!((svd.s[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn lanczos_k_zero_returns_empty() {
        let a = random_term_doc(10, 8, 0.2, RowProfile::Uniform, 2, 4);
        let (svd, report) = lanczos_svd(&a, 0, &LanczosOptions::default()).unwrap();
        assert!(svd.s.is_empty());
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn lanczos_rejects_oversized_rank() {
        let a = random_term_doc(5, 4, 0.5, RowProfile::Uniform, 2, 4);
        assert!(matches!(
            lanczos_svd(&a, 5, &LanczosOptions::default()),
            Err(Error::RankTooLarge { requested: 5, max: 4 })
        ));
    }

    #[test]
    fn lanczos_full_rank_small_matrix() {
        // k = min(m, n): complete decomposition.
        let mut coo = CooMatrix::new(4, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (1, 1, -1.0),
            (2, 2, 3.0),
            (3, 0, 1.0),
            (0, 2, 0.5),
        ] {
            coo.push(r, c, v).unwrap();
        }
        let a = coo.to_csc();
        check_against_oracle(&a, 3, 1e-9);
    }

    #[test]
    fn lanczos_is_deterministic_in_seed() {
        let a = random_term_doc(30, 30, 0.1, RowProfile::Uniform, 3, 5);
        let o = LanczosOptions::default();
        let (s1, _) = lanczos_svd(&a, 4, &o).unwrap();
        let (s2, _) = lanczos_svd(&a, 4, &o).unwrap();
        assert_eq!(s1.s, s2.s);
    }

    #[test]
    fn lanczos_on_zero_matrix() {
        let a = lsi_sparse::CscMatrix::zeros(6, 5);
        let (svd, report) = lanczos_svd(&a, 3, &LanczosOptions::default()).unwrap();
        assert!(svd.s.is_empty(), "zero matrix has no nonzero triplets");
        assert_eq!(report.accepted, 0);
    }

    #[test]
    fn lanczos_identity_like_matrix_with_restarts() {
        // Identity has one eigenvalue with multiplicity n; Lanczos needs
        // restarts to find repeated values.
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 2.0).unwrap();
        }
        let a = coo.to_csc();
        let (svd, _) = lanczos_svd(&a, 4, &LanczosOptions::default()).unwrap();
        assert_eq!(svd.s.len(), 4);
        for &sv in &svd.s {
            assert!((sv - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn full_cgs2_has_no_ghost_duplicates_where_three_term_only_does() {
        // Regression for the panel-CGS2 rewrite of Reorth::Full: the
        // adaptive one-or-two-pass orthogonalization must still keep
        // every Ritz value distinct on a run long enough that bare
        // three-term Lanczos manufactures ghost copies of sigma_1.
        let (a, _) = planted_spectrum(120, 100, &[50.0, 10.0, 5.0, 2.0, 1.0, 0.5, 0.2], 4);
        let run = |reorth: Reorth| {
            let opts = LanczosOptions {
                reorth,
                max_steps: Some(90),
                tol: 1e-14,
                ..Default::default()
            };
            lanczos_svd(&a, 7, &opts).unwrap().0
        };
        let dup_count = |s: &[f64]| {
            s.windows(2)
                .filter(|w| (w[0] - w[1]).abs() < 1e-6 * s[0].max(1.0))
                .count()
        };
        let full = run(Reorth::Full);
        let bare = run(Reorth::ThreeTermOnly);
        assert_eq!(
            dup_count(&full.s),
            0,
            "full CGS2 reorthogonalization admitted a duplicate: {:?}",
            full.s
        );
        assert!(
            dup_count(&bare.s) > 0,
            "expected ghost duplicates without reorthogonalization: {:?}",
            bare.s
        );
    }

    #[test]
    fn three_term_only_degrades_basis_orthogonality() {
        // The classic Lanczos pathology: without reorthogonalization the
        // computed factors lose orthogonality once extreme Ritz values
        // converge. Compare the orthogonality defect of V across
        // strategies on a long run.
        let (a, _) = planted_spectrum(120, 100, &[50.0, 10.0, 5.0, 2.0, 1.0, 0.5, 0.2], 4);
        let run = |reorth: Reorth| -> f64 {
            let opts = LanczosOptions {
                reorth,
                max_steps: Some(90),
                tol: 1e-14,
                ..Default::default()
            };
            let (svd, _) = lanczos_svd(&a, 7, &opts).unwrap();
            lsi_linalg::ortho::orthogonality_defect_fro(&svd.v, svd.s.len()).unwrap()
        };
        let full = run(Reorth::Full);
        let bare = run(Reorth::ThreeTermOnly);
        assert!(full < 1e-8, "full reorthogonalization defect {full}");
        assert!(
            bare > full * 100.0 || bare > 1e-6,
            "three-term-only should visibly degrade: {bare} vs {full}"
        );
    }

    #[test]
    fn a_capped_basis_reports_only_the_pairs_that_converged() {
        let a = random_term_doc(60, 50, 0.1, RowProfile::Uniform, 3, 6);
        let k = 5;
        // Uncapped, every pair meets the tolerance.
        let (_, full) = lanczos_svd(&a, k, &LanczosOptions::default()).unwrap();
        assert_eq!(full.converged, k, "{full:?}");
        // Capped at 8 steps, the run returns what the basis holds and says
        // how little of it converged. The watchdog, armed to trip at the
        // last check, does not: the cap ends the run first.
        let capped = LanczosOptions {
            max_steps: Some(8),
            check_every: 1,
            stall_after: Some(4),
            ..LanczosOptions::default()
        };
        let (svd, report) = lanczos_svd(&a, k, &capped).unwrap();
        assert_eq!((report.steps, report.accepted, svd.s.len()), (8, k, k));
        assert!(report.converged < k, "{report:?}");
    }

    #[test]
    fn report_counts_iterations() {
        let a = random_term_doc(50, 40, 0.1, RowProfile::Uniform, 3, 6);
        let (_, report) = lanczos_svd(&a, 5, &LanczosOptions::default()).unwrap();
        assert!(report.steps >= 5);
        assert!(report.steps <= 40);
        assert!(report.side_is_ata);
    }

    #[test]
    fn report_accounts_per_phase_flops() {
        let a = random_term_doc(60, 50, 0.1, RowProfile::Uniform, 3, 8);
        let (_, report) = lanczos_svd(&a, 5, &LanczosOptions::default()).unwrap();
        // Every phase ran and did arithmetic.
        assert_eq!(report.gram.flops, report.steps as f64 * 4.0 * a.nnz() as f64);
        assert!(report.reorth.flops > 0.0, "full reorth accounted");
        assert!(report.ritz.flops > 0.0, "ritz assembly accounted");
        // At least one convergence check and the final extraction solve T.
        assert!(report.tridiag.calls >= 2, "{:?}", report.tridiag);
        assert!(report.gram.secs >= 0.0 && report.reorth.secs >= 0.0);
        for phase in [report.gram, report.reorth, report.ritz] {
            assert!(phase.mflops().is_finite());
        }
        // ThreeTermOnly performs no panel reorthogonalization at all.
        let bare = lanczos_svd(
            &a,
            5,
            &LanczosOptions {
                reorth: Reorth::ThreeTermOnly,
                ..Default::default()
            },
        )
        .unwrap()
        .1;
        // (Other-side cleanup still contributes, so compare step work.)
        assert!(bare.reorth.flops < report.reorth.flops);
    }
}
