//! Reduced-precision candidate generation — the "precision ladder".
//!
//! At collection scale the scoring sweep is memory-bandwidth-bound:
//! every query streams the full f64 `V_k` through a GEMV even though
//! only the top few documents need exact scores. This module keeps a
//! compressed replica of `V_k` (f32, or scaled-i8 with per-row scale
//! factors), scores *all* documents through it, over-fetches the top
//! `c = max(4z, 64)` candidates, and lets the scoring executor
//! (`crate::query`) re-rank just those candidates exactly in f64.
//! Related matrix-model work (Antonellis & Gallopoulos, cs/0602076)
//! shows retrieval in the reduced space is robust to reduced-precision
//! document representations — exactly the property a candidate pass
//! needs.
//!
//! Exactness contract: for [`Precision::F32`], a conservative error
//! bound on the approximate cosines plus a margin check against the
//! candidate cutoff guarantees the re-ranked top-`z` is *bit-identical*
//! to the exact f64 scan; when the margin cannot be certified (heavy
//! ties near the cutoff, or non-finite sweep output) the executor falls
//! back to the f64 sweep over the same rows, so correctness never
//! depends on the bound being tight. [`Precision::I8`] is explicitly
//! approximate: the candidate *set* may differ from exact near the
//! cutoff (validated by a recall@10 ≥ 0.99 statistical test), but
//! returned scores are still exact f64 cosines because the survivors
//! are re-ranked.
//!
//! Coherence: the store is derived data, rebuilt by
//! `LsiModel::refresh_doc_norms` — the single hook every `V`-mutating
//! path (build, fold-in, SVD-update, recompute, load) already calls —
//! and is never serialized; only the [`Precision`] mode persists.

use lsi_linalg::{lowp, DenseMatrix};

/// Scoring precision of the candidate-generation sweep.
///
/// `Exact` scores every document in f64 (the classic path). `F32` and
/// `I8` stream a compressed replica of `V_k` for candidate generation
/// and re-rank the candidates exactly in f64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full f64 scan; no compressed store is kept.
    Exact,
    /// f32 replica (half the bytes); certified-exact top-`z` via the
    /// margin check, with automatic fallback to the exact scan.
    F32,
    /// Scaled-i8 replica (an eighth of the bytes) with per-row scale
    /// factors; approximate candidate set, exact re-ranked scores.
    I8,
}

impl Precision {
    /// Canonical CLI spelling (`f64`, `f32`, `i8`).
    pub fn name(&self) -> &'static str {
        match self {
            Precision::Exact => "f64",
            Precision::F32 => "f32",
            Precision::I8 => "i8",
        }
    }

    /// Parse a CLI spelling; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<Precision> {
        match name {
            "f64" => Some(Precision::Exact),
            "f32" => Some(Precision::F32),
            "i8" => Some(Precision::I8),
            _ => None,
        }
    }
}

/// Candidate over-fetch multiplier: the sweep keeps `4·z` candidates
/// for a top-`z` request. Calibrated on the `compressed_scoring.rs`
/// property harness (random Zipf corpora with duplicate-document ties):
/// at 4x the f32 margin check certifies every sampled query, and the
/// i8 ladder holds recall@10 ≥ 0.99; 2x left the margin uncertified on
/// tie-heavy corpora, forcing exact-scan fallbacks.
pub(crate) const OVER_FETCH_FACTOR: usize = 4;

/// Candidate floor: never fetch fewer than this many candidates, so
/// small `z` requests still amortize the re-rank against realistic tie
/// clusters. Same calibration harness as [`OVER_FETCH_FACTOR`]; 64
/// also keeps the re-rank cost negligible (64 rows of `V` per query)
/// in the `perf_kernels --compressed` measurement.
pub(crate) const OVER_FETCH_FLOOR: usize = 64;

/// Safety multiplier on the analytic f32 cosine error bound. The
/// rounding analysis below gives ≈ (k+8)·2⁻²⁴; the shipped bound uses
/// 2⁻²³ and this factor on top (a 16x cushion overall). Verified
/// empirically by the `compressed_scoring.rs` harness: the observed
/// |approx − exact| never exceeds the *unscaled* analytic bound, while
/// the cushioned bound still certifies the margin on every sampled
/// query at the 4x over-fetch.
pub(crate) const F32_ERR_SAFETY: f64 = 8.0;

/// Conservative absolute error bound between the f32 sweep's cosine
/// and the exact f64 cosine, for `k`-factor rows.
///
/// Rounding budget (unit roundoff u = 2⁻²⁴ for f32): casting each
/// operand entry contributes ≤ 2u, the k-term dot accumulation ≤ k·u
/// relative to Σ|v_j q_j| ≤ ‖v‖‖q‖ (Cauchy–Schwarz), and the two
/// reciprocal-norm multiplies ≤ 4u — in total ≤ (k+8)·u on a quantity
/// of magnitude ≤ 1. [`F32_ERR_SAFETY`] and the doubled epsilon make
/// the shipped bound 16x that analytic value.
pub(crate) fn f32_cosine_error_bound(k: usize) -> f64 {
    (k as f64 + 8.0) * F32_ERR_SAFETY * f32::EPSILON as f64
}

/// The compressed replica of `V_k`, stored column-major like `V` so
/// the sweep is unit-stride. Derived data: never serialized, rebuilt
/// whenever `V` or the precision mode changes.
#[derive(Debug, Clone)]
pub(crate) enum CompressedStore {
    /// f32 entries plus per-row reciprocal norms (`0` for zero rows,
    /// reproducing the exact path's zero-norm guard).
    F32 {
        /// Column-major `n x k` f32 copy of `V_k`.
        data: Vec<f32>,
        /// `1 / ‖v_i‖` per row (0 when the norm is 0).
        recip_norms: Vec<f32>,
    },
    /// i8 entries quantized per row by max-abs, plus the folded
    /// rescale factor `scale_i / (127 · ‖v_i‖)` per row.
    I8 {
        /// Column-major `n x k` quantized copy of `V_k`.
        data: Vec<i8>,
        /// `scale_i / (127 · ‖v_i‖)` per row (0 for zero rows).
        factors: Vec<f32>,
    },
}

impl CompressedStore {
    /// Build the store for `precision` from `v` and its precomputed row
    /// norms; `None` for [`Precision::Exact`].
    pub(crate) fn build(
        precision: Precision,
        v: &DenseMatrix,
        doc_norms: &[f64],
    ) -> Option<CompressedStore> {
        let (n, k) = v.shape();
        match precision {
            Precision::Exact => None,
            Precision::F32 => {
                let data: Vec<f32> = v.data().iter().map(|&x| x as f32).collect();
                let recip_norms = doc_norms
                    .iter()
                    .map(|&d| if d > 0.0 { (1.0 / d) as f32 } else { 0.0 })
                    .collect();
                Some(CompressedStore::F32 { data, recip_norms })
            }
            Precision::I8 => {
                let mut data = vec![0i8; n * k];
                let mut factors = vec![0.0f32; n];
                for i in 0..n {
                    let row = v.row_view(i);
                    let mut scale = 0.0f64;
                    for j in 0..k {
                        scale = scale.max(row.get(j).abs());
                    }
                    let dnorm = doc_norms[i];
                    if scale > 0.0 && dnorm > 0.0 {
                        factors[i] = (scale / (127.0 * dnorm)) as f32;
                        for j in 0..k {
                            data[j * n + i] = (row.get(j) / scale * 127.0).round() as i8;
                        }
                    }
                }
                Some(CompressedStore::I8 { data, factors })
            }
        }
    }

    /// Bytes the candidate sweep streams per query (matrix entries plus
    /// the per-row scale vector).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            CompressedStore::F32 { data, recip_norms } => {
                std::mem::size_of_val(data.as_slice())
                    + std::mem::size_of_val(recip_norms.as_slice())
            }
            CompressedStore::I8 { data, factors } => {
                std::mem::size_of_val(data.as_slice()) + std::mem::size_of_val(factors.as_slice())
            }
        }
    }

    /// Precision this store serves.
    pub(crate) fn precision(&self) -> Precision {
        match self {
            CompressedStore::F32 { .. } => Precision::F32,
            CompressedStore::I8 { .. } => Precision::I8,
        }
    }

    /// Margin the exact re-rank must clear for the top-`z` to be
    /// certified identical to the f64 sweep: the f32 cosine error
    /// bound, or `None` for the explicitly-approximate i8 ladder.
    pub(crate) fn rerank_margin(&self, k: usize) -> Option<f64> {
        match self {
            CompressedStore::F32 { .. } => Some(f32_cosine_error_bound(k)),
            CompressedStore::I8 { .. } => None,
        }
    }

    /// Approximate cosine scores against one projected query (`qnorm`
    /// is its f64 norm): of every document when `rows` is `None`
    /// (pooled GEMV), else of `rows[i]` into slot `i` (serial subset
    /// kernel; the executor shards it). Each subset score is
    /// bit-identical to the full sweep's: the subset kernels accumulate
    /// per row in the same column order. Deterministic across thread
    /// counts, like the f64 sweep.
    pub(crate) fn approx_scores(
        &self,
        qhat: &[f64],
        qnorm: f64,
        rows: Option<&[u32]>,
    ) -> lsi_linalg::Result<Vec<f32>> {
        let q32: Vec<f32> = qhat.iter().map(|&x| x as f32).collect();
        let rq = if qnorm > 0.0 { (1.0 / qnorm) as f32 } else { 0.0 };
        let k = qhat.len();
        let (mut y, scale) = match (self, rows) {
            (CompressedStore::F32 { data, recip_norms: s }, None) => {
                (lowp::matvec_f32(data, s.len(), k, &q32)?, s)
            }
            (CompressedStore::F32 { data, recip_norms: s }, Some(rows)) => {
                (lowp::matvec_f32_rows(data, s.len(), k, &q32, rows)?, s)
            }
            (CompressedStore::I8 { data, factors: s }, None) => {
                (lowp::matvec_i8(data, s.len(), k, &q32)?, s)
            }
            (CompressedStore::I8 { data, factors: s }, Some(rows)) => {
                (lowp::matvec_i8_rows(data, s.len(), k, &q32, rows)?, s)
            }
        };
        match rows {
            None => y.iter_mut().zip(scale).for_each(|(s, &f)| *s *= f * rq),
            Some(rows) => y
                .iter_mut()
                .zip(rows)
                .for_each(|(s, &r)| *s *= scale[r as usize] * rq),
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_v(n: usize, k: usize) -> (DenseMatrix, Vec<f64>) {
        let mut v = DenseMatrix::zeros(n, k);
        let mut state = 0x9E3779B97F4A7C15u64;
        for j in 0..k {
            for i in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v.set(i, j, (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
        let norms = (0..n).map(|i| v.row_view(i).nrm2()).collect();
        (v, norms)
    }

    #[test]
    fn precision_names_roundtrip() {
        for p in [Precision::Exact, Precision::F32, Precision::I8] {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("f16"), None);
    }

    #[test]
    fn exact_precision_builds_no_store() {
        let (v, norms) = sample_v(4, 3);
        assert!(CompressedStore::build(Precision::Exact, &v, &norms).is_none());
    }

    #[test]
    fn f32_store_halves_resident_bytes() {
        let (v, norms) = sample_v(100, 8);
        let s = CompressedStore::build(Precision::F32, &v, &norms).unwrap();
        assert_eq!(s.precision(), Precision::F32);
        let exact_bytes = v.data().len() * 8;
        assert_eq!(s.resident_bytes(), exact_bytes / 2 + 100 * 4);
    }

    #[test]
    fn i8_store_is_an_eighth_of_exact() {
        let (v, norms) = sample_v(64, 16);
        let s = CompressedStore::build(Precision::I8, &v, &norms).unwrap();
        assert_eq!(s.precision(), Precision::I8);
        assert_eq!(s.resident_bytes(), 64 * 16 + 64 * 4);
        assert!(s.rerank_margin(16).is_none());
    }

    #[test]
    fn f32_approx_scores_stay_inside_the_error_bound() {
        let (v, norms) = sample_v(300, 24);
        let s = CompressedStore::build(Precision::F32, &v, &norms).unwrap();
        let qhat: Vec<f64> = (0..24).map(|j| ((j * 7 % 11) as f64 - 5.0) / 7.0).collect();
        let qnorm = lsi_linalg::vecops::nrm2(&qhat);
        let approx = s.approx_scores(&qhat, qnorm, None).unwrap();
        let bound = f32_cosine_error_bound(24);
        for i in 0..300 {
            let exact = v.row_view(i).cosine_slice(&qhat);
            assert!(
                (approx[i] as f64 - exact).abs() < bound,
                "row {i}: approx {} exact {exact} bound {bound}",
                approx[i]
            );
        }
    }

    #[test]
    fn zero_rows_and_zero_queries_score_zero() {
        let mut v = DenseMatrix::zeros(3, 4);
        v.set(1, 0, 2.0);
        let norms: Vec<f64> = (0..3).map(|i| v.row_view(i).nrm2()).collect();
        for p in [Precision::F32, Precision::I8] {
            let s = CompressedStore::build(p, &v, &norms).unwrap();
            // Zero query: everything scores 0 (qnorm guard).
            let z = s.approx_scores(&[0.0; 4], 0.0, None).unwrap();
            assert!(z.iter().all(|&x| x == 0.0));
            // Nonzero query: zero rows score 0 (dnorm guard).
            let y = s.approx_scores(&[1.0, 0.0, 0.0, 0.0], 1.0, None).unwrap();
            assert_eq!(y[0], 0.0);
            assert_eq!(y[2], 0.0);
            assert!((y[1] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn row_subset_scores_are_bit_identical_to_the_full_sweep() {
        let (v, norms) = sample_v(200, 12);
        let qhat: Vec<f64> = (0..12).map(|j| ((j * 5 % 13) as f64 - 6.0) / 5.0).collect();
        let qnorm = lsi_linalg::vecops::nrm2(&qhat);
        let rows: Vec<u32> = vec![190, 3, 3, 57, 0, 121];
        for p in [Precision::F32, Precision::I8] {
            let s = CompressedStore::build(p, &v, &norms).unwrap();
            let full = s.approx_scores(&qhat, qnorm, None).unwrap();
            let subset = s.approx_scores(&qhat, qnorm, Some(&rows)).unwrap();
            assert_eq!(subset.len(), rows.len());
            for (slot, &r) in rows.iter().enumerate() {
                assert_eq!(
                    subset[slot].to_bits(),
                    full[r as usize].to_bits(),
                    "precision {p:?} row {r}"
                );
            }
            assert!(s.approx_scores(&qhat, qnorm, Some(&[])).unwrap().is_empty());
        }
    }
}
