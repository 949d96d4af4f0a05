//! Cache-blocked, register-tiled GEMM and the panel kernels behind
//! Gram–Schmidt reorthogonalization.
//!
//! The layout follows the classic Goto/BLIS decomposition: the output
//! is tiled into `MR x NR` register blocks; operand panels are packed
//! into contiguous micro-panels so the innermost loop streams both
//! operands sequentially regardless of transposition; and the three
//! outer loops block for cache (`MC x KC` packed A resident in L2,
//! `KC x NR` slivers of packed B streaming through L1). Transposed
//! products (`A^T B`, `A B^T`) reuse the same kernel — transposition is
//! absorbed by the packing routines, never by strided inner loops.
//!
//! Parallelism splits the *output columns* across cores (each worker
//! owns a contiguous block of `C`'s column-major storage, so writes are
//! disjoint and allocation-free). Dispatch now goes through the
//! persistent pool in `vendor/rayon` (~40 µs per parallel region on
//! this container, vs ~0.6–1.7 ms for the scoped spawns it replaced),
//! so the thresholds below admit megaflop-scale products instead of
//! requiring tens of megaflops.
//!
//! The panel kernels (`panel_qt_w`, `panel_w_minus_qy`) are the BLAS-2
//! building blocks of classical Gram–Schmidt: `y = Q^T w` fuses four
//! column dot products per sweep of `w`, and `w -= Q y` fuses four
//! AXPYs per sweep, quartering the traffic over `w` compared to
//! column-at-a-time MGS.

use rayon::prelude::*;

use crate::matrix::DenseMatrix;

/// Register tile height (rows of C per micro-kernel call). 16 doubles
/// is two 512-bit registers (or four 256-bit ones), which doubles the
/// flops per broadcast of B relative to the old 8-row tile — measured
/// ~2x on both square and tall-skinny shapes under the AVX-512 kernel.
const MR: usize = 16;
/// Register tile width (columns of C per micro-kernel call).
const NR: usize = 4;
/// Rows of A packed per cache block (the `MC x KC` panel targets L2).
const MC: usize = 128;
/// Depth of one packed panel pair.
const KC: usize = 256;
/// Columns of B packed per cache block.
const NC: usize = 512;

/// Flop count (2·m·n·k) below which GEMM stays serial.
///
/// Calibration: `cargo test -p rayon --release -- --ignored
/// --nocapture dispatch` measures ~38 µs per pooled parallel region on
/// this 2-core container (versus ~0.6 ms per scoped spawn, and the
/// ~1.7 ms PR 1 measured on a colder container — the number that
/// forced the old 1<<25 threshold). At the ~4 GFLOP/s the serial
/// blocked kernel sustains, 1<<21 flops ≈ 525 µs of work: a 2-way
/// split spends 262 µs + 38 µs dispatch ≈ 1.75x speedup, and anything
/// smaller decays toward break-even (2 × 38 µs ≈ 300 KFLOP).
pub const GEMM_PAR_MIN_FLOPS: usize = 1 << 21;

/// Flop count (2·m·ncols) below which the panel BLAS-2 kernels stay
/// serial. Same dispatch measurement as [`GEMM_PAR_MIN_FLOPS`], plus a
/// direct kernel sweep (`cargo test -p lsi-linalg --release --test
/// par_kernels -- --ignored --nocapture`): the fused 4-column panels
/// sustain ~7–9 GFLOP/s serial when the basis is cache-resident — far
/// above the ~1.8 GFLOP/s a cold-memory estimate suggests — so a panel
/// burns through 1<<18 flops in ~40 µs, comparable to one dispatch.
/// At that setting the pooled Lanczos reorth stage measured 1.6x
/// *slower* than serial (interleaved calls park the workers; realized
/// per-dispatch overhead ~30 µs). 1<<20 flops ≈ 120–140 µs of serial
/// sweep clears the overhead (~1.15x warm at 896 KFLOP, growing with
/// size). For the 3500-row Lanczos gram basis this admits panels past
/// ~150 columns — only the widest late-iteration reorth sweeps, which
/// is where the time actually is.
pub const PANEL_PAR_MIN_FLOPS: usize = 1 << 20;

/// A possibly-transposed read view of column-major storage: element
/// `(r, c)` of the *effective* operand. Transposition swaps the roles
/// of the row index and the column stride, so both cases are one
/// multiply-add address computation.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
    ld: usize,
    trans: bool,
}

impl<'a> View<'a> {
    /// The matrix as stored.
    pub(crate) fn normal(a: &'a DenseMatrix) -> View<'a> {
        View { data: a.data(), ld: a.nrows().max(1), trans: false }
    }

    /// The transpose of the matrix as stored.
    pub(crate) fn transposed(a: &'a DenseMatrix) -> View<'a> {
        View { data: a.data(), ld: a.nrows().max(1), trans: true }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f64 {
        if self.trans {
            self.data[r * self.ld + c]
        } else {
            self.data[c * self.ld + r]
        }
    }
}

// SAFETY: View is a read-only borrow of a f64 slice.
unsafe impl Send for View<'_> {}
unsafe impl Sync for View<'_> {}

/// Pack the `mc x kc` block of `a` starting at `(i0, p0)` into MR-row
/// micro-panels: panel `ib` holds rows `i0 + ib*MR ..` laid out as `kc`
/// consecutive groups of `MR` values. Rows past `mc` pad with zeros so
/// the micro-kernel never branches on edges.
fn pack_a(a: View<'_>, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut [f64]) {
    let mb = mc.div_ceil(MR);
    for ib in 0..mb {
        let rows = (mc - ib * MR).min(MR);
        let panel = &mut buf[ib * kc * MR..(ib * kc + kc) * MR];
        let r0 = i0 + ib * MR;
        if !a.trans {
            // Untransposed fast path: the `rows` panel rows of effective
            // column `p0 + l` are one contiguous run of the column-major
            // backing store, so each micro-row is a block copy instead of
            // `MR` bounds-checked element reads. This matters most for
            // tall-skinny products (few output columns), where packing is
            // amortized over little compute and per-element `at` calls
            // were the dominant cost.
            for l in 0..kc {
                let dst = &mut panel[l * MR..l * MR + MR];
                let src0 = (p0 + l) * a.ld + r0;
                dst[..rows].copy_from_slice(&a.data[src0..src0 + rows]);
                for d in dst[rows..].iter_mut() {
                    *d = 0.0;
                }
            }
            continue;
        }
        for l in 0..kc {
            let dst = &mut panel[l * MR..l * MR + MR];
            for i in 0..rows {
                dst[i] = a.at(r0 + i, p0 + l);
            }
            for d in dst[rows..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Pack the `kc x nc` block of `b` starting at `(p0, j0)` into NR-column
/// micro-panels, zero-padded past `nc`.
fn pack_b(b: View<'_>, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut [f64]) {
    let nb = nc.div_ceil(NR);
    for jb in 0..nb {
        let cols = (nc - jb * NR).min(NR);
        let panel = &mut buf[jb * kc * NR..(jb * kc + kc) * NR];
        for l in 0..kc {
            let dst = &mut panel[l * NR..l * NR + NR];
            for j in 0..cols {
                dst[j] = b.at(p0 + l, j0 + jb * NR + j);
            }
            for d in dst[cols..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// The register tile: `MR x NR` accumulators updated along the packed
/// `kc` dimension. Both operands stream contiguously; the accumulators
/// live in registers across the whole loop. This is the single source
/// of truth for the tile arithmetic — the ISA-specific entry points
/// below inline it so every build target compiles the same loop.
#[inline(always)]
fn micro_kernel_body(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0f64; MR]; NR];
    let (mut ap, mut bp) = (apanel, bpanel);
    for _ in 0..kc {
        // Fixed-size array views let the compiler drop bounds checks and
        // keep the 64 accumulators in vector registers. The packed
        // panels hold `kc` full chunks by construction.
        let (Some((av, a_rest)), Some((bv, b_rest))) =
            (ap.split_first_chunk::<MR>(), bp.split_first_chunk::<NR>())
        else {
            break;
        };
        (ap, bp) = (a_rest, b_rest);
        for j in 0..NR {
            let b = bv[j];
            for i in 0..MR {
                acc[j][i] += av[i] * b;
            }
        }
    }
    acc
}

/// [`micro_kernel_body`] compiled with AVX2 + FMA enabled: the default
/// `x86-64` target only guarantees SSE2, which leaves the tile at
/// 2-wide multiplies plus separate adds. Recompiling the same loop with
/// the wider features lets LLVM use 4-wide FMAs (~3x the sustained
/// flop rate on the hot GEMM shapes). FMA fuses the multiply-add
/// rounding step, so results can differ from the SSE2 path in the last
/// ulp — but kernel selection is a machine-wide constant, so any given
/// host is internally deterministic (serial and parallel paths pick the
/// same kernel).
///
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must ensure the CPU supports `avx2` and `fma`; the
// dispatcher below checks via `is_x86_feature_detected!` before calling.
unsafe fn micro_kernel_avx2(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; MR]; NR] {
    micro_kernel_body(kc, apanel, bpanel)
}

/// [`micro_kernel_body`] compiled with AVX-512 enabled: `MR = 16`
/// doubles is exactly two 512-bit registers, so each accumulator column
/// is two zmm FMAs per packed step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: callers must ensure the CPU supports `avx512f`; the
// dispatcher below checks via `is_x86_feature_detected!` before calling.
unsafe fn micro_kernel_avx512(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; MR]; NR] {
    micro_kernel_body(kc, apanel, bpanel)
}

/// Dispatch to the widest micro-kernel the host supports. The feature
/// probes are cached by `std_detect` behind an atomic, so the per-call
/// cost is a couple of relaxed loads against ~8 Kflop of tile work.
#[inline(always)]
fn micro_kernel(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; MR]; NR] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            // SAFETY: the runtime probe above confirmed avx512f is
            // available on this CPU.
            return unsafe { micro_kernel_avx512(kc, apanel, bpanel) };
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            // SAFETY: the runtime probe above confirmed avx2 and fma are
            // available on this CPU.
            return unsafe { micro_kernel_avx2(kc, apanel, bpanel) };
        }
    }
    micro_kernel_body(kc, apanel, bpanel)
}

/// Serial blocked GEMM for output columns `jc0 .. jc0 + n_span`,
/// accumulating into `c_span` (the column-major storage of exactly
/// those columns, assumed zero-initialized).
fn gemm_span(
    c_span: &mut [f64],
    m: usize,
    n_span: usize,
    k: usize,
    jc0: usize,
    a: View<'_>,
    b: View<'_>,
) {
    if m == 0 || n_span == 0 || k == 0 {
        return;
    }
    let mut apack = vec![0.0f64; MC.div_ceil(MR) * MR * KC];
    let mut bpack = vec![0.0f64; n_span.min(NC).div_ceil(NR) * NR * KC];

    for jc in (0..n_span).step_by(NC) {
        let nc = (n_span - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            pack_b(b, pc, kc, jc0 + jc, nc, &mut bpack);
            for ic in (0..m).step_by(MC) {
                let mc = (m - ic).min(MC);
                pack_a(a, ic, mc, pc, kc, &mut apack);
                for jb in 0..nc.div_ceil(NR) {
                    let cols = (nc - jb * NR).min(NR);
                    for ib in 0..mc.div_ceil(MR) {
                        let rows = (mc - ib * MR).min(MR);
                        let acc = micro_kernel(
                            kc,
                            &apack[ib * kc * MR..(ib * kc + kc) * MR],
                            &bpack[jb * kc * NR..(jb * kc + kc) * NR],
                        );
                        for j in 0..cols {
                            let col0 = (jc + jb * NR + j) * m + ic + ib * MR;
                            let out = &mut c_span[col0..col0 + rows];
                            for i in 0..rows {
                                out[i] += acc[j][i];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Blocked `C = op(A) * op(B)` producing column-major storage for an
/// `m x n` result with inner dimension `k`. Parallelizes across
/// contiguous blocks of output columns when the flop count warrants it.
pub(crate) fn gemm(m: usize, n: usize, k: usize, a: View<'_>, b: View<'_>) -> Vec<f64> {
    let mut c = vec![0.0f64; m * n];
    gemm_into(&mut c, m, n, k, a, b);
    c
}

/// [`gemm`] accumulating into `c`: `m * n` zero-initialized values.
pub(crate) fn gemm_into(c: &mut [f64], m: usize, n: usize, k: usize, a: View<'_>, b: View<'_>) {
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    let nthreads = rayon::current_num_threads();
    lsi_obs::add_flops(flops as f64);
    lsi_obs::observe("linalg.gemm.flops", flops as f64);
    if flops >= GEMM_PAR_MIN_FLOPS && nthreads > 1 && n > 1 {
        lsi_obs::count("linalg.gemm.parallel.count", 1);
        let cols_per = n.div_ceil(nthreads);
        c.par_chunks_mut(m * cols_per)
            .enumerate()
            .for_each(|(w, span)| {
                let ncols = span.len() / m;
                gemm_span(span, m, ncols, k, w * cols_per, a, b);
            });
    } else {
        lsi_obs::count("linalg.gemm.serial.count", 1);
        gemm_span(c, m, n, k, 0, a, b);
    }
}

/// Four column dot products fused over one sweep of `w`:
/// `out[j] = Q[:, j0 + j] . w` for the block of columns.
#[inline(always)]
fn dot_block(q: &[f64], m: usize, j0: usize, cols: usize, w: &[f64], out: &mut [f64]) {
    debug_assert!(cols <= 4);
    match cols {
        4 => {
            let c0 = &q[j0 * m..(j0 + 1) * m];
            let c1 = &q[(j0 + 1) * m..(j0 + 2) * m];
            let c2 = &q[(j0 + 2) * m..(j0 + 3) * m];
            let c3 = &q[(j0 + 3) * m..(j0 + 4) * m];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for i in 0..m {
                let wi = w[i];
                s0 += c0[i] * wi;
                s1 += c1[i] * wi;
                s2 += c2[i] * wi;
                s3 += c3[i] * wi;
            }
            out[0] = s0;
            out[1] = s1;
            out[2] = s2;
            out[3] = s3;
        }
        _ => {
            for j in 0..cols {
                let c = &q[(j0 + j) * m..(j0 + j + 1) * m];
                let mut s = 0.0;
                for i in 0..m {
                    s += c[i] * w[i];
                }
                out[j] = s;
            }
        }
    }
}

/// Panel BLAS-2: `y = Q[:, :ncols]^T w`, four fused column dot products
/// per sweep of `w`. Above [`PANEL_PAR_MIN_FLOPS`] the 4-column blocks
/// of `y` are split across the pool; each `y[j]` is still produced by
/// exactly one `dot_block` call identical to the serial one, so the
/// result is bit-for-bit independent of the thread count.
pub fn panel_qt_w(q: &DenseMatrix, ncols: usize, w: &[f64]) -> Vec<f64> {
    debug_assert!(ncols <= q.ncols());
    debug_assert_eq!(q.nrows(), w.len());
    let m = q.nrows();
    let mut y = vec![0.0f64; ncols];
    if ncols == 0 || m == 0 {
        return y;
    }
    let flops = 2 * m * ncols;
    lsi_obs::add_flops(flops as f64);
    lsi_obs::count("linalg.panel_qt_w.count", 1);
    let qdata = q.data();
    if flops >= PANEL_PAR_MIN_FLOPS && rayon::current_num_threads() > 1 && ncols > 4 {
        y.par_chunks_mut(4).enumerate().for_each(|(b, out)| {
            dot_block(qdata, m, b * 4, out.len(), w, out);
        });
        return y;
    }
    let mut j = 0;
    while j < ncols {
        let cols = (ncols - j).min(4);
        dot_block(qdata, m, j, cols, w, &mut y[j..j + cols]);
        j += cols;
    }
    y
}

/// Four fused AXPYs over one sweep of a row span of `w`:
/// `w[i] -= sum_j y[j0 + j] * Q[r0 + i, j0 + j]`. `r0` is the row the
/// span starts at, so the parallel path can hand disjoint row spans of
/// `w` to different workers against the matching slices of Q's columns.
#[inline(always)]
fn axpy_block(q: &[f64], m: usize, j0: usize, cols: usize, y: &[f64], r0: usize, w: &mut [f64]) {
    debug_assert!(cols <= 4);
    let rows = w.len();
    match cols {
        4 => {
            let c0 = &q[j0 * m + r0..j0 * m + r0 + rows];
            let c1 = &q[(j0 + 1) * m + r0..(j0 + 1) * m + r0 + rows];
            let c2 = &q[(j0 + 2) * m + r0..(j0 + 2) * m + r0 + rows];
            let c3 = &q[(j0 + 3) * m + r0..(j0 + 3) * m + r0 + rows];
            let (y0, y1, y2, y3) = (y[j0], y[j0 + 1], y[j0 + 2], y[j0 + 3]);
            for i in 0..rows {
                w[i] -= y0 * c0[i] + y1 * c1[i] + y2 * c2[i] + y3 * c3[i];
            }
        }
        _ => {
            for j in 0..cols {
                let c = &q[(j0 + j) * m + r0..(j0 + j) * m + r0 + rows];
                let yj = y[j0 + j];
                for i in 0..rows {
                    w[i] -= yj * c[i];
                }
            }
        }
    }
}

/// Panel BLAS-2 update: `w -= Q[:, :ncols] * y`, four fused AXPYs per
/// sweep of `w`. Above [`PANEL_PAR_MIN_FLOPS`] the *rows* of `w` are
/// split across the pool (the columns carry a sequential dependence in
/// `y`, the rows do not). Each row span runs the same j-block loop in
/// the same order as the serial code, so every `w[i]` sees an
/// identical operation sequence and the result is bit-for-bit
/// independent of the thread count.
pub fn panel_w_minus_qy(q: &DenseMatrix, ncols: usize, y: &[f64], w: &mut [f64]) {
    debug_assert!(ncols <= q.ncols());
    debug_assert_eq!(q.nrows(), w.len());
    debug_assert_eq!(y.len(), ncols);
    let m = q.nrows();
    if ncols == 0 || m == 0 {
        return;
    }
    let flops = 2 * m * ncols;
    lsi_obs::add_flops(flops as f64);
    lsi_obs::count("linalg.panel_w_minus_qy.count", 1);
    let qdata = q.data();
    let nthreads = rayon::current_num_threads();
    if flops >= PANEL_PAR_MIN_FLOPS && nthreads > 1 && m > 1 {
        // Two spans per thread keeps the pool's chunker from handing
        // the whole vector to one worker while staying cache-friendly.
        let span = m.div_ceil(nthreads * 2).max(1);
        w.par_chunks_mut(span).enumerate().for_each(|(ci, wspan)| {
            let r0 = ci * span;
            let mut j = 0;
            while j < ncols {
                let cols = (ncols - j).min(4);
                axpy_block(qdata, m, j, cols, y, r0, wspan);
                j += cols;
            }
        });
        return;
    }
    let mut j = 0;
    while j < ncols {
        let cols = (ncols - j).min(4);
        axpy_block(qdata, m, j, cols, y, 0, w);
        j += cols;
    }
}

/// Straightforward triple-loop reference implementations. These are the
/// oracles the blocked kernels are property-tested against; they are
/// deliberately naive and never called on hot paths.
pub mod reference {
    use crate::matrix::DenseMatrix;

    /// `C = A * B` by direct summation.
    pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(a.ncols(), b.nrows());
        let mut c = DenseMatrix::zeros(a.nrows(), b.ncols());
        for j in 0..b.ncols() {
            for i in 0..a.nrows() {
                let mut s = 0.0;
                for l in 0..a.ncols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// `C = A^T * B` by direct summation.
    pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(a.nrows(), b.nrows());
        let mut c = DenseMatrix::zeros(a.ncols(), b.ncols());
        for j in 0..b.ncols() {
            for i in 0..a.ncols() {
                let mut s = 0.0;
                for l in 0..a.nrows() {
                    s += a.get(l, i) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// `C = A * B^T` by direct summation.
    pub fn matmul_nt(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(a.ncols(), b.ncols());
        let mut c = DenseMatrix::zeros(a.nrows(), b.nrows());
        for j in 0..b.nrows() {
            for i in 0..a.nrows() {
                let mut s = 0.0;
                for l in 0..a.ncols() {
                    s += a.get(i, l) * b.get(j, l);
                }
                c.set(i, j, s);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(m: usize, n: usize, rng: &mut StdRng) -> DenseMatrix {
        let data: Vec<f64> = (0..m * n).map(|_| rng.random::<f64>() - 0.5).collect();
        DenseMatrix::from_col_major(m, n, data).unwrap()
    }

    #[test]
    fn blocked_gemm_matches_reference_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        // Shapes chosen to hit every edge: below one tile, exact
        // multiples, one past a block boundary.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (MR, KC, NR),
            (MR + 1, 3, NR + 1),
            (MC + 3, KC + 5, NR * 3 + 2),
            (130, 70, 33),
        ] {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let c = gemm(m, n, k, View::normal(&a), View::normal(&b));
            let want = reference::matmul(&a, &b);
            let got = DenseMatrix::from_col_major(m, n, c).unwrap();
            assert!(
                got.fro_distance(&want).unwrap() < 1e-12 * (m * n) as f64,
                "({m},{k},{n}) mismatch"
            );
        }
    }

    #[test]
    fn transposed_views_match_explicit_transposes() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(37, 19, &mut rng);
        let b = random_matrix(37, 23, &mut rng);
        // A^T B via the view against explicit transposition.
        let c = gemm(19, 23, 37, View::transposed(&a), View::normal(&b));
        let want = reference::matmul(&a.transpose(), &b);
        let got = DenseMatrix::from_col_major(19, 23, c).unwrap();
        assert!(got.fro_distance(&want).unwrap() < 1e-12);
        // A B^T via the view.
        let bt = random_matrix(23, 19, &mut rng);
        let c = gemm(37, 23, 19, View::normal(&a), View::transposed(&bt));
        let want = reference::matmul(&a, &bt.transpose());
        let got = DenseMatrix::from_col_major(37, 23, c).unwrap();
        assert!(got.fro_distance(&want).unwrap() < 1e-12);
    }

    #[test]
    fn zero_inner_dimension_yields_zero_matrix() {
        let a = DenseMatrix::zeros(4, 0);
        let b = DenseMatrix::zeros(0, 3);
        let c = gemm(4, 3, 0, View::normal(&a), View::normal(&b));
        assert!(c.iter().all(|&x| x == 0.0));
        assert_eq!(c.len(), 12);
    }

    #[test]
    fn panel_qt_w_matches_per_column_dots() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n) in &[(5usize, 1usize), (64, 7), (301, 13)] {
            let q = random_matrix(m, n, &mut rng);
            let w: Vec<f64> = (0..m).map(|_| rng.random::<f64>() - 0.5).collect();
            let y = panel_qt_w(&q, n, &w);
            for j in 0..n {
                let want = crate::vecops::dot(q.col(j), &w);
                assert!((y[j] - want).abs() < 1e-12, "col {j}");
            }
        }
    }

    #[test]
    fn panel_w_minus_qy_matches_axpy_loop() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(m, n) in &[(5usize, 1usize), (64, 6), (301, 11)] {
            let q = random_matrix(m, n, &mut rng);
            let y: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            let mut w: Vec<f64> = (0..m).map(|_| rng.random::<f64>() - 0.5).collect();
            let mut want = w.clone();
            panel_w_minus_qy(&q, n, &y, &mut w);
            for j in 0..n {
                crate::vecops::axpy(-y[j], q.col(j), &mut want);
            }
            for i in 0..m {
                assert!((w[i] - want[i]).abs() < 1e-12, "row {i}");
            }
        }
    }

    #[test]
    fn empty_panels_are_no_ops() {
        let q = DenseMatrix::zeros(4, 2);
        let mut w = vec![1.0, 2.0, 3.0, 4.0];
        assert!(panel_qt_w(&q, 0, &w).is_empty());
        panel_w_minus_qy(&q, 0, &[], &mut w);
        assert_eq!(w, vec![1.0, 2.0, 3.0, 4.0]);
    }
}
