//! Cluster-pruned retrieval index (coarse quantization over doc vectors).
//!
//! Every scoring path in `query.rs` historically swept all `n` rows of
//! `V`, so query latency grows 1:1 with the corpus. This module breaks
//! that wall with the classic IVF/cluster-pruning scheme: spherical
//! k-means partitions the rows of `V` into ~√n lists keyed by unit
//! centroids; a query scores the ~√n centroids instead of the `n`
//! docs, probes the `nprobe` best lists, and only the docs in those
//! lists ("survivors") go through the usual sweep + exact-f64 re-rank.
//! With `nprobe = n_lists` every doc survives and the result is
//! bit-identical to the exact scan — that oracle anchors both the
//! recall bench (`perf_kernels --index`) and the coherence suite
//! (`crates/core/tests/index_coherence.rs`).
//!
//! Coherence under mutation: fold-in appends rows (assigned to their
//! nearest centroid as they arrive); the SVD-updating paths and
//! recompute replace `V` wholesale (all rows re-assigned against the
//! frozen centroids). Both account the number of rows whose list
//! changed into `moved`, and once the moved mass crosses
//! [`INDEX_RECLUSTER_THRESHOLD`] the centroids themselves are retrained
//! from scratch. The index persists with the model (centroids +
//! assignments; the per-list posting vectors are derived and rebuilt on
//! load).
//!
//! Everything here is deterministic: seeding uses a fixed-seed
//! splitmix64 stream, Lloyd assignment breaks score ties toward the
//! lowest list id, and all distance math runs through the same blocked
//! kernels as scoring — so a rebuilt index on identical inputs is
//! identical, in both `LSI_NUM_THREADS` modes.

use lsi_linalg::{ops, DenseMatrix};

use crate::Result;

/// Fraction of docs whose list assignment may drift before the
/// centroids are retrained from scratch. Calibrated on the
/// `perf_kernels --index` harness (synthetic topic corpus, k = 64,
/// √n lists): replaying SVD-updates that perturb up to 20% of
/// assignments against frozen centroids moved recall@10 at the default
/// probe depth by < 0.01 versus a fresh clustering, while at ~30%
/// drift recall dipped below the 0.95 floor on some seeds. 0.25 sits
/// inside that margin, and since a full retrain costs the same
/// O(n·√n·k) as the initial build, amortizing it over ≥ n/4 mutations
/// keeps maintenance strictly cheaper than the mutations themselves.
pub const INDEX_RECLUSTER_THRESHOLD: f64 = 0.25;

/// Default probe depth for `IndexPolicy::Pruned` when the caller does
/// not pass one (`lsi query --nprobe=N` overrides per query).
/// Calibrated by the nprobe sweep in `perf_kernels --index` on the
/// 10x-inflated bench corpus (20k docs, ~141 lists): nprobe = 8 is the
/// smallest probe depth whose measured recall@10 clears the 0.95 CI
/// floor with margin (1.00 observed) while keeping the batched pruned
/// sweep > 5x faster than the exact scan; nprobe = 4 was faster still
/// but its recall (0.93–0.97 across seeds) straddles the floor. See
/// BENCH_kernels.json `index.sweep` for the committed curve.
pub const DEFAULT_NPROBE: usize = 8;

/// Lloyd refinement cap for (re)clustering. Calibrated on the same
/// harness: assignments converge (zero rows moving) after 4–6 rounds
/// on the 10x corpus and recall@10 at the default probe depth is flat
/// from round 3 onward, so 8 bounds the O(n·√n·k) build cost without
/// ever being the binding constraint in practice (early-exit fires
/// first on every corpus measured).
const KMEANS_MAX_ITERS: usize = 8;

/// Rows per assignment block. The Lloyd/assignment GEMM materializes a
/// `block_rows x n_lists` score panel; 4096 rows keeps that panel
/// (4096·√n·8 bytes ≈ 15 MiB at n = 200k) comfortably inside the
/// container's memory budget where a full `n x n_lists` panel at the
/// 100x bench scale would not be (200k·447·8 ≈ 715 MiB), while staying
/// large enough that the blocked GEMM runs at full tilt.
const ASSIGN_BLOCK_ROWS: usize = 4096;

/// Fixed seed for the k-means++ splitmix64 stream — clustering must be
/// reproducible across builds and thread counts.
const KMEANS_SEED: u64 = 0x5EED_C1A5_7E12_D0C5;

/// Retrieval strategy knob on the model API.
///
/// `Exact` is the linear scan over all doc vectors (the recall
/// oracle). `Pruned { nprobe }` routes top-k queries through the
/// cluster index, probing the `nprobe` best lists; `nprobe = n_lists`
/// reproduces the exact scan bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Linear scan over every document vector.
    Exact,
    /// Cluster-pruned scan probing the `nprobe` closest lists.
    Pruned {
        /// Number of centroid lists to probe per query (≥ 1).
        nprobe: usize,
    },
}

impl IndexPolicy {
    /// Human-readable name for CLI/info output.
    pub fn describe(&self) -> String {
        match self {
            IndexPolicy::Exact => "exact".to_string(),
            IndexPolicy::Pruned { nprobe } => format!("pruned (nprobe={nprobe})"),
        }
    }
}

/// The trained cluster index: unit centroids over normalized rows of
/// `V`, one assignment per doc, and the derived per-list posting
/// vectors (ascending doc ids).
#[derive(Debug, Clone)]
pub(crate) struct ClusterIndex {
    /// `n_lists x k`, rows are unit centroids (zero rows allowed when a
    /// cluster collapsed onto zero-norm docs).
    centroids: DenseMatrix,
    /// `assignments[doc] = list id`, one entry per doc vector.
    assignments: Vec<u32>,
    /// Derived: docs per list, ascending ids. Rebuilt on load.
    lists: Vec<Vec<u32>>,
    /// Rows whose assignment changed since the centroids were trained;
    /// compared against [`INDEX_RECLUSTER_THRESHOLD`] · n by
    /// [`ClusterIndex::needs_recluster`].
    moved: usize,
}

/// splitmix64 step — the same tiny deterministic generator the
/// compressed-store tests use, kept local so clustering has no
/// dependency on external randomness. Shared with the bench-only
/// corpus replicator in `model.rs`.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the splitmix stream (53-bit mantissa).
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `round(sqrt(n))` clamped to `[1, n]` — the list count the tentpole
/// targets (centroid scan + one list sweep are then both ~√n).
pub(crate) fn default_n_lists(n_docs: usize) -> usize {
    ((n_docs as f64).sqrt().round() as usize).clamp(1, n_docs.max(1))
}

impl ClusterIndex {
    /// Train a fresh index over the rows of `v` (doc vectors,
    /// `n x k`) with precomputed row norms. Deterministic: fixed-seed
    /// k-means++ seeding, blocked-GEMM Lloyd refinement with
    /// lowest-id tie-breaks, early exit once assignments stabilize.
    pub(crate) fn build(v: &DenseMatrix, doc_norms: &[f64]) -> Result<Self> {
        let _span = lsi_obs::span("index.train");
        let n = v.nrows();
        let k = v.ncols();
        let n_lists = default_n_lists(n);
        if n == 0 {
            return Ok(ClusterIndex {
                centroids: DenseMatrix::zeros(1, k),
                assignments: Vec::new(),
                lists: vec![Vec::new()],
                moved: 0,
            });
        }
        let inv_norms: Vec<f64> = doc_norms
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();

        let mut centroids = seed_centroids(v, &inv_norms, n_lists)?;
        let mut assignments = vec![0u32; n];
        let mut panel = Panel::default();
        for _ in 0..KMEANS_MAX_ITERS {
            let (next, best, changed) =
                assign_all(v, &inv_norms, &centroids, Some(&assignments), &mut panel)?;
            assignments = next;
            update_centroids(v, &inv_norms, &assignments, &best, &mut centroids);
            if changed == 0 {
                break;
            }
        }
        // One final assignment against the converged centroids so the
        // stored assignments match the stored centroids exactly.
        let (final_assign, _, _) = assign_all(v, &inv_norms, &centroids, None, &mut panel)?;
        let lists = lists_from(&final_assign, n_lists);
        Ok(ClusterIndex {
            centroids,
            assignments: final_assign,
            lists,
            moved: 0,
        })
    }

    /// Rehydrate a persisted index: trusts centroids/assignments/moved
    /// from the file (the caller validates shapes) and rebuilds the
    /// derived posting lists.
    pub(crate) fn from_parts(centroids: DenseMatrix, assignments: Vec<u32>, moved: usize) -> Self {
        let n_lists = centroids.nrows().max(1);
        let lists = lists_from(&assignments, n_lists);
        ClusterIndex {
            centroids,
            assignments,
            lists,
            moved,
        }
    }

    /// Number of centroid lists.
    #[inline]
    pub(crate) fn n_lists(&self) -> usize {
        self.centroids.nrows()
    }

    /// Factor dimension the centroids were trained in.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.centroids.ncols()
    }

    /// Docs assigned to list `l`, ascending ids.
    #[inline]
    pub(crate) fn list(&self, l: usize) -> &[u32] {
        &self.lists[l]
    }

    /// Per-doc list assignments (for persistence/validation).
    #[inline]
    pub(crate) fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Rows moved since the centroids were trained (persisted; the
    /// test oracle for the re-cluster budget).
    #[inline]
    pub(crate) fn moved(&self) -> usize {
        self.moved
    }

    /// The unit centroids, one row per list (persisted).
    #[inline]
    pub(crate) fn centroids(&self) -> &DenseMatrix {
        &self.centroids
    }

    /// Query-to-centroid scores: `centroids · q̂` (one dot per list).
    /// Unit centroids make the dot a cosine up to the constant ‖q̂‖,
    /// which ranking ignores.
    pub(crate) fn centroid_scores(&self, qhat: &[f64]) -> Result<Vec<f64>> {
        Ok(ops::matvec(&self.centroids, qhat)?)
    }

    /// Assign freshly appended rows `start..v.nrows()` (fold-in) to
    /// their nearest centroid, extending the posting lists in place.
    /// Every appended row counts toward the moved mass.
    pub(crate) fn append_rows(&mut self, v: &DenseMatrix, doc_norms: &[f64], start: usize) -> Result<()> {
        let n = v.nrows();
        if start >= n {
            return Ok(());
        }
        let inv_norms: Vec<f64> = doc_norms[start..]
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let mut panel = Panel::default();
        let mut r0 = start;
        while r0 < n {
            let r1 = (r0 + ASSIGN_BLOCK_ROWS).min(n);
            let block_norms = &inv_norms[r0 - start..r1 - start];
            let (bestc, _) = panel.best_lists(v, block_norms, (r0, r1), &self.centroids)?;
            for (i, c) in bestc.into_iter().enumerate() {
                let doc = (r0 + i) as u32;
                self.assignments.push(c);
                self.lists[c as usize].push(doc);
            }
            r0 = r1;
        }
        self.moved += n - start;
        Ok(())
    }

    /// Re-assign every row against the frozen centroids after `V` was
    /// replaced wholesale (SVD update / recompute). Rows whose list
    /// changed count toward the moved mass. The caller must have kept
    /// `assignments.len() == v.nrows()`; on a row-count change it
    /// should rebuild instead.
    pub(crate) fn reassign_all(&mut self, v: &DenseMatrix, doc_norms: &[f64]) -> Result<()> {
        let inv_norms: Vec<f64> = doc_norms
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let (next, _, _) = assign_all(v, &inv_norms, &self.centroids, None, &mut Panel::default())?;
        let changed = next
            .iter()
            .zip(self.assignments.iter())
            .filter(|(a, b)| a != b)
            .count();
        self.moved += changed;
        self.assignments = next;
        self.lists = lists_from(&self.assignments, self.n_lists());
        Ok(())
    }

    /// True once the accumulated assignment drift crosses
    /// [`INDEX_RECLUSTER_THRESHOLD`] of the corpus — the signal to
    /// retrain centroids from scratch.
    pub(crate) fn needs_recluster(&self) -> bool {
        self.moved as f64 > INDEX_RECLUSTER_THRESHOLD * self.assignments.len() as f64
    }

    /// Heap footprint of the index (centroids + assignments + lists).
    pub(crate) fn resident_bytes(&self) -> usize {
        let lists: usize = self.lists.iter().map(|l| l.len() * 4 + 24).sum();
        self.centroids.data().len() * 8 + self.assignments.len() * 4 + lists
    }
}

/// Group docs by assignment; list vectors come out ascending because
/// docs are visited in id order.
fn lists_from(assignments: &[u32], n_lists: usize) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); n_lists.max(1)];
    for (doc, &c) in assignments.iter().enumerate() {
        let c = (c as usize).min(lists.len() - 1);
        lists[c].push(doc as u32);
    }
    lists
}

/// The two panels of the blocked assignment sweep, kept across blocks
/// and k-means rounds. Allocated per block, these multi-MiB buffers
/// came back either as reused heap or as fresh pages to fault in,
/// depending on what the process had freed before (a database load
/// that built and dropped a `Json` tree left the heap warm; a
/// streaming load does not), and training time followed.
#[derive(Default)]
struct Panel {
    /// Rows `r0..r1` of `v`, each scaled by its inverse norm (zero rows
    /// stay zero), column-major.
    block: Vec<f64>,
    /// `(r1 - r0) x n_lists` scores against the centroids, column-major.
    scores: Vec<f64>,
}

impl Panel {
    /// Score the normalized rows `r0..r1` of `v` against every centroid
    /// and return each row's best list and score. `inv_norms` holds one
    /// inverse norm per row of the block.
    fn best_lists(
        &mut self,
        v: &DenseMatrix,
        inv_norms: &[f64],
        (r0, r1): (usize, usize),
        centroids: &DenseMatrix,
    ) -> Result<(Vec<u32>, Vec<f64>)> {
        let mut data = std::mem::take(&mut self.block);
        data.clear();
        for j in 0..v.ncols() {
            let src = &v.col(j)[r0..r1];
            data.extend(src.iter().zip(inv_norms).map(|(x, s)| x * s));
        }
        let block = DenseMatrix::from_col_major(r1 - r0, v.ncols(), data)?;
        ops::matmul_nt_into(&block, centroids, &mut self.scores)?;
        self.block = block.into_col_major();
        Ok(argmax_rows(&self.scores, r1 - r0))
    }
}

/// Per-row argmax over an `m`-row column-major score panel, ties to the
/// lowest column (strict `>` with ascending column sweep). Returns the
/// winning column and score per row.
fn argmax_rows(scores: &[f64], m: usize) -> (Vec<u32>, Vec<f64>) {
    let mut best = vec![f64::NEG_INFINITY; m];
    let mut bestc = vec![0u32; m];
    for (c, col) in scores.chunks_exact(m.max(1)).enumerate() {
        for i in 0..m {
            if col[i] > best[i] {
                best[i] = col[i];
                bestc[i] = c as u32;
            }
        }
    }
    (bestc, best)
}

/// One full assignment sweep: blocked `V_norm · Cᵀ` GEMM + per-row
/// argmax. Returns (assignments, best score per row, rows changed vs
/// `prev` — `n` when `prev` is `None`).
fn assign_all(
    v: &DenseMatrix,
    inv_norms: &[f64],
    centroids: &DenseMatrix,
    prev: Option<&[u32]>,
    panel: &mut Panel,
) -> Result<(Vec<u32>, Vec<f64>, usize)> {
    let n = v.nrows();
    let mut assignments = Vec::with_capacity(n);
    let mut best_all = Vec::with_capacity(n);
    let mut r0 = 0usize;
    while r0 < n {
        let r1 = (r0 + ASSIGN_BLOCK_ROWS).min(n);
        let (bestc, best) = panel.best_lists(v, &inv_norms[r0..r1], (r0, r1), centroids)?;
        assignments.extend_from_slice(&bestc);
        best_all.extend_from_slice(&best);
        r0 = r1;
    }
    let changed = match prev {
        Some(p) => assignments.iter().zip(p.iter()).filter(|(a, b)| a != b).count(),
        None => n,
    };
    Ok((assignments, best_all, changed))
}

/// Recompute centroids as the renormalized mean of their assigned
/// normalized rows. Empty clusters are reseeded onto the rows farthest
/// from their current centroid (worst best-score first, deterministic
/// lowest-id tie-break), which keeps every list reachable.
fn update_centroids(
    v: &DenseMatrix,
    inv_norms: &[f64],
    assignments: &[u32],
    best: &[f64],
    centroids: &mut DenseMatrix,
) {
    let n_lists = centroids.nrows();
    let k = centroids.ncols();
    let n = v.nrows();
    let mut sums = vec![0.0f64; n_lists * k];
    let mut counts = vec![0usize; n_lists];
    for &c in assignments {
        counts[c as usize] += 1;
    }
    for j in 0..k {
        let col = v.col(j);
        for i in 0..n {
            let c = assignments[i] as usize;
            sums[c * k + j] += col[i] * inv_norms[i];
        }
    }
    // Rows sorted by how poorly their current centroid fits them —
    // reseed donors for empty clusters.
    let mut donors: Vec<usize> = Vec::new();
    if counts.iter().any(|&c| c == 0) {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| match best[a].partial_cmp(&best[b]) {
            Some(o) => o.then(a.cmp(&b)),
            None => a.cmp(&b),
        });
        donors = order;
    }
    let mut donor_at = 0usize;
    for c in 0..n_lists {
        if counts[c] == 0 {
            // Reseed: copy the next-worst-fitting row, normalized.
            if donor_at < donors.len() {
                let r = donors[donor_at];
                donor_at += 1;
                for j in 0..k {
                    centroids.set(c, j, v.get(r, j) * inv_norms[r]);
                }
            }
            continue;
        }
        let row = &sums[c * k..(c + 1) * k];
        let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for j in 0..k {
                centroids.set(c, j, row[j] / norm);
            }
        } else {
            for j in 0..k {
                centroids.set(c, j, 0.0);
            }
        }
    }
}

/// Deterministic k-means++ seeding over the normalized rows: first
/// seed drawn uniformly from the fixed splitmix64 stream, each later
/// seed drawn with probability proportional to its squared cosine
/// distance to the nearest already-chosen seed (running min-distance
/// array, one GEMV per seed).
fn seed_centroids(v: &DenseMatrix, inv_norms: &[f64], n_lists: usize) -> Result<DenseMatrix> {
    let n = v.nrows();
    let k = v.ncols();
    let mut state = KMEANS_SEED;
    let mut centroids = DenseMatrix::zeros(n_lists, k);
    let mut chosen = vec![false; n];

    let first = (splitmix64(&mut state) % n as u64) as usize;
    copy_normalized_row(v, inv_norms, first, &mut centroids, 0);
    chosen[first] = true;

    // d2[i] = squared cosine distance to the nearest chosen seed.
    let mut d2 = vec![2.0f64; n];
    let mut last_row = centroids.row(0);
    for c in 1..n_lists {
        // Fold the newest seed into the running min-distance array.
        let dots = ops::matvec(v, &last_row)?;
        for i in 0..n {
            let d = (2.0 - 2.0 * dots[i] * inv_norms[i]).max(0.0);
            if d < d2[i] {
                d2[i] = d;
            }
        }
        let total: f64 = d2
            .iter()
            .zip(chosen.iter())
            .map(|(&d, &taken)| if taken { 0.0 } else { d })
            .sum();
        let pick = if total > 0.0 {
            let mut target = unit_f64(&mut state) * total;
            let mut pick = usize::MAX;
            for i in 0..n {
                if chosen[i] {
                    continue;
                }
                target -= d2[i];
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            if pick == usize::MAX {
                // Floating-point slack left `target` positive: take the
                // last unchosen row.
                match (0..n).rev().find(|&i| !chosen[i]) {
                    Some(i) => i,
                    None => first,
                }
            } else {
                pick
            }
        } else {
            // Every remaining row coincides with a seed (or is zero):
            // cycle rows deterministically so centroids stay distinct
            // where possible.
            (0..n).find(|&i| !chosen[i]).unwrap_or(first)
        };
        copy_normalized_row(v, inv_norms, pick, &mut centroids, c);
        chosen[pick] = true;
        last_row = centroids.row(c);
    }
    Ok(centroids)
}

/// Write normalized row `src` of `v` into row `dst` of `centroids`.
fn copy_normalized_row(
    v: &DenseMatrix,
    inv_norms: &[f64],
    src: usize,
    centroids: &mut DenseMatrix,
    dst: usize,
) {
    for j in 0..v.ncols() {
        centroids.set(dst, j, v.get(src, j) * inv_norms[src]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norms(v: &DenseMatrix) -> Vec<f64> {
        (0..v.nrows()).map(|i| v.row_view(i).nrm2()).collect()
    }

    /// Three tight, well-separated direction clusters in 2-D.
    fn clustered_v() -> DenseMatrix {
        let dirs = [(1.0f64, 0.02f64), (0.02, 1.0), (-1.0, 0.9)];
        let mut rows = Vec::new();
        for rep in 0..4 {
            for &(x, y) in &dirs {
                let eps = 0.01 * rep as f64;
                rows.push(vec![x + eps, y - eps]);
            }
        }
        DenseMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn build_partitions_every_doc_exactly_once() {
        let v = clustered_v();
        let idx = ClusterIndex::build(&v, &norms(&v)).unwrap();
        assert_eq!(idx.n_lists(), default_n_lists(v.nrows()));
        assert_eq!(idx.assignments().len(), v.nrows());
        let mut seen = vec![false; v.nrows()];
        for l in 0..idx.n_lists() {
            let mut prev = None;
            for &doc in idx.list(l) {
                assert!(!seen[doc as usize], "doc {doc} in two lists");
                seen[doc as usize] = true;
                if let Some(p) = prev {
                    assert!(doc > p, "list {l} not ascending");
                }
                prev = Some(doc);
            }
        }
        assert!(seen.iter().all(|&s| s), "some doc unreachable");
    }

    #[test]
    fn build_is_deterministic() {
        let v = clustered_v();
        let a = ClusterIndex::build(&v, &norms(&v)).unwrap();
        let b = ClusterIndex::build(&v, &norms(&v)).unwrap();
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.centroids().data(), b.centroids().data());
    }

    #[test]
    fn probe_scores_rank_the_right_list_first() {
        let v = clustered_v();
        let idx = ClusterIndex::build(&v, &norms(&v)).unwrap();
        // A query along the first cluster direction must rank the list
        // containing doc 0 first.
        let scores = idx.centroid_scores(&[1.0, 0.0]).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap();
        assert!(idx.list(best).contains(&0));
    }

    #[test]
    fn append_rows_extends_lists_and_counts_moved_mass() {
        let v = clustered_v();
        let mut idx = ClusterIndex::build(&v, &norms(&v)).unwrap();
        let mut v2 = v.clone();
        let extra = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        v2 = v2.vcat(&extra).unwrap();
        idx.append_rows(&v2, &norms(&v2), v.nrows()).unwrap();
        assert_eq!(idx.assignments().len(), v2.nrows());
        assert_eq!(idx.moved(), 2);
        let total: usize = (0..idx.n_lists()).map(|l| idx.list(l).len()).sum();
        assert_eq!(total, v2.nrows());
    }

    #[test]
    fn reassign_all_counts_only_changed_rows() {
        let v = clustered_v();
        let mut idx = ClusterIndex::build(&v, &norms(&v)).unwrap();
        idx.reassign_all(&v, &norms(&v)).unwrap();
        assert_eq!(idx.moved(), 0, "identical V must not move anything");
        assert!(!idx.needs_recluster());
    }

    #[test]
    fn zero_and_tiny_corpora_are_handled() {
        let empty = DenseMatrix::zeros(0, 3);
        let idx = ClusterIndex::build(&empty, &[]).unwrap();
        assert_eq!(idx.assignments().len(), 0);
        assert_eq!(idx.n_lists(), 1);

        let one = DenseMatrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        let idx = ClusterIndex::build(&one, &norms(&one)).unwrap();
        assert_eq!(idx.assignments(), &[0]);
        assert_eq!(idx.list(0), &[0]);
    }
}
