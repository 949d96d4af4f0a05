//! Table 7: analytic flop counts of the updating methods.
//!
//! The paper's table is parameterized by the Lanczos iteration count
//! `I`, the accepted-triplet count `trp`, the factor count `k`, the
//! matrix shape `m × n`, the update sizes `p` (documents), `q` (terms),
//! `j` (re-weighted terms), and the nonzero counts of the update
//! matrices. The models here follow the same structure — a Lanczos term
//! `I × cost(GᵀG x)`, a triplet term `trp × cost(G x)`, and for the
//! SVD-updating phases the `(2k² − k)(m + n)` dense-rotation term the
//! paper singles out ("The expense in SVD-updating can be attributed to
//! the O(2k²m + 2k²n) flops associated with the dense matrix
//! multiplications involving U_k and V_k") — calibrated to *this*
//! implementation: the Lanczos driver uses full reorthogonalization,
//! which adds `≈ 2 I² · dim` flops (two MGS passes over a growing
//! basis), and each SVD-updating phase solves its small dense problem
//! (`F`, `H`, or `Q`) with a dimension bounded by `k + p`, `k + q`, or
//! `k` rather than re-touching the sparse matrix.

/// Problem-size parameters for the cost models.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Terms (rows) in the existing matrix.
    pub m: usize,
    /// Documents (columns) in the existing matrix.
    pub n: usize,
    /// Retained factors.
    pub k: usize,
    /// Lanczos iterations for a fresh decomposition (the `I` of §4.2).
    pub lanczos_iters: usize,
    /// Accepted triplets (`trp`; normally `k`).
    pub triplets: usize,
}

impl CostParams {
    /// Sensible defaults matching the Lanczos driver: `I = 2k + 30`
    /// (its basis bound) and `trp = k`.
    pub fn with_defaults(m: usize, n: usize, k: usize) -> CostParams {
        CostParams {
            m,
            n,
            k,
            lanczos_iters: 2 * k + 30,
            triplets: k,
        }
    }

    /// The dense-rotation term shared by all three SVD-updating phases:
    /// `(2k² − k)(m + n)`.
    fn rotation_flops(&self) -> u64 {
        let k = self.k as u64;
        (2 * k * k - k) * (self.m as u64 + self.n as u64)
    }

    /// Lanczos cost on a problem of dimension `dim` whose operator
    /// costs `opcost` flops per application: iteration products, full
    /// reorthogonalization, and triplet extraction.
    fn lanczos_cost(&self, dim: usize, opcost: u64) -> u64 {
        let i = (self.lanczos_iters as u64).min(dim as u64);
        // Two Gram products per step (A then Aᵀ) -> 2 * opcost; the
        // paper writes this as 4 nnz. Reorthogonalization: two MGS
        // passes over a basis of mean size I/2 -> ~2 I^2 dim.
        i * 2 * opcost + 2 * i * i * dim as u64 + self.triplets as u64 * opcost
    }

    /// Folding-in `p` documents: `2mkp` (Table 7, verbatim).
    pub fn fold_in_documents(&self, p: usize) -> u64 {
        2 * self.m as u64 * self.k as u64 * p as u64
    }

    /// Folding-in `q` terms: `2nkq` (Table 7, verbatim).
    pub fn fold_in_terms(&self, q: usize) -> u64 {
        2 * self.n as u64 * self.k as u64 * q as u64
    }

    /// SVD-updating `p` documents with `nnz_d` nonzeros in `D`:
    /// project (`2k·nnz(D)`), decompose `F` (k × (k+p) dense), rotate.
    pub fn svd_update_documents(&self, p: usize, nnz_d: usize) -> u64 {
        let k = self.k as u64;
        let project = 2 * k * nnz_d as u64;
        let f_nnz = k + k * p as u64;
        project + self.lanczos_cost(self.k + p, 2 * f_nnz) + self.rotation_flops()
    }

    /// SVD-updating `q` terms with `nnz_t` nonzeros in `T`.
    pub fn svd_update_terms(&self, q: usize, nnz_t: usize) -> u64 {
        let k = self.k as u64;
        let project = 2 * k * nnz_t as u64;
        let h_nnz = k + k * q as u64;
        project + self.lanczos_cost(self.k + q, 2 * h_nnz) + self.rotation_flops()
    }

    /// SVD-updating a weight correction touching `j` terms with `nnz_z`
    /// nonzero deltas: form `Q` (k × k dense), decompose, rotate.
    pub fn svd_update_weights(&self, j: usize, nnz_z: usize) -> u64 {
        let k = self.k as u64;
        let form_q = 2 * k * nnz_z as u64 + 2 * k * k * j as u64;
        form_q + self.lanczos_cost(self.k, 2 * k * k) + self.rotation_flops()
    }

    /// Recomputing the truncated SVD of the extended
    /// `(m + q) × (n + p)` matrix with `nnz_a` stored nonzeros.
    pub fn recompute(&self, extra_terms: usize, extra_docs: usize, nnz_a: usize) -> u64 {
        let dim = (self.m + extra_terms).min(self.n + extra_docs);
        self.lanczos_cost(dim, 2 * nnz_a as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams::with_defaults(10_000, 5_000, 100)
    }

    #[test]
    fn folding_in_formulas_match_table7() {
        let p = params();
        assert_eq!(p.fold_in_documents(3), 2 * 10_000 * 100 * 3);
        assert_eq!(p.fold_in_terms(7), 2 * 5_000 * 100 * 7);
    }

    #[test]
    fn folding_in_is_much_cheaper_than_updating_for_few_docs() {
        // The paper: "folding-in will still require considerably fewer
        // flops than SVD-updating when adding d new documents provided
        // d << n".
        let p = params();
        let nnz_d = 500;
        assert!(p.fold_in_documents(5) * 10 < p.svd_update_documents(5, nnz_d));
    }

    #[test]
    fn updating_beats_recompute_for_small_updates_on_large_matrices() {
        // §2.3: "Recomputing the SVD of a larger term-document matrix
        // requires more computation time".
        let big = CostParams::with_defaults(90_000, 70_000, 200);
        let nnz_a = 1_300_000; // TREC-like density
        let update = big.svd_update_documents(10, 2_000);
        let re = big.recompute(0, 10, nnz_a);
        assert!(
            update < re,
            "update {update} should beat recompute {re} for 10 docs"
        );
    }

    #[test]
    fn rotation_term_grows_quadratically_in_k() {
        let a = CostParams::with_defaults(1000, 1000, 10).svd_update_documents(1, 10);
        let b = CostParams::with_defaults(1000, 1000, 100).svd_update_documents(1, 10);
        assert!(b > a * 10, "k^2 scaling expected: {a} -> {b}");
    }

    #[test]
    fn costs_are_monotone_in_update_size() {
        let p = params();
        assert!(p.fold_in_documents(2) < p.fold_in_documents(3));
        assert!(p.svd_update_documents(2, 100) < p.svd_update_documents(3, 100));
        assert!(p.svd_update_terms(2, 100) < p.svd_update_terms(3, 100));
        assert!(p.svd_update_weights(1, 50) < p.svd_update_weights(2, 50));
        assert!(p.recompute(0, 0, 1000) < p.recompute(0, 0, 2000));
    }

    #[test]
    fn crossover_folding_stays_cheaper_up_to_large_batches() {
        // The fold-in/update gap narrows as p grows but folding stays
        // linear in p while updating adds the fixed rotation term.
        let p = params();
        let per_doc_nnz = 50;
        let small_gap = p.svd_update_documents(1, per_doc_nnz) as f64
            / p.fold_in_documents(1) as f64;
        let big_gap = p.svd_update_documents(500, 500 * per_doc_nnz) as f64
            / p.fold_in_documents(500) as f64;
        assert!(big_gap < small_gap, "relative gap should narrow: {small_gap} -> {big_gap}");
    }
}
