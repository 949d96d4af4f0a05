//! The LSI model: vocabulary + weighting + truncated SVD factors.

use std::fmt::Write as _;
use std::sync::Arc;

use lsi_linalg::svd::Svd;
use lsi_linalg::{DenseMatrix, RowView};
use lsi_sparse::ops::DualFormat;
use lsi_sparse::CscMatrix;
use lsi_svd::{robust_svd, LanczosOptions, LanczosReport, RobustOptions};
use lsi_text::{Corpus, ParsingRules, TermWeighting, Vocabulary};

use crate::compressed::{CompressedStore, Precision};
use crate::index::{splitmix64, ClusterIndex, IndexPolicy};
use crate::{persist, Error, Result};

/// Construction options.
#[derive(Debug, Clone)]
pub struct LsiOptions {
    /// Number of retained factors `k`. The paper: "Terms and documents
    /// represented by 200-300 of the largest singular vectors" at TREC
    /// scale; 70–100 is the sweet spot it reports for MED-sized
    /// collections (§5.2).
    pub k: usize,
    /// Parsing rules for vocabulary construction.
    pub rules: ParsingRules,
    /// Term weighting (Eq. 5).
    pub weighting: TermWeighting,
    /// Lanczos seed (runs are deterministic in this).
    pub svd_seed: u64,
}

impl Default for LsiOptions {
    fn default() -> Self {
        LsiOptions {
            k: 100,
            rules: ParsingRules::default(),
            weighting: TermWeighting::log_entropy(),
            svd_seed: 0x5EED,
        }
    }
}

/// Where a document vector came from — §4.3's orthogonality analysis
/// needs to distinguish SVD-derived rows of `V_k` from folded-in ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocOrigin {
    /// Column of the matrix the SVD (or SVD-update) was computed from.
    Svd,
    /// Appended by folding-in (Eq. 7).
    FoldedIn,
}

/// A complete LSI retrieval model ("LSI database" in the paper's
/// terminology: the singular values and vectors plus the bookkeeping to
/// use them).
///
/// Persistence goes through the `persist` module's JSON schema; the
/// derived `compressed` store is never serialized — it is rebuilt from
/// `V` on load.
#[derive(Debug, Clone)]
pub struct LsiModel {
    /// The vocabulary (row semantics).
    pub(crate) vocab: Vocabulary,
    /// Weighting scheme used at build time.
    pub(crate) weighting: TermWeighting,
    /// Per-term global weights captured at build time (queries and
    /// folded-in documents must be weighted consistently).
    pub(crate) global_weights: Vec<f64>,
    /// Term matrix `U_k` (m × k).
    pub(crate) u: DenseMatrix,
    /// Singular values `Σ_k`.
    pub(crate) s: Vec<f64>,
    /// Document matrix `V_k` ((n + folded) × k); one row per document.
    pub(crate) v: DenseMatrix,
    /// Euclidean norm of each row of `v`, precomputed so that query
    /// scoring is a single `V q̂` product plus a scale (the per-query
    /// denominator `‖d_j‖` never changes between updates).
    pub(crate) doc_norms: Vec<f64>,
    /// Document ids, parallel to rows of `v`. Shared (`Arc`) because
    /// every ranked result references all of them.
    pub(crate) doc_ids: Vec<Arc<str>>,
    /// Origin of each document row.
    pub(crate) doc_origins: Vec<DocOrigin>,
    /// Term display forms that were folded in (rows appended to `u`).
    pub(crate) folded_terms: Vec<String>,
    /// Origin of each term row (parallel to rows of `u`).
    pub(crate) term_origins: Vec<DocOrigin>,
    /// The weighted term-document matrix the current factors were
    /// computed from (kept for recomputation and weight corrections).
    pub(crate) weighted: CscMatrix,
    /// Scoring precision of the candidate-generation sweep (persisted;
    /// legacy files default to [`Precision::Exact`]).
    pub(crate) precision: Precision,
    /// Compressed replica of `v` for candidate generation. Derived
    /// data: `None` for [`Precision::Exact`], rebuilt by
    /// [`LsiModel::refresh_doc_norms`] whenever `v` changes, never
    /// serialized.
    pub(crate) compressed: Option<CompressedStore>,
    /// Retrieval strategy for top-k queries (persisted; legacy files
    /// default to [`IndexPolicy::Exact`]).
    pub(crate) index_policy: IndexPolicy,
    /// Cluster-pruning index over the rows of `v` — present exactly
    /// when the policy is `Pruned`. Centroids and assignments persist
    /// with the model; the posting lists are derived and rebuilt on
    /// load (and the whole index is retrained if the file's copy is
    /// inconsistent with `v`).
    pub(crate) index: Option<ClusterIndex>,
}

impl LsiModel {
    /// Build a model from a corpus: parse, weight, truncated SVD.
    ///
    /// Returns the model and the Lanczos execution report. If the
    /// matrix's numerical rank is below `k`, the model retains that
    /// smaller rank (the paper's `k ≤ r` regime).
    pub fn build(corpus: &Corpus, options: &LsiOptions) -> Result<(LsiModel, LanczosReport)> {
        let _build_span = lsi_obs::span("build");
        let (vocab, counts) = {
            let _parse_span = lsi_obs::span("parse");
            let vocab = Vocabulary::build(corpus, &options.rules);
            let counts = vocab.count_matrix(corpus);
            // Parsing does no arithmetic; account one unit of work per
            // (term, document) cell inserted so throughput is derivable.
            lsi_obs::add_flops(counts.nnz() as f64);
            lsi_obs::count("core.parse.docs.count", corpus.docs.len() as u64);
            (vocab, counts)
        };
        let doc_ids = corpus.docs.iter().map(|d| d.id.clone()).collect();
        Self::from_counts(vocab, counts, doc_ids, options)
    }

    /// Build from a pre-computed count matrix (rows must match `vocab`).
    pub fn from_counts(
        vocab: Vocabulary,
        counts: CscMatrix,
        doc_ids: Vec<String>,
        options: &LsiOptions,
    ) -> Result<(LsiModel, LanczosReport)> {
        if counts.nrows() != vocab.len() {
            return Err(Error::Inconsistent {
                context: format!(
                    "count matrix has {} rows but vocabulary has {} terms",
                    counts.nrows(),
                    vocab.len()
                ),
            });
        }
        if counts.ncols() != doc_ids.len() {
            return Err(Error::Inconsistent {
                context: format!(
                    "count matrix has {} columns but {} document ids supplied",
                    counts.ncols(),
                    doc_ids.len()
                ),
            });
        }
        let weighted = {
            let _matrix_span = lsi_obs::span("matrix");
            lsi_obs::count("core.matrix.nnz.count", counts.nnz() as u64);
            options.weighting.apply(&counts)
        };
        // Boundary guard at the matrix-span exit: a single zero-count
        // pathology in the weighting (log of a negative, 0/0 entropy)
        // would otherwise propagate NaN into every factor downstream.
        if !weighted.global.iter().all(|w| w.is_finite()) {
            return Err(Error::NonFinite {
                context: "global term weights (weighting scheme output)".into(),
            });
        }
        let k = options.k.min(counts.nrows().min(counts.ncols()));
        let (mut svd, report) = {
            let _svd_span = lsi_obs::span("svd");
            let operator = DualFormat::from_csc(weighted.matrix.clone());
            // The robust driver: Lanczos under a stagnation watchdog,
            // degrading to randomized/dense rungs rather than failing
            // (the report's `fallback` field says which rung served).
            let robust_opts = RobustOptions {
                lanczos: LanczosOptions {
                    seed: options.svd_seed,
                    ..RobustOptions::default().lanczos
                },
                ..Default::default()
            };
            robust_svd(&operator, k, &robust_opts)?
        };
        let _assemble_span = lsi_obs::span("assemble");
        // Canonical signs (largest-magnitude U entry positive per
        // column) so coordinates are comparable across runs and with
        // published figures.
        svd.sign_normalize();
        let n_docs = counts.ncols();
        let n_terms = counts.nrows();
        // Sign pass over both factors plus the document-norm cache.
        lsi_obs::add_flops(((n_terms + 3 * n_docs) * k) as f64);
        let mut model = LsiModel {
            vocab,
            weighting: options.weighting,
            global_weights: weighted.global,
            u: svd.u,
            s: svd.s,
            v: svd.v,
            doc_norms: Vec::new(),
            doc_ids: doc_ids.into_iter().map(Arc::from).collect(),
            doc_origins: vec![DocOrigin::Svd; n_docs],
            folded_terms: Vec::new(),
            term_origins: vec![DocOrigin::Svd; n_terms],
            weighted: weighted.matrix,
            precision: Precision::Exact,
            compressed: None,
            index_policy: IndexPolicy::Exact,
            index: None,
        };
        model.refresh_doc_norms();
        Ok((model, report))
    }

    /// Recompute the derived per-document data: the cached row norms of
    /// `V_k` and (when a reduced precision is active) the compressed
    /// scoring replica. Must be called by every operation that replaces
    /// or appends to `v` — this single hook is what keeps the
    /// compressed store coherent across fold-in, SVD-updating,
    /// recomputation, and load.
    pub(crate) fn refresh_doc_norms(&mut self) {
        self.doc_norms = (0..self.v.nrows())
            .map(|j| self.v.row_view(j).nrm2())
            .collect();
        self.compressed = CompressedStore::build(self.precision, &self.v, &self.doc_norms);
        debug_assert!(
            self.compressed
                .as_ref()
                .map_or(self.precision == Precision::Exact, |s| s.precision()
                    == self.precision),
            "compressed store out of sync with the precision mode"
        );
    }

    /// Scoring precision of the candidate-generation sweep.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switch the candidate-generation precision, building (or
    /// dropping) the compressed replica of `V_k` immediately. The mode
    /// persists with the model; the replica itself does not.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        self.compressed = CompressedStore::build(self.precision, &self.v, &self.doc_norms);
    }

    /// Retrieval strategy for top-k queries.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Number of centroid lists when a cluster index is active.
    pub fn index_n_lists(&self) -> Option<usize> {
        self.index.as_ref().map(|ix| ix.n_lists())
    }

    /// Heap bytes held by the cluster index, when one is active.
    pub fn index_resident_bytes(&self) -> Option<usize> {
        self.index.as_ref().map(|ix| ix.resident_bytes())
    }

    /// Switch the retrieval strategy. `Pruned` trains the cluster
    /// index immediately if none is active (deterministic k-means over
    /// the rows of `V_k`); `Exact` drops it. The policy persists with
    /// the model; changing only the `nprobe` depth of an existing
    /// `Pruned` policy reuses the trained index.
    pub fn set_index_policy(&mut self, policy: IndexPolicy) -> Result<()> {
        self.index_policy = policy;
        match policy {
            IndexPolicy::Exact => self.index = None,
            IndexPolicy::Pruned { .. } => {
                if self.index.is_none() {
                    self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
                }
            }
        }
        Ok(())
    }

    /// Train the cluster index without changing the retrieval policy:
    /// queries keep following [`LsiModel::index_policy`], but a
    /// probe-depth override ([`crate::BatchPlan::nprobe`]) can now
    /// route through the index. No-op when an index is already
    /// trained. The index is not persisted unless the policy is
    /// `Pruned` (an `Exact` save drops it on reload). A model shared
    /// while it serves gets the same index without being mutated, in a
    /// [`crate::Rungs`] bundle ([`LsiModel::build_rungs`]).
    pub fn train_index(&mut self) -> Result<()> {
        if self.index.is_none() {
            self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
        }
        Ok(())
    }

    /// Index-coherence hook for append-style mutations (fold-in):
    /// assign the rows `start..` of `v` to their nearest centroid, and
    /// retrain the centroids once the accumulated drift crosses
    /// [`crate::index::INDEX_RECLUSTER_THRESHOLD`].
    pub(crate) fn index_append_rows(&mut self, start: usize) -> Result<()> {
        if let Some(idx) = self.index.as_mut() {
            idx.append_rows(&self.v, &self.doc_norms, start)?;
            if idx.needs_recluster() {
                self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
            }
        }
        Ok(())
    }

    /// Index-coherence hook for wholesale replacement of `v` (SVD
    /// updates, recompute): re-assign every row against the frozen
    /// centroids, counting changed rows toward the re-cluster budget;
    /// rebuild outright when the row count changed or drift crossed
    /// the threshold.
    pub(crate) fn index_reassign_all(&mut self) -> Result<()> {
        if let Some(idx) = self.index.as_mut() {
            if idx.assignments().len() != self.v.nrows() || idx.k() != self.v.ncols() {
                self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
            } else {
                idx.reassign_all(&self.v, &self.doc_norms)?;
                if idx.needs_recluster() {
                    self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
                }
            }
        }
        Ok(())
    }

    /// Post-load repair: drop a stray index under `Exact`, and under
    /// `Pruned` retrain whenever the persisted copy is inconsistent
    /// with `v` (wrong row/factor count, out-of-range assignment) —
    /// a hand-edited or corrupted index silently degrades to a fresh
    /// build instead of mis-routing queries.
    pub(crate) fn repair_index_after_load(&mut self) -> Result<()> {
        match self.index_policy {
            IndexPolicy::Exact => self.index = None,
            IndexPolicy::Pruned { .. } => {
                let coherent = self.index.as_ref().is_some_and(|ix| {
                    ix.assignments().len() == self.v.nrows()
                        && ix.k() == self.v.ncols()
                        && ix.assignments().iter().all(|&c| (c as usize) < ix.n_lists())
                });
                if !coherent {
                    self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
                }
            }
        }
        Ok(())
    }

    /// Bench-only corpus inflation: tile the document rows `factor`
    /// times with a small deterministic per-row jitter (so replicas
    /// rank near, but not identically to, their originals) and
    /// synthetic `~rN` ids. Replicas are marked folded-in, which keeps
    /// the weighted-matrix invariants intact. Used by
    /// `perf_kernels --index` to measure the pruning curve at 10x/100x
    /// corpus scale without paying for a 10x/100x SVD.
    #[doc(hidden)]
    pub fn replicate_docs_for_bench(&mut self, factor: usize) -> Result<()> {
        if factor <= 1 {
            return Ok(());
        }
        let n = self.v.nrows();
        let k = self.v.ncols();
        let m2 = n * factor;
        let mut state = 0x1337_5EED_u64 ^ ((factor as u64) << 7);
        let mut row_scales = vec![1.0f64; m2];
        for scale in row_scales.iter_mut().skip(n) {
            // Jitter in [0.999, 1.001): replicas stay inside their
            // original's cluster but break exact score ties.
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            *scale = 1.0 + 2e-3 * (u - 0.5);
        }
        let mut data = vec![0.0f64; m2 * k];
        for j in 0..k {
            let col = self.v.col(j);
            for c in 0..factor {
                let dst = &mut data[j * m2 + c * n..j * m2 + c * n + n];
                let scales = &row_scales[c * n..(c + 1) * n];
                for i in 0..n {
                    dst[i] = col[i] * scales[i];
                }
            }
        }
        self.v = DenseMatrix::from_col_major(m2, k, data)?;
        for c in 1..factor {
            for i in 0..n {
                let id: Arc<str> = Arc::from(format!("{}~r{c}", self.doc_ids[i]).as_str());
                self.doc_ids.push(id);
            }
        }
        self.doc_origins.resize(m2, DocOrigin::FoldedIn);
        self.refresh_doc_norms();
        if self.index.is_some() {
            self.index = Some(ClusterIndex::build(&self.v, &self.doc_norms)?);
        }
        Ok(())
    }

    /// Bytes the scoring sweep streams per query: the compressed
    /// replica when one is active, otherwise the f64 `V_k` buffer.
    pub fn scoring_resident_bytes(&self) -> usize {
        match &self.compressed {
            Some(store) => store.resident_bytes(),
            None => std::mem::size_of_val(self.v.data()),
        }
    }

    /// Precomputed Euclidean norms of the document vectors (rows of
    /// `V_k`), parallel to [`LsiModel::doc_ids`].
    pub fn doc_norms(&self) -> &[f64] {
        &self.doc_norms
    }

    /// Number of factors retained (`k`; may be below the requested `k`
    /// for rank-deficient collections).
    pub fn k(&self) -> usize {
        self.s.len()
    }

    /// Number of indexed terms (rows of `U_k`, including folded-in
    /// terms).
    pub fn n_terms(&self) -> usize {
        self.u.nrows()
    }

    /// Number of documents (rows of `V_k`, including folded-in docs).
    pub fn n_docs(&self) -> usize {
        self.v.nrows()
    }

    /// The singular values.
    pub fn singular_values(&self) -> &[f64] {
        &self.s
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The weighting scheme.
    pub fn weighting(&self) -> &TermWeighting {
        &self.weighting
    }

    /// Stored global term weights.
    pub fn global_weights(&self) -> &[f64] {
        &self.global_weights
    }

    /// Document ids in row order of `V_k`.
    pub fn doc_ids(&self) -> &[Arc<str>] {
        &self.doc_ids
    }

    /// Origin (SVD vs folded-in) of each document.
    pub fn doc_origins(&self) -> &[DocOrigin] {
        &self.doc_origins
    }

    /// The weighted term-document matrix the factors were computed from.
    pub fn weighted_matrix(&self) -> &CscMatrix {
        &self.weighted
    }

    /// Term matrix `U_k`.
    pub fn term_matrix(&self) -> &DenseMatrix {
        &self.u
    }

    /// Document matrix `V_k`.
    pub fn doc_matrix(&self) -> &DenseMatrix {
        &self.v
    }

    /// `k`-dimensional coordinates of term `i` (row `i` of `U_k`),
    /// unscaled. Allocates; hot loops should use
    /// [`LsiModel::term_row`] instead.
    pub fn term_vector(&self, i: usize) -> Vec<f64> {
        self.u.row(i)
    }

    /// `k`-dimensional coordinates of document `j` (row `j` of `V_k`),
    /// unscaled. Allocates; hot loops should use
    /// [`LsiModel::doc_row`] instead.
    pub fn doc_vector(&self, j: usize) -> Vec<f64> {
        self.v.row(j)
    }

    /// Borrowing view of term `i`'s coordinates (row `i` of `U_k`) —
    /// the allocation-free form of [`LsiModel::term_vector`].
    pub fn term_row(&self, i: usize) -> RowView<'_> {
        self.u.row_view(i)
    }

    /// Borrowing view of document `j`'s coordinates (row `j` of `V_k`)
    /// — the allocation-free form of [`LsiModel::doc_vector`].
    pub fn doc_row(&self, j: usize) -> RowView<'_> {
        self.v.row_view(j)
    }

    /// Term coordinates scaled by the singular values — the plotting
    /// convention of the paper's Figures 4–9 ("the first column of U2
    /// multiplied by the first singular value ... for the
    /// x-coordinates").
    pub fn term_coords_scaled(&self, i: usize) -> Vec<f64> {
        let mut r = self.u.row(i);
        for (x, s) in r.iter_mut().zip(self.s.iter()) {
            *x *= s;
        }
        r
    }

    /// Document coordinates scaled by the singular values (plotting
    /// convention).
    pub fn doc_coords_scaled(&self, j: usize) -> Vec<f64> {
        let mut r = self.v.row(j);
        for (x, s) in r.iter_mut().zip(self.s.iter()) {
            *x *= s;
        }
        r
    }

    /// Cosine similarity between two documents in the factor space.
    /// Row views keep this allocation-free; the result is bit-identical
    /// to cosine over row copies.
    pub fn doc_doc_similarity(&self, a: usize, b: usize) -> f64 {
        self.v.row_view(a).cosine(self.v.row_view(b))
    }

    /// Cosine similarity between two terms in the factor space —
    /// the quantity behind the §5.4 synonym test.
    pub fn term_term_similarity(&self, a: usize, b: usize) -> f64 {
        self.u.row_view(a).cosine(self.u.row_view(b))
    }

    /// Look up a document's row by id.
    pub fn doc_index(&self, id: &str) -> Option<usize> {
        self.doc_ids.iter().position(|d| d.as_ref() == id)
    }

    /// Look up a term's row, including folded-in terms.
    pub fn term_index(&self, term: &str) -> Option<usize> {
        if let Some(i) = self.vocab.index_of(term) {
            return Some(i);
        }
        let lowered = term.to_lowercase();
        self.folded_terms
            .iter()
            .position(|t| *t == lowered)
            .map(|p| self.vocab.len() + p)
    }

    /// Reconstruct the rank-k approximation `A_k = U_k Σ_k V_kᵀ`
    /// restricted to the SVD-derived rows (folded-in rows excluded).
    pub fn reconstruct_ak(&self) -> Result<DenseMatrix> {
        let svd = Svd {
            u: self.u.clone(),
            s: self.s.clone(),
            v: self.v.clone(),
        };
        Ok(svd.reconstruct()?)
    }

    /// Serialize the LSI database to JSON, with an integrity trailer.
    ///
    /// The output is the model's JSON document followed by one line of
    /// the form `#lsi1 len=<bytes> fnv=<16-hex>` — the body length and
    /// its FNV-1a-64 checksum. [`LsiModel::from_json`] validates the
    /// trailer when present, so truncation and bit-rot are caught
    /// before a half-loaded model can serve queries.
    pub fn to_json(&self) -> Result<String> {
        if lsi_fault::should_fail(lsi_fault::points::CORE_PERSIST_SAVE) {
            return Err(Error::Persist(format!(
                "fault injected at failpoint `{}`",
                lsi_fault::points::CORE_PERSIST_SAVE
            )));
        }
        let _save = lsi_obs::span("save");
        let mut json = persist::model_to_json(self);
        let len = json.len();
        let sum = {
            let _checksum = lsi_obs::span("checksum");
            fnv1a64(json.as_bytes())
        };
        // The writer left room for this line: no copy of the body.
        let _ = write!(json, "\n{TRAILER_TAG} len={len} fnv={sum:016x}");
        Ok(json)
    }

    /// Restore an LSI database from JSON.
    ///
    /// Accepts both trailer-carrying output of [`LsiModel::to_json`]
    /// (validated) and legacy trailer-less files. Beyond the checksum,
    /// every structural invariant the query/update paths rely on is
    /// checked here, so corrupted or hand-edited files fail with a
    /// typed [`Error::Persist`] instead of panicking mid-query.
    pub fn from_json(json: &str) -> Result<LsiModel> {
        if lsi_fault::should_fail(lsi_fault::points::CORE_PERSIST_LOAD) {
            return Err(Error::Persist(format!(
                "fault injected at failpoint `{}`",
                lsi_fault::points::CORE_PERSIST_LOAD
            )));
        }
        let _load = lsi_obs::span("load");
        let body = {
            let _checksum = lsi_obs::span("checksum");
            validate_trailer(json)?
        };
        let mut model = persist::model_from_json(body)?;
        model.validate_shape()?;
        // Norms are derived data; recompute rather than trusting the
        // serialized copy (hand-edited files stay usable).
        model.refresh_doc_norms();
        // Same philosophy for the cluster index: trust it only if it
        // is coherent with `v`, otherwise retrain.
        model.repair_index_after_load()?;
        Ok(model)
    }

    /// Check every dimensional invariant between the model's parallel
    /// arrays. Only called on deserialized models — construction and
    /// update paths maintain these by design. Each value on its own
    /// (finite floats, matrix buffers, sparse structure) was already
    /// checked by the constructor that rebuilt it.
    fn validate_shape(&self) -> Result<()> {
        let fail = |context: String| Err(Error::Persist(format!("invalid model: {context}")));
        let k = self.s.len();
        let (u_rows, u_cols) = self.u.shape();
        let (v_rows, v_cols) = self.v.shape();
        if u_cols != k || v_cols != k {
            return fail(format!(
                "U is {u_rows}x{u_cols} and V is {v_rows}x{v_cols}, but {k} singular values"
            ));
        }
        if self.doc_ids.len() != v_rows || self.doc_origins.len() != v_rows {
            return fail(format!(
                "{} doc ids and {} doc origins for {v_rows} document rows",
                self.doc_ids.len(),
                self.doc_origins.len()
            ));
        }
        if self.term_origins.len() != u_rows {
            return fail(format!(
                "{} term origins for {u_rows} term rows",
                self.term_origins.len()
            ));
        }
        if self.vocab.len() + self.folded_terms.len() != u_rows {
            return fail(format!(
                "{} vocabulary terms + {} folded terms != {u_rows} term rows",
                self.vocab.len(),
                self.folded_terms.len()
            ));
        }
        if self.global_weights.len() != u_rows {
            // Build sets one weight per vocabulary term; both term-add
            // paths push a unit weight per appended row, so the vector
            // always tracks the rows of U.
            return fail(format!(
                "{} global weights for {u_rows} term rows",
                self.global_weights.len()
            ));
        }
        if !self.s.iter().all(|s| s.is_finite() && *s >= 0.0) {
            return fail("singular values must be finite and non-negative".into());
        }
        // The stored weighted matrix covers exactly the SVD-derived
        // rows and columns: folding-in appends factor rows without
        // touching it, while SVD-updating grows it in step.
        let svd_terms = self
            .term_origins
            .iter()
            .filter(|o| matches!(o, DocOrigin::Svd))
            .count();
        let svd_docs = self
            .doc_origins
            .iter()
            .filter(|o| matches!(o, DocOrigin::Svd))
            .count();
        if self.weighted.shape() != (svd_terms, svd_docs) {
            return fail(format!(
                "weighted matrix is {:?} but origins say {svd_terms} SVD terms x {svd_docs} SVD docs",
                self.weighted.shape()
            ));
        }
        Ok(())
    }
}

/// Tag introducing the integrity trailer line of a serialized model.
const TRAILER_TAG: &str = "#lsi1";

/// FNV-1a 64-bit — tiny, dependency-free, and plenty for detecting
/// truncation and accidental corruption (this is an integrity check,
/// not an authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Split off and verify the `#lsi1` trailer, returning the JSON body.
/// Inputs without a trailer (legacy files) pass through unchanged.
fn validate_trailer(json: &str) -> Result<&str> {
    let Some((body, trailer)) = json.trim_end().rsplit_once('\n') else {
        return Ok(json);
    };
    let Some(fields) = trailer.strip_prefix(TRAILER_TAG) else {
        // No trailer tag: treat the whole input as body (legacy).
        return Ok(json);
    };
    let mut expect_len: Option<usize> = None;
    let mut expect_fnv: Option<u64> = None;
    for field in fields.split_whitespace() {
        if let Some(v) = field.strip_prefix("len=") {
            expect_len = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("fnv=") {
            expect_fnv = u64::from_str_radix(v, 16).ok();
        }
    }
    let (Some(len), Some(fnv)) = (expect_len, expect_fnv) else {
        return Err(Error::Persist(
            "model trailer is malformed (expected `#lsi1 len=<n> fnv=<hex>`)".into(),
        ));
    };
    if body.len() != len {
        return Err(Error::Persist(format!(
            "model file truncated or padded: trailer says {len} bytes, found {}",
            body.len()
        )));
    }
    let actual = fnv1a64(body.as_bytes());
    if actual != fnv {
        return Err(Error::Persist(format!(
            "model checksum mismatch: trailer says {fnv:016x}, computed {actual:016x}"
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_text::Document;

    fn small_corpus() -> Corpus {
        Corpus::from_pairs([
            ("d1", "apple banana apple cherry"),
            ("d2", "banana cherry banana date"),
            ("d3", "apple cherry date fig"),
            ("d4", "grape fig date grape"),
            ("d5", "fig grape apple banana"),
        ])
    }

    fn options(k: usize) -> LsiOptions {
        LsiOptions {
            k,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::none(),
            svd_seed: 1,
        }
    }

    #[test]
    fn build_produces_consistent_shapes() {
        let (m, report) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        assert_eq!(m.k(), 3);
        assert_eq!(m.n_docs(), 5);
        assert!(m.n_terms() >= 4);
        assert_eq!(m.term_matrix().shape(), (m.n_terms(), 3));
        assert_eq!(m.doc_matrix().shape(), (5, 3));
        assert!(report.steps >= 3);
    }

    #[test]
    fn k_is_capped_by_rank() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(50)).unwrap();
        assert!(m.k() <= 5);
    }

    #[test]
    fn factors_reconstruct_weighted_matrix_at_full_rank() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(5)).unwrap();
        let ak = m.reconstruct_ak().unwrap();
        let dense = m.weighted_matrix().to_dense();
        assert!(
            ak.fro_distance(&dense).unwrap() < 1e-8 * dense.fro_norm().max(1.0),
            "full-rank reconstruction should be exact"
        );
    }

    #[test]
    fn truncation_error_decreases_with_k() {
        let corpus = small_corpus();
        let mut errs = Vec::new();
        for k in 1..=4 {
            let (m, _) = LsiModel::build(&corpus, &options(k)).unwrap();
            let ak = m.reconstruct_ak().unwrap();
            let dense = m.weighted_matrix().to_dense();
            errs.push(ak.fro_distance(&dense).unwrap());
        }
        for w in errs.windows(2) {
            assert!(w[1] <= w[0] + 1e-10, "errors should shrink: {errs:?}");
        }
    }

    #[test]
    fn doc_and_term_lookup() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(2)).unwrap();
        assert_eq!(m.doc_index("d3"), Some(2));
        assert_eq!(m.doc_index("nope"), None);
        assert!(m.term_index("apple").is_some());
        assert!(m.term_index("unicorn").is_none());
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        for a in 0..m.n_docs() {
            for b in 0..m.n_docs() {
                let s1 = m.doc_doc_similarity(a, b);
                let s2 = m.doc_doc_similarity(b, a);
                assert!((s1 - s2).abs() < 1e-12);
                assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&s1));
            }
            assert!((m.doc_doc_similarity(a, a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaled_coords_multiply_by_sigma() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(2)).unwrap();
        let raw = m.doc_vector(0);
        let scaled = m.doc_coords_scaled(0);
        for j in 0..m.k() {
            assert!((scaled[j] - raw[j] * m.singular_values()[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn json_roundtrip_preserves_model() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        let back = LsiModel::from_json(&json).unwrap();
        assert_eq!(back.k(), m.k());
        assert_eq!(back.doc_ids(), m.doc_ids());
        assert_eq!(back.singular_values(), m.singular_values());
        assert!(back
            .term_matrix()
            .fro_distance(m.term_matrix())
            .unwrap()
            .abs()
            < 1e-15);
    }

    #[test]
    fn serialized_model_carries_a_valid_trailer() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        let (body, trailer) = json.rsplit_once('\n').unwrap();
        assert!(trailer.starts_with(TRAILER_TAG));
        assert!(trailer.contains(&format!("len={}", body.len())));
        assert!(trailer.contains(&format!("fnv={:016x}", fnv1a64(body.as_bytes()))));
    }

    #[test]
    fn truncated_model_file_is_rejected() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        // Chop bytes out of the body while keeping the trailer: the
        // length check must catch it before the parser sees broken JSON.
        let (body, trailer) = json.rsplit_once('\n').unwrap();
        let truncated = format!("{}\n{trailer}", &body[..body.len() - 10]);
        let err = LsiModel::from_json(&truncated).unwrap_err();
        assert!(matches!(err, Error::Persist(_)), "got {err}");
        assert!(err.to_string().contains("truncated"), "got {err}");
    }

    #[test]
    fn bit_flipped_model_file_is_rejected() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        // Swap one digit for another somewhere in the body — same
        // length, still valid JSON, but the checksum must catch it.
        let pos = json.find("\"s\":").unwrap();
        let mut bytes = json.into_bytes();
        let target = bytes[pos + 5];
        bytes[pos + 5] = if target == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(bytes).unwrap();
        let err = LsiModel::from_json(&corrupted).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "got {err}");
    }

    #[test]
    fn malformed_trailer_is_rejected() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(2)).unwrap();
        let json = m.to_json().unwrap();
        let (body, _) = json.rsplit_once('\n').unwrap();
        let mangled = format!("{body}\n{TRAILER_TAG} len=oops fnv=xyz");
        let err = LsiModel::from_json(&mangled).unwrap_err();
        assert!(err.to_string().contains("malformed"), "got {err}");
    }

    #[test]
    fn legacy_trailerless_json_still_loads() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        let (body, _) = json.rsplit_once('\n').unwrap();
        let back = LsiModel::from_json(body).unwrap();
        assert_eq!(back.k(), m.k());
        assert_eq!(back.singular_values(), m.singular_values());
    }

    #[test]
    fn shape_violations_in_loaded_json_are_rejected() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        let (body, _) = json.rsplit_once('\n').unwrap();
        // Drop a document id: parallel arrays now disagree with V.
        let chopped = body.replacen("\"d1\",", "", 1);
        let err = LsiModel::from_json(&chopped).unwrap_err();
        assert!(err.to_string().contains("invalid model"), "got {err}");
        // Smuggle a NaN into the singular values.
        let poisoned = body.replacen("\"s\":[", "\"s\":[null,", 1);
        assert!(LsiModel::from_json(&poisoned).is_err());
    }

    #[test]
    fn garbage_input_yields_typed_persist_errors() {
        for garbage in ["", "{", "not json at all", "[1,2,3]", "{\"s\":[1.0]}"] {
            let err = LsiModel::from_json(garbage).unwrap_err();
            assert!(matches!(err, Error::Persist(_)), "input {garbage:?} gave {err}");
        }
    }

    #[test]
    fn from_counts_validates_dimensions() {
        let corpus = small_corpus();
        let vocab = Vocabulary::build(&corpus, &ParsingRules::default());
        let counts = vocab.count_matrix(&corpus);
        let bad_ids = vec!["only-one".to_string()];
        assert!(LsiModel::from_counts(vocab, counts, bad_ids, &options(2)).is_err());
    }

    #[test]
    fn precision_mode_roundtrips_and_rebuilds_the_store() {
        let (mut m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        assert_eq!(m.precision(), Precision::Exact);
        assert!(m.compressed.is_none());
        let exact_bytes = m.scoring_resident_bytes();
        m.set_precision(Precision::F32);
        assert!(m.compressed.is_some());
        assert!(m.scoring_resident_bytes() < exact_bytes);
        let json = m.to_json().unwrap();
        let back = LsiModel::from_json(&json).unwrap();
        assert_eq!(back.precision(), Precision::F32);
        assert!(back.compressed.is_some(), "load must rebuild the store");
        m.set_precision(Precision::Exact);
        assert!(m.compressed.is_none());
    }

    #[test]
    fn index_policy_roundtrips_with_the_trained_index() {
        use crate::index::IndexPolicy;
        let (mut m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        assert_eq!(m.index_policy(), IndexPolicy::Exact);
        assert!(m.index.is_none());
        m.set_index_policy(IndexPolicy::Pruned { nprobe: 2 }).unwrap();
        let n_lists = m.index_n_lists().unwrap();
        assert!(n_lists >= 1);
        let json = m.to_json().unwrap();
        let back = LsiModel::from_json(&json).unwrap();
        assert_eq!(back.index_policy(), IndexPolicy::Pruned { nprobe: 2 });
        let bi = back.index.as_ref().unwrap();
        let mi = m.index.as_ref().unwrap();
        assert_eq!(bi.assignments(), mi.assignments());
        assert_eq!(bi.centroids().data(), mi.centroids().data());
        m.set_index_policy(IndexPolicy::Exact).unwrap();
        assert!(m.index.is_none());
    }

    #[test]
    fn corrupted_persisted_index_is_retrained_on_load() {
        use crate::index::IndexPolicy;
        let (mut m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        m.set_index_policy(IndexPolicy::Pruned { nprobe: 1 }).unwrap();
        let json = m.to_json().unwrap();
        let (body, _) = json.rsplit_once('\n').unwrap();
        // Smuggle an out-of-range assignment into the persisted index:
        // the load path must notice and retrain rather than mis-route.
        let first = "\"assignments\":[";
        let pos = body.find(first).unwrap() + first.len();
        let mut mangled = String::with_capacity(body.len() + 2);
        mangled.push_str(&body[..pos]);
        let rest = &body[pos..];
        let end = rest.find(']').unwrap();
        let mut entries: Vec<&str> = rest[..end].split(',').collect();
        let swapped = "99";
        entries[0] = swapped;
        mangled.push_str(&entries.join(","));
        mangled.push_str(&rest[end..]);
        let back = LsiModel::from_json(&mangled).unwrap();
        let bi = back.index.as_ref().unwrap();
        assert!(bi.assignments().iter().all(|&c| (c as usize) < bi.n_lists()));
        assert_eq!(bi.assignments().len(), back.n_docs());
    }

    #[test]
    fn replicated_corpus_scales_docs_and_keeps_invariants() {
        let (mut m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let n = m.n_docs();
        m.replicate_docs_for_bench(3).unwrap();
        assert_eq!(m.n_docs(), 3 * n);
        assert_eq!(m.doc_ids().len(), 3 * n);
        assert_eq!(m.doc_norms().len(), 3 * n);
        assert!(m.doc_index("d1~r2").is_some());
        // Replicas jitter but stay near their original's direction.
        let sim = m.doc_doc_similarity(0, n);
        assert!(sim > 0.999, "replica drifted: {sim}");
        // The inflated model still round-trips (replicas are folded-in).
        let json = m.to_json().unwrap();
        let back = LsiModel::from_json(&json).unwrap();
        assert_eq!(back.n_docs(), 3 * n);
    }

    #[test]
    fn legacy_files_without_precision_load_as_exact() {
        let (m, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let json = m.to_json().unwrap();
        let (body, _) = json.rsplit_once('\n').unwrap();
        // Simulate a pre-precision file by stripping the field.
        let legacy = body.replacen(",\"precision\":\"Exact\"", "", 1);
        assert_ne!(legacy, body, "serialized form should carry precision");
        let back = LsiModel::from_json(&legacy).unwrap();
        assert_eq!(back.precision(), Precision::Exact);
        assert_eq!(back.k(), m.k());
    }

    #[test]
    fn deterministic_build() {
        let (m1, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        let (m2, _) = LsiModel::build(&small_corpus(), &options(3)).unwrap();
        assert_eq!(m1.singular_values(), m2.singular_values());
    }

    #[test]
    fn empty_like_corpus_is_rejected_gracefully() {
        // A corpus whose vocabulary is empty (all unique words, min_df 2).
        let corpus = Corpus {
            docs: vec![
                Document::new("a", "aardvark"),
                Document::new("b", "zebra"),
            ],
        };
        let (m, _) = LsiModel::build(&corpus, &options(2)).unwrap();
        assert_eq!(m.k(), 0);
        assert_eq!(m.n_terms(), 0);
    }
}
