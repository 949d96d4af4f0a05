//! Updating an LSI database: folding-in, SVD-updating, recomputing.
//!
//! §2.3 of the paper defines the three options; §4 gives the
//! SVD-updating algebra (O'Brien, reference \[24\]):
//!
//! * **Folding-in** (Eqs. 7–8) — project new documents/terms onto the
//!   *existing* factors; a new document projects exactly like a query
//!   (Eq. 7 is Eq. 6). Cheap (`2mkp` flops per Table 7) but "new terms
//!   and documents have no effect on the representation of the
//!   pre-existing terms and documents", and it "corrupts the
//!   orthogonality" of the factor matrices (§4.3).
//! * **SVD-updating** (Eqs. 10–13) — one kernel computes the rank-k SVD
//!   of the low-rank modification `[A_k ⊕ 0] + X Yᵀ`: new documents are
//!   `X = D`, `Y = [0; I_p]` (Eqs. 10, 13), new terms `X = [0; I_q]`,
//!   `Y = Tᵀ` (Eq. 11), weight corrections `X = Y_j`, `Y = Z_j` (Eq. 12).
//!   An *append* side `[0; I_c]` (`c` new factor rows) is orthonormal and
//!   orthogonal to its factor `F` already. A *span* side `x` over `F`'s
//!   rows is projected (`Fᵀx`) and its residual `x − F Fᵀx` is
//!   orthonormalized into `Q` with coefficients `R`. The kernel takes the
//!   dense SVD `W_x S W_yᵀ` of the small middle matrix
//!   `K = [Fᵀx; R_x][Fᵀy; R_y]ᵀ + diag(Σ, 0)` and rotates each factor:
//!   `[F | Q]·W` for a span side, `[F·W_top; W_bottom]` for an append
//!   side. Carrying the residuals (à la Zha–Simon) keeps the factors
//!   orthonormal and makes the update *exact* for `B = (A_k | D)` — what
//!   the paper's own §4.4 example computes ("the best rank-2
//!   approximation B₂ to B"), reproducing its Figure 9. When the
//!   residuals vanish, `K` is the paper's `F`, `H` or `Q` verbatim.
//! * **Recomputing** — "not an updating method, but a way of creating
//!   an LSI-generated database ... from scratch", the accuracy
//!   yardstick.
//!
//! The stored weighted matrix holds the rows of `U` and `V` whose origin
//! is [`DocOrigin::Svd`], in order; each SVD-update grows it by the same
//! `X Yᵀ`. Every routine validates its whole batch before changing state.

use std::collections::HashSet;

use lsi_linalg::{jacobi_svd, ops, qr, vecops, DenseMatrix};
use lsi_sparse::{CooMatrix, CscMatrix};
use lsi_svd::{robust_svd, RobustOptions};
use lsi_text::Corpus;

use crate::complexity::CostParams;
use crate::model::{DocOrigin, LsiModel};
use crate::{Error, Result};

/// One side of a low-rank modification `[A_k ⊕ 0] + X Yᵀ`: the update
/// vectors over the term factor `U` (`X`) or the document factor `V`
/// (`Y`).
enum Side {
    /// `c` new factor rows, each updated by its own unit vector.
    Append(usize),
    /// Update vectors over the factor's existing rows, each given by its
    /// nonzero `(row, value)` pairs in ascending row order.
    Span(Vec<Vec<(usize, f64)>>),
}

impl Side {
    /// Project this side onto the factor `f` (rows × k): the stacked
    /// coefficients `[Fᵀx; R]` ((k + kept) × rank) and, for a span side,
    /// the orthonormal basis `Q` of the residual `x − F Fᵀx` (`R = Qᵀ`
    /// times the residual; dependent residual columns are dropped).
    fn project(&self, f: &DenseMatrix) -> Result<(DenseMatrix, Option<DenseMatrix>)> {
        let k = f.ncols();
        let cols = match self {
            Side::Append(c) => {
                // Unit vectors on new rows: `Fᵀx = 0`, `Q = [0; I_c]`, `R = I_c`.
                let coef = DenseMatrix::zeros(k, *c).vcat(&DenseMatrix::identity(*c))?;
                return Ok((coef, None));
            }
            Side::Span(cols) => cols,
        };
        let r = cols.len();
        let mut fx = DenseMatrix::zeros(k, r);
        let mut resid = DenseMatrix::zeros(f.nrows(), r);
        for (l, x) in cols.iter().enumerate() {
            let coef = ops::matvec_t_sparse(f, x)?;
            let out = resid.col_mut(l);
            for &(i, v) in x {
                out[i] = v;
            }
            for (a, &c) in coef.iter().enumerate() {
                vecops::axpy(-c, f.col(a), out);
            }
            fx.col_mut(l).copy_from_slice(&coef);
        }
        let mut q = resid.clone();
        let kept = qr::mgs_orthonormalize(&mut q);
        let kept: Vec<usize> = (0..r).filter(|&l| kept[l]).collect();
        let data = kept.iter().flat_map(|&l| q.col(l)).copied().collect();
        let q = DenseMatrix::from_col_major(f.nrows(), kept.len(), data)?;
        let coef = fx.vcat(&ops::matmul_tn(&q, &resid)?)?;
        Ok((coef, Some(q)))
    }

    /// The update vectors in stored-matrix coordinates, and the stored
    /// dimension after the update. An appended row becomes stored row
    /// `len + l`; a span vector keeps only its entries on `Svd`-origin
    /// rows, renumbered by their rank among them.
    fn stored_vectors(&self, origins: &[DocOrigin], len: usize) -> (Vec<Vec<(usize, f64)>>, usize) {
        let cols = match self {
            Side::Append(c) => return ((0..*c).map(|l| vec![(len + l, 1.0)]).collect(), len + c),
            Side::Span(cols) => cols,
        };
        let mut ranks = 0..;
        let rank: Vec<Option<usize>> = origins
            .iter()
            .map(|&o| (o == DocOrigin::Svd).then(|| ranks.next()).flatten())
            .collect();
        let vectors = cols
            .iter()
            .map(|x| {
                x.iter()
                    .filter_map(|&(i, v)| Some((rank.get(i).copied()??, v)))
                    .collect()
            })
            .collect();
        (vectors, len)
    }
}

/// Rotate factor `f` by the kept singular vectors `w` of the middle
/// matrix: `[F | Q]·W` for a span side (basis `Q`), `[F·W_top; W_bottom]`
/// for an append side.
fn rotate(f: &DenseMatrix, basis: Option<&DenseMatrix>, w: &DenseMatrix) -> Result<DenseMatrix> {
    Ok(match basis {
        Some(q) => ops::matmul(&f.hcat(q)?, w)?,
        None => {
            let (k, keep) = (f.ncols(), w.ncols());
            let top = ops::matmul(f, &w.submatrix(0, k, 0, keep))?;
            top.vcat(&w.submatrix(k, w.nrows(), 0, keep))?
        }
    })
}

/// The nonzero entries of a dense vector as `(index, value)` pairs.
fn nonzeros(values: impl IntoIterator<Item = f64>) -> Vec<(usize, f64)> {
    values
        .into_iter()
        .enumerate()
        // lsi-analyze: allow(float-safety) — an exact zero adds ±0.0 to the projection and nothing to the stored matrix; NaN entries are kept.
        .filter(|&(_, v)| v != 0.0)
        .collect()
}

/// Append `rows` (each of length `m.ncols()`) to the bottom of `m`.
fn append_rows(m: &DenseMatrix, rows: &[Vec<f64>]) -> Result<DenseMatrix> {
    if rows.is_empty() {
        return Ok(m.clone());
    }
    Ok(m.vcat(&DenseMatrix::from_rows(rows)?)?)
}

/// Keep the items whose origin is `Svd`.
fn keep_svd<'a, T>(items: Vec<T>, origins: impl IntoIterator<Item = &'a DocOrigin>) -> Vec<T> {
    items
        .into_iter()
        .zip(origins)
        .filter(|(_, o)| **o == DocOrigin::Svd)
        .map(|(item, _)| item)
        .collect()
}

impl LsiModel {
    /// Table 7's cost model at the model's current shape; each update
    /// charges its row once the batch is validated.
    fn table7(&self) -> CostParams {
        CostParams::with_defaults(self.n_terms(), self.n_docs(), self.k())
    }

    /// Reject a batch of new document ids that repeats an id or names
    /// one already present.
    fn check_new_doc_ids<'a>(&self, ids: impl IntoIterator<Item = &'a str>) -> Result<()> {
        let mut seen = HashSet::new();
        for id in ids {
            let context = if !seen.insert(id) {
                format!("document id {id} repeated in the batch")
            } else if self.doc_index(id).is_some() {
                format!("document id {id} already present")
            } else {
                continue;
            };
            return Err(Error::Inconsistent { context });
        }
        Ok(())
    }

    /// Reject a batch of new terms unless each has one count per
    /// document and a name (compared lowercased, as stored) that is
    /// neither indexed nor repeated in the batch.
    fn check_new_terms(&self, terms: &[(String, Vec<f64>)]) -> Result<()> {
        let n = self.n_docs();
        let mut seen = HashSet::new();
        for (name, counts) in terms {
            let lowered = name.to_lowercase();
            let context = if counts.len() != n {
                format!(
                    "term {name} has {} counts but the model holds {n} documents",
                    counts.len()
                )
            } else if self.term_index(&lowered).is_some() {
                format!("term {name} already indexed")
            } else if !seen.insert(lowered) {
                format!("term {name} repeated in the batch")
            } else {
                continue;
            };
            return Err(Error::Inconsistent { context });
        }
        Ok(())
    }

    /// Replace the factors by the rank-k SVD of `[U Σ Vᵀ ⊕ 0] + X Yᵀ`,
    /// `x` over `U` and `y` over `V` (see the module docs), and grow the
    /// stored weighted matrix by the same `X Yᵀ`. The caller appends the
    /// ids or terms of any appended rows.
    fn low_rank_update(&mut self, x: Side, y: Side) -> Result<()> {
        let k = self.k();
        let (cx, qx) = x.project(&self.u)?;
        if cx.ncols() == 0 {
            return Ok(());
        }
        let (cy, qy) = y.project(&self.v)?;
        let mut middle = ops::matmul_nt(&cx, &cy)?;
        for (a, &s) in self.s.iter().enumerate() {
            middle.add_to(a, a, s);
        }
        let svd = jacobi_svd(&middle)?;
        let keep = k.min(svd.s.len());
        let u = rotate(&self.u, qx.as_ref(), &svd.u.truncate_cols(keep))?;
        let v = rotate(&self.v, qy.as_ref(), &svd.v.truncate_cols(keep))?;

        let stored = &self.weighted;
        let (xs, rows) = x.stored_vectors(&self.term_origins, stored.nrows());
        let (ys, cols) = y.stored_vectors(&self.doc_origins, stored.ncols());
        let mut coo = CooMatrix::new(rows, cols);
        for (i, j, w) in stored.iter() {
            coo.push(i, j, w)?;
        }
        for (xl, yl) in xs.iter().zip(&ys) {
            for &(i, xv) in xl {
                for &(j, yv) in yl {
                    coo.push(i, j, xv * yv)?;
                }
            }
        }

        self.u = u;
        self.v = v;
        self.s = svd.s[..keep].to_vec();
        self.weighted = coo.to_csc();
        self.refresh_doc_norms();
        // Every document row rotated (and appended ones arrived): re-derive
        // the index assignments; a row-count change forces a rebuild.
        self.index_reassign_all()
    }

    /// Fold in new documents (Eq. 7): each document is projected as
    /// `d̂ = dᵀ U_k Σ_k⁻¹` — the query projection of Eq. 6, which also
    /// charges the flops — and appended to `V_k`. Existing coordinates
    /// are untouched.
    pub fn fold_in_documents(&mut self, corpus: &Corpus) -> Result<()> {
        let _span = lsi_obs::span("fold_in");
        self.check_new_doc_ids(corpus.docs.iter().map(|d| d.id.as_str()))?;
        lsi_obs::count("update.fold_in_docs.count", corpus.len() as u64);
        let new_rows = corpus
            .docs
            .iter()
            .map(|doc| self.project_sparse(&self.vocab.sparse_count_vector(&doc.text)))
            .collect::<Result<Vec<_>>>()?;
        let appended_from = self.v.nrows();
        self.v = append_rows(&self.v, &new_rows)?;
        for doc in &corpus.docs {
            self.doc_ids.push(doc.id.as_str().into());
            self.doc_origins.push(DocOrigin::FoldedIn);
        }
        self.refresh_doc_norms();
        // Folded-in rows are pure appends: route each to its nearest
        // centroid (retrains automatically once drift accumulates).
        self.index_append_rows(appended_from)?;
        Ok(())
    }

    /// Fold in new terms (Eq. 8): each term is a vector of counts over
    /// the model's documents, projected as `t̂ = t V_k Σ_k⁻¹` and
    /// appended to `U_k`.
    ///
    /// `counts` maps each new term name to its occurrence counts over
    /// the first [`LsiModel::n_docs`] documents.
    pub fn fold_in_terms(&mut self, terms: &[(String, Vec<f64>)]) -> Result<()> {
        let _span = lsi_obs::span("fold_in");
        self.check_new_terms(terms)?;
        // Table 7: folding in q terms costs 2nkq flops.
        lsi_obs::add_flops(self.table7().fold_in_terms(terms.len()) as f64);
        lsi_obs::count("update.fold_in_terms.count", terms.len() as u64);
        let local = self.weighting.local;
        let new_rows = terms
            .iter()
            .map(|(_, counts)| {
                let weighted: Vec<f64> = counts.iter().map(|&c| local.apply(c)).collect();
                let mut that = ops::matvec_t(&self.v, &weighted)?;
                for (q, &s) in that.iter_mut().zip(&self.s).filter(|(_, &s)| s > 0.0) {
                    *q /= s;
                }
                Ok(that)
            })
            .collect::<Result<Vec<_>>>()?;
        self.u = append_rows(&self.u, &new_rows)?;
        for (name, _) in terms {
            self.folded_terms.push(name.to_lowercase());
            self.term_origins.push(DocOrigin::FoldedIn);
            self.global_weights.push(1.0);
        }
        Ok(())
    }

    /// SVD-update with new documents (Eqs. 10 and 13).
    ///
    /// `d_counts` is the m×p *raw count* matrix of the new documents
    /// over the model's terms (build it with
    /// `model.vocabulary().count_matrix(&new_corpus)`); weighting is
    /// applied internally with the stored global weights.
    pub fn svd_update_documents(&mut self, d_counts: &CscMatrix, ids: &[String]) -> Result<()> {
        let _span = lsi_obs::span("update");
        let m = self.n_terms();
        let p = d_counts.ncols();
        if d_counts.nrows() != m {
            return Err(Error::Inconsistent {
                context: format!(
                    "update matrix has {} rows but the model indexes {m} terms",
                    d_counts.nrows()
                ),
            });
        }
        if ids.len() != p {
            return Err(Error::Inconsistent {
                context: format!("{p} new documents but {} ids", ids.len()),
            });
        }
        self.check_new_doc_ids(ids.iter().map(String::as_str))?;
        lsi_obs::add_flops(self.table7().svd_update_documents(p, d_counts.nnz()) as f64);
        lsi_obs::count("update.svd_update_docs.count", p as u64);
        // Weight D consistently with the stored scheme.
        let mut d = d_counts.clone();
        let local = self.weighting.local;
        d.map_values(|v| local.apply(v));
        d.scale_rows(&self.global_weights)?;
        let cols = (0..p)
            .map(|c| {
                let (rows, vals) = d.col(c);
                rows.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        self.low_rank_update(Side::Span(cols), Side::Append(p))?;
        for id in ids {
            self.doc_ids.push(id.as_str().into());
            self.doc_origins.push(DocOrigin::Svd);
        }
        Ok(())
    }

    /// SVD-update with new terms (Eq. 11).
    ///
    /// Each entry gives a new term's name and its raw counts over the
    /// model's documents (length [`LsiModel::n_docs`]). New terms get
    /// unit global weight, as in [`LsiModel::fold_in_terms`].
    pub fn svd_update_terms(&mut self, terms: &[(String, Vec<f64>)]) -> Result<()> {
        let _span = lsi_obs::span("update");
        self.check_new_terms(terms)?;
        let local = self.weighting.local;
        let t: Vec<_> = terms
            .iter()
            .map(|(_, counts)| nonzeros(counts.iter().map(|&c| local.apply(c))))
            .collect();
        let nnz_t = t.iter().map(Vec::len).sum();
        lsi_obs::add_flops(self.table7().svd_update_terms(terms.len(), nnz_t) as f64);
        lsi_obs::count("update.svd_update_terms.count", terms.len() as u64);
        self.low_rank_update(Side::Append(terms.len()), Side::Span(t))?;
        for (name, _) in terms {
            self.folded_terms.push(name.to_lowercase());
            self.term_origins.push(DocOrigin::Svd);
            self.global_weights.push(1.0);
        }
        Ok(())
    }

    /// SVD-update for term-weight corrections (Eq. 12):
    /// `W = A_k + Y_j Z_jᵀ`, where `Y_j` selects the `j` re-weighted
    /// term rows and `Z_j`'s columns hold the per-document weight
    /// deltas.
    ///
    /// `changes` maps a term row index to its delta vector over the
    /// model's documents.
    pub fn svd_update_weights(&mut self, changes: &[(usize, Vec<f64>)]) -> Result<()> {
        let _span = lsi_obs::span("update");
        let n = self.n_docs();
        for (term, delta) in changes {
            if *term >= self.n_terms() {
                return Err(Error::Inconsistent {
                    context: format!("term row {term} out of range"),
                });
            }
            if delta.len() != n {
                return Err(Error::Inconsistent {
                    context: format!(
                        "delta for term {term} has {} entries, expected {n}",
                        delta.len()
                    ),
                });
            }
        }
        let y = changes.iter().map(|&(term, _)| vec![(term, 1.0)]).collect();
        let z: Vec<_> = changes
            .iter()
            .map(|(_, delta)| nonzeros(delta.iter().copied()))
            .collect();
        let nnz_z = z.iter().map(Vec::len).sum();
        lsi_obs::add_flops(self.table7().svd_update_weights(changes.len(), nnz_z) as f64);
        lsi_obs::count("update.svd_update_weights.count", changes.len() as u64);
        self.low_rank_update(Side::Span(y), Side::Span(z))
    }

    /// Recompute the truncated SVD from the stored (possibly grown)
    /// weighted matrix — the paper's accuracy yardstick for the
    /// updating methods. Folded-in document/term rows are not part of
    /// the stored matrix and are dropped (they are re-foldable).
    pub fn recompute(&mut self, k: usize) -> Result<()> {
        let _span = lsi_obs::span("recompute");
        let k = k.min(self.weighted.nrows().min(self.weighted.ncols()));
        let operator = lsi_sparse::ops::DualFormat::from_csc(self.weighted.clone());
        let (svd, _) = robust_svd(&operator, k, &RobustOptions::default())?;
        self.u = svd.u;
        self.s = svd.s;
        self.v = svd.v;
        // Keep the rows the stored matrix holds: the `Svd`-origin ones.
        self.doc_ids = keep_svd(std::mem::take(&mut self.doc_ids), &self.doc_origins);
        self.folded_terms = keep_svd(
            std::mem::take(&mut self.folded_terms),
            self.term_origins.iter().skip(self.vocab.len()),
        );
        self.global_weights =
            keep_svd(std::mem::take(&mut self.global_weights), &self.term_origins);
        self.doc_origins = vec![DocOrigin::Svd; self.v.nrows()];
        self.term_origins = vec![DocOrigin::Svd; self.u.nrows()];
        self.refresh_doc_norms();
        // V was rebuilt from scratch (and may have shrunk): the
        // row-count check inside forces a fresh clustering.
        self.index_reassign_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LsiOptions;
    use lsi_linalg::ops::matmul_tn;
    use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

    fn corpus() -> Corpus {
        Corpus::from_pairs([
            ("d1", "apple banana apple cherry"),
            ("d2", "banana cherry banana date"),
            ("d3", "apple cherry date fig"),
            ("d4", "grape fig date grape"),
            ("d5", "fig grape apple banana"),
            ("d6", "cherry date fig grape"),
        ])
    }

    fn build(k: usize) -> LsiModel {
        let options = LsiOptions {
            k,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::none(),
            svd_seed: 7,
        };
        LsiModel::build(&corpus(), &options).unwrap().0
    }

    fn orthonormality(m: &DenseMatrix) -> f64 {
        let g = matmul_tn(m, m).unwrap();
        g.fro_distance(&DenseMatrix::identity(m.ncols())).unwrap()
    }

    #[test]
    fn fold_in_documents_preserves_existing_rows() {
        let mut m = build(3);
        let v_before = m.doc_matrix().clone();
        let u_before = m.term_matrix().clone();
        m.fold_in_documents(&Corpus::from_pairs([("new1", "apple banana cherry")]))
            .unwrap();
        assert_eq!(m.n_docs(), 7);
        // Pre-existing rows bitwise identical: "the coordinates of the
        // original topics stay fixed".
        for j in 0..6 {
            assert_eq!(m.doc_vector(j), v_before.row(j));
        }
        assert_eq!(m.term_matrix(), &u_before);
        assert_eq!(m.doc_origins()[6], DocOrigin::FoldedIn);
    }

    #[test]
    fn folding_in_existing_document_lands_on_its_vector() {
        // At full rank, folding in a document identical to column j of A
        // reproduces row j of V exactly (Eq. 7 inverts Eq. 1).
        let mut m = build(6);
        let original = m.doc_vector(0);
        m.fold_in_documents(&Corpus::from_pairs([("copy", "apple banana apple cherry")]))
            .unwrap();
        let folded = m.doc_vector(m.n_docs() - 1);
        for (a, b) in original.iter().zip(folded.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fold_in_rejects_duplicate_ids() {
        let mut m = build(2);
        assert!(m
            .fold_in_documents(&Corpus::from_pairs([("d1", "apple")]))
            .is_err());
    }

    #[test]
    fn fold_in_terms_appends_rows() {
        let mut m = build(3);
        let n = m.n_docs();
        let counts = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        assert_eq!(counts.len(), n);
        m.fold_in_terms(&[("kiwi".to_string(), counts)]).unwrap();
        assert_eq!(m.n_terms(), m.vocabulary().len() + 1);
        assert!(m.term_index("kiwi").is_some());
        // Folding a duplicate term errors.
        assert!(m
            .fold_in_terms(&[("kiwi".to_string(), vec![0.0; 6])])
            .is_err());
        // Wrong length errors.
        assert!(m
            .fold_in_terms(&[("melon".to_string(), vec![0.0; 3])])
            .is_err());
    }

    #[test]
    fn svd_update_documents_keeps_factors_orthonormal() {
        let mut m = build(3);
        let d = m
            .vocabulary()
            .count_matrix(&Corpus::from_pairs([("n1", "apple banana fig"), ("n2", "date grape")]));
        m.svd_update_documents(&d, &["n1".to_string(), "n2".to_string()])
            .unwrap();
        assert_eq!(m.n_docs(), 8);
        assert!(orthonormality(m.term_matrix()) < 1e-9);
        assert!(orthonormality(m.doc_matrix()) < 1e-9);
        // Singular values stay sorted.
        for w in m.singular_values().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn svd_update_matches_recompute_at_full_rank() {
        // At k = rank, SVD-updating is exact: its singular values match
        // a fresh decomposition of the extended matrix.
        let mut m = build(6);
        let new = Corpus::from_pairs([("n1", "apple banana cherry date fig grape")]);
        let d = m.vocabulary().count_matrix(&new);
        let k = m.k();
        m.svd_update_documents(&d, &["n1".to_string()]).unwrap();

        // Oracle: dense SVD of the stored (extended) weighted matrix.
        let oracle = lsi_linalg::dense_svd(&m.weighted_matrix().to_dense()).unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()).take(k) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn svd_update_documents_is_exact_for_ak_extension() {
        // Even at truncated rank, the residual-carrying update computes
        // the exact rank-k SVD of B = (A_k | D).
        let mut m = build(2);
        let ak = m.reconstruct_ak().unwrap();
        let new = Corpus::from_pairs([("n1", "apple grape grape"), ("n2", "cherry fig")]);
        let d = m.vocabulary().count_matrix(&new);
        let d_dense = d.to_dense();
        let b = ak.hcat(&d_dense).unwrap();
        let oracle = lsi_linalg::dense_svd(&b).unwrap();

        m.svd_update_documents(&d, &["n1".to_string(), "n2".to_string()])
            .unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs oracle {want}");
        }
        // Reconstruction agrees with the oracle's rank-k truncation.
        let ours = m.reconstruct_ak().unwrap();
        let theirs = oracle.truncate(m.k()).reconstruct().unwrap();
        assert!(ours.fro_distance(&theirs).unwrap() < 1e-8);
    }

    #[test]
    fn svd_update_terms_is_exact_for_ak_extension() {
        let mut m = build(2);
        let ak = m.reconstruct_ak().unwrap();
        let t_counts = vec![1.0, 0.0, 2.0, 0.0, 1.0, 0.0];
        let t_row = DenseMatrix::from_rows(std::slice::from_ref(&t_counts)).unwrap();
        let c = ak.vcat(&t_row).unwrap();
        let oracle = lsi_linalg::dense_svd(&c).unwrap();

        m.svd_update_terms(&[("kiwi".to_string(), t_counts)]).unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs oracle {want}");
        }
    }

    #[test]
    fn svd_update_weights_is_exact_for_rank_j_update() {
        let mut m = build(2);
        let ak = m.reconstruct_ak().unwrap();
        let term = 1usize;
        let delta = vec![0.5, 0.0, -0.25, 0.0, 1.0, 0.0];
        let mut w = ak.clone();
        for (c, &dv) in delta.iter().enumerate() {
            w.add_to(term, c, dv);
        }
        let oracle = lsi_linalg::dense_svd(&w).unwrap();
        m.svd_update_weights(&[(term, delta)]).unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs oracle {want}");
        }
    }

    #[test]
    fn svd_update_moves_existing_documents() {
        // Unlike folding-in, updating redefines the latent structure.
        let mut m = build(2);
        let before = m.doc_vector(0);
        let d = m
            .vocabulary()
            .count_matrix(&Corpus::from_pairs([("n1", "apple apple banana banana")]));
        m.svd_update_documents(&d, &["n1".to_string()]).unwrap();
        let after = m.doc_vector(0);
        let diff: f64 = before
            .iter()
            .zip(after.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "existing coordinates should move, diff {diff}");
    }

    #[test]
    fn svd_update_terms_keeps_factors_orthonormal() {
        let mut m = build(3);
        let n = m.n_docs();
        m.svd_update_terms(&[
            ("kiwi".to_string(), vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0]),
            ("melon".to_string(), vec![0.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        ])
        .unwrap();
        assert_eq!(m.n_terms(), m.vocabulary().len() + 2);
        assert_eq!(m.n_docs(), n);
        assert!(orthonormality(m.term_matrix()) < 1e-9);
        assert!(orthonormality(m.doc_matrix()) < 1e-9);
        assert!(m.term_index("melon").is_some());
    }

    #[test]
    fn svd_update_terms_exact_at_full_rank() {
        let mut m = build(6);
        let k = m.k();
        m.svd_update_terms(&[("kiwi".to_string(), vec![2.0, 0.0, 1.0, 0.0, 0.0, 1.0])])
            .unwrap();
        let oracle = lsi_linalg::dense_svd(&m.weighted_matrix().to_dense()).unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()).take(k) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn weight_correction_exact_for_in_span_changes() {
        // Build a delta that lies in span(V_k) by construction: scale an
        // existing term row. At full rank every delta qualifies.
        let mut m = build(6);
        let k = m.k();
        let term = 0usize;
        // Delta: +0.5 to term 0's weight in every document it occurs in.
        let rows = m.weighted_matrix().transpose();
        let (cols, vals) = rows.col(term);
        let mut delta = vec![0.0; m.n_docs()];
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            delta[c] = 0.5 * v;
        }
        m.svd_update_weights(&[(term, delta)]).unwrap();
        assert!(orthonormality(m.term_matrix()) < 1e-9);
        assert!(orthonormality(m.doc_matrix()) < 1e-9);
        let oracle = lsi_linalg::dense_svd(&m.weighted_matrix().to_dense()).unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()).take(k) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn weight_correction_validates_input() {
        let mut m = build(3);
        assert!(m.svd_update_weights(&[(999, vec![0.0; 6])]).is_err());
        assert!(m.svd_update_weights(&[(0, vec![0.0; 2])]).is_err());
        assert!(m.svd_update_weights(&[]).is_ok());
    }

    #[test]
    fn recompute_restores_exact_factors() {
        let mut m = build(3);
        // Fold in a document (degrades the representation), then
        // recompute: folded row is dropped, factors are fresh.
        m.fold_in_documents(&Corpus::from_pairs([("x", "apple banana")]))
            .unwrap();
        assert_eq!(m.n_docs(), 7);
        m.recompute(3).unwrap();
        assert_eq!(m.n_docs(), 6);
        assert!(orthonormality(m.doc_matrix()) < 1e-9);
        let oracle = lsi_linalg::dense_svd(&m.weighted_matrix().to_dense()).unwrap();
        for (got, want) in m.singular_values().iter().zip(oracle.s.iter()).take(3) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn update_dimension_validation() {
        let mut m = build(3);
        let wrong_rows = CscMatrix::zeros(2, 1);
        assert!(m
            .svd_update_documents(&wrong_rows, &["x".to_string()])
            .is_err());
        let ok_shape = CscMatrix::zeros(m.n_terms(), 1);
        assert!(m.svd_update_documents(&ok_shape, &[]).is_err()); // id count mismatch
        assert!(m
            .svd_update_documents(&ok_shape, &["d1".to_string()])
            .is_err()); // duplicate id
    }

    #[test]
    fn queries_work_after_each_update_kind() {
        let mut m = build(3);
        m.fold_in_documents(&Corpus::from_pairs([("f1", "apple cherry")]))
            .unwrap();
        let d = m
            .vocabulary()
            .count_matrix(&Corpus::from_pairs([("u1", "banana date")]));
        m.svd_update_documents(&d, &["u1".to_string()]).unwrap();
        m.svd_update_terms(&[("kiwi".to_string(), vec![1.0; m.n_docs()])])
            .unwrap();
        let ranked = m.query("apple cherry").unwrap();
        assert_eq!(ranked.matches.len(), m.n_docs());
        // d1/d3 contain apple+cherry, should rank above d4.
        assert!(ranked.rank_of("d1").unwrap() < ranked.rank_of("d4").unwrap());
    }

    #[test]
    fn folded_then_updated_document_coordinates_differ() {
        // Fold-in and SVD-update of the same document give different
        // (but correlated) positions at truncated rank.
        let text = "apple banana date date";
        let mut folded = build(2);
        folded
            .fold_in_documents(&Corpus {
                docs: vec![Document::new("x", text)],
            })
            .unwrap();
        let f = folded.doc_vector(folded.n_docs() - 1);

        let mut updated = build(2);
        let d = updated
            .vocabulary()
            .count_matrix(&Corpus::from_pairs([("x", text)]));
        updated.svd_update_documents(&d, &["x".to_string()]).unwrap();
        let u = updated.doc_vector(updated.n_docs() - 1);

        let cos = lsi_linalg::vecops::cosine(&f, &u);
        assert!(cos.abs() > 0.5, "positions should correlate, cos {cos}");
        let dist = lsi_linalg::vecops::distance(&f, &u);
        assert!(dist > 1e-9, "but not coincide exactly");
    }

    #[test]
    fn rejected_fold_in_batch_changes_nothing() {
        let mut m = build(3);
        let before = m.clone();
        for batch in [
            [("new1", "apple banana"), ("d1", "cherry date")],
            [("new1", "apple banana"), ("new1", "cherry date")],
        ] {
            assert!(m.fold_in_documents(&Corpus::from_pairs(batch)).is_err());
            assert_eq!(m.doc_index("new1"), None);
            assert_eq!(m.doc_ids(), before.doc_ids());
            assert_eq!(m.doc_matrix(), before.doc_matrix());
        }
        m.fold_in_documents(&Corpus::from_pairs([("new1", "apple banana")]))
            .unwrap();
        assert_eq!(m.doc_index("new1"), Some(6));
    }

    #[test]
    fn rejected_fold_in_terms_batch_changes_nothing() {
        let mut m = build(3);
        let counts = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let batch = [
            ("kiwi".to_string(), counts.clone()),
            ("kiwi".to_string(), counts.clone()),
        ];
        assert!(m.fold_in_terms(&batch).is_err());
        assert_eq!(m.term_index("kiwi"), None);
        assert_eq!(m.n_terms(), m.vocabulary().len());
        m.project_text("kiwi apple").unwrap();
        m.fold_in_terms(&[("kiwi".to_string(), counts)]).unwrap();
        assert!(m.term_index("kiwi").is_some());
    }

    #[test]
    fn svd_update_documents_rejects_repeated_ids() {
        let mut m = build(3);
        let d = m.vocabulary().count_matrix(&Corpus::from_pairs([
            ("n1", "apple fig"),
            ("n1", "date grape"),
        ]));
        assert!(m
            .svd_update_documents(&d, &["n1".to_string(), "n1".to_string()])
            .is_err());
        assert_eq!(m.n_docs(), 6);
        assert_eq!(m.weighted_matrix().ncols(), 6);
    }

    #[test]
    fn svd_update_terms_rejects_repeated_and_indexed_names() {
        let mut m = build(3);
        let counts = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let repeated = [
            ("kiwi".to_string(), counts.clone()),
            ("KIWI".to_string(), counts.clone()),
        ];
        assert!(m.svd_update_terms(&repeated).is_err());
        // Names are compared lowercased, as they are stored.
        assert!(m
            .svd_update_terms(&[("Apple".to_string(), counts)])
            .is_err());
        assert_eq!(m.n_terms(), m.vocabulary().len());
        assert_eq!(m.weighted_matrix().nrows(), m.vocabulary().len());
    }

    #[test]
    fn recompute_keeps_svd_updated_documents_after_a_fold_in() {
        let mut m = build(3);
        m.fold_in_documents(&Corpus::from_pairs([("f1", "apple cherry")]))
            .unwrap();
        let d = m
            .vocabulary()
            .count_matrix(&Corpus::from_pairs([("u1", "banana date")]));
        m.svd_update_documents(&d, &["u1".to_string()]).unwrap();
        m.recompute(3).unwrap();
        let ids: Vec<&str> = m.doc_ids().iter().map(|id| id.as_ref()).collect();
        assert_eq!(ids, ["d1", "d2", "d3", "d4", "d5", "d6", "u1"]);
        assert_eq!(m.weighted_matrix().col(6), d.col(0));
    }

    /// Fold in term `kiwi`, then SVD-update term `melon`; returns the
    /// model and `melon`'s counts.
    fn folded_kiwi_updated_melon() -> (LsiModel, Vec<f64>) {
        let mut m = build(3);
        m.fold_in_terms(&[("kiwi".to_string(), vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0])])
            .unwrap();
        let melon = vec![0.0, 2.0, 1.0, 0.0, 0.0, 1.0];
        m.svd_update_terms(&[("melon".to_string(), melon.clone())])
            .unwrap();
        (m, melon)
    }

    #[test]
    fn recompute_keeps_svd_updated_terms_after_a_term_fold_in() {
        let (mut m, melon) = folded_kiwi_updated_melon();
        let vocab = m.vocabulary().len();
        m.recompute(3).unwrap();
        assert_eq!(m.term_index("kiwi"), None);
        assert_eq!(m.term_index("melon"), Some(vocab));
        assert_eq!(m.n_terms(), vocab + 1);
        assert_eq!(m.weighted_matrix().to_dense().row(vocab), melon);
    }

    #[test]
    fn weight_correction_reaches_the_stored_row_after_a_term_fold_in() {
        let (mut m, _) = folded_kiwi_updated_melon();
        let vocab = m.vocabulary().len();
        let before = m.weighted_matrix().to_dense();
        let row = m.term_index("melon").unwrap();
        assert_eq!(row, vocab + 1);
        m.svd_update_weights(&[(row, vec![0.5, 0.0, 0.0, 0.0, 0.25, 0.0])])
            .unwrap();
        let after = m.weighted_matrix().to_dense();
        assert_eq!(after.row(vocab), [0.5, 2.0, 1.0, 0.0, 0.25, 1.0]);
        for i in 0..vocab {
            assert_eq!(after.row(i), before.row(i));
        }
    }
}
