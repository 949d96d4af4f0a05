//! Query projection and cosine ranking.
//!
//! Eq. 6 of the paper: a query is "a vector of words ... multiplied by
//! the appropriate term weights", projected as `q̂ = qᵀ U_k Σ_k⁻¹`, then
//! "compared to all existing document vectors, and the documents ranked
//! by their similarity (nearness) to the query. One common measure of
//! similarity is the cosine ... Typically the z closest documents or all
//! documents exceeding some cosine threshold are returned."
//!
//! Every ranking entry point — one query, a multi-facet query, a
//! coalesced batch — runs one three-stage executor over a block of
//! projected columns:
//!
//! 1. **rows**: all documents, or the survivors of the probed cluster
//!    lists ([`crate::index`]), chosen once from the index policy and
//!    the caller's probe override;
//! 2. **sweep**: cosines of each column against its rows, in f64 or
//!    through the compressed replica ([`crate::compressed`]) when a
//!    reduced precision is active. Each sweep evaluates the
//!    `core.query.score` failpoint once and checks its scores are
//!    finite;
//! 3. **select and certify**: the shared top-`z` selection. Behind a
//!    compressed sweep it over-fetches candidates, re-ranks them
//!    exactly in f64 and certifies the result with the margin check; a
//!    ranking that cannot be certified falls back to the f64 sweep over
//!    the same rows.
//!
//! Only the f64 sweep over all rows blocks columns together: one read
//! of `V` for all of them, through the fused block sweep for narrow
//! blocks (a lone query, a coalesced batch) and GEMM for wide ones
//! (many facets). Every other sweep runs column by column.

use std::cell::Cell;
use std::sync::Arc;

use lsi_linalg::{ops, vecops, DenseMatrix};
use lsi_sparse::nnz_balanced_spans;
use rayon::prelude::*;

use crate::batch::BatchQuery;
use crate::compressed::{CompressedStore, OVER_FETCH_FACTOR, OVER_FETCH_FLOOR};
use crate::index::{ClusterIndex, IndexPolicy};
use crate::model::LsiModel;
use crate::multiquery::Combine;
use crate::querylog::{self, Record};
use crate::{Error, Result};

thread_local! {
    /// The f64 sweep's score panel (`n × b` for a block of `b` columns),
    /// kept per thread between calls, so that a serving thread scoring
    /// batch after batch allocates it once. Allocated per batch, its
    /// hundreds of KiB came back either as reused heap or as freshly
    /// mapped pages to fault in, depending on what the process had
    /// freed before (a database load that built and dropped a `Json`
    /// tree left the heap warm; a streaming load does not), and query
    /// latency followed.
    static SWEEP_PANEL: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// One retrieved document.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Row index in `V_k`.
    pub doc: usize,
    /// Document id (shared with the model — cloning a match is cheap).
    pub id: Arc<str>,
    /// Cosine similarity to the query.
    pub cosine: f64,
}

/// A ranked retrieval result.
#[derive(Debug, Clone, Default)]
pub struct RankedList {
    /// Matches, best first.
    pub matches: Vec<Match>,
}

impl RankedList {
    /// Keep only matches with cosine at or above `threshold` (the
    /// paper's Figure 6 uses 0.85, Table 4 uses 0.40).
    pub fn at_threshold(&self, threshold: f64) -> RankedList {
        RankedList {
            matches: self
                .matches
                .iter()
                .filter(|m| m.cosine >= threshold)
                .cloned()
                .collect(),
        }
    }

    /// Keep the top `z` matches.
    pub fn top(&self, z: usize) -> RankedList {
        RankedList {
            matches: self.matches.iter().take(z).cloned().collect(),
        }
    }

    /// Document ids in rank order.
    pub fn ids(&self) -> Vec<&str> {
        self.matches.iter().map(|m| m.id.as_ref()).collect()
    }

    /// Rank position (0-based) of a document id, if present.
    pub fn rank_of(&self, id: &str) -> Option<usize> {
        self.matches.iter().position(|m| m.id.as_ref() == id)
    }
}

/// Order-reversing monotone map from an f64 score to a u64 sort key:
/// ascending key order is descending score order, with every distinct
/// bit pattern (including -0.0 vs +0.0) kept distinct. Branchless —
/// the key build runs once per document per query, and data-dependent
/// branches on scores are unpredictable there (every query is a fresh
/// pattern). Finiteness is guarded before every selection; a NaN that
/// slipped through would rank first, not panic.
#[inline]
pub(crate) fn desc_key_f64(s: f64) -> u64 {
    let b = s.to_bits();
    let mask = ((b as i64) >> 63) as u64;
    !(b ^ (mask | 0x8000_0000_0000_0000))
}

/// The f32 variant of [`desc_key_f64`] — the candidate over-fetch's key.
#[inline]
fn desc_key_f32(s: f32) -> u32 {
    let b = s.to_bits();
    let mask = ((b as i32) >> 31) as u32;
    !(b ^ (mask | 0x8000_0000))
}

/// Indices of the best `z` of `0..n` under `key_of` (ascending key =
/// better; ties broken by ascending index), sorted best-first. This is
/// the one selection implementation behind every ranking — the cluster
/// probe, the candidate over-fetch, the exact top-`z` and the full
/// ranking — so every entry point sees identical tie handling.
///
/// The selection runs on plain integer (key, index) pairs via
/// `select_nth_unstable` rather than on an indirect score comparator:
/// branchless partitioning is immune to the branch-predictor misses
/// that dominate comparator-based selection here, where every query
/// presents a fresh, unlearnable comparison pattern (measured ~4x on
/// topic-clustered scores).
///
/// When `z` is much smaller than `n` (the serving case: top-10 of tens
/// of thousands), even one materialized `(key, index)` pair per
/// document costs more than the selection itself, so a bounded-scan
/// path keeps only the best `z` pairs seen so far and compares each new
/// key against the current worst. The replace branch is taken
/// ~`z·ln(n/z)` times in expectation (dozens, not thousands), so it
/// stays predictor-friendly despite being data-dependent. Both paths
/// order by the same `(key, index)` pairs, so results — including tie
/// handling — are identical.
pub(crate) fn select_top_by<K: Ord + Copy>(
    n: usize,
    z: usize,
    key_of: impl Fn(usize) -> K,
) -> Vec<usize> {
    let z = z.min(n);
    if z == 0 {
        return Vec::new();
    }
    // Threshold: the bounded scan's replace step is O(z), so it wins
    // while z stays a sliver of n; past that the partition amortizes
    // better. 1/32 keeps the worst-case replace traffic (n/32 · z)
    // at or under one full keyed materialization.
    if z <= 64 && n >= 32 * z {
        let mut kept: Vec<(K, u32)> = (0..z).map(|i| (key_of(i), i as u32)).collect();
        kept.sort_unstable();
        // `kept` stays sorted ascending; worst kept pair is last.
        for i in z..n {
            let key = key_of(i);
            // Scanning in ascending index order means a tie on key can
            // never displace an earlier index, so strict key comparison
            // against the worst kept pair is exactly pair comparison.
            if key < kept[z - 1].0 {
                let pair = (key, i as u32);
                let pos = kept.partition_point(|&p| p < pair);
                kept.pop();
                kept.insert(pos, pair);
            }
        }
        return kept.into_iter().map(|(_, i)| i as usize).collect();
    }
    let mut keyed: Vec<(K, u32)> = (0..n).map(|i| (key_of(i), i as u32)).collect();
    if z < n {
        keyed.select_nth_unstable(z - 1);
        keyed.truncate(z);
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i as usize).collect()
}

/// One ranking asked of the executor: its projected query columns
/// (several fuse into one document score through `combine`, as the
/// facets of a multi-facet query do) and how many documents to return.
pub(crate) struct Ask<'a> {
    pub(crate) cols: &'a [&'a [f64]],
    pub(crate) combine: Option<Combine>,
    pub(crate) z: usize,
}

/// The trained index and the depth the rows stage probes it at.
pub(crate) type Probe<'m> = (&'m ClusterIndex, usize);

/// Stage 1's output for one ranking: the document rows it is scored
/// against.
enum Rows {
    /// Every document, `0..n`.
    All(usize),
    /// The probed lists' documents, list by list; `indptr` delimits the
    /// lists inside `ids`, so sweeps shard them across the pool in
    /// list-size-balanced spans.
    Probed { ids: Vec<u32>, indptr: Vec<usize> },
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Probed { ids, .. } => ids.len(),
        }
    }

    /// Document id of row slot `i`.
    #[inline]
    fn doc(&self, i: usize) -> usize {
        match self {
            Rows::All(_) => i,
            Rows::Probed { ids, .. } => ids[i] as usize,
        }
    }
}

/// The `core.query.score` failpoint, evaluated once per sweep:
/// `return-err` fails the sweep, `inject-nan` poisons its first score
/// (which the sweep's finite check then catches).
fn score_failpoint<T>(first: Option<&mut T>, nan: T) -> Result<()> {
    let point = lsi_fault::points::CORE_QUERY_SCORE;
    match lsi_fault::eval(point) {
        Some(lsi_fault::Fired::ReturnErr) => Err(Error::Inconsistent {
            context: format!("fault injected at failpoint `{point}`"),
        }),
        Some(lsi_fault::Fired::InjectNan) => {
            if let Some(s) = first {
                *s = nan;
            }
            Ok(())
        }
        None => Ok(()),
    }
}

/// The scoring boundary's finite check: a NaN or Inf in scores that
/// reach selection — from a corrupted model, an armed failpoint, or a
/// combine that turns finite cosines into NaN — is a typed error,
/// never silently scrambled ranks.
fn check_finite(scores: &[f64]) -> Result<()> {
    if scores.iter().all(|s| s.is_finite()) {
        Ok(())
    } else {
        Err(Error::NonFinite {
            context: "cosine scores (query scoring boundary)".into(),
        })
    }
}

/// Fused score of each of `len` row slots from per-column scores
/// `score(col, slot)`, finite-checked; `None` for a ranking without a
/// combine, whose single column is its score.
fn fuse(
    combine: Option<Combine>,
    ncols: usize,
    len: usize,
    score: impl Fn(usize, usize) -> f64,
) -> Result<Option<Vec<f64>>> {
    let Some(combine) = combine else {
        return Ok(None);
    };
    let mut row = vec![0.0; ncols];
    let fused: Vec<f64> = (0..len)
        .map(|i| {
            for (c, r) in row.iter_mut().enumerate() {
                *r = score(c, i);
            }
            combine.combine(&row)
        })
        .collect();
    check_finite(&fused)?;
    Ok(Some(fused))
}

/// Scale raw `v_j · q̂` products into cosines in place, given each
/// slot's document norm. A query or document with no mass scores 0,
/// matching [`vecops::cosine`].
fn to_cosines(raw: &mut [f64], qnorm: f64, dnorms: impl Iterator<Item = f64>) {
    for (s, dnorm) in raw.iter_mut().zip(dnorms) {
        *s = if qnorm > 0.0 && dnorm > 0.0 {
            *s / (dnorm * qnorm)
        } else {
            0.0
        };
    }
}

/// The `c` best slots of one column's f32 approximate scores, ties
/// broken by document id (`doc(i)` for slot `i`), on keys packed into
/// one `u64` — the cheapest key to select on over every row.
fn pick_f32(scores: &[f32], c: usize, doc: impl Fn(usize) -> u32) -> Vec<usize> {
    select_top_by(scores.len(), c, |i| {
        (u64::from(desc_key_f32(scores[i])) << 32) | u64::from(doc(i))
    })
}

/// Run a row-subset kernel over probed rows in list-size-balanced
/// shards across the pool ([`nnz_balanced_spans`] over the lists'
/// prefix sums — the quantile technique the sparse kernels use for nnz
/// balancing), concatenating in row order. Bit-identical across thread
/// counts: shard boundaries move with the pool size, but each row's
/// score comes from the same per-row arithmetic wherever it lands.
fn sharded<T: Send>(
    ids: &[u32],
    indptr: &[usize],
    kernel: impl Fn(&[u32]) -> Result<Vec<T>> + Sync,
) -> Result<Vec<T>> {
    // Two shards per worker: balanced by construction, cheap to
    // compute, and enough slack for the pool's chunker.
    let spans = nnz_balanced_spans(indptr, rayon::current_num_threads() * 2);
    let parts: Vec<Result<Vec<T>>> = spans
        .into_par_iter()
        .map(|(l0, l1)| kernel(&ids[indptr[l0]..indptr[l1]]))
        .collect();
    let mut out = Vec::with_capacity(ids.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

impl LsiModel {
    /// Weight a raw term-count vector and project it into the factor
    /// space: `q̂ = qᵀ U_k Σ_k⁻¹` (Eq. 6). The counts must be over the
    /// model's *SVD-derived* term rows (folded-in terms participate via
    /// their rows of `U` as well — the vector length must equal
    /// [`LsiModel::n_terms`]). Only the nonzero counts are weighted and
    /// projected (see [`LsiModel::project_text`]).
    pub fn project_counts(&self, counts: &[f64]) -> Result<Vec<f64>> {
        if counts.len() != self.n_terms() {
            return Err(Error::Inconsistent {
                context: format!(
                    "query vector has {} entries but the model indexes {} terms",
                    counts.len(),
                    self.n_terms()
                ),
            });
        }
        let nonzero: Vec<(usize, f64)> = counts
            .iter()
            .enumerate()
            // lsi-analyze: allow(float-safety) — an exact zero count adds ±0.0 to the projection; NaN counts are kept.
            .filter(|&(_, &c)| c != 0.0)
            .map(|(i, &c)| (i, c))
            .collect();
        self.project_sparse(&nonzero)
    }

    /// Tokenize `text` against the vocabulary — including terms added
    /// later by folding-in or SVD-updating — and project it (Eq. 6).
    ///
    /// Only the query's own terms are counted, weighted and gathered
    /// from `U` ([`ops::matvec_t_sparse`]): `2k` multiply-adds per
    /// distinct query term instead of per vocabulary term, and the
    /// same bits as weighting the dense count vector and running
    /// [`ops::matvec_t`] over all of `U`.
    pub fn project_text(&self, text: &str) -> Result<Vec<f64>> {
        let mut counts = self.vocab.sparse_count_vector(text);
        if !self.folded_terms.is_empty() {
            // Folded-in and SVD-updated term rows follow the
            // vocabulary's, so their pairs sort after every vocabulary
            // pair.
            let mut folded: Vec<usize> = lsi_text::tokenize(text)
                .into_iter()
                .filter(|tok| self.vocab.index_of(tok).is_none())
                .filter_map(|tok| self.folded_terms.iter().position(|t| *t == tok))
                .map(|p| self.vocab.len() + p)
                .collect();
            folded.sort_unstable();
            for i in folded {
                match counts.last_mut() {
                    Some((j, c)) if *j == i => *c += 1.0,
                    _ => counts.push((i, 1.0)),
                }
            }
        }
        self.project_sparse(&counts)
    }

    /// Weight nonzero `(term, count)` pairs (ascending by term) and
    /// project them: the local transform on each count times the
    /// stored global weight (folded-in terms carry weight 1), then the
    /// gather `qᵀ U_k` over just those rows, then the divide by `σ`.
    /// Folding-in projects new documents (Eq. 7) through it too.
    pub(crate) fn project_sparse(&self, counts: &[(usize, f64)]) -> Result<Vec<f64>> {
        let k = self.k();
        // Per pair: the weighting (2) and its row's k multiply-adds;
        // then the k divides.
        lsi_obs::add_flops(((2 * k + 2) * counts.len() + k) as f64);
        let weighted: Vec<(usize, f64)> = counts
            .iter()
            .map(|&(i, c)| {
                let g = self.global_weights.get(i).copied().unwrap_or(1.0);
                (i, self.weighting.local.apply(c) * g)
            })
            .collect();
        let mut qhat = ops::matvec_t_sparse(&self.u, &weighted)?;
        for (q, &s) in qhat.iter_mut().zip(self.s.iter()) {
            if s > 0.0 {
                *q /= s;
            }
        }
        Ok(qhat)
    }

    /// Rank all documents by cosine to the projected query vector.
    pub fn rank_projected(&self, qhat: &[f64]) -> Result<RankedList> {
        let ask = Ask {
            cols: &[qhat],
            combine: None,
            z: self.n_docs(),
        };
        self.rank_one(&ask, None, None, &mut Record::off())
    }

    /// The `z` best documents for a projected query, without sorting
    /// the full collection. "Typically the z closest documents ... are
    /// returned" — this is the entry point for that typical case.
    ///
    /// Runs the scoring executor (module docs) under the model's
    /// [`IndexPolicy`] and [`crate::compressed::Precision`]. The f32
    /// ladder's top-`z` is certified bit-identical to the f64 sweep over
    /// the same rows, falling back to that sweep whenever certification
    /// fails; the i8 ladder trades the certificate for an eighth of the
    /// bandwidth (the returned scores are still exact f64 cosines). At
    /// `nprobe = n_lists` every document survives the probe, so the
    /// pruned ranking is bit-identical to the unpruned one.
    pub fn rank_projected_top(&self, qhat: &[f64], z: usize) -> Result<RankedList> {
        let ask = Ask {
            cols: &[qhat],
            combine: None,
            z,
        };
        let store = self.compressed.as_ref();
        self.rank_one(&ask, self.probe_plan(None, None), store, &mut Record::off())
    }

    /// The probe plan a top-`z` ranking runs under: depth `nprobe` (a
    /// serving rung's override) or the persisted [`IndexPolicy`]'s,
    /// against the model's own cluster index, else `built` (one
    /// [`LsiModel::build_rungs`] trained). Without either index every
    /// ranking scans all rows.
    pub(crate) fn probe_plan<'a>(
        &'a self,
        nprobe: Option<usize>,
        built: Option<&'a ClusterIndex>,
    ) -> Option<Probe<'a>> {
        let nprobe = match (nprobe, self.index_policy) {
            (Some(n), _) | (None, IndexPolicy::Pruned { nprobe: n }) => n,
            (None, IndexPolicy::Exact) => return None,
        };
        self.index.as_ref().or(built).map(|index| (index, nprobe))
    }

    /// Query by free text: project and rank every document.
    pub fn query(&self, text: &str) -> Result<RankedList> {
        self.query_full("full", || self.project_text(text))
    }

    /// Query by free text, returning only the top `z` documents (a
    /// partial selection instead of a full ranking): a batch of one
    /// through [`LsiModel::query_top_batch`].
    pub fn query_top(&self, text: &str, z: usize) -> Result<RankedList> {
        let query = BatchQuery {
            text: text.to_string(),
            z,
            ctx: None,
        };
        self.query_top_batch(vec![query])
            .pop()
            .unwrap_or_else(|| Ok(RankedList::default()))
    }

    /// Rank documents against an existing *document* (query-by-example;
    /// relevance feedback replaces the query with relevant documents'
    /// vectors, §5.1).
    pub fn query_by_doc(&self, doc: usize) -> Result<RankedList> {
        if doc >= self.n_docs() {
            return Err(Error::Inconsistent {
                context: format!("document {doc} out of range ({} docs)", self.n_docs()),
            });
        }
        // One contiguous copy of the (strided) document row, as the
        // GEMV operand — the per-row scoring itself is allocation-free.
        self.query_full("doc", || Ok(self.doc_row(doc).to_vec()))
    }

    /// The full-ranking entry points: the query vector from `project`,
    /// ranked against every document under a query-log record of `kind`.
    fn query_full(
        &self,
        kind: &'static str,
        project: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<RankedList> {
        let _span = lsi_obs::span("query");
        let t0 = std::time::Instant::now();
        let mut rec = Record::new(kind, None);
        rec.num("n_docs", self.n_docs() as f64);
        let t_proj = querylog::timer();
        let qhat = project()?;
        rec.done(t_proj, "project_us");
        rec.str("path", "full");
        let ranked = self.rank_projected(&qhat)?;
        lsi_obs::count("query.count", 1);
        lsi_obs::observe("query.time.us", t0.elapsed().as_secs_f64() * 1e6);
        rec.finish(&ranked);
        Ok(ranked)
    }

    /// One ranking through [`LsiModel::rank_top`]. A full ranking is
    /// `z = n` with neither probe nor store: the f64 sweep over all
    /// rows and the shared selection.
    pub(crate) fn rank_one(
        &self,
        ask: &Ask,
        probe: Option<Probe>,
        store: Option<&CompressedStore>,
        rec: &mut Record,
    ) -> Result<RankedList> {
        let mut lists =
            self.rank_top(std::slice::from_ref(ask), probe, store, std::slice::from_mut(rec))?;
        Ok(lists.pop().unwrap_or_default())
    }

    /// The executor, over a block of rankings. Its plan has two axes:
    /// `probe` (stage 1 probes it for each single-column ranking, each
    /// on its own lists; other rankings take all rows) and `store`
    /// (stages 2–3 run through the compressed replica when given).
    /// Every ranking they did not serve goes through the f64 sweep and
    /// the shared selection. `recs[i]` collects ranking `i`'s query-log
    /// fields. Any error fails the whole block.
    pub(crate) fn rank_top(
        &self,
        asks: &[Ask],
        probe: Option<Probe>,
        store: Option<&CompressedStore>,
        recs: &mut [Record],
    ) -> Result<Vec<RankedList>> {
        let k = self.k();
        if let Some(col) = asks.iter().flat_map(|a| a.cols).find(|c| c.len() != k) {
            return Err(Error::Inconsistent {
                context: format!(
                    "projected query has {} dimensions but the model has {k} factors",
                    col.len()
                ),
            });
        }
        let mut rows = Vec::with_capacity(asks.len());
        for (ask, rec) in asks.iter().zip(recs.iter_mut()) {
            rec.str("precision", store.map_or(self.precision(), |s| s.precision()).name());
            rec.num("z", ask.z as f64);
            rows.push(match (ask.cols, probe) {
                ([col], Some(probe)) => self.probe_rows(col, probe, ask.z, rec)?,
                _ => Rows::All(self.n_docs()),
            });
        }
        let rows = &rows;
        let block = |which: &[usize]| -> Vec<(&[f64], &Rows)> {
            which
                .iter()
                .flat_map(|&i| asks[i].cols.iter().map(move |&col| (col, &rows[i])))
                .collect()
        };
        let mut served: Vec<Option<RankedList>> = asks.iter().map(|_| None).collect();
        if let Some(store) = store {
            let t_sweep = querylog::timer();
            let all: Vec<usize> = (0..asks.len()).collect();
            let approx = self.sweep_compressed(store, &block(&all))?;
            recs.iter_mut().for_each(|rec| rec.done(t_sweep, "sweep_us"));
            let mut first = 0;
            for (i, ask) in asks.iter().enumerate() {
                let cols = &approx[first..first + ask.cols.len()];
                first += ask.cols.len();
                if cols.iter().all(|c| c.iter().all(|s| s.is_finite())) {
                    served[i] = self.certify(store, ask, &rows[i], cols, &mut recs[i])?;
                } else {
                    lsi_obs::warn!(
                        "compressed candidate sweep produced non-finite scores; \
                         falling back to the f64 sweep"
                    );
                }
                if served[i].is_none() {
                    lsi_obs::count("score.rerank.fallback.count", 1);
                }
            }
        }
        let rest: Vec<usize> = (0..asks.len()).filter(|&i| served[i].is_none()).collect();
        if !rest.is_empty() {
            let t_sweep = querylog::timer();
            let (data, offs) = self.sweep_f64(&block(&rest))?;
            let phase = if store.is_some() { "fallback_us" } else { "sweep_us" };
            rest.iter().for_each(|&i| recs[i].done(t_sweep, phase));
            let mut first = 0;
            for &i in &rest {
                let nf = asks[i].cols.len();
                let cols: Vec<&[f64]> =
                    (first..first + nf).map(|c| &data[offs[c]..offs[c + 1]]).collect();
                served[i] = Some(self.select_exact(&asks[i], &rows[i], &cols)?);
                first += nf;
            }
            SWEEP_PANEL.set(data);
        }
        for (i, rec) in recs.iter_mut().enumerate() {
            rec.str(
                "path",
                match (&rows[i], store) {
                    (Rows::Probed { .. }, _) => "pruned",
                    (Rows::All(_), None) => "exact",
                    (Rows::All(_), Some(_)) if rest.binary_search(&i).is_ok() => "fallback",
                    (Rows::All(_), Some(_)) => "compressed",
                },
            );
        }
        Ok(served.into_iter().flatten().collect())
    }

    /// Stage 1 for one projected column under a probe plan: score the
    /// ~√n centroids instead of the `n` docs, probe the `nprobe` best
    /// lists, and keep their documents. Falls back to all rows on
    /// trivial shapes, a stale index, non-finite centroid scores or
    /// empty probed lists.
    fn probe_rows(
        &self,
        qhat: &[f64],
        (index, nprobe): Probe,
        z: usize,
        rec: &mut Record,
    ) -> Result<Rows> {
        let k = self.k();
        let all = Rows::All(self.n_docs());
        if self.n_docs() == 0 || k == 0 || z == 0 || index.k() != k {
            return Ok(all);
        }
        rec.num("nprobe", nprobe as f64);
        let n_lists = index.n_lists();
        let t_probe = querylog::timer();
        let span = lsi_obs::span("index.probe");
        // One dot per centroid list, plus the top-`nprobe` pick.
        lsi_obs::add_flops((2 * k + 1) as f64 * n_lists as f64);
        let cscores = index.centroid_scores(qhat)?;
        if !cscores.iter().all(|s| s.is_finite()) {
            // Degraded centroid math must not scramble ranks; the
            // all-rows sweep (whose own boundary guard fires if the
            // model itself is corrupt) serves instead.
            return Ok(all);
        }
        let mut probed = select_top_by(n_lists, nprobe.max(1).min(n_lists), |l| {
            (desc_key_f64(cscores[l]), l as u32)
        });
        // Ascending list order keeps the survivor walk as monotone as
        // the partition allows; every selection breaks ties on doc id,
        // so ranking is order-free.
        probed.sort_unstable();
        let mut ids: Vec<u32> = Vec::new();
        let mut indptr = vec![0];
        for &l in &probed {
            ids.extend_from_slice(index.list(l));
            indptr.push(ids.len());
        }
        drop(span);
        rec.done(t_probe, "probe_us");
        lsi_obs::count("index.lists.count", probed.len() as u64);
        lsi_obs::count("index.survivors.count", ids.len() as u64);
        rec.num("lists_probed", probed.len() as f64);
        rec.num("survivors", ids.len() as f64);
        Ok(if ids.is_empty() {
            all
        } else {
            Rows::Probed { ids, indptr }
        })
    }

    /// Stage 2 in f64: exact cosines of each block column against its
    /// rows, column `c` at `data[offs[c]..offs[c + 1]]`. A block whose
    /// columns all take all rows streams `V` once for all of them: the
    /// fused block sweep below [`ops::GEMM_MIN_COLS_THRESHOLD`] columns
    /// (each column bit-identical to its own GEMV, so a narrow batch
    /// scores exactly as its queries would alone), GEMM from there on.
    /// Otherwise each column runs alone, through the GEMV over all rows
    /// or the list-sharded subset GEMV over probed rows.
    fn sweep_f64(&self, block: &[(&[f64], &Rows)]) -> Result<(Vec<f64>, Vec<usize>)> {
        let (n, k) = (self.n_docs(), self.k());
        let norms = || self.doc_norms.iter().copied();
        lsi_obs::count("query.facets.count", block.len() as u64);
        let mut offs = vec![0];
        let mut data = Vec::new();
        if block.iter().all(|(_, r)| matches!(r, Rows::All(_))) {
            lsi_obs::add_flops(((2 * k + 3) * n * block.len()) as f64);
            let cols: Vec<&[f64]> = block.iter().map(|&(col, _)| col).collect();
            data = SWEEP_PANEL.take();
            if cols.len() < ops::GEMM_MIN_COLS_THRESHOLD {
                ops::matvec_block_into(&self.v, &cols, &mut data)?;
            } else {
                let q = DenseMatrix::from_col_major(k, cols.len(), cols.concat())?;
                ops::matmul_into(&self.v, &q, &mut data)?;
            }
            for (c, col) in cols.iter().enumerate() {
                to_cosines(&mut data[c * n..(c + 1) * n], vecops::nrm2(col), norms());
                offs.push((c + 1) * n);
            }
        } else {
            for &(col, rows) in block {
                let qnorm = vecops::nrm2(col);
                lsi_obs::add_flops(((2 * k + 3) * rows.len()) as f64);
                let scores = match rows {
                    // An all-rows column beside probed ones: its GEMV.
                    Rows::All(_) => {
                        let mut y = ops::matvec(&self.v, col)?;
                        to_cosines(&mut y, qnorm, norms());
                        y
                    }
                    // Survivors run on the column-outer subset GEMV,
                    // which replays the GEMV's per-row arithmetic.
                    Rows::Probed { ids, indptr } => {
                        let _span = lsi_obs::span("index.survivors");
                        lsi_obs::add_bytes((ids.len() * k * 8) as f64);
                        sharded(ids, indptr, |part| {
                            let part: Vec<usize> = part.iter().map(|&d| d as usize).collect();
                            let mut raw = ops::matvec_rows(&self.v, col, &part)?;
                            to_cosines(&mut raw, qnorm, part.iter().map(|&j| self.doc_norms[j]));
                            Ok(raw)
                        })?
                    }
                };
                if data.is_empty() {
                    data = scores;
                } else {
                    data.extend_from_slice(&scores);
                }
                offs.push(data.len());
            }
        }
        score_failpoint(data.first_mut(), f64::NAN)?;
        check_finite(&data)?;
        Ok((data, offs))
    }

    /// Stage 2 through the compressed replica: approximate cosines of
    /// each block column against its rows, column by column on the
    /// f32/i8 GEMV (all rows) or the list-sharded subset kernels
    /// (probed rows). Unlike the f64 sweep, non-finite output is not an
    /// error here: the caller sends that ranking to the f64 sweep,
    /// which can still serve it.
    fn sweep_compressed(
        &self,
        store: &CompressedStore,
        block: &[(&[f64], &Rows)],
    ) -> Result<Vec<Vec<f32>>> {
        let _span = lsi_obs::span("score.candidates");
        let k = self.k();
        let row_bytes = store.resident_bytes() / self.n_docs().max(1);
        let mut approx = Vec::with_capacity(block.len());
        for &(col, rows) in block {
            // Each column streams its rows of the replica once, plus
            // the projected query.
            lsi_obs::add_bytes((row_bytes * rows.len() + 8 * k) as f64);
            lsi_obs::add_flops((2 * k + 2) as f64 * rows.len() as f64);
            let qnorm = vecops::nrm2(col);
            approx.push(match rows {
                Rows::All(_) => store.approx_scores(col, qnorm, None)?,
                Rows::Probed { ids, indptr } => sharded(ids, indptr, |part| {
                    Ok(store.approx_scores(col, qnorm, Some(part))?)
                })?,
            });
        }
        score_failpoint(approx.iter_mut().find_map(|a| a.first_mut()), f32::NAN)?;
        Ok(approx)
    }

    /// Stage 3 behind the compressed sweep: over-fetch `max(4z, 64)`
    /// candidates by approximate fused score, re-rank them exactly in
    /// f64, and — for the f32 ladder — certify the top-`z`. `Ok(None)`
    /// sends the ranking to the f64 sweep over the same rows.
    ///
    /// Margin certificate: every facet cosine of a non-candidate is
    /// within `bound` of its approximate score, so its fused score is
    /// at most the cutoff plus `L·bound`, where `L` is
    /// [`Combine::lipschitz`] (1 for a single column) and the cutoff is
    /// the worst *selected* approximate score (an upper bound on every
    /// excluded one). If the z-th exact score strictly clears that, no
    /// excluded document can belong in the top-`z`, and within the
    /// candidates the re-rank is exact — the result is bit-identical to
    /// the f64 sweep over the same rows. Ties at the boundary fail the
    /// strict test and fall back. The i8 ladder has no bound: its
    /// candidate set is approximate, its returned scores still exact.
    fn certify(
        &self,
        store: &CompressedStore,
        ask: &Ask,
        rows: &Rows,
        approx: &[Vec<f32>],
        rec: &mut Record,
    ) -> Result<Option<RankedList>> {
        let (k, n, nf) = (self.k(), rows.len(), ask.cols.len());
        let z = ask.z.min(n);
        let c = z
            .saturating_mul(OVER_FETCH_FACTOR)
            .max(OVER_FETCH_FLOOR)
            .min(n);
        // The combine always runs in f64; only the facet cosines are
        // approximate.
        let fused = fuse(ask.combine, nf, n, |f, i| approx[f][i] as f64)?;
        let approx_at = |i: usize| match &fused {
            Some(s) => s[i],
            None => approx[0][i] as f64,
        };
        let candidates = match (&fused, rows) {
            (Some(f), _) => select_top_by(n, c, |i| (desc_key_f64(f[i]), rows.doc(i) as u32)),
            (None, Rows::All(_)) => pick_f32(&approx[0], c, |i| i as u32),
            (None, Rows::Probed { ids, .. }) => pick_f32(&approx[0], c, |i| ids[i]),
        };
        lsi_obs::count("score.candidates.count", c as u64);
        rec.num("candidates", c as f64);
        let t_rerank = querylog::timer();
        // Ascending document order: slot order is document order.
        let mut docs: Vec<usize> = candidates.iter().map(|&i| rows.doc(i)).collect();
        docs.sort_unstable();
        let exact = {
            let _span = lsi_obs::span("score.rerank");
            lsi_obs::add_bytes((c * k * 8) as f64);
            lsi_obs::add_flops(((2 * k + 3) * c * nf) as f64);
            // The column-outer subset GEMV replays the all-rows GEMV's
            // per-row arithmetic, so each re-ranked cosine is
            // bit-identical to the f64 sweep's; walking the candidates in
            // ascending order keeps its column reads prefetch-friendly.
            let mut per_col = Vec::with_capacity(nf);
            for col in ask.cols {
                let mut raw = ops::matvec_rows(&self.v, col, &docs)?;
                to_cosines(&mut raw, vecops::nrm2(col), docs.iter().map(|&j| self.doc_norms[j]));
                per_col.push(raw);
            }
            match fuse(ask.combine, nf, docs.len(), |f, i| per_col[f][i])? {
                Some(s) => s,
                None => per_col.into_iter().next().unwrap_or_default(),
            }
        };
        rec.done(t_rerank, "rerank_us");
        lsi_obs::count("score.rerank.count", docs.len() as u64);
        check_finite(&exact)?;
        let ranked = self.select(&exact, z, |i| docs[i]);
        if c < n {
            if let Some(bound) = store.rerank_margin(k) {
                let bound = bound * ask.combine.map_or(1.0, |cb| cb.lipschitz());
                let cutoff = candidates.last().map_or(f64::NEG_INFINITY, |&i| approx_at(i));
                let s_z = ranked.matches.last().map_or(f64::NEG_INFINITY, |m| m.cosine);
                if !(s_z > cutoff + bound) {
                    return Ok(None);
                }
            }
        }
        Ok(Some(ranked))
    }

    /// Stage 3 over the f64 sweep's columns for one ranking: fuse them,
    /// then the shared selection.
    fn select_exact(&self, ask: &Ask, rows: &Rows, cols: &[&[f64]]) -> Result<RankedList> {
        let fused = fuse(ask.combine, cols.len(), rows.len(), |c, i| cols[c][i])?;
        let scores = fused.as_deref().or(cols.first().copied()).unwrap_or_default();
        Ok(match rows {
            Rows::All(_) => self.select(scores, ask.z, |i| i),
            Rows::Probed { ids, .. } => self.select(scores, ask.z, |i| ids[i] as usize),
        })
    }

    /// The shared selection: the top-`z` slots by exact score, ties
    /// broken by document id (`doc(i)` for slot `i`), as a ranked list.
    fn select(&self, scores: &[f64], z: usize, doc: impl Fn(usize) -> usize) -> RankedList {
        let order = select_top_by(scores.len(), z, |i| (desc_key_f64(scores[i]), doc(i) as u32));
        let matches = order.into_iter().map(|i| Match {
            doc: doc(i),
            id: self.doc_ids[doc(i)].clone(),
            cosine: scores[i],
        });
        RankedList {
            matches: matches.collect(),
        }
    }

    /// Rank the model's *terms* by cosine to the projected vector —
    /// "there is no reason that similar terms could not be returned"
    /// (§5.4, automatic thesaurus).
    pub fn nearest_terms(&self, qhat: &[f64], z: usize) -> Result<Vec<(usize, String, f64)>> {
        if qhat.len() != self.k() {
            return Err(Error::Inconsistent {
                context: "projected vector dimension mismatch".to_string(),
            });
        }
        // One cosine per term row of U — independent, so split across
        // the pool (the thesaurus sweep touches every vocabulary term).
        let mut scored: Vec<(usize, String, f64)> = (0..self.n_terms())
            .into_par_iter()
            .map(|i| {
                let name = if i < self.vocab.len() {
                    self.vocab.term(i).to_string()
                } else {
                    self.folded_terms[i - self.vocab.len()].clone()
                };
                (i, name, self.u.row_view(i).cosine_slice(qhat))
            })
            .collect();
        scored.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(z);
        Ok(scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LsiOptions;
    use lsi_text::{Corpus, ParsingRules, TermWeighting};

    fn model() -> LsiModel {
        let corpus = Corpus::from_pairs([
            ("cars1", "car engine wheel motor car"),
            ("cars2", "automobile engine motor chassis"),
            ("cars3", "car automobile driver wheel"),
            ("zoo1", "elephant lion zebra elephant"),
            ("zoo2", "lion zebra giraffe elephant"),
            ("zoo3", "zebra giraffe lion safari"),
        ]);
        let options = LsiOptions {
            k: 2,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::none(),
            svd_seed: 3,
        };
        LsiModel::build(&corpus, &options).unwrap().0
    }

    #[test]
    fn query_retrieves_topically_related_docs_first() {
        let m = model();
        let ranked = m.query("car motor").unwrap();
        let top3: Vec<&str> = ranked.ids().into_iter().take(3).collect();
        for id in ["cars1", "cars2", "cars3"] {
            assert!(top3.contains(&id), "expected {id} in top 3, got {top3:?}");
        }
    }

    #[test]
    fn synonymy_bridged_without_shared_words() {
        // Query "automobile" should rank cars1 (which never contains
        // the word "automobile") above all zoo documents.
        let m = model();
        let ranked = m.query("automobile").unwrap();
        let cars1 = ranked.rank_of("cars1").unwrap();
        for zoo in ["zoo1", "zoo2", "zoo3"] {
            assert!(
                cars1 < ranked.rank_of(zoo).unwrap(),
                "cars1 should outrank {zoo}"
            );
        }
    }

    #[test]
    fn threshold_and_top_filtering() {
        let m = model();
        let ranked = m.query("elephant lion").unwrap();
        let all = ranked.matches.len();
        assert_eq!(all, 6);
        assert_eq!(ranked.top(2).matches.len(), 2);
        let high = ranked.at_threshold(0.9);
        assert!(high.matches.len() < all);
        for mt in &high.matches {
            assert!(mt.cosine >= 0.9);
        }
    }

    #[test]
    fn ranked_list_is_sorted_descending() {
        let m = model();
        let ranked = m.query("zebra").unwrap();
        for w in ranked.matches.windows(2) {
            assert!(w[0].cosine >= w[1].cosine);
        }
    }

    #[test]
    fn query_by_doc_returns_self_first() {
        let m = model();
        let ranked = m.query_by_doc(0).unwrap();
        assert_eq!(ranked.matches[0].doc, 0);
        assert!((ranked.matches[0].cosine - 1.0).abs() < 1e-9);
        assert!(m.query_by_doc(99).is_err());
    }

    #[test]
    fn unknown_words_yield_zero_projection() {
        let m = model();
        let qhat = m.project_text("xylophone quux").unwrap();
        assert!(qhat.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn projection_dimension_checks() {
        let m = model();
        assert!(m.project_counts(&[1.0]).is_err());
        assert!(m.rank_projected(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn nearest_terms_finds_cohyponyms() {
        let m = model();
        let qhat = m.project_text("elephant").unwrap();
        let terms = m.nearest_terms(&qhat, 4).unwrap();
        let names: Vec<&str> = terms.iter().map(|(_, n, _)| n.as_str()).collect();
        assert!(names.contains(&"elephant"));
        // Its neighbours are zoo words, not car words.
        for n in &names {
            assert!(
                !["car", "engine", "motor", "wheel", "automobile", "chassis", "driver"]
                    .contains(n),
                "unexpected car-domain term {n} near elephant"
            );
        }
    }

    #[test]
    fn top_z_selection_matches_full_ranking() {
        // The select_nth fast path must return exactly the head of the
        // fully sorted list — same docs, same cosines, same order.
        let m = model();
        let qhat = m.project_text("car lion").unwrap();
        let full = m.rank_projected(&qhat).unwrap();
        for z in [1usize, 3, 6, 10] {
            let top = m.rank_projected_top(&qhat, z).unwrap();
            assert_eq!(top.matches.len(), z.min(full.matches.len()));
            for (a, b) in top.matches.iter().zip(full.matches.iter()) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.cosine, b.cosine);
            }
        }
    }

    #[test]
    fn scoring_is_bit_reproducible_across_repeats() {
        // Scoring runs on the pool (GEMV row spans); the determinism
        // contract says repeated queries return identical bits no
        // matter how the spans are scheduled.
        let m = model();
        let first = m.query("automobile engine").unwrap();
        for _ in 0..10 {
            let again = m.query("automobile engine").unwrap();
            assert_eq!(first.matches.len(), again.matches.len());
            for (a, b) in first.matches.iter().zip(again.matches.iter()) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.cosine, b.cosine);
            }
        }
    }

    #[test]
    fn pruned_at_full_probe_depth_is_bit_identical_to_exact() {
        use crate::Precision;
        for precision in [Precision::Exact, Precision::F32, Precision::I8] {
            let mut m = model();
            m.set_precision(precision);
            let qhat = m.project_text("car lion").unwrap();
            let exact = m.rank_projected_top(&qhat, 4).unwrap();
            m.set_index_policy(IndexPolicy::Pruned {
                nprobe: m.index_n_lists().unwrap_or(0).max(1),
            })
            .unwrap();
            // nprobe above n_lists clamps; every doc survives.
            m.set_index_policy(IndexPolicy::Pruned { nprobe: 999 }).unwrap();
            let pruned = m.rank_projected_top(&qhat, 4).unwrap();
            assert_eq!(pruned.matches.len(), exact.matches.len());
            for (a, b) in pruned.matches.iter().zip(exact.matches.iter()) {
                assert_eq!(a.doc, b.doc, "precision {precision:?}");
                assert_eq!(
                    a.cosine.to_bits(),
                    b.cosine.to_bits(),
                    "precision {precision:?} doc {}",
                    a.doc
                );
            }
        }
    }

    #[test]
    fn pruned_matches_carry_exact_scores_and_rank_consistently() {
        let mut m = model();
        let qhat = m.project_text("zebra giraffe").unwrap();
        let full = m.rank_projected(&qhat).unwrap();
        m.set_index_policy(IndexPolicy::Pruned { nprobe: 1 }).unwrap();
        let pruned = m.rank_projected_top(&qhat, 3).unwrap();
        assert!(!pruned.matches.is_empty());
        // Every pruned match's cosine is the exact f64 cosine for that
        // doc, and pruned order respects the full ranking's order.
        for w in pruned.matches.windows(2) {
            assert!(w[0].cosine >= w[1].cosine);
        }
        for mt in &pruned.matches {
            let exact = full
                .matches
                .iter()
                .find(|f| f.doc == mt.doc)
                .expect("pruned doc exists");
            assert_eq!(mt.cosine.to_bits(), exact.cosine.to_bits());
        }
    }

    #[test]
    fn exact_policy_ignores_the_index_machinery() {
        let mut m = model();
        let qhat = m.project_text("engine").unwrap();
        let before = m.rank_projected_top(&qhat, 3).unwrap();
        m.set_index_policy(IndexPolicy::Pruned { nprobe: 2 }).unwrap();
        m.set_index_policy(IndexPolicy::Exact).unwrap();
        let after = m.rank_projected_top(&qhat, 3).unwrap();
        for (a, b) in after.matches.iter().zip(before.matches.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.cosine.to_bits(), b.cosine.to_bits());
        }
    }

    #[test]
    fn rank_of_and_ids_agree() {
        let m = model();
        let ranked = m.query("giraffe").unwrap();
        let ids = ranked.ids();
        for (pos, id) in ids.iter().enumerate() {
            assert_eq!(ranked.rank_of(id), Some(pos));
        }
        assert_eq!(ranked.rank_of("missing"), None);
    }
}
