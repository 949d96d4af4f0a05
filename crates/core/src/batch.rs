//! Coalesced batch scoring for the serving layer.
//!
//! `lsi serve` hands each batch of concurrent requests to the scoring
//! executor ([`crate::query`]) as one block of projected columns, so
//! under the exact all-rows scan the document sweep reads `V` once for
//! the whole batch — the fused block sweep for a narrow batch, GEMM for
//! a wide one — instead of once per query. Each query still gets its
//! own projection, its own probed lists (never unioned across the
//! batch), its own top-`z` selection, its own query-log record, and its
//! own error: a batch is a scheduling unit, not a failure domain.
//!
//! A batch runs under a [`BatchPlan`]: the model's own policy and
//! precision, or one rung of the serving daemon's degradation ladder.
//! The rungs probe a cluster index and sweep an f32 replica of `V`;
//! when the model has neither, [`LsiModel::build_rungs`] builds them
//! as one [`Rungs`] bundle from the model's own data, without
//! mutating it, so the daemon can build it on a thread of its own
//! while the same model keeps serving.

use std::time::Instant;

use crate::compressed::{CompressedStore, Precision};
use crate::index::ClusterIndex;
use crate::model::LsiModel;
use crate::query::{Ask, Probe, RankedList};
use crate::querylog::{self, Record, RequestCtx};
use crate::{Error, Result};

/// One query in a coalesced scoring batch.
#[derive(Debug)]
pub struct BatchQuery {
    /// Query text (tokenized against the model's vocabulary).
    pub text: String,
    /// Result count (top-`z`).
    pub z: usize,
    /// Serving-layer context stamped onto this query's
    /// `LSI_QUERY_LOG` record (request id + queue time), if any.
    pub ctx: Option<RequestCtx>,
}

/// The degradation ladder's artifacts that a model may lack: a cluster
/// index for the pruned rungs to probe (absent when the model has its
/// own) and an f32 replica of `V` for the compressed rungs to sweep
/// (absent when the model's precision is already reduced). Built by
/// [`LsiModel::build_rungs`]; used through [`BatchPlan::rungs`].
#[derive(Debug)]
pub struct Rungs {
    index: Option<ClusterIndex>,
    f32: Option<CompressedStore>,
    /// `(n_docs, k)` of the model the artifacts were built from.
    shape: (usize, usize),
}

/// The plan a batch is ranked under. The default is the model's own
/// index policy and precision; the serving ladder's rungs override the
/// probe depth and the sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchPlan<'a> {
    /// Probe-depth override: `Some(n)` routes every query through the
    /// cluster index (the model's own, else the one in `rungs`) at
    /// depth `n` whatever the persisted [`crate::IndexPolicy`]; `None`
    /// follows the policy. Without any index, all rows are scanned.
    pub nprobe: Option<usize>,
    /// Sweep through the f32 replica in `rungs` when the model's own
    /// precision is exact. A model of reduced precision always sweeps
    /// its own replica.
    pub f32: bool,
    /// Artifacts [`LsiModel::build_rungs`] built from this model.
    pub rungs: Option<&'a Rungs>,
}

impl LsiModel {
    /// Serve a batch of queries under the model's index policy, one
    /// `Result` per query in input order (see
    /// [`LsiModel::query_top_batch_at`]).
    pub fn query_top_batch(&self, batch: Vec<BatchQuery>) -> Vec<Result<RankedList>> {
        self.query_top_batch_at(batch, BatchPlan::default())
    }

    /// Build the degradation ladder's missing artifacts ([`Rungs`]):
    /// the cluster index unless the model already has one, and the f32
    /// replica of `V` unless the model's precision is already reduced.
    /// Reads the model's `V` and document norms and changes nothing, so
    /// it can run on another thread while this model serves. The
    /// artifacts are the ones [`LsiModel::train_index`] and
    /// `set_precision(Precision::F32)` would install, bit for bit.
    pub fn build_rungs(&self) -> Result<Rungs> {
        let index = match self.index {
            Some(_) => None,
            None => Some(ClusterIndex::build(&self.v, &self.doc_norms)?),
        };
        let f32 = match self.precision {
            Precision::Exact => CompressedStore::build(Precision::F32, &self.v, &self.doc_norms),
            Precision::F32 | Precision::I8 => None,
        };
        Ok(Rungs {
            index,
            f32,
            shape: (self.n_docs(), self.k()),
        })
    }

    /// Serve a batch of queries under `plan`, one `Result` per query in
    /// input order. The default plan follows the model's own policy and
    /// precision; the serving ladder's rungs route every query through
    /// a cluster index at their probe depth and sweep an f32 replica,
    /// taking whichever of the two the model lacks from the plan's
    /// [`Rungs`], so no rung mutates the model. Rungs built from a model
    /// of another shape fail every query with [`Error::Inconsistent`].
    ///
    /// The whole batch runs through the scoring executor as one block.
    /// A batch narrower than [`lsi_linalg::ops::GEMM_MIN_COLS_THRESHOLD`]
    /// queries returns, for each query, exactly what serving it alone
    /// returns, cosine bits included: its f64 sweep over all rows is the
    /// fused block sweep, whose every column replays the single-query
    /// GEMV, and every other sweep scores each query alone. From that
    /// width on, the all-rows f64 sweep is one GEMM, whose FMA tiles
    /// round differently in the last bits: each query then gets the same
    /// documents in the same order as alone, with cosines within 1e-12.
    ///
    /// When the block fails (an injected fault, a non-finite sweep),
    /// each query of a batch of more than one is re-served alone, so
    /// one poisoned query fails only itself.
    pub fn query_top_batch_at(
        &self,
        batch: Vec<BatchQuery>,
        plan: BatchPlan<'_>,
    ) -> Vec<Result<RankedList>> {
        let _span = lsi_obs::span("query");
        let t0 = Instant::now();
        let m = batch.len();
        lsi_obs::observe("query.batch.size", m as f64);
        let (probe, store) = match self.resolve_plan(plan) {
            Ok(parts) => parts,
            Err(context) => {
                return (0..m)
                    .map(|_| Err(Error::Inconsistent { context: context.clone() }))
                    .collect();
            }
        };
        // Projection is per query (and can fail per query).
        let mut results: Vec<Result<RankedList>> = Vec::with_capacity(m);
        let (mut ok, mut recs) = (Vec::new(), Vec::new());
        for q in batch {
            let mut rec = Record::new("top", q.ctx);
            rec.num("n_docs", self.n_docs() as f64);
            rec.num("batch", m as f64);
            let t_proj = querylog::timer();
            match self.project_text(&q.text) {
                Ok(qhat) => {
                    rec.done(t_proj, "project_us");
                    ok.push((results.len(), qhat, q.z));
                    recs.push(rec);
                    results.push(Ok(RankedList::default()));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        let cols: Vec<&[f64]> = ok.iter().map(|(_, qhat, _)| qhat.as_slice()).collect();
        let asks: Vec<Ask> = cols
            .iter()
            .zip(&ok)
            .map(|(col, &(_, _, z))| Ask {
                cols: std::slice::from_ref(col),
                combine: None,
                z,
            })
            .collect();
        let served: Vec<Result<RankedList>> = match self.rank_top(&asks, probe, store, &mut recs) {
            Ok(lists) => lists.into_iter().map(Ok).collect(),
            Err(e) if asks.len() == 1 => vec![Err(e)],
            Err(_) => asks
                .iter()
                .zip(recs.iter_mut())
                .map(|(ask, rec)| self.rank_one(ask, probe, store, rec))
                .collect(),
        };
        for ((&(slot, _, _), result), rec) in ok.iter().zip(served).zip(recs) {
            if let Ok(ranked) = &result {
                lsi_obs::count("query.count", 1);
                lsi_obs::observe("query.time.us", t0.elapsed().as_secs_f64() * 1e6);
                rec.finish(ranked);
            }
            results[slot] = result;
        }
        results
    }

    /// The executor's probe plan and compressed store for `plan`: the
    /// model's own index and replica where it has them, the plan's
    /// rungs' otherwise. Rungs of another shape are refused with the
    /// reason.
    fn resolve_plan<'a>(
        &'a self,
        plan: BatchPlan<'a>,
    ) -> std::result::Result<(Option<Probe<'a>>, Option<&'a CompressedStore>), String> {
        let rungs = match plan.rungs {
            Some(r) if r.shape != (self.n_docs(), self.k()) => {
                return Err(format!(
                    "rung artifacts built for {} docs x {} factors, model has {} x {}",
                    r.shape.0,
                    r.shape.1,
                    self.n_docs(),
                    self.k()
                ))
            }
            r => r,
        };
        let probe = self.probe_plan(plan.nprobe, rungs.and_then(|r| r.index.as_ref()));
        let store = match (&self.compressed, rungs) {
            (Some(own), _) => Some(own),
            (None, Some(r)) if plan.f32 => r.f32.as_ref(),
            (None, _) => None,
        };
        Ok((probe, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LsiOptions;
    use crate::{IndexPolicy, Precision};
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

    fn q(text: &str, z: usize) -> BatchQuery {
        BatchQuery {
            text: text.to_string(),
            z,
            ctx: None,
        }
    }

    #[test]
    fn batch_matches_per_query_results_bitwise() {
        // Four queries: below the GEMM crossover, so the batch's sweep
        // is the fused block sweep and each result is bit-identical to
        // serving the query alone.
        let m = model();
        let texts = ["car motor", "zebra lion", "automobile", "giraffe safari"];
        assert!(texts.len() < lsi_linalg::ops::GEMM_MIN_COLS_THRESHOLD);
        let batch: Vec<BatchQuery> = texts.iter().map(|t| q(t, 3)).collect();
        let got = m.query_top_batch(batch);
        for (text, r) in texts.iter().zip(got) {
            let solo = m.query_top(text, 3).unwrap();
            let r = r.unwrap();
            assert_eq!(r.matches.len(), solo.matches.len(), "{text}");
            for (a, b) in r.matches.iter().zip(solo.matches.iter()) {
                assert_eq!(a.doc, b.doc, "{text}");
                assert_eq!(a.cosine.to_bits(), b.cosine.to_bits(), "{text}");
            }
        }
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        let m = model();
        assert!(m.query_top_batch(Vec::new()).is_empty());
        let got = m.query_top_batch(vec![q("car", 2)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ref().unwrap().matches.len(), 2);
    }

    #[test]
    fn per_query_z_is_respected() {
        let m = model();
        let got = m.query_top_batch(vec![q("car", 1), q("lion", 4), q("zebra", 99)]);
        assert_eq!(got[0].as_ref().unwrap().matches.len(), 1);
        assert_eq!(got[1].as_ref().unwrap().matches.len(), 4);
        assert_eq!(got[2].as_ref().unwrap().matches.len(), 6);
    }

    #[test]
    fn compressed_and_pruned_models_still_serve_batches() {
        for setup in ["compressed", "pruned"] {
            let mut m = model();
            match setup {
                "compressed" => m.set_precision(Precision::F32),
                _ => m
                    .set_index_policy(IndexPolicy::Pruned { nprobe: 99 })
                    .unwrap(),
            }
            let got = m.query_top_batch(vec![q("car motor", 3), q("zebra", 3)]);
            for (r, text) in got.into_iter().zip(["car motor", "zebra"]) {
                let solo = m.query_top(text, 3).unwrap();
                let r = r.unwrap();
                for (a, b) in r.matches.iter().zip(solo.matches.iter()) {
                    assert_eq!(a.doc, b.doc, "{setup} {text}");
                    assert_eq!(a.cosine.to_bits(), b.cosine.to_bits(), "{setup} {text}");
                }
            }
        }
    }

    #[test]
    fn train_index_enables_override_without_policy_change() {
        let mut m = model();
        m.train_index().unwrap();
        assert!(matches!(m.index_policy(), IndexPolicy::Exact));
        assert!(m.index_n_lists().is_some());
        let exact = m.query_top("car motor", 3).unwrap();
        let depth = |n| BatchPlan {
            nprobe: Some(n),
            ..BatchPlan::default()
        };
        let full_depth = m
            .query_top_batch_at(vec![q("car motor", 3)], depth(m.index_n_lists().unwrap()))
            .remove(0)
            .unwrap();
        for (a, b) in full_depth.matches.iter().zip(exact.matches.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.cosine.to_bits(), b.cosine.to_bits());
        }
        // A narrowed probe still serves (possibly fewer survivors).
        let narrowed = m
            .query_top_batch_at(vec![q("car motor", 3)], depth(1))
            .remove(0)
            .unwrap();
        assert!(!narrowed.matches.is_empty());
    }
}
