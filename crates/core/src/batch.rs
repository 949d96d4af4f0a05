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

use std::time::Instant;

use crate::model::LsiModel;
use crate::query::{Ask, RankedList};
use crate::querylog::{self, Record, RequestCtx};
use crate::Result;

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

impl LsiModel {
    /// Serve a batch of queries under the model's index policy, one
    /// `Result` per query in input order (see
    /// [`LsiModel::query_top_batch_at`]).
    pub fn query_top_batch(&self, batch: Vec<BatchQuery>) -> Vec<Result<RankedList>> {
        self.query_top_batch_at(batch, None)
    }

    /// Serve a batch of queries, one `Result` per query in input order,
    /// with a per-call probe-depth override: `Some(n)` routes every
    /// query through the trained cluster index at depth `n` regardless
    /// of the persisted [`crate::IndexPolicy`] (the serve degradation
    /// ladder narrows probe depth under pressure without mutating the
    /// model), `None` follows the policy. Without a trained index an
    /// override scans all rows — [`LsiModel::train_index`] prepares the
    /// index up front.
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
        nprobe: Option<usize>,
    ) -> Vec<Result<RankedList>> {
        let _span = lsi_obs::span("query");
        let t0 = Instant::now();
        let m = batch.len();
        lsi_obs::observe("query.batch.size", m as f64);
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
        let (probe, store) = (self.probe_plan(nprobe), self.compressed.as_ref());
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
        let full_depth = m
            .query_top_batch_at(vec![q("car motor", 3)], Some(m.index_n_lists().unwrap()))
            .remove(0)
            .unwrap();
        for (a, b) in full_depth.matches.iter().zip(exact.matches.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.cosine.to_bits(), b.cosine.to_bits());
        }
        // A narrowed probe still serves (possibly fewer survivors).
        let narrowed = m
            .query_top_batch_at(vec![q("car motor", 3)], Some(1))
            .remove(0)
            .unwrap();
        assert!(!narrowed.matches.is_empty());
    }
}
