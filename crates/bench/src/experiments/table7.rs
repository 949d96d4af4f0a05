//! Table 7: analytic flop counts plus measured wall-clock for the
//! updating methods, swept over the update size, and for the Eq. 12
//! weight correction, swept over the number of re-weighted terms.

use std::time::Instant;

use lsi_core::complexity::CostParams;
use lsi_core::{LsiModel, LsiOptions};
use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

/// One sweep row.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Documents added.
    pub p: usize,
    /// Analytic flops: folding-in.
    pub fold_flops: u64,
    /// Analytic flops: SVD-updating.
    pub update_flops: u64,
    /// Analytic flops: recomputing.
    pub recompute_flops: u64,
    /// Measured seconds: folding-in.
    pub fold_seconds: f64,
    /// Measured seconds: SVD-updating.
    pub update_seconds: f64,
    /// Measured seconds: recomputing.
    pub recompute_seconds: f64,
}

/// One row of the Eq. 12 weight-correction sweep.
#[derive(Debug, Clone)]
pub struct WeightRow {
    /// Terms re-weighted.
    pub j: usize,
    /// Nonzero weight deltas over those terms.
    pub nnz_z: usize,
    /// Analytic flops: SVD-updating the weight correction.
    pub flops: u64,
    /// Measured seconds: SVD-updating the weight correction.
    pub seconds: f64,
}

/// The base model every sweep updates, with its cost parameters.
fn base_model(k: usize, seed: u64) -> (LsiModel, CostParams) {
    let gen = SyntheticCorpus::generate(&SyntheticOptions {
        n_topics: 8,
        docs_per_topic: 25,
        doc_len: 30,
        queries_per_topic: 1,
        seed,
        ..Default::default()
    });
    let options = LsiOptions {
        k,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::log_entropy(),
        svd_seed: 23,
    };
    let (base, report) = LsiModel::build(&gen.corpus, &options).expect("base model");
    let mut params = CostParams::with_defaults(base.n_terms(), base.n_docs(), base.k());
    params.lanczos_iters = report.steps;
    params.triplets = base.k();
    (base, params)
}

/// Build a base model and run the three methods for each update size.
pub fn run(ps: &[usize], k: usize, seed: u64) -> Vec<Table7Row> {
    let (base, params) = base_model(k, seed);

    // New documents: re-generated from the same distribution.
    let extra = SyntheticCorpus::generate(&SyntheticOptions {
        n_topics: 8,
        docs_per_topic: 30,
        doc_len: 30,
        queries_per_topic: 1,
        seed: seed + 13,
        ..Default::default()
    });

    let mut rows = Vec::with_capacity(ps.len());
    for &p in ps {
        let new_docs = Corpus {
            docs: extra.corpus.docs[..p]
                .iter()
                .map(|d| Document::new(format!("new-{}", d.id), d.text.clone()))
                .collect(),
        };
        let d_counts = base.vocabulary().count_matrix(&new_docs);
        let nnz_d = d_counts.nnz();
        let ids: Vec<String> = new_docs.docs.iter().map(|d| d.id.clone()).collect();

        // Measured: folding-in.
        let mut fold_model = base.clone();
        let t0 = Instant::now();
        fold_model.fold_in_documents(&new_docs).expect("fold");
        let fold_seconds = t0.elapsed().as_secs_f64();

        // Measured: SVD-updating.
        let mut update_model = base.clone();
        let t0 = Instant::now();
        update_model
            .svd_update_documents(&d_counts, &ids)
            .expect("update");
        let update_seconds = t0.elapsed().as_secs_f64();

        // Measured: recomputing on the extended matrix.
        let mut recompute_model = update_model.clone();
        let t0 = Instant::now();
        recompute_model.recompute(k).expect("recompute");
        let recompute_seconds = t0.elapsed().as_secs_f64();

        rows.push(Table7Row {
            p,
            fold_flops: params.fold_in_documents(p),
            update_flops: params.svd_update_documents(p, nnz_d),
            recompute_flops: params
                .recompute(0, p, base.weighted_matrix().nnz() + nnz_d),
            fold_seconds,
            update_seconds,
            recompute_seconds,
        });
    }
    rows
}

/// Build a base model and SVD-update a weight correction (Eq. 12) of
/// `j` terms for each `j`: each of terms `0..j` gains 0.25 in every
/// seventh document.
pub fn run_weights(js: &[usize], k: usize, seed: u64) -> Vec<WeightRow> {
    let (base, params) = base_model(k, seed);
    let delta: Vec<f64> = (0..base.n_docs())
        .map(|d| if d % 7 == 0 { 0.25 } else { 0.0 })
        .collect();
    let per_term = delta.iter().filter(|&&v| v != 0.0).count();
    js.iter()
        .map(|&j| {
            let changes: Vec<(usize, Vec<f64>)> = (0..j).map(|t| (t, delta.clone())).collect();
            let mut model = base.clone();
            let t0 = Instant::now();
            model.svd_update_weights(&changes).expect("weights");
            WeightRow {
                j,
                nnz_z: j * per_term,
                flops: params.svd_update_weights(j, j * per_term),
                seconds: t0.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Render Table 7, then the weight-correction sweep over `j = 1, 4,
/// 16` re-weighted terms on the same base model.
pub fn report(ps: &[usize], k: usize) -> String {
    let rows = run(ps, k, 808);
    let mut out = format!(
        "Table 7: updating-method cost, analytic flops and measured seconds (k={k})\n"
    );
    out.push_str("  p     fold(flops)  update(flops)  recompute(flops) | fold(s)    update(s)  recompute(s)\n");
    for r in &rows {
        out.push_str(&format!(
            "  {:<5} {:<12} {:<14} {:<16} | {:.6}  {:.6}  {:.6}\n",
            r.p, r.fold_flops, r.update_flops, r.recompute_flops,
            r.fold_seconds, r.update_seconds, r.recompute_seconds
        ));
    }
    out.push_str("  (paper: folding-in 2mkp << SVD-updating << recomputing, for p << n)\n");
    out.push_str("  Eq. 12 weight correction: j terms re-weighted, nnz(Z) deltas\n");
    out.push_str("  j     nnz(Z)  update(flops) | update(s)\n");
    for r in run_weights(&[1, 4, 16], k, 808) {
        out.push_str(&format!(
            "  {:<5} {:<7} {:<13} | {:.6}\n",
            r.j, r.nnz_z, r.flops, r.seconds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ordering_matches_the_papers_claim() {
        // fold-in cheapest, recompute most expensive, for small p.
        let rows = run(&[4], 16, 5);
        let r = &rows[0];
        assert!(
            r.fold_seconds < r.update_seconds,
            "fold {} should be under update {}",
            r.fold_seconds,
            r.update_seconds
        );
        assert!(
            r.update_seconds < r.recompute_seconds * 2.0,
            "update {} should not dwarf recompute {}",
            r.update_seconds,
            r.recompute_seconds
        );
        assert!(
            r.fold_seconds < r.recompute_seconds,
            "fold {} should be under recompute {}",
            r.fold_seconds,
            r.recompute_seconds
        );
    }

    #[test]
    fn analytic_ordering_matches_for_small_p() {
        let rows = run(&[2, 8], 16, 6);
        for r in &rows {
            assert!(r.fold_flops < r.update_flops);
            assert!(r.update_flops < r.recompute_flops);
        }
    }

    #[test]
    fn weight_correction_cost_grows_with_j() {
        let rows = run_weights(&[1, 4, 16], 12, 9);
        assert_eq!(rows.iter().map(|r| r.j).collect::<Vec<_>>(), [1, 4, 16]);
        for pair in rows.windows(2) {
            assert!(pair[0].nnz_z < pair[1].nnz_z);
            assert!(pair[0].flops < pair[1].flops);
        }
        assert!(rows.iter().all(|r| r.seconds > 0.0));
    }

    #[test]
    fn costs_increase_with_p() {
        let rows = run(&[2, 10], 12, 7);
        assert!(rows[0].fold_flops < rows[1].fold_flops);
        assert!(rows[0].update_flops < rows[1].update_flops);
    }
}
