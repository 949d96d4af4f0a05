//! Index-coherence property suite for the cluster-pruned retrieval
//! path.
//!
//! The contract under test: every model mutation keeps the cluster
//! index coherent — fold-in assigns the appended rows to their nearest
//! centroid, the SVD updates and `recompute` re-assign every row (and
//! retrain outright once the latent space drifts past the re-cluster
//! threshold or the factor shape changes) — so that at
//! `nprobe = n_lists` the pruned path covers the whole collection:
//! every document id is reachable (recall 1.0 against the exact scan)
//! and the ranked list is *bit-identical* to the
//! [`IndexPolicy::Exact`] oracle, after any interleaving of mutations
//! and in every precision mode. Persistence must not break this
//! either: a save/load roundtrip in the middle of an interleaving
//! preserves the trained index and the property keeps holding.
//!
//! Thread-mode coverage: the probe and survivor-sweep shards pin their
//! split layout by list, so bit-reproducibility across thread counts
//! is covered by `scripts/verify.sh`, which runs this whole suite both
//! pooled and under `LSI_NUM_THREADS=1`.

use std::collections::HashSet;

use lsi_core::{BatchPlan, BatchQuery, IndexPolicy, LsiModel, LsiOptions, Precision, DEFAULT_NPROBE};
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

const THEMES: [&[&str]; 4] = [
    &["engine", "motor", "car", "wheel", "driver", "road", "fuel", "gear", "brake", "tyre"],
    &["lion", "zebra", "elephant", "giraffe", "savanna", "herd", "pride", "cub", "mane", "horn"],
    &["violin", "cello", "sonata", "tempo", "melody", "chord", "octave", "opus", "aria", "duet"],
    &["kernel", "thread", "cache", "stack", "heap", "mutex", "socket", "fiber", "paging", "shell"],
];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_text(state: &mut u64) -> String {
    let t1 = THEMES[(xorshift(state) % 4) as usize];
    let t2 = THEMES[(xorshift(state) % 4) as usize];
    let len = 6 + (xorshift(state) % 7) as usize;
    let words: Vec<&str> = (0..len)
        .map(|j| {
            let theme = if j % 2 == 0 { t1 } else { t2 };
            theme[(xorshift(state) % theme.len() as u64) as usize]
        })
        .collect();
    words.join(" ")
}

fn random_corpus(n: usize, seed: u64) -> Corpus {
    let mut state = seed | 1;
    Corpus {
        docs: (0..n)
            .map(|i| Document::new(format!("d{i}"), random_text(&mut state)))
            .collect(),
    }
}

fn build(corpus: &Corpus, k: usize, seed: u64) -> LsiModel {
    let options = LsiOptions {
        k,
        rules: ParsingRules {
            min_df: 2,
            ..Default::default()
        },
        weighting: TermWeighting::log_entropy(),
        svd_seed: seed,
    };
    LsiModel::build(corpus, &options).unwrap().0
}

fn random_queries(count: usize, seed: u64) -> Vec<String> {
    let mut state = seed | 1;
    (0..count).map(|_| random_text(&mut state)).collect()
}

fn assert_bit_identical(exact: &lsi_core::RankedList, pruned: &lsi_core::RankedList, ctx: &str) {
    assert_eq!(exact.matches.len(), pruned.matches.len(), "{ctx}: lengths differ");
    for (i, (a, b)) in exact.matches.iter().zip(pruned.matches.iter()).enumerate() {
        assert_eq!(a.doc, b.doc, "{ctx}: rank {i} documents differ");
        assert_eq!(
            a.cosine.to_bits(),
            b.cosine.to_bits(),
            "{ctx}: rank {i} cosine bits differ ({} vs {})",
            a.cosine,
            b.cosine
        );
    }
}

/// The coherence property itself: with the model's `Pruned` policy
/// clamped to full probe depth, the pruned scan is bit-identical to an
/// `Exact`-policy oracle at every `z`, and at `z = n_docs` it returns
/// each document exactly once (recall 1.0).
fn assert_full_depth_coherent(m: &LsiModel, queries: &[String], ctx: &str) {
    let n_lists = m
        .index_n_lists()
        .unwrap_or_else(|| panic!("{ctx}: cluster index missing under Pruned policy"));
    assert!(n_lists >= 1, "{ctx}: empty index");
    let n = m.n_docs();
    let mut oracle = m.clone();
    oracle.set_index_policy(IndexPolicy::Exact).unwrap();
    for (qi, q) in queries.iter().enumerate() {
        let qhat = m.project_text(q).unwrap();
        for z in [1usize, 10, n] {
            let want = oracle.rank_projected_top(&qhat, z).unwrap();
            let got = m.rank_projected_top(&qhat, z).unwrap();
            assert_bit_identical(&want, &got, &format!("{ctx}: query {qi} ({q:?}), z={z}"));
        }
        let all = m.rank_projected_top(&qhat, n).unwrap();
        assert_eq!(all.matches.len(), n, "{ctx}: query {qi} full scan short");
        let ids: HashSet<&str> = all.ids().into_iter().collect();
        assert_eq!(ids.len(), n, "{ctx}: query {qi} returned duplicate ids");
    }
}

/// Apply mutation `op` (chosen by the interleaving driver) to `m`;
/// `step` salts the new document/term ids so they stay unique.
fn apply_mutation(m: &mut LsiModel, op: u64, step: usize, state: &mut u64) {
    match op % 5 {
        0 => {
            let docs: Vec<Document> = (0..1 + (xorshift(state) % 3) as usize)
                .map(|j| Document::new(format!("f{step}_{j}"), random_text(state)))
                .collect();
            m.fold_in_documents(&Corpus { docs }).unwrap();
        }
        1 => {
            // Built against n_terms (not the vocabulary) so the column
            // stays valid after an `svd_update_terms` step appended
            // term rows the tokenizer does not know about.
            let mut rows: Vec<usize> = (0..5)
                .map(|_| (xorshift(state) as usize) % m.n_terms())
                .collect();
            rows.sort_unstable();
            rows.dedup();
            let vals: Vec<f64> = rows.iter().map(|_| 1.0 + (xorshift(state) % 3) as f64).collect();
            let mut d = lsi_sparse::CscMatrix::zeros(m.n_terms(), 0);
            d.push_col(&rows, &vals).unwrap();
            m.svd_update_documents(&d, &[format!("u{step}")]).unwrap();
        }
        2 => {
            let n = m.n_docs();
            let mut counts = vec![0.0; n];
            for _ in 0..4 {
                counts[(xorshift(state) as usize) % n] = 1.0 + (xorshift(state) % 3) as f64;
            }
            m.svd_update_terms(&[(format!("t{step}"), counts)]).unwrap();
        }
        3 => {
            let n = m.n_docs();
            let term = (xorshift(state) as usize) % m.n_terms();
            let mut delta = vec![0.0; n];
            for _ in 0..3 {
                delta[(xorshift(state) as usize) % n] = 0.25;
            }
            m.svd_update_weights(&[(term, delta)]).unwrap();
        }
        _ => {
            let k = m.k();
            m.recompute(k).unwrap();
        }
    }
}

#[test]
fn interleaved_mutations_keep_full_depth_probe_bit_identical() {
    for seed in [0x1D_C0_0001u64, 0x1D_C0_0002] {
        let corpus = random_corpus(120, seed);
        let mut m = build(&corpus, 8, 31);
        // usize::MAX clamps to n_lists at query time, so the policy
        // stays "full probe depth" across re-clusters that change the
        // list count mid-interleaving.
        m.set_index_policy(IndexPolicy::Pruned { nprobe: usize::MAX }).unwrap();
        let queries = random_queries(4, seed ^ 0xABCD);
        assert_full_depth_coherent(&m, &queries, &format!("seed {seed:#x}, fresh build"));
        let mut state = seed.rotate_left(17) | 1;
        for step in 0..8 {
            let op = xorshift(&mut state);
            apply_mutation(&mut m, op, step, &mut state);
            assert_full_depth_coherent(
                &m,
                &queries,
                &format!("seed {seed:#x}, step {step} (op {})", op % 5),
            );
        }
    }
}

#[test]
fn fold_in_reaches_new_documents_without_retraining() {
    let corpus = random_corpus(100, 0x1D_C0_0003);
    let mut m = build(&corpus, 8, 37);
    m.set_index_policy(IndexPolicy::Pruned { nprobe: usize::MAX }).unwrap();
    let lists_before = m.index_n_lists().unwrap();
    // Well below the re-cluster threshold (0.25 * n): the append path
    // must assign the new rows without touching the trained centroids.
    let text = "violin sonata melody tempo violin chord";
    m.fold_in_documents(&Corpus::from_pairs([("fresh", text)])).unwrap();
    assert_eq!(m.index_n_lists().unwrap(), lists_before, "append retrained the index");
    let qhat = m.project_text(text).unwrap();
    let ranked = m.rank_projected_top(&qhat, m.n_docs()).unwrap();
    assert!(
        ranked.ids().contains(&"fresh"),
        "folded-in document unreachable through the index"
    );
    assert_full_depth_coherent(&m, &random_queries(3, 0xF01D), "post fold-in");
}

#[test]
fn shape_changing_recompute_rebuilds_the_index() {
    let corpus = random_corpus(90, 0x1D_C0_0004);
    let mut m = build(&corpus, 8, 41);
    m.set_index_policy(IndexPolicy::Pruned { nprobe: usize::MAX }).unwrap();
    // Grow the collection enough that a retrain would pick a different
    // list count, then force the rebuild with a rank change (the
    // reassignment hook rebuilds on any factor-shape mismatch).
    let mut state = 0xFEEDu64;
    let extra: Vec<Document> = (0..80)
        .map(|i| Document::new(format!("x{i}"), random_text(&mut state)))
        .collect();
    m.fold_in_documents(&Corpus { docs: extra }).unwrap();
    m.recompute(6).unwrap();
    let n = m.n_docs();
    let expected = ((n as f64).sqrt().round() as usize).clamp(1, n);
    assert_eq!(
        m.index_n_lists().unwrap(),
        expected,
        "rebuilt index must size its list count to the grown collection"
    );
    assert_full_depth_coherent(&m, &random_queries(3, 0xFEED), "post recompute(6)");
}

#[test]
fn persistence_roundtrip_mid_interleaving_preserves_coherence() {
    let corpus = random_corpus(110, 0x1D_C0_0005);
    let mut m = build(&corpus, 8, 43);
    m.set_index_policy(IndexPolicy::Pruned { nprobe: 3 }).unwrap();
    let mut state = 0xBEEF_0001u64;
    apply_mutation(&mut m, 0, 100, &mut state); // fold-in
    let lists = m.index_n_lists().unwrap();
    let json = m.to_json().unwrap();
    let mut loaded = LsiModel::from_json(&json).unwrap();
    assert_eq!(
        loaded.index_policy(),
        IndexPolicy::Pruned { nprobe: 3 },
        "policy must survive the roundtrip"
    );
    assert_eq!(loaded.index_n_lists(), Some(lists), "index must survive the roundtrip");
    // The persisted index serves bit-identically to the in-memory one.
    let queries = random_queries(3, 0xBEEF);
    for q in &queries {
        let qhat = m.project_text(q).unwrap();
        let a = m.rank_projected_top(&qhat, 10).unwrap();
        let b = loaded.rank_projected_top(&qhat, 10).unwrap();
        assert_bit_identical(&a, &b, &format!("roundtrip query {q:?}"));
    }
    // And the interleaving continues cleanly on the loaded copy.
    loaded.set_index_policy(IndexPolicy::Pruned { nprobe: usize::MAX }).unwrap();
    apply_mutation(&mut loaded, 1, 101, &mut state); // svd_update_documents
    assert_full_depth_coherent(&loaded, &queries, "post-roundtrip update");
    apply_mutation(&mut loaded, 4, 102, &mut state); // recompute
    assert_full_depth_coherent(&loaded, &queries, "post-roundtrip recompute");
}

#[test]
fn compressed_precisions_stay_coherent_under_mutation() {
    let corpus = random_corpus(130, 0x1D_C0_0006);
    let base = build(&corpus, 8, 47);
    for precision in [Precision::F32, Precision::I8] {
        let mut m = base.clone();
        m.set_precision(precision);
        m.set_index_policy(IndexPolicy::Pruned { nprobe: usize::MAX }).unwrap();
        let mut state = 0xC0DE_0001u64;
        apply_mutation(&mut m, 0, 200, &mut state); // fold-in
        apply_mutation(&mut m, 4, 201, &mut state); // recompute
        assert_full_depth_coherent(&m, &random_queries(3, 0xC0DE), &format!("{precision:?}"));
    }
}

/// The serving ladder's rungs 1–3 over a [`lsi_core::Rungs`] bundle
/// rank bit for bit as the same rungs over a model that trained its
/// own index (`train_index`) and switched to the f32 replica
/// (`set_precision`). Building the bundle leaves the model untouched.
#[test]
fn ladder_rungs_rank_like_a_trained_and_compressed_model() {
    let corpus = random_corpus(300, 0x1D_C0_0007);
    let base = build(&corpus, 8, 53);
    // Built as `lsi serve`'s builder thread builds them: every parallel
    // kernel inline on this thread, off the pool.
    let rungs = rayon::run_inline(|| base.build_rungs()).unwrap();
    assert_eq!(base.index_n_lists(), None, "build_rungs must not train the model");
    assert_eq!(base.precision(), Precision::Exact);
    let mut trained = base.clone();
    trained.train_index().unwrap();
    let mut compressed = trained.clone();
    compressed.set_precision(Precision::F32);
    let texts = random_queries(20, 0xB0_B5);
    let batch = |n: usize| -> Vec<BatchQuery> {
        texts[..n]
            .iter()
            .map(|t| BatchQuery {
                text: t.clone(),
                z: 10,
                ctx: None,
            })
            .collect()
    };
    // (level, probe depth, the parent's model for that level)
    let half = (DEFAULT_NPROBE / 2).max(1);
    for (level, nprobe, reference) in [
        (1, DEFAULT_NPROBE, &trained),
        (2, DEFAULT_NPROBE, &compressed),
        (3, half, &compressed),
    ] {
        for width in [1, 3, texts.len()] {
            let want = reference.query_top_batch_at(
                batch(width),
                BatchPlan {
                    nprobe: Some(nprobe),
                    ..BatchPlan::default()
                },
            );
            let got = base.query_top_batch_at(
                batch(width),
                BatchPlan {
                    nprobe: Some(nprobe),
                    f32: level >= 2,
                    rungs: Some(&rungs),
                },
            );
            for (i, (w, g)) in want.into_iter().zip(got).enumerate() {
                let ctx = format!("level {level}, batch of {width}, query {i}");
                assert_bit_identical(&w.unwrap(), &g.unwrap(), &ctx);
            }
        }
    }
}

#[test]
fn rungs_of_another_model_are_a_typed_error() {
    let small = build(&random_corpus(40, 0x1D_C0_0008), 4, 59);
    let large = build(&random_corpus(90, 0x1D_C0_0009), 4, 61);
    let rungs = small.build_rungs().unwrap();
    let plan = BatchPlan {
        nprobe: Some(2),
        f32: true,
        rungs: Some(&rungs),
    };
    let query = || {
        vec![BatchQuery {
            text: random_queries(1, 7).remove(0),
            z: 5,
            ctx: None,
        }]
    };
    assert!(large.query_top_batch_at(query(), plan)[0].is_err());
    assert!(small.query_top_batch_at(query(), plan)[0].is_ok());
}
