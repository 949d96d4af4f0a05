//! Property tests for the log-bucketed histogram against a naive
//! sorted-vec oracle: bucket boundaries, percentile extraction, and
//! exact count/sum/min/max bookkeeping on arbitrary sample sets.

use lsi_obs::{bucket_index, bucket_upper_bound, Histogram, GROWTH, HIST_BUCKETS};
use proptest::prelude::*;

/// The oracle: the exact order statistic at the same target rank the
/// histogram uses, `ceil(q·n)` clamped to `[1, n]`, over a sorted copy
/// of the samples.
fn oracle_percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let target = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[target - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentile_reports_the_oracle_bucket(
        samples in prop::collection::vec(0.0f64..1e7, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

        // The histogram must land in exactly the bucket that holds the
        // oracle's order statistic, and report that bucket's upper
        // bound clamped to the largest sample — so the answer is within
        // one GROWTH factor above the exact value and never above the
        // observed max.
        let exact = oracle_percentile(&sorted, q);
        let reported = h.percentile(q);
        prop_assert_eq!(reported, bucket_upper_bound(bucket_index(exact)).min(h.max()));
        prop_assert!(reported <= h.max());
        prop_assert!(reported >= exact.min(1.0));
        prop_assert!(reported <= exact.max(1.0) * GROWTH * 1.0000001);
    }

    #[test]
    fn bookkeeping_is_exact(samples in prop::collection::vec(0.0f64..1e9, 1..100)) {
        let h = Histogram::default();
        let mut sum = 0.0;
        for &v in &samples {
            h.record(v);
            sum += v;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        // Sum accumulates with atomic f64 adds; ordering differences
        // cost at most a few ulps per sample.
        prop_assert!((h.sum() - sum).abs() <= 1e-9 * sum.abs() + 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_in_q(
        samples in prop::collection::vec(0.0f64..1e6, 1..150),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.percentile(lo) <= h.percentile(hi));
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded(a in 0.0f64..1e12, b in 0.0f64..1e12) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        prop_assert!(bucket_index(hi) < HIST_BUCKETS);
        // Every value sits at or below its bucket's upper bound.
        prop_assert!(lo <= bucket_upper_bound(bucket_index(lo)) * 1.0000001);
    }
}

/// A percentile never reads above the largest sample: 24 batches of
/// 24 queries once reported p99 = 26.9, the top of 24's bucket.
#[test]
fn percentile_is_clamped_to_the_observed_max() {
    let h = Histogram::default();
    for _ in 0..24 {
        h.record(24.0);
    }
    assert!(bucket_upper_bound(bucket_index(24.0)) > 24.0);
    assert_eq!(h.percentile(0.99), 24.0);
    assert_eq!(h.percentile(0.5), 24.0);
    assert_eq!(h.snapshot().p99, 24.0);
}
