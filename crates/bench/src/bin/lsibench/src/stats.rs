//! Order statistics over measured samples.

/// A percentile together with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. It never interpolates, so
/// it is always an observed value and never above the largest sample.
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Pct {
        value: sorted[rank - 1],
        n,
    })
}

/// Median of `samples` (the mean of the two middle values when their
/// count is even), or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of `samples` without their smallest and largest value (of all
/// of them when there are fewer than three), or 0 when there are none.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// The `p`-th percentile of a run's samples of one timing (0 when there
/// are none), the value the run reports, with a note naming it and its
/// sample count, which are `what`.
pub fn summarize(samples: &[f64], p: f64, what: &str) -> (f64, String) {
    let n = samples.len();
    let name = if p == 50.0 {
        format!("median of {n} {what}")
    } else {
        format!("p{p} of {n} {what}")
    };
    (percentile(samples, p).map_or(0.0, |x| x.value), name)
}

/// `stat` of the values of the `(time, value)` points in each of the
/// consecutive `width`-second windows covering `[0, end)`; windows where
/// it gives `None` are left out.
pub fn per_window(
    points: &[(f64, f64)],
    width: f64,
    end: f64,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Vec<f64> {
    let windows = (end / width + 1e-9).floor() as usize;
    let mut buckets = vec![Vec::new(); windows];
    for &(t, v) in points {
        if t >= 0.0 {
            if let Some(bucket) = buckets.get_mut((t / width) as usize) {
                bucket.push(v);
            }
        }
    }
    buckets.iter().filter_map(|b| stat(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_never_exceeds_the_max_and_reports_its_count() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).unwrap();
        assert_eq!(p99, Pct { value: 10.0, n: 10 });
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 5.0);
        assert_eq!(percentile(&samples, 90.0).unwrap().value, 9.0);
        assert_eq!(percentile(&samples, 0.0).unwrap().value, 1.0);
        // Skewed data: interpolating schemes overshoot here; nearest
        // rank stays on an observed sample.
        let mut skewed = vec![1.0; 99];
        skewed.push(1000.0);
        for p in [50.0, 90.0, 99.0, 99.9, 100.0] {
            let got = percentile(&skewed, p).unwrap();
            assert!(got.value <= 1000.0 && skewed.contains(&got.value));
            assert_eq!(got.n, 100);
        }
        assert_eq!(percentile(&skewed, 99.0).unwrap().value, 1.0);
        assert_eq!(percentile(&skewed, 99.5).unwrap().value, 1000.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_takes_the_middle_value_or_the_mean_of_the_two() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert_eq!(trimmed_mean(&[10.0, 1.0, 2.0, 3.0, 4.0, -50.0]), 2.5);
        assert_eq!(trimmed_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0]), 1.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn summaries_are_order_statistics_with_their_counts() {
        let samples = [2.5, 1.5, 4.0, 3.0, 2.0, 9.0, 1.75, 2.25, 3.5, 5.0];
        assert_eq!(
            summarize(&samples, 50.0, "runs"),
            (2.5, "median of 10 runs".to_string())
        );
        assert_eq!(
            summarize(&samples, 10.0, "windows"),
            (1.5, "p10 of 10 windows".to_string())
        );
        assert_eq!(summarize(&samples, 20.0, "windows").0, 1.75);
        assert_eq!(summarize(&samples, 90.0, "windows").0, 5.0);
        assert_eq!(summarize(&[], 50.0, "runs").0, 0.0);
    }

    #[test]
    fn per_window_buckets_by_time() {
        let p50 = |v: &[f64]| percentile(v, 50.0).map(|p| p.value);
        let points = [(0.1, 1.0), (0.2, 3.0), (0.9, 2.0), (1.5, 7.0), (2.2, 5.0)];
        assert_eq!(per_window(&points, 1.0, 3.0, p50), vec![2.0, 7.0, 5.0]);
        // Empty windows count as zero for a rate; points past `end` and
        // the partial last window are dropped.
        let count = |v: &[f64]| Some(v.len() as f64);
        let sparse = [(0.5, 0.0), (0.6, 0.0), (2.5, 0.0), (9.0, 0.0)];
        assert_eq!(per_window(&sparse, 1.0, 3.5, count), vec![2.0, 0.0, 1.0]);
        assert!(per_window(&[], 1.0, 0.5, count).is_empty());
    }
}
