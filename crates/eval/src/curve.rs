//! Interpolated precision–recall curves.
//!
//! §5.1 evaluates systems by "average precision across several levels
//! of recall"; the full curve behind that summary is often the more
//! informative artifact (the paper's "LSI performs best ... at high
//! levels of recall" claim is a statement about the curve's right end).

use std::collections::HashSet;

use crate::metrics::{interpolated_precision_at, ELEVEN_POINT_LEVELS};

/// An interpolated precision–recall curve sampled at fixed recall
/// levels.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRecallCurve {
    /// `(recall level, interpolated precision)` points, recall
    /// ascending.
    pub points: Vec<(f64, f64)>,
}

impl PrecisionRecallCurve {
    /// Curve of a single ranking at the standard 11 recall points.
    pub fn of_ranking(ranking: &[usize], relevant: &HashSet<usize>) -> PrecisionRecallCurve {
        PrecisionRecallCurve {
            points: ELEVEN_POINT_LEVELS
                .iter()
                .map(|&l| (l, interpolated_precision_at(ranking, relevant, l)))
                .collect(),
        }
    }

    /// Mean curve over several queries (pointwise average).
    pub fn mean_over<'a, I>(runs: I) -> PrecisionRecallCurve
    where
        I: IntoIterator<Item = (&'a [usize], &'a HashSet<usize>)>,
    {
        let mut sums = vec![0.0f64; ELEVEN_POINT_LEVELS.len()];
        let mut n = 0usize;
        for (ranking, relevant) in runs {
            for (i, &l) in ELEVEN_POINT_LEVELS.iter().enumerate() {
                sums[i] += interpolated_precision_at(ranking, relevant, l);
            }
            n += 1;
        }
        let denom = n.max(1) as f64;
        PrecisionRecallCurve {
            points: ELEVEN_POINT_LEVELS
                .iter()
                .zip(sums.iter())
                .map(|(&l, &s)| (l, s / denom))
                .collect(),
        }
    }

    /// Precision at the recall level nearest to `recall`.
    pub fn precision_at(&self, recall: f64) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.0 - recall)
                    .abs()
                    .partial_cmp(&(b.0 - recall).abs())
                    .expect("finite recall levels")
            })
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Render as an ASCII table (for the repro harness).
    pub fn render(&self) -> String {
        let mut out = String::from("  recall  precision\n");
        for &(r, p) in &self.points {
            let bar: String = std::iter::repeat_n('#', (p * 30.0) as usize).collect();
            out.push_str(&format!("  {r:.1}     {p:.4} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(docs: &[usize]) -> HashSet<usize> {
        docs.iter().copied().collect()
    }

    #[test]
    fn perfect_ranking_gives_flat_unit_curve() {
        let ranking = [1, 2, 3, 4];
        let relevant = rel(&[1, 2]);
        let c = PrecisionRecallCurve::of_ranking(&ranking, &relevant);
        for &(_, p) in &c.points {
            assert_eq!(p, 1.0);
        }
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let ranking = [9, 1, 8, 2, 3, 7, 4, 5];
        let relevant = rel(&[7, 8, 9]);
        let c = PrecisionRecallCurve::of_ranking(&ranking, &relevant);
        for w in c.points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }

    #[test]
    fn mean_over_averages_pointwise() {
        let r1 = vec![1usize, 2];
        let rel1 = rel(&[1]);
        let r2 = vec![3usize, 4];
        let rel2 = rel(&[4]);
        let mean = PrecisionRecallCurve::mean_over([
            (r1.as_slice(), &rel1),
            (r2.as_slice(), &rel2),
        ]);
        // Query 1 is perfect (precision 1 everywhere); query 2 has its
        // relevant doc at rank 2 (precision 0.5 everywhere).
        for &(_, p) in &mean.points {
            assert!((p - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn precision_at_snaps_to_nearest_level() {
        let ranking = [5, 1, 2, 6];
        let relevant = rel(&[5, 6]);
        let c = PrecisionRecallCurve::of_ranking(&ranking, &relevant);
        assert_eq!(c.precision_at(0.52), c.precision_at(0.5));
        assert_eq!(c.precision_at(2.0), c.points.last().unwrap().1);
    }

    #[test]
    fn render_contains_all_levels() {
        let ranking = [1, 2];
        let relevant = rel(&[2]);
        let text = PrecisionRecallCurve::of_ranking(&ranking, &relevant).render();
        assert_eq!(text.lines().count(), 12); // header + 11 levels
    }

    #[test]
    fn empty_runs_mean_is_zero() {
        let mean = PrecisionRecallCurve::mean_over(std::iter::empty());
        assert!(mean.points.iter().all(|&(_, p)| p == 0.0));
    }
}
