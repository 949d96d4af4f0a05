//! nnz-balanced work partitioning for the parallel matvecs.
//!
//! Splitting a sparse matvec by *row count* hands skewed matrices to
//! one worker: term-frequency matrices are Zipf-distributed, so a few
//! dense term rows can hold a large share of the nonzeros and the
//! worker that draws them finishes long after the rest. The parallel
//! gather ([`crate::CscMatrix::par_matvec_t_into`]) runs over the
//! columns of a CSC matrix, and for `A·x` over the columns of its
//! transpose, which are those term rows. It partitions by *nonzero
//! count*: the compressed pointer array (`indptr`) is itself the
//! prefix-sum of nnz per column, so span boundaries fall out of a
//! handful of binary searches — no scan, no extra storage.

/// Partition `0..indptr.len()-1` (the columns of a CSC matrix) into at
/// most `n_spans` contiguous spans holding roughly equal nonzero
/// counts. Returns half-open `(lo, hi)` index ranges covering every
/// index exactly once; spans are never empty. A single column holding
/// most of the nonzeros yields fewer, uneven spans (it cannot be
/// split), which is exactly the right behavior: its neighbors land in
/// other spans instead of queueing behind it.
pub fn nnz_balanced_spans(indptr: &[usize], n_spans: usize) -> Vec<(usize, usize)> {
    let n = indptr.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let total = indptr[n];
    let n_spans = n_spans.clamp(1, n);
    if n_spans == 1 || total == 0 {
        return vec![(0, n)];
    }
    let mut spans = Vec::with_capacity(n_spans);
    let mut lo = 0usize;
    for s in 1..=n_spans {
        // Smallest boundary whose prefix nnz reaches the s-th quantile;
        // `partition_point` is the binary search (indptr is monotone).
        let target = total * s / n_spans;
        let hi = if s == n_spans {
            n
        } else {
            indptr.partition_point(|&p| p < target).min(n)
        };
        if hi > lo {
            spans.push((lo, hi));
            lo = hi;
        }
    }
    debug_assert_eq!(spans.last().map(|s| s.1), Some(n));
    spans
}

/// A raw mutable pointer the parallel matvecs share across workers.
/// Safe only because every worker derives a slice from a span of the
/// disjoint partition produced by [`nnz_balanced_spans`].
pub(crate) struct SyncMutPtr(pub *mut f64);

impl SyncMutPtr {
    /// Accessor rather than field access so closures capture the
    /// `Sync` wrapper, not the bare pointer (edition-2021 closures
    /// capture individual fields otherwise).
    #[inline]
    pub(crate) fn get(&self) -> *mut f64 {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced through disjoint spans.
unsafe impl Send for SyncMutPtr {}
unsafe impl Sync for SyncMutPtr {}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(indptr: &[usize], spans: &[(usize, usize)]) {
        let n = indptr.len() - 1;
        let mut next = 0;
        for &(lo, hi) in spans {
            assert_eq!(lo, next, "spans must be contiguous");
            assert!(hi > lo, "spans must be non-empty");
            next = hi;
        }
        assert_eq!(next, n, "spans must cover all indices");
    }

    #[test]
    fn uniform_rows_split_evenly() {
        // 8 rows x 10 nnz each.
        let indptr: Vec<usize> = (0..=8).map(|r| r * 10).collect();
        let spans = nnz_balanced_spans(&indptr, 4);
        check_cover(&indptr, &spans);
        assert_eq!(spans, vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
    }

    #[test]
    fn one_dense_row_does_not_drag_neighbors() {
        // Row 3 holds 1000 of 1014 nonzeros; the other rows must land
        // in spans that exclude it so they don't queue behind it.
        let mut indptr = vec![0usize];
        for r in 0..8 {
            let nnz = if r == 3 { 1000 } else { 2 };
            indptr.push(indptr.last().unwrap() + nnz);
        }
        let spans = nnz_balanced_spans(&indptr, 4);
        check_cover(&indptr, &spans);
        // The dense row terminates its own span.
        assert!(spans.iter().any(|&(lo, hi)| lo <= 3 && hi == 4));
        // Something comes after it.
        assert!(spans.last().unwrap().0 >= 4);
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        assert!(nnz_balanced_spans(&[0], 4).is_empty());
        // All-empty rows: single span covering everything.
        assert_eq!(nnz_balanced_spans(&[0, 0, 0, 0], 4), vec![(0, 3)]);
        // Leading/trailing empty rows around one populated row.
        let spans = nnz_balanced_spans(&[0, 0, 5, 5, 5], 3);
        check_cover(&[0, 0, 5, 5, 5], &spans);
    }

    #[test]
    fn more_spans_than_rows_clamps() {
        let indptr = vec![0, 1, 2];
        let spans = nnz_balanced_spans(&indptr, 16);
        check_cover(&indptr, &spans);
        assert!(spans.len() <= 2);
    }
}
