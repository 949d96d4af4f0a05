//! Coordinate-format (triplet) sparse matrix builder.
//!
//! Triplets go in in any order; duplicates are summed when converting to
//! compressed storage.

use crate::csc::CscMatrix;
use crate::{Error, Result};

/// A growable sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Empty matrix with triplet capacity reserved.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Append a triplet. Duplicate positions are *summed* on conversion.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(Error::IndexOutOfBounds {
                row,
                col,
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Iterate over `(row, col, value)` triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSC, summing duplicates and dropping explicit zeros.
    pub fn to_csc(&self) -> CscMatrix {
        // Count entries per column.
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        // Scatter into per-column buckets.
        let mut row_idx = vec![0usize; self.vals.len()];
        let mut values = vec![0.0f64; self.vals.len()];
        let mut next = counts.clone();
        for ((&r, &c), &v) in self.rows.iter().zip(self.cols.iter()).zip(self.vals.iter()) {
            let slot = next[c];
            row_idx[slot] = r;
            values[slot] = v;
            next[c] += 1;
        }
        // Sort each column by row and sum duplicates.
        let mut out_indptr = Vec::with_capacity(self.ncols + 1);
        let mut out_rows = Vec::with_capacity(self.vals.len());
        let mut out_vals = Vec::with_capacity(self.vals.len());
        out_indptr.push(0usize);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for c in 0..self.ncols {
            scratch.clear();
            scratch.extend(
                row_idx[counts[c]..counts[c + 1]]
                    .iter()
                    .copied()
                    .zip(values[counts[c]..counts[c + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == r {
                    v += scratch[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    out_rows.push(r);
                    out_vals.push(v);
                }
                i = j;
            }
            out_indptr.push(out_rows.len());
        }
        // Rows were bounds-checked by `push` and each column is sorted
        // and deduplicated above: the CSC invariants hold.
        CscMatrix::from_parts(self.nrows, self.ncols, out_indptr, out_rows, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 2, 2.0).unwrap();
        assert_eq!(m.triplets().count(), 2);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn push_out_of_bounds_errors() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
    }

    #[test]
    fn duplicates_are_summed() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.0).unwrap();
        m.push(0, 1, 2.5).unwrap();
        let csc = m.to_csc();
        assert_eq!(csc.nnz(), 1);
        assert_eq!(csc.get(0, 1), 3.5);
    }

    #[test]
    fn explicit_zeros_dropped() {
        let mut m = CooMatrix::new(1, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 0, -1.0).unwrap();
        m.push(0, 1, 4.0).unwrap();
        let csc = m.to_csc();
        assert_eq!(csc.nnz(), 1);
        assert_eq!(csc.get(0, 0), 0.0);
        assert_eq!(csc.get(0, 1), 4.0);
    }

    #[test]
    fn csc_matches_triplets() {
        let mut m = CooMatrix::new(3, 4);
        let trips = [(0, 3, 1.0), (2, 0, -2.0), (1, 1, 0.5), (2, 3, 7.0)];
        for (r, c, v) in trips {
            m.push(r, c, v).unwrap();
        }
        let csc = m.to_csc();
        let csc_t = csc.transpose();
        for i in 0..3 {
            for j in 0..4 {
                let want = trips
                    .iter()
                    .find(|&&(r, c, _)| (r, c) == (i, j))
                    .map_or(0.0, |t| t.2);
                assert_eq!(csc.get(i, j), want, "mismatch at ({i},{j})");
                assert_eq!(csc_t.get(j, i), want, "transpose mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_matrix_converts() {
        let m = CooMatrix::new(0, 0);
        assert_eq!(m.to_csc().nnz(), 0);
        assert_eq!(m.to_csc().transpose().nnz(), 0);
    }

    #[test]
    fn triplets_iterates_in_insertion_order() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 0, 9.0).unwrap();
        m.push(0, 1, 8.0).unwrap();
        let t: Vec<_> = m.triplets().collect();
        assert_eq!(t, vec![(1, 0, 9.0), (0, 1, 8.0)]);
    }
}
