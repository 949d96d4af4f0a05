//! Coordinate-format (triplet) sparse matrix builder.
//!
//! The text-processing layer appends one triplet per term occurrence;
//! duplicates are summed when converting to compressed storage, which is
//! exactly the term-frequency semantics of the paper's Eq. (4).

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
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

    /// Number of stored triplets (before duplicate summing).
    pub fn triplet_count(&self) -> usize {
        self.vals.len()
    }

    /// Iterate over `(row, col, value)` triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSR, summing duplicates and dropping explicit zeros.
    pub fn to_csr(&self) -> CsrMatrix {
        compress(self.nrows, self.ncols, &self.rows, &self.cols, &self.vals, true)
    }

    /// Convert to CSC, summing duplicates and dropping explicit zeros.
    pub fn to_csc(&self) -> CscMatrix {
        let csr_of_transpose =
            compress(self.ncols, self.nrows, &self.cols, &self.rows, &self.vals, true);
        CscMatrix::from_transposed_csr(csr_of_transpose)
    }
}

/// Bucket-sort triplets into compressed row storage.
fn compress(
    nrows: usize,
    ncols: usize,
    rows: &[usize],
    cols: &[usize],
    vals: &[f64],
    drop_zeros: bool,
) -> CsrMatrix {
    // Count entries per row.
    let mut counts = vec![0usize; nrows + 1];
    for &r in rows {
        counts[r + 1] += 1;
    }
    for i in 0..nrows {
        counts[i + 1] += counts[i];
    }
    // Scatter into per-row buckets.
    let mut col_idx = vec![0usize; vals.len()];
    let mut values = vec![0.0f64; vals.len()];
    let mut next = counts.clone();
    for ((&r, &c), &v) in rows.iter().zip(cols.iter()).zip(vals.iter()) {
        let slot = next[r];
        col_idx[slot] = c;
        values[slot] = v;
        next[r] += 1;
    }
    // Sort each row by column and sum duplicates.
    let mut out_indptr = Vec::with_capacity(nrows + 1);
    let mut out_cols = Vec::with_capacity(vals.len());
    let mut out_vals = Vec::with_capacity(vals.len());
    out_indptr.push(0usize);
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    for r in 0..nrows {
        scratch.clear();
        scratch.extend(
            col_idx[counts[r]..counts[r + 1]]
                .iter()
                .copied()
                .zip(values[counts[r]..counts[r + 1]].iter().copied()),
        );
        scratch.sort_unstable_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < scratch.len() {
            let c = scratch[i].0;
            let mut v = scratch[i].1;
            let mut j = i + 1;
            while j < scratch.len() && scratch[j].0 == c {
                v += scratch[j].1;
                j += 1;
            }
            if !(drop_zeros && v == 0.0) {
                out_cols.push(c);
                out_vals.push(v);
            }
            i = j;
        }
        out_indptr.push(out_cols.len());
    }
    CsrMatrix::from_raw(nrows, ncols, out_indptr, out_cols, out_vals)
        .expect("compress produces valid CSR by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 2, 2.0).unwrap();
        assert_eq!(m.triplet_count(), 2);
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
    fn duplicates_are_summed_in_csr() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.0).unwrap();
        m.push(0, 1, 2.5).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), 3.5);
    }

    #[test]
    fn explicit_zeros_dropped() {
        let mut m = CooMatrix::new(1, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 0, -1.0).unwrap();
        m.push(0, 1, 4.0).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), 0.0);
        assert_eq!(csr.get(0, 1), 4.0);
    }

    #[test]
    fn csr_and_csc_agree() {
        let mut m = CooMatrix::new(3, 4);
        for (r, c, v) in [(0, 3, 1.0), (2, 0, -2.0), (1, 1, 0.5), (2, 3, 7.0)] {
            m.push(r, c, v).unwrap();
        }
        let csr = m.to_csr();
        let csc = m.to_csc();
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(csr.get(i, j), csc.get(i, j), "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_matrix_converts() {
        let m = CooMatrix::new(0, 0);
        assert_eq!(m.to_csr().nnz(), 0);
        assert_eq!(m.to_csc().nnz(), 0);
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
