//! Compressed sparse row storage.
//!
//! CSR is the format for the Lanczos hot loop `y = A·x`: each output row
//! is an independent sparse dot product, which parallelizes over
//! nnz-balanced row spans (see [`crate::spans`]) with no
//! synchronization — each span owns a disjoint slice of `y`.

use rayon::prelude::*;

use lsi_linalg::DenseMatrix;

use crate::csc::CscMatrix;
use crate::spans::{nnz_balanced_spans, SyncMutPtr};
use crate::{Error, Result, PAR_NNZ_THRESHOLD};

/// A compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointers (`nrows + 1` entries).
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Nonzero values, parallel to `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw compressed arrays, validating the invariants.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(Error::DimensionMismatch {
                context: format!("indptr has {} entries for {} rows", indptr.len(), nrows),
            });
        }
        if indices.len() != values.len() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "{} indices but {} values",
                    indices.len(),
                    values.len()
                ),
            });
        }
        if *indptr.last().unwrap_or(&0) != indices.len() || indptr[0] != 0 {
            return Err(Error::DimensionMismatch {
                context: "indptr endpoints do not match nnz".to_string(),
            });
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(Error::DimensionMismatch {
                    context: "indptr not monotone".to_string(),
                });
            }
        }
        for r in 0..nrows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(Error::DimensionMismatch {
                        context: format!("row {r} column indices not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(Error::IndexOutOfBounds {
                        row: r,
                        col: last,
                        shape: (nrows, ncols),
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Entry accessor (binary search within the row); `0.0` when absent.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let lo = self.indptr[row];
        let hi = self.indptr[row + 1];
        match self.indices[lo..hi].binary_search(&col) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Column indices and values of one row.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Raw parts `(indptr, indices, values)`.
    pub fn raw(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Consume into the raw parts `(indptr, indices, values)`.
    pub(crate) fn into_raw(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.indptr, self.indices, self.values)
    }

    /// Serial `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                context: format!("matvec: {}x{} with vector {}", self.nrows, self.ncols, x.len()),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// One row span of `y = A·x`: rows `r0 .. r0 + y.len()` into the
    /// matching slice of `y`. Both the serial and parallel paths run
    /// this exact loop, so each `y[r]` is produced by one identical
    /// reduction regardless of thread count (bit-for-bit determinism).
    #[inline]
    fn matvec_rows(&self, x: &[f64], r0: usize, y: &mut [f64]) {
        for (i, out) in y.iter_mut().enumerate() {
            let lo = self.indptr[r0 + i];
            let hi = self.indptr[r0 + i + 1];
            let mut acc = 0.0;
            for idx in lo..hi {
                acc += self.values[idx] * x[self.indices[idx]];
            }
            *out = acc;
        }
    }

    /// Serial `y = A·x` into a caller-provided buffer (no allocation —
    /// this is the Lanczos inner loop).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        self.matvec_rows(x, 0, y);
    }

    /// `y = A·x` into a caller-provided buffer, parallelized over
    /// nnz-balanced row spans when the matrix is large enough; serial
    /// below [`PAR_NNZ_THRESHOLD`] or on a single thread. Row-count
    /// partitioning would let one dense term row (Zipf head) serialize
    /// the whole product; the spans are cut from `indptr` so every
    /// worker gets the same share of nonzeros.
    pub fn par_matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        let nthreads = rayon::current_num_threads();
        if self.nnz() < PAR_NNZ_THRESHOLD || nthreads <= 1 {
            return self.matvec_rows(x, 0, y);
        }
        // Two spans per thread: balanced by construction, and cheap to
        // compute (a handful of binary searches on indptr per call).
        let spans = nnz_balanced_spans(&self.indptr, nthreads * 2);
        let yptr = SyncMutPtr(y.as_mut_ptr());
        spans.par_iter().for_each(|&(lo, hi)| {
            // SAFETY: spans partition 0..nrows disjointly, so each
            // worker writes a non-overlapping slice of y.
            let yspan = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(lo), hi - lo) };
            self.matvec_rows(x, lo, yspan);
        });
    }

    /// Parallel `y = A·x` over nnz-balanced row spans; falls back to
    /// serial for small matrices.
    pub fn par_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "par_matvec: {}x{} with vector {}",
                    self.nrows, self.ncols, x.len()
                ),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.par_matvec_into(x, &mut y);
        Ok(y)
    }

    /// Serial `y = Aᵀ·x` (scatter over rows).
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "matvec_t: {}x{} with vector {}",
                    self.nrows, self.ncols, x.len()
                ),
            });
        }
        let mut y = vec![0.0; self.ncols];
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            for idx in lo..hi {
                y[self.indices[idx]] += self.values[idx] * xr;
            }
        }
        Ok(y)
    }

    /// Transposed copy (a CSC view of the same data reinterpreted).
    pub fn transpose(&self) -> CsrMatrix {
        // Count per-column entries.
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for r in 0..self.nrows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx];
                let slot = next[c];
                indices[slot] = r;
                values[slot] = self.values[idx];
                next[c] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr: counts,
            indices,
            values,
        }
    }

    /// Convert to CSC storage.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_transposed_csr(self.transpose())
    }

    /// Dense copy (small matrices / tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                d.set(r, self.indices[idx], self.values[idx]);
            }
        }
        d
    }

    /// Scale row `i` by `s[i]` in place (global term weighting applies a
    /// per-row factor, Eq. 5 of the paper).
    pub fn scale_rows(&mut self, s: &[f64]) -> Result<()> {
        if s.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                context: format!("scale_rows: {} rows, {} scales", self.nrows, s.len()),
            });
        }
        for r in 0..self.nrows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                self.values[idx] *= s[r];
            }
        }
        Ok(())
    }

    /// Scale column `j` by `s[j]` in place.
    pub fn scale_cols(&mut self, s: &[f64]) -> Result<()> {
        if s.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                context: format!("scale_cols: {} cols, {} scales", self.ncols, s.len()),
            });
        }
        for (idx, &c) in self.indices.iter().enumerate() {
            self.values[idx] *= s[c];
        }
        Ok(())
    }

    /// Apply a function to every stored value.
    pub fn map_values(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Iterate `(row, col, value)` over stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            self.indices[lo..hi]
                .iter()
                .zip(self.values[lo..hi].iter())
                .map(move |(&c, &v)| (r, c, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5],
        //  [0, 0, 0]]
        let mut coo = CooMatrix::new(4, 3);
        for (r, c, v) in [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn get_returns_stored_and_zero_entries() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(3, 1), 0.0);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 3.0, 9.0, 0.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_t_known() {
        let m = sample();
        let y = m.matvec_t(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![5.0, 3.0, 7.0]);
        assert!(m.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn par_matvec_matches_serial() {
        let m = sample();
        let x = [0.5, -1.0, 2.0];
        assert_eq!(m.matvec(&x).unwrap(), m.par_matvec(&x).unwrap());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_t_equals_transpose_matvec() {
        let m = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let via_t = m.matvec_t(&x).unwrap();
        let via_transpose = m.transpose().matvec(&x).unwrap();
        assert_eq!(via_t, via_transpose);
    }

    #[test]
    fn to_dense_matches_entries() {
        let m = sample();
        let d = m.to_dense();
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn scale_rows_and_cols() {
        let mut m = sample();
        m.scale_rows(&[1.0, 2.0, 0.5, 1.0]).unwrap();
        assert_eq!(m.get(1, 1), 6.0);
        assert_eq!(m.get(2, 0), 2.0);
        m.scale_cols(&[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert!(m.scale_rows(&[1.0]).is_err());
        assert!(m.scale_cols(&[1.0]).is_err());
    }

    #[test]
    fn from_raw_validates() {
        // Bad indptr length.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Non-monotone indptr.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Duplicate column within a row.
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Valid.
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn map_values_and_fro_norm() {
        let mut m = sample();
        m.map_values(|v| v * v);
        assert_eq!(m.get(2, 2), 25.0);
        let m2 = sample();
        assert!((m2.fro_norm() - (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_all_entries_in_row_order() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)]
        );
    }

    #[test]
    fn empty_row_handled() {
        let m = sample();
        let (idx, vals) = m.row(3);
        assert!(idx.is_empty() && vals.is_empty());
    }
}
