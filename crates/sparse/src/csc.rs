//! Compressed sparse column storage.
//!
//! A CSC column is a document vector, so the text pipeline and the
//! folding-in machinery (which consume documents one at a time) work on
//! this format; `Aᵀ·x` is a per-column dot product that parallelizes
//! over nnz-balanced column spans the same way CSR's `A·x` does over
//! row spans.

use rayon::prelude::*;

use lsi_linalg::DenseMatrix;

use crate::csr::CsrMatrix;
use crate::spans::{nnz_balanced_spans, SyncMutPtr};
use crate::{Error, Result, PAR_NNZ_THRESHOLD};

/// A compressed sparse column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// Column pointers (`ncols + 1` entries).
    indptr: Vec<usize>,
    /// Row indices, sorted within each column.
    indices: Vec<usize>,
    /// Nonzero values, parallel to `indices`.
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from raw compressed arrays, validating invariants.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        // Validate by borrowing the CSR checker on the structural
        // transpose (identical invariants with rows<->cols swapped).
        let as_csr = CsrMatrix::from_raw(ncols, nrows, indptr, indices, values)?;
        Ok(CscMatrix::from_transposed_csr(as_csr))
    }

    /// Internal adapter: interpret a CSR matrix as the CSC of its
    /// transpose (same arrays, swapped interpretation).
    pub(crate) fn from_transposed_csr(csr: CsrMatrix) -> Self {
        let (nrows_t, ncols_t) = csr.shape();
        let (indptr, indices, values) = csr.into_raw();
        CscMatrix {
            nrows: ncols_t,
            ncols: nrows_t,
            indptr,
            indices,
            values,
        }
    }

    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            indptr: vec![0; ncols + 1],
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

    /// Raw parts `(indptr, indices, values)`.
    pub fn raw(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Entry accessor; `0.0` when absent.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let lo = self.indptr[col];
        let hi = self.indptr[col + 1];
        match self.indices[lo..hi].binary_search(&row) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Row indices and values of one column (a sparse document vector).
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[c];
        let hi = self.indptr[c + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Serial `y = A·x` (gather-scatter over columns).
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                context: format!("matvec: {}x{} with vector {}", self.nrows, self.ncols, x.len()),
            });
        }
        let mut y = vec![0.0; self.nrows];
        for c in 0..self.ncols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for idx in self.indptr[c]..self.indptr[c + 1] {
                y[self.indices[idx]] += self.values[idx] * xc;
            }
        }
        Ok(y)
    }

    /// Serial `y = Aᵀ·x` (per-column dot products).
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
        self.matvec_t_into(x, &mut y);
        Ok(y)
    }

    /// One column span of `y = Aᵀ·x`: columns `c0 .. c0 + y.len()` into
    /// the matching slice of `y`. Shared by the serial and parallel
    /// paths, so each `y[c]` is one identical dot product regardless of
    /// thread count (bit-for-bit determinism).
    #[inline]
    fn matvec_t_cols(&self, x: &[f64], c0: usize, y: &mut [f64]) {
        for (i, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.indptr[c0 + i]..self.indptr[c0 + i + 1] {
                acc += self.values[idx] * x[self.indices[idx]];
            }
            *out = acc;
        }
    }

    /// `y = Aᵀ·x` into a caller-provided buffer.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows);
        debug_assert_eq!(y.len(), self.ncols);
        self.matvec_t_cols(x, 0, y);
    }

    /// `y = Aᵀ·x` into a caller-provided buffer, parallelized over
    /// nnz-balanced column spans (long documents are the CSC analogue
    /// of dense term rows); serial below [`PAR_NNZ_THRESHOLD`] or on a
    /// single thread.
    pub fn par_matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows);
        debug_assert_eq!(y.len(), self.ncols);
        let nthreads = rayon::current_num_threads();
        if self.nnz() < PAR_NNZ_THRESHOLD || nthreads <= 1 {
            return self.matvec_t_cols(x, 0, y);
        }
        let spans = nnz_balanced_spans(&self.indptr, nthreads * 2);
        let yptr = SyncMutPtr(y.as_mut_ptr());
        spans.par_iter().for_each(|&(lo, hi)| {
            // SAFETY: spans partition 0..ncols disjointly, so each
            // worker writes a non-overlapping slice of y.
            let yspan = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(lo), hi - lo) };
            self.matvec_t_cols(x, lo, yspan);
        });
    }

    /// Parallel `y = Aᵀ·x` over nnz-balanced column spans.
    pub fn par_matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "par_matvec_t: {}x{} with vector {}",
                    self.nrows, self.ncols, x.len()
                ),
            });
        }
        let mut y = vec![0.0; self.ncols];
        self.par_matvec_t_into(x, &mut y);
        Ok(y)
    }

    /// Convert to CSR storage.
    pub fn to_csr(&self) -> CsrMatrix {
        // The arrays, reinterpreted, are the CSR of the transpose;
        // transposing that yields the CSR of self.
        self.structural_transpose_csr().transpose()
    }

    /// The CSR matrix that shares this matrix's raw arrays — i.e. the
    /// transpose of `self` in row-major form. Zero-copy reinterpretation.
    pub fn structural_transpose_csr(&self) -> CsrMatrix {
        CsrMatrix::from_raw(
            self.ncols,
            self.nrows,
            self.indptr.clone(),
            self.indices.clone(),
            self.values.clone(),
        )
        .expect("CSC invariants imply CSR invariants of the transpose")
    }

    /// Dense copy.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for c in 0..self.ncols {
            for idx in self.indptr[c]..self.indptr[c + 1] {
                d.set(self.indices[idx], c, self.values[idx]);
            }
        }
        d
    }

    /// Scale row `i` by `s[i]` in place.
    pub fn scale_rows(&mut self, s: &[f64]) -> Result<()> {
        if s.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                context: format!("scale_rows: {} rows, {} scales", self.nrows, s.len()),
            });
        }
        for (idx, &r) in self.indices.iter().enumerate() {
            self.values[idx] *= s[r];
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
        for c in 0..self.ncols {
            for idx in self.indptr[c]..self.indptr[c + 1] {
                self.values[idx] *= s[c];
            }
        }
        Ok(())
    }

    /// Apply a function to every stored value (local weighting transform).
    pub fn map_values(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Append a sparse column (used when growing a term-document matrix
    /// with new documents before an SVD-update).
    pub fn push_col(&mut self, rows: &[usize], vals: &[f64]) -> Result<()> {
        if rows.len() != vals.len() {
            return Err(Error::DimensionMismatch {
                context: format!("{} row indices but {} values", rows.len(), vals.len()),
            });
        }
        let mut pairs: Vec<(usize, f64)> =
            rows.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_unstable_by_key(|&(r, _)| r);
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(Error::DimensionMismatch {
                    context: format!("duplicate row index {} in pushed column", w[0].0),
                });
            }
        }
        if let Some(&(r, _)) = pairs.last() {
            if r >= self.nrows {
                return Err(Error::IndexOutOfBounds {
                    row: r,
                    col: self.ncols,
                    shape: (self.nrows, self.ncols),
                });
            }
        }
        for (r, v) in pairs {
            self.indices.push(r);
            self.values.push(v);
        }
        self.indptr.push(self.indices.len());
        self.ncols += 1;
        Ok(())
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Per-column Euclidean norms.
    pub fn col_norms(&self) -> Vec<f64> {
        (0..self.ncols)
            .map(|c| {
                self.values[self.indptr[c]..self.indptr[c + 1]]
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
                    .sqrt()
            })
            .collect()
    }

    /// Iterate `(row, col, value)` over stored entries (column order).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |c| {
            let lo = self.indptr[c];
            let hi = self.indptr[c + 1];
            self.indices[lo..hi]
                .iter()
                .zip(self.values[lo..hi].iter())
                .map(move |(&r, &v)| (r, c, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CscMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn get_and_col_access() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[2.0, 5.0]);
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0, 9.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_t_known() {
        let m = sample();
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]).unwrap(), vec![5.0, 3.0, 7.0]);
        assert!(m.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn par_matvec_t_matches_serial() {
        let m = sample();
        let x = [2.0, -1.0, 0.5];
        assert_eq!(m.matvec_t(&x).unwrap(), m.par_matvec_t(&x).unwrap());
    }

    #[test]
    fn csr_csc_matvec_agree() {
        let m = sample();
        let csr = m.to_csr();
        let x = [1.5, 2.5, -3.0];
        assert_eq!(m.matvec(&x).unwrap(), csr.matvec(&x).unwrap());
        assert_eq!(m.matvec_t(&x).unwrap(), csr.matvec_t(&x).unwrap());
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn push_col_appends_document() {
        let mut m = sample();
        m.push_col(&[2, 0], &[7.0, 6.0]).unwrap();
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.get(0, 3), 6.0);
        assert_eq!(m.get(2, 3), 7.0);
        assert_eq!(m.get(1, 3), 0.0);
        // Out-of-range row rejected.
        assert!(m.push_col(&[9], &[1.0]).is_err());
        // Duplicate rows rejected.
        assert!(m.push_col(&[0, 0], &[1.0, 2.0]).is_err());
        // Length mismatch rejected.
        assert!(m.push_col(&[0], &[]).is_err());
    }

    #[test]
    fn scale_rows_and_cols() {
        let mut m = sample();
        m.scale_rows(&[2.0, 1.0, 0.5]).unwrap();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 2), 2.5);
        m.scale_cols(&[1.0, 0.0, 2.0]).unwrap();
        assert_eq!(m.get(1, 1), 0.0);
        // Entry (0,2) was 2.0, then x2.0 from the row scale, then x2.0
        // from the column scale.
        assert_eq!(m.get(0, 2), 8.0);
    }

    #[test]
    fn col_norms_known() {
        let m = sample();
        let n = m.col_norms();
        assert!((n[0] - 17.0f64.sqrt()).abs() < 1e-12);
        assert!((n[1] - 3.0).abs() < 1e-12);
        assert!((n[2] - 29.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn from_raw_validates() {
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 3], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn iter_is_column_major() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (2, 0, 4.0), (1, 1, 3.0), (0, 2, 2.0), (2, 2, 5.0)]
        );
    }
}
