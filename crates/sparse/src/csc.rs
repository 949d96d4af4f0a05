//! Compressed sparse column storage, the crate's one compressed format.
//!
//! A CSC column is a document vector, so the text pipeline and the
//! folding-in machinery (which consume documents one at a time) work on
//! this format. `Aᵀ·x` is a per-column gather (one dot product per
//! column) that parallelizes over nnz-balanced column spans with no
//! synchronization. `A·x` runs the same gather on the transpose:
//! [`CscMatrix::transpose`] yields the CSC of `Aᵀ`, whose arrays are the
//! row-major (CSR) layout of `A`, so one kernel serves both Lanczos
//! products (see [`crate::ops::DualFormat`]).

use rayon::prelude::*;

use lsi_linalg::DenseMatrix;

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
        if indptr.len() != ncols + 1 {
            return Err(Error::DimensionMismatch {
                context: format!("indptr has {} entries for {} columns", indptr.len(), ncols),
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
        for c in 0..ncols {
            let col = &indices[indptr[c]..indptr[c + 1]];
            for w in col.windows(2) {
                if w[1] <= w[0] {
                    return Err(Error::DimensionMismatch {
                        context: format!("column {c} row indices not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = col.last() {
                if last >= nrows {
                    return Err(Error::IndexOutOfBounds {
                        row: last,
                        col: c,
                        shape: (nrows, ncols),
                    });
                }
            }
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Assemble from arrays that already satisfy every invariant
    /// [`CscMatrix::from_raw`] checks (the crate's own builders produce
    /// them sorted and in bounds by construction).
    pub(crate) fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        CscMatrix {
            nrows,
            ncols,
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

    /// Serial `y = A·x` (scatter over columns).
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

    /// Serial `y = A·x` into a caller-provided buffer: each column's
    /// entries scattered into `y`, so every `y[r]` sums its terms in
    /// ascending column order. Splitting the scatter across threads
    /// would race on `y`; the parallel `A·x` is the gather over
    /// [`CscMatrix::transpose`].
    pub(crate) fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        y.fill(0.0);
        for c in 0..self.ncols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for idx in self.indptr[c]..self.indptr[c + 1] {
                y[self.indices[idx]] += self.values[idx] * xc;
            }
        }
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
    /// nnz-balanced column spans; serial below [`PAR_NNZ_THRESHOLD`] or
    /// on a single thread. Column-count partitioning would let one long
    /// column (a long document, or on the transpose a Zipf-head term)
    /// serialize the whole product; the spans are cut from `indptr` so
    /// every worker gets the same share of nonzeros.
    pub fn par_matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows);
        debug_assert_eq!(y.len(), self.ncols);
        let nthreads = rayon::current_num_threads();
        if self.nnz() < PAR_NNZ_THRESHOLD || nthreads <= 1 {
            return self.matvec_t_cols(x, 0, y);
        }
        // Two spans per thread: balanced by construction, and cheap to
        // compute (a handful of binary searches on indptr per call).
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

    /// The CSC of `Aᵀ` (equivalently, the row-major layout of `A`): a
    /// bucket transpose that visits columns in ascending order, so each
    /// column of the result lists its row indices sorted.
    pub fn transpose(&self) -> CscMatrix {
        // Count entries per row of A (= per column of Aᵀ).
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.indices {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for c in 0..self.ncols {
            for idx in self.indptr[c]..self.indptr[c + 1] {
                let r = self.indices[idx];
                let slot = next[r];
                indices[slot] = c;
                values[slot] = self.values[idx];
                next[r] += 1;
            }
        }
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr: counts,
            indices,
            values,
        }
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
        //  [4, 0, 5],
        //  [0, 0, 0]]
        let mut coo = CooMatrix::new(4, 3);
        for (r, c, v) in [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn get_and_col_access() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(3, 1), 0.0);
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[2.0, 5.0]);
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0, 9.0, 0.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_t_known() {
        let m = sample();
        assert_eq!(m.matvec_t(&[1.0; 4]).unwrap(), vec![5.0, 3.0, 7.0]);
        assert!(m.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn par_matvec_t_matches_serial() {
        let m = sample();
        let x = [2.0, -1.0, 0.5, 3.0];
        assert_eq!(m.matvec_t(&x).unwrap(), m.par_matvec_t(&x).unwrap());
    }

    #[test]
    fn csr_csc_matvec_agree() {
        // `transpose()` holds the CSR arrays of A: its gather computes
        // A·x and its scatter Aᵀ·x, bit for bit equal to the CSC's.
        let m = sample();
        let csr = m.transpose();
        let x = [1.5, 2.5, -3.0];
        assert_eq!(m.matvec(&x).unwrap(), csr.matvec_t(&x).unwrap());
        let xt = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec_t(&xt).unwrap(), csr.matvec(&xt).unwrap());
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
    fn empty_row_and_column_handled() {
        // Row 3 of the sample is empty: column 3 of its transpose.
        let t = sample().transpose();
        let (rows, vals) = t.col(3);
        assert!(rows.is_empty() && vals.is_empty());
        let mut m = CscMatrix::zeros(2, 0);
        m.push_col(&[], &[]).unwrap();
        assert_eq!(m.shape(), (2, 1));
        assert_eq!(m.matvec(&[4.0]).unwrap(), vec![0.0, 0.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]).unwrap(), vec![0.0]);
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        for i in 0..4 {
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
        m.scale_rows(&[2.0, 1.0, 0.5, 1.0]).unwrap();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 2), 2.5);
        m.scale_cols(&[1.0, 0.0, 2.0]).unwrap();
        assert_eq!(m.get(1, 1), 0.0);
        // Entry (0,2) was 2.0, then x2.0 from the row scale, then x2.0
        // from the column scale.
        assert_eq!(m.get(0, 2), 8.0);
        assert!(m.scale_rows(&[1.0]).is_err());
        assert!(m.scale_cols(&[1.0]).is_err());
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
    fn map_values_and_fro_norm() {
        let mut m = sample();
        m.map_values(|v| v * v);
        assert_eq!(m.get(2, 2), 25.0);
        let m2 = sample();
        assert!((m2.fro_norm() - (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-12);
        assert_eq!(m2.transpose().fro_norm(), m2.fro_norm());
    }

    #[test]
    fn from_raw_validates() {
        // Bad indptr length.
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Non-monotone indptr.
        assert!(CscMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // Row out of range.
        assert!(CscMatrix::from_raw(2, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Duplicate row within a column.
        assert!(CscMatrix::from_raw(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Endpoints disagree with nnz.
        assert!(CscMatrix::from_raw(2, 2, vec![0, 3], vec![0], vec![1.0]).is_err());
        // Valid.
        assert!(CscMatrix::from_raw(3, 1, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
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
