//! Column-major dense matrix type.
//!
//! LSI stores term vectors (`U_k`) and document vectors (`V_k`) as dense
//! matrices whose *columns* are accessed together during query projection
//! and cosine ranking, so column-major storage keeps the hot loops
//! contiguous.

use crate::{Error, Result};

/// A dense, column-major, `f64` matrix.
///
/// Storage layout: entry `(i, j)` lives at `data[j * nrows + i]`, so each
/// column is a contiguous slice obtainable via [`DenseMatrix::col`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create an `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build a matrix from a column-major data buffer.
    ///
    /// Returns an error if `data.len() != nrows * ncols` (or the product
    /// overflows).
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if nrows.checked_mul(ncols) != Some(data.len()) {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "buffer of length {} cannot hold a {}x{} matrix",
                    data.len(),
                    nrows,
                    ncols
                ),
            });
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Build a matrix from row slices (each inner slice is one row).
    ///
    /// Returns an error if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(Error::DimensionMismatch {
                    context: format!("row {i} has length {} but row 0 has length {ncols}", r.len()),
                });
            }
        }
        let mut m = DenseMatrix::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        Ok(m)
    }

    /// Build a matrix whose columns are the given vectors.
    pub fn from_cols(cols: &[Vec<f64>]) -> Result<Self> {
        let ncols = cols.len();
        let nrows = cols.first().map_or(0, |c| c.len());
        for (j, c) in cols.iter().enumerate() {
            if c.len() != nrows {
                return Err(Error::DimensionMismatch {
                    context: format!(
                        "column {j} has length {} but column 0 has length {nrows}",
                        c.len()
                    ),
                });
            }
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for c in cols {
            data.extend_from_slice(c);
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = DenseMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
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

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] = v;
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] += v;
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy of row `i` (non-contiguous in column-major storage).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.ncols).map(|j| self.get(i, j)).collect()
    }

    /// Borrowing view of row `i` — no allocation. The hot per-row
    /// operations (dot, norm, cosine) are available directly on the
    /// view and are bit-identical to running [`crate::vecops`] on a
    /// [`DenseMatrix::row`] copy.
    #[inline]
    pub fn row_view(&self, i: usize) -> RowView<'_> {
        debug_assert!(i < self.nrows);
        RowView {
            data: &self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            row: i,
        }
    }

    /// Iterator over column slices.
    pub fn cols(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.nrows.max(1)).take(self.ncols)
    }

    /// The underlying column-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying column-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its column-major buffer.
    pub fn into_col_major(self) -> Vec<f64> {
        self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            let cj = self.col(j);
            for (i, &v) in cj.iter().enumerate() {
                t.set(j, i, v);
            }
        }
        t
    }

    /// Keep only the first `k` columns.
    pub fn truncate_cols(&self, k: usize) -> DenseMatrix {
        let k = k.min(self.ncols);
        DenseMatrix {
            nrows: self.nrows,
            ncols: k,
            data: self.data[..self.nrows * k].to_vec(),
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != other.nrows {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "hcat of {}x{} with {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        let mut data = Vec::with_capacity((self.ncols + other.ncols) * self.nrows);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(DenseMatrix {
            nrows: self.nrows,
            ncols: self.ncols + other.ncols,
            data,
        })
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != other.ncols {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "vcat of {}x{} with {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        let mut out = DenseMatrix::zeros(self.nrows + other.nrows, self.ncols);
        for j in 0..self.ncols {
            out.col_mut(j)[..self.nrows].copy_from_slice(self.col(j));
            out.col_mut(j)[self.nrows..].copy_from_slice(other.col(j));
        }
        Ok(out)
    }

    /// Append a column to the right edge of the matrix.
    pub fn push_col(&mut self, col: &[f64]) -> Result<()> {
        if col.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "push_col of length {} onto matrix with {} rows",
                    col.len(),
                    self.nrows
                ),
            });
        }
        self.data.extend_from_slice(col);
        self.ncols += 1;
        Ok(())
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Elementwise difference norm `||self - other||_F`.
    ///
    /// Returns an error on shape mismatch.
    pub fn fro_distance(&self, other: &DenseMatrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(Error::DimensionMismatch {
                context: format!("fro_distance of {:?} with {:?}", self.shape(), other.shape()),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sub-matrix copy: rows `r0..r1`, columns `c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> DenseMatrix {
        assert!(r0 <= r1 && r1 <= self.nrows && c0 <= c1 && c1 <= self.ncols);
        let mut out = DenseMatrix::zeros(r1 - r0, c1 - c0);
        for j in c0..c1 {
            let src = &self.col(j)[r0..r1];
            out.col_mut(j - c0).copy_from_slice(src);
        }
        out
    }
}

/// A borrowed, strided view of one matrix row.
///
/// Rows of a column-major matrix are non-contiguous, so per-row
/// operations historically went through [`DenseMatrix::row`], paying
/// one `Vec<f64>` allocation per call — measurable in loops like the
/// thesaurus sweep (one row per vocabulary term per query) and the
/// document-norm refresh. The view walks the stride in place instead.
///
/// The arithmetic kernels ([`RowView::dot_slice`], [`RowView::nrm2`],
/// the cosines) replicate the exact accumulation structure of their
/// [`crate::vecops`] counterparts — same lane split, same scaling loop,
/// same operation order — so swapping a row copy for a view never
/// changes a result bit.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    data: &'a [f64],
    nrows: usize,
    ncols: usize,
    row: usize,
}

impl<'a> RowView<'a> {
    /// Number of entries (the matrix's column count).
    #[inline]
    pub fn len(&self) -> usize {
        self.ncols
    }

    /// True if the row has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ncols == 0
    }

    /// Entry `j` of the row.
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        debug_assert!(j < self.ncols);
        self.data[j * self.nrows + self.row]
    }

    /// Iterator over the row's entries.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        let (data, nrows, row) = (self.data, self.nrows, self.row);
        (0..self.ncols).map(move |j| data[j * nrows + row])
    }

    /// Materialize the row as a `Vec` (for callers that need a
    /// contiguous slice, e.g. as a GEMV operand).
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Dot product with a contiguous slice; mirrors [`crate::vecops::dot`]
    /// (four accumulation lanes plus tail) bit-for-bit.
    ///
    /// # Panics
    /// Panics in debug builds on length mismatch.
    pub fn dot_slice(&self, y: &[f64]) -> f64 {
        debug_assert_eq!(self.ncols, y.len());
        let mut acc = [0.0f64; 4];
        let chunks = self.ncols / 4;
        for c in 0..chunks {
            let j = 4 * c;
            acc[0] += self.get(j) * y[j];
            acc[1] += self.get(j + 1) * y[j + 1];
            acc[2] += self.get(j + 2) * y[j + 2];
            acc[3] += self.get(j + 3) * y[j + 3];
        }
        let mut tail = 0.0;
        for j in 4 * chunks..self.ncols {
            tail += self.get(j) * y[j];
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// Dot product with another row view; same lane structure as
    /// [`RowView::dot_slice`].
    pub fn dot(&self, other: RowView<'_>) -> f64 {
        debug_assert_eq!(self.ncols, other.ncols);
        let mut acc = [0.0f64; 4];
        let chunks = self.ncols / 4;
        for c in 0..chunks {
            let j = 4 * c;
            acc[0] += self.get(j) * other.get(j);
            acc[1] += self.get(j + 1) * other.get(j + 1);
            acc[2] += self.get(j + 2) * other.get(j + 2);
            acc[3] += self.get(j + 3) * other.get(j + 3);
        }
        let mut tail = 0.0;
        for j in 4 * chunks..self.ncols {
            tail += self.get(j) * other.get(j);
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// Euclidean norm; mirrors [`crate::vecops::nrm2`]'s overflow-guarded
    /// scaling loop bit-for-bit.
    pub fn nrm2(&self) -> f64 {
        let mut scale = 0.0f64;
        let mut ssq = 1.0f64;
        for j in 0..self.ncols {
            let v = self.get(j);
            // lsi-analyze: allow(float-safety) — exact zero skip mirrors vecops::nrm2 bit-for-bit; NaN is not skipped.
            if v != 0.0 {
                let a = v.abs();
                if scale < a {
                    ssq = 1.0 + ssq * (scale / a).powi(2);
                    scale = a;
                } else {
                    ssq += (a / scale).powi(2);
                }
            }
        }
        scale * ssq.sqrt()
    }

    /// Cosine with another row view; `0.0` if either row is zero
    /// (matching [`crate::vecops::cosine`]).
    pub fn cosine(&self, other: RowView<'_>) -> f64 {
        let nx = self.nrm2();
        let ny = other.nrm2();
        // lsi-analyze: allow(float-safety) — zero-norm guard matches vecops::cosine's contract exactly.
        if nx == 0.0 || ny == 0.0 {
            return 0.0;
        }
        self.dot(other) / (nx * ny)
    }

    /// Cosine with a contiguous slice; `0.0` if either operand is zero.
    pub fn cosine_slice(&self, y: &[f64]) -> f64 {
        let nx = self.nrm2();
        let ny = crate::vecops::nrm2(y);
        // lsi-analyze: allow(float-safety) — zero-norm guard matches vecops::cosine's contract exactly.
        if nx == 0.0 || ny == 0.0 {
            return 0.0;
        }
        self.dot_slice(y) / (nx * ny)
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_entries() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = DenseMatrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        m.add_to(1, 2, 0.5);
        assert_eq!(m.get(1, 2), 8.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_cols_matches_indexing() {
        let m = DenseMatrix::from_cols(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.col(0), &[1.0, 2.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn hcat_and_vcat() {
        let a = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![3.0], vec![4.0]]).unwrap();
        let h = a.hcat(&b).unwrap();
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.get(0, 1), 3.0);
        let v = a.vcat(&b).unwrap();
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.get(3, 0), 4.0);
    }

    #[test]
    fn hcat_shape_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 1);
        let b = DenseMatrix::zeros(3, 1);
        assert!(a.hcat(&b).is_err());
        assert!(a.vcat(&DenseMatrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn push_col_extends_matrix() {
        let mut m = DenseMatrix::zeros(2, 1);
        m.push_col(&[5.0, 6.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1), 6.0);
        assert!(m.push_col(&[1.0]).is_err());
    }

    #[test]
    fn fro_norm_of_known_matrix() {
        let m = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((m.fro_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_cols_keeps_prefix() {
        let m = DenseMatrix::from_cols(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let t = m.truncate_cols(2);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        let s = m.submatrix(1, 3, 0, 2);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(1, 1), 8.0);
    }

    #[test]
    fn row_view_matches_row_copy_bit_for_bit() {
        let mut m = DenseMatrix::zeros(5, 13);
        for i in 0..5 {
            for j in 0..13 {
                m.set(i, j, ((i * 13 + j) as f64 * 0.37).sin() * 1e3);
            }
        }
        let other: Vec<f64> = (0..13).map(|j| (j as f64 * 1.1).cos()).collect();
        for i in 0..5 {
            let copy = m.row(i);
            let view = m.row_view(i);
            assert_eq!(view.len(), 13);
            assert!(!view.is_empty());
            assert_eq!(view.to_vec(), copy);
            assert_eq!(view.nrm2(), crate::vecops::nrm2(&copy));
            assert_eq!(view.dot_slice(&other), crate::vecops::dot(&copy, &other));
            assert_eq!(view.cosine_slice(&other), crate::vecops::cosine(&copy, &other));
            for b in 0..5 {
                let copy_b = m.row(b);
                assert_eq!(view.dot(m.row_view(b)), crate::vecops::dot(&copy, &copy_b));
                assert_eq!(
                    view.cosine(m.row_view(b)),
                    crate::vecops::cosine(&copy, &copy_b)
                );
            }
        }
    }

    #[test]
    fn row_view_zero_row_cosine_is_zero() {
        let m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.row_view(0).cosine(m.row_view(1)), 0.0);
        assert_eq!(m.row_view(0).cosine_slice(&[1.0, 1.0, 1.0]), 0.0);
        assert_eq!(m.row_view(0).nrm2(), 0.0);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = DenseMatrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn fro_distance_detects_difference() {
        let a = DenseMatrix::identity(2);
        let mut b = DenseMatrix::identity(2);
        b.set(0, 0, 4.0);
        assert!((a.fro_distance(&b).unwrap() - 3.0).abs() < 1e-12);
        assert!(a.fro_distance(&DenseMatrix::zeros(3, 3)).is_err());
    }
}
