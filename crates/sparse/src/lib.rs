//! Sparse matrix substrate for the LSI reproduction.
//!
//! Term-document matrices are "usually sparse" (§2.1 of the paper; the
//! TREC matrices of §5.3 are 0.001–0.002 % dense), so everything the SVD
//! and retrieval layers touch is built on the formats here:
//!
//! * [`coo::CooMatrix`] — triplet accumulator used by the random
//!   generators, compressed once, straight into CSC,
//! * [`csc::CscMatrix`] — the one compressed format: column-major (a
//!   column is a document), per-document access, serial and
//!   rayon-parallel `Aᵀ·x`, and [`CscMatrix::transpose`], whose columns
//!   are the rows of `A`,
//! * [`ops`] — the [`MatVec`] operator trait and [`ops::DualFormat`],
//!   which serves the Lanczos `A·x` and `Aᵀ·x` from `Aᵀ` and `A` through
//!   the same parallel gather,
//! * [`gen`] — random sparse generators used by the TREC-scale
//!   experiments,
//! * [`stats`] — density/nnz diagnostics reported by the benchmarks.

// Index-based loops over parallel arrays are the clearest idiom in
// numerical kernels; clippy's iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]


pub mod coo;
pub mod csc;
pub mod gen;
pub mod ops;
pub mod spans;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use ops::MatVec;
pub use spans::nnz_balanced_spans;

/// Number of stored nonzeros below which the parallel matvecs stay
/// serial.
///
/// Calibration, two measurements on this 2-core container:
///
/// * `cargo test -p rayon --release -- --ignored --nocapture dispatch`
///   puts a warm pooled parallel region at ~38 µs (vs ~0.6 ms per
///   scoped spawn).
/// * `cargo test -p lsi-sparse --release --test par_consistency --
///   --ignored --nocapture` sweeps serial vs pooled SpMV: cache-warm
///   kernels run ~0.9–1.5 Gnnz/s, tie near ~30 K nnz, and reach 1.3x
///   at ~150 K nnz.
///
/// The warm tie point is NOT the right threshold: inside Lanczos the
/// matvecs interleave with serial scalar work, workers park between
/// calls, and the realized per-dispatch cost (wakeup + steal traffic)
/// is ~30 µs on top of the region itself — at 1<<15 the pooled gram
/// stage measured 2.2x *slower* than serial (47 µs of work per
/// product, trec_like corpus). 1<<17 nnz ≈ 130–170 µs of serial work
/// clears that overhead with margin (~1.3x warm, ~1.4x projected
/// cold); the old spawn-per-call cost (~0.6–1.7 ms) would have
/// demanded megabyte-scale matrices.
pub const PAR_NNZ_THRESHOLD: usize = 1 << 17;

/// Errors reported by sparse-matrix construction and kernels.
#[derive(Debug)]
pub enum Error {
    /// An index was out of bounds for the declared shape.
    IndexOutOfBounds {
        /// Row index supplied.
        row: usize,
        /// Column index supplied.
        col: usize,
        /// Declared shape.
        shape: (usize, usize),
    },
    /// Dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description.
        context: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::IndexOutOfBounds { row, col, shape } => {
                write!(f, "index ({row}, {col}) out of bounds for {}x{}", shape.0, shape.1)
            }
            Error::DimensionMismatch { context } => write!(f, "dimension mismatch: {context}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = Error::IndexOutOfBounds {
            row: 7,
            col: 2,
            shape: (3, 3),
        };
        assert!(e.to_string().contains("(7, 2)"));
    }
}

// The CSR (row-major) layout of a matrix A. lsi-sparse keeps no
// row-major type: the CSR arrays of A are the CSC arrays of Aᵀ, which
// `CscMatrix::transpose` builds and `ops::DualFormat` gathers A·x from.
// These tests read `transpose()` as the CSR of A, so its entry (j, i)
// is A's entry (i, j) and its column i is A's row i.
#[cfg(test)]
mod csr {
    mod tests {
        use crate::{CooMatrix, CscMatrix};

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

        /// The CSR of the sample.
        fn sample_rows() -> CscMatrix {
            sample().transpose()
        }

        #[test]
        fn get_returns_stored_and_zero_entries() {
            let t = sample_rows();
            assert_eq!(t.get(0, 0), 1.0);
            assert_eq!(t.get(1, 0), 0.0);
            assert_eq!(t.get(2, 2), 5.0);
            assert_eq!(t.get(1, 3), 0.0);
            assert_eq!(t.nnz(), 5);
            // Row 0 of A lists its columns in ascending order.
            assert_eq!(t.col(0), (&[0, 2][..], &[1.0, 2.0][..]));
        }

        #[test]
        fn matvec_known() {
            // A·x gathers over the rows of A.
            let t = sample_rows();
            assert_eq!(t.matvec_t(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0, 9.0, 0.0]);
            assert!(t.matvec_t(&[1.0]).is_err());
        }

        #[test]
        fn matvec_t_known() {
            // Aᵀ·x scatters over the rows of A.
            let t = sample_rows();
            assert_eq!(t.matvec(&[1.0; 4]).unwrap(), vec![5.0, 3.0, 7.0]);
            assert!(t.matvec(&[1.0]).is_err());
        }

        #[test]
        fn par_matvec_matches_serial() {
            let t = sample_rows();
            let x = [0.5, -1.0, 2.0];
            let y = t.par_matvec_t(&x).unwrap();
            assert_eq!(t.matvec_t(&x).unwrap(), y);
            assert_eq!(sample().matvec(&x).unwrap(), y);
        }

        #[test]
        fn matvec_t_equals_transpose_matvec() {
            // Aᵀ·x over the rows of A equals the gather over the rows of
            // Aᵀ, which are the columns of A.
            let t = sample_rows();
            let x = [1.0, 2.0, 3.0, 4.0];
            let via_t = t.matvec(&x).unwrap();
            let via_transpose = t.transpose().matvec_t(&x).unwrap();
            assert_eq!(via_t, via_transpose);
        }

        #[test]
        fn to_dense_matches_entries() {
            let m = sample();
            let t = sample_rows();
            let d = t.to_dense();
            for i in 0..4 {
                for j in 0..3 {
                    assert_eq!(d.get(j, i), t.get(j, i));
                    assert_eq!(d.get(j, i), m.get(i, j));
                }
            }
        }

        #[test]
        fn scale_rows_and_cols() {
            // A's row scales act on the columns of its CSR, and its column
            // scales on the rows.
            let mut t = sample_rows();
            t.scale_cols(&[1.0, 2.0, 0.5, 1.0]).unwrap();
            assert_eq!(t.get(1, 1), 6.0);
            assert_eq!(t.get(0, 2), 2.0);
            t.scale_rows(&[0.0, 1.0, 2.0]).unwrap();
            assert_eq!(t.get(0, 0), 0.0);
            assert_eq!(t.get(2, 2), 5.0);
            assert!(t.scale_cols(&[1.0]).is_err());
            assert!(t.scale_rows(&[1.0]).is_err());
            let mut m = sample();
            m.scale_rows(&[1.0, 2.0, 0.5, 1.0]).unwrap();
            m.scale_cols(&[0.0, 1.0, 2.0]).unwrap();
            assert_eq!(t, m.transpose());
        }

        #[test]
        fn from_raw_validates() {
            // The sample's row pointer, column indices and values, given
            // to `from_raw` as the CSC of its 3x4 transpose.
            let ptr = vec![0, 2, 3, 5, 5];
            let cols = vec![0, 2, 1, 0, 2];
            let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0];
            let raw = |ptr: Vec<usize>, cols: Vec<usize>| {
                CscMatrix::from_raw(3, 4, ptr, cols, vals.clone())
            };
            // Valid: exactly the arrays `transpose()` builds.
            assert_eq!(raw(ptr.clone(), cols.clone()).unwrap(), sample_rows());
            // Row pointer one entry short.
            assert!(raw(vec![0, 2, 3, 5], cols.clone()).is_err());
            // Non-monotone row pointer.
            assert!(raw(vec![0, 2, 1, 5, 5], cols.clone()).is_err());
            // Column out of range.
            assert!(raw(ptr.clone(), vec![0, 3, 1, 0, 2]).is_err());
            // Duplicate column within a row.
            assert!(raw(ptr, vec![0, 0, 1, 0, 2]).is_err());
        }

        #[test]
        fn iter_yields_all_entries_in_row_order() {
            let entries: Vec<_> = sample_rows().iter().map(|(c, r, v)| (r, c, v)).collect();
            assert_eq!(
                entries,
                vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)]
            );
        }
    }
}
