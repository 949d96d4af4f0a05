//! Dense linear algebra kernels for the LSI reproduction.
//!
//! This crate implements, from scratch, every dense numerical routine the
//! LSI pipeline of Berry, Dumais & Letsche (SC '95) depends on:
//!
//! * a column-major [`DenseMatrix`] with BLAS-1/2/3 style kernels
//!   ([`ops`], [`vecops`]), backed by a cache-blocked, register-tiled
//!   GEMM and Gram–Schmidt panel kernels ([`gemm`]),
//! * modified Gram–Schmidt orthonormalization and the Lanczos
//!   reorthogonalization passes ([`qr`]),
//! * a symmetric tridiagonal eigensolver (implicit QL with Wilkinson
//!   shifts, plus Sturm-sequence bisection) ([`tridiag`]),
//! * a dense symmetric eigensolver via Householder tridiagonalization
//!   ([`symeig`]),
//! * two independent dense SVD implementations — one-sided Jacobi with
//!   de Rijk pivoting ([`jacobi`]) and Golub–Kahan bidiagonalization with
//!   implicit-shift QR ([`bidiag`]) — used to cross-validate one another,
//! * orthogonality diagnostics used by the paper's §4.3 analysis of the
//!   folding-in process ([`ortho`]).
//!
//! The crate is deliberately self-contained: no external linear algebra
//! dependency is used anywhere in the workspace.

// Index-based loops over parallel arrays are the clearest idiom in
// numerical kernels; clippy's iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]


pub mod bidiag;
pub mod gemm;
pub mod jacobi;
pub mod lowp;
pub mod matrix;
pub mod ops;
pub mod ortho;
pub mod qr;
pub mod svd;
pub mod symeig;
pub mod tridiag;
pub mod vecops;

pub use bidiag::golub_kahan_svd;
pub use gemm::{panel_qt_w, panel_w_minus_qy};
pub use jacobi::jacobi_svd;
pub use matrix::{DenseMatrix, RowView};
pub use ortho::{orthogonality_defect_fro, orthogonality_defect_spectral};
pub use svd::{dense_svd, Svd};
pub use symeig::sym_eigen;
pub use tridiag::{tridiag_eigen, tridiag_eigen_last_row, SymTridiag};

/// Machine-precision scale used for convergence thresholds throughout the
/// crate. Routines use multiples of this rather than hard-coded constants.
pub const EPS: f64 = f64::EPSILON;

/// Convenience result alias for fallible numerical routines.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors reported by the numerical kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An iterative method did not converge within its iteration budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input contained NaN or infinite values.
    NotFinite,
    /// A parameter was out of its valid range.
    InvalidArgument {
        /// Description of the invalid parameter.
        context: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            Error::NoConvergence { routine, iterations } => {
                write!(f, "{routine} failed to converge after {iterations} iterations")
            }
            Error::NotFinite => write!(f, "input contains NaN or infinite entries"),
            Error::InvalidArgument { context } => write!(f, "invalid argument: {context}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(Error::DimensionMismatch {
            context: "3x4 with 5".into()
        }
        .to_string()
        .contains("3x4"));
        assert!(Error::NoConvergence {
            routine: "tqli",
            iterations: 30
        }
        .to_string()
        .contains("tqli"));
        assert_eq!(
            Error::NotFinite.to_string(),
            "input contains NaN or infinite entries"
        );
        assert!(Error::InvalidArgument {
            context: "k too big".into()
        }
        .to_string()
        .contains("k too big"));
    }
}
