//! The linear-operator abstraction consumed by the Lanczos SVD.
//!
//! The Lanczos driver only ever needs `A·x` and `Aᵀ·x`; abstracting them
//! behind a trait lets the same driver run on a CSC matrix, on
//! [`DualFormat`], or on matrix-free operators (the flop-counting
//! wrapper in `lsi-svd` relies on this).

use crate::csc::CscMatrix;

/// A real linear operator exposing forward and transposed products.
pub trait MatVec: Sync {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;

    /// Number of columns of the operator.
    fn ncols(&self) -> usize;

    /// `y = A·x`; `x.len() == ncols()`, `y.len() == nrows()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// `y = Aᵀ·x`; `x.len() == nrows()`, `y.len() == ncols()`.
    fn apply_t(&self, x: &[f64], y: &mut [f64]);

    /// Number of stored nonzeros, where meaningful (used by cost models).
    fn nnz(&self) -> usize {
        self.nrows() * self.ncols()
    }
}

impl MatVec for CscMatrix {
    fn nrows(&self) -> usize {
        CscMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CscMatrix::ncols(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // The CSC forward product is a scatter (racy to split), so it
        // stays serial; DualFormat gathers over the transpose instead.
        self.matvec_into(x, y);
    }

    fn apply_t(&self, x: &[f64], y: &mut [f64]) {
        self.par_matvec_t_into(x, y);
    }

    fn nnz(&self) -> usize {
        CscMatrix::nnz(self)
    }
}

/// A matrix held twice in CSC, as `A` and as `Aᵀ`, so that both
/// products run the same nnz-balanced parallel gather
/// ([`CscMatrix::par_matvec_t_into`]): `Aᵀ·x` over the columns of `A`,
/// `A·x` over the columns of `Aᵀ` (the rows of `A`). This is what the
/// LSI model builder hands to the Lanczos driver.
pub struct DualFormat {
    a: CscMatrix,
    at: CscMatrix,
}

impl DualFormat {
    /// Build both orientations from a CSC source.
    pub fn from_csc(a: CscMatrix) -> Self {
        let at = a.transpose();
        DualFormat { a, at }
    }
}

impl MatVec for DualFormat {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        lsi_obs::count("sparse.matvec.count", 1);
        lsi_obs::add_flops(2.0 * self.at.nnz() as f64);
        self.at.par_matvec_t_into(x, y);
    }

    fn apply_t(&self, x: &[f64], y: &mut [f64]) {
        lsi_obs::count("sparse.matvec_t.count", 1);
        lsi_obs::add_flops(2.0 * self.a.nnz() as f64);
        self.a.par_matvec_t_into(x, y);
    }

    fn nnz(&self) -> usize {
        self.a.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample_coo() -> CooMatrix {
        let mut coo = CooMatrix::new(3, 2);
        for (r, c, v) in [(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (2, 1, 4.0)] {
            coo.push(r, c, v).unwrap();
        }
        coo
    }

    #[test]
    fn trait_apply_matches_inherent_methods() {
        let csc = sample_coo().to_csc();
        let x = [1.0, -1.0];
        // Stale contents: the products overwrite `y`, never accumulate.
        let mut y = vec![7.0; 3];
        MatVec::apply(&csc, &x, &mut y);
        assert_eq!(y, csc.matvec(&x).unwrap());
        assert_eq!(y, vec![1.0, -2.0, -1.0]);

        let xt = [1.0, 1.0, 1.0];
        let mut z = vec![7.0; 2];
        MatVec::apply_t(&csc, &xt, &mut z);
        assert_eq!(z, csc.matvec_t(&xt).unwrap());
        assert_eq!(z, vec![4.0, 6.0]);
    }

    #[test]
    fn dual_format_agrees_with_parts() {
        let dual = DualFormat::from_csc(sample_coo().to_csc());
        assert_eq!(dual.nrows(), 3);
        assert_eq!(dual.ncols(), 2);
        assert_eq!(MatVec::nnz(&dual), 4);
        let x = [0.5, 2.0];
        let mut y = vec![0.0; 3];
        dual.apply(&x, &mut y);
        assert_eq!(y, vec![0.5, 4.0, 9.5]);
        let xt = [1.0, 0.0, 1.0];
        let mut z = vec![0.0; 2];
        dual.apply_t(&xt, &mut z);
        assert_eq!(z, vec![4.0, 4.0]);
    }

    #[test]
    fn default_nnz_is_dense_bound() {
        struct Dense;
        impl MatVec for Dense {
            fn nrows(&self) -> usize {
                3
            }
            fn ncols(&self) -> usize {
                4
            }
            fn apply(&self, _: &[f64], _: &mut [f64]) {}
            fn apply_t(&self, _: &[f64], _: &mut [f64]) {}
        }
        assert_eq!(Dense.nnz(), 12);
    }
}
