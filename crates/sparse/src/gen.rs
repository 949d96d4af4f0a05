//! Random sparse matrix generators.
//!
//! The TREC-scale experiment (§5.3 of the paper) needs term-document
//! matrices of controlled shape and density ("70,000 documents and
//! 90,000 terms ... only .001–.002 % non-zero entries"). These
//! generators produce such matrices with either uniform or Zipf-like
//! row (term) popularity — real vocabularies are Zipfian, which affects
//! Lanczos convergence, so both profiles are available.

use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;

/// Shape of the row-popularity profile used by [`random_term_doc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowProfile {
    /// Every row equally likely.
    Uniform,
    /// Row `i` drawn with probability proportional to `1 / (i + 1)^s`.
    Zipf {
        /// Zipf exponent (1.0 is classic).
        s: f64,
    },
}

/// Generate a random `nrows x ncols` sparse matrix with approximately
/// `density * nrows * ncols` nonzeros, values uniform in `(0, max_count]`
/// rounded up to integers (term frequencies are counts).
///
/// Duplicate positions are merged by summation, so the exact nnz can be
/// slightly below the target at high densities.
pub fn random_term_doc(
    nrows: usize,
    ncols: usize,
    density: f64,
    profile: RowProfile,
    max_count: u32,
    seed: u64,
) -> CscMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    assert!(max_count >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let target = ((nrows as f64) * (ncols as f64) * density).round() as usize;
    let mut coo = CooMatrix::with_capacity(nrows, ncols, target);

    // Precompute the Zipf CDF once if needed.
    let cdf: Option<Vec<f64>> = match profile {
        RowProfile::Uniform => None,
        RowProfile::Zipf { s } => {
            let mut c = Vec::with_capacity(nrows);
            let mut acc = 0.0;
            for i in 0..nrows {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                c.push(acc);
            }
            for v in &mut c {
                *v /= acc;
            }
            Some(c)
        }
    };

    let col_dist = Uniform::new(0, ncols.max(1)).expect("valid range");
    for _ in 0..target {
        let r = match &cdf {
            None => rng.random_range(0..nrows.max(1)),
            Some(c) => {
                let u: f64 = rng.random();
                c.partition_point(|&x| x < u).min(nrows - 1)
            }
        };
        let c = col_dist.sample(&mut rng);
        let v = rng.random_range(1..=max_count) as f64;
        coo.push(r, c, v).expect("indices in range by construction");
    }
    coo.to_csc()
}

/// A random matrix whose singular spectrum is known by construction:
/// `A = sum_i sigma_i u_i v_i^T` with orthonormal random `u`, `v` —
/// returned dense-ish as CSC. Used to test Lanczos accuracy against a
/// planted spectrum.
pub fn planted_spectrum(
    nrows: usize,
    ncols: usize,
    sigmas: &[f64],
    seed: u64,
) -> (CscMatrix, Vec<f64>) {
    let k = sigmas.len().min(nrows.min(ncols));
    let mut rng = StdRng::seed_from_u64(seed);
    // Random Gaussian-ish matrices, orthonormalized by MGS.
    let mut u = lsi_linalg::DenseMatrix::zeros(nrows, k);
    let mut v = lsi_linalg::DenseMatrix::zeros(ncols, k);
    for j in 0..k {
        for i in 0..nrows {
            u.set(i, j, rng.random::<f64>() - 0.5);
        }
        for i in 0..ncols {
            v.set(i, j, rng.random::<f64>() - 0.5);
        }
    }
    lsi_linalg::qr::mgs_orthonormalize(&mut u);
    lsi_linalg::qr::mgs_orthonormalize(&mut v);

    let mut coo = CooMatrix::with_capacity(nrows, ncols, nrows * ncols);
    for c in 0..ncols {
        for r in 0..nrows {
            let mut val = 0.0;
            for (j, &s) in sigmas.iter().take(k).enumerate() {
                val += s * u.get(r, j) * v.get(c, j);
            }
            if val != 0.0 {
                coo.push(r, c, val).expect("in range");
            }
        }
    }
    let mut sorted = sigmas[..k].to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite sigma"));
    (coo.to_csc(), sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_approximately_honored() {
        let m = random_term_doc(200, 100, 0.01, RowProfile::Uniform, 3, 42);
        let target = (200.0 * 100.0 * 0.01) as usize;
        // Duplicates merge, so nnz <= target; should be within 15 %.
        assert!(m.nnz() <= target);
        assert!(m.nnz() as f64 > target as f64 * 0.85, "nnz {} target {target}", m.nnz());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = random_term_doc(50, 40, 0.05, RowProfile::Zipf { s: 1.0 }, 5, 7);
        let b = random_term_doc(50, 40, 0.05, RowProfile::Zipf { s: 1.0 }, 5, 7);
        assert_eq!(a, b);
        let c = random_term_doc(50, 40, 0.05, RowProfile::Zipf { s: 1.0 }, 5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_profile_concentrates_mass_on_early_rows() {
        let m = random_term_doc(1000, 50, 0.02, RowProfile::Zipf { s: 1.2 }, 1, 3);
        // A column of the transpose is a row of the matrix.
        let rows = m.transpose();
        let head: usize = (0..100).map(|r| rows.col(r).0.len()).sum();
        let tail: usize = (900..1000).map(|r| rows.col(r).0.len()).sum();
        assert!(
            head > tail * 3,
            "head rows should dominate: head {head} tail {tail}"
        );
    }

    #[test]
    fn values_are_positive_integer_counts() {
        let m = random_term_doc(30, 30, 0.1, RowProfile::Uniform, 4, 1);
        for (_, _, v) in m.iter() {
            assert!((1.0..=8.0).contains(&v) && v.fract() == 0.0, "value {v}");
        }
    }

    #[test]
    fn planted_spectrum_has_declared_singular_values() {
        let sigmas = [5.0, 3.0, 1.0];
        let (m, sorted) = planted_spectrum(20, 15, &sigmas, 11);
        assert_eq!(sorted, vec![5.0, 3.0, 1.0]);
        // Verify via dense SVD.
        let dense = m.to_dense();
        let svd = lsi_linalg::dense_svd(&dense).unwrap();
        for (got, want) in svd.s.iter().take(3).zip(sorted.iter()) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
        assert!(svd.s[3] < 1e-8);
    }

    #[test]
    fn zero_density_gives_empty_matrix() {
        let m = random_term_doc(10, 10, 0.0, RowProfile::Uniform, 1, 0);
        assert_eq!(m.nnz(), 0);
    }
}
