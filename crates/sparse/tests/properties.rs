//! Property-based tests for the sparse format: CSC/transpose/dense
//! agreement, transpose involution, and matvec linearity on arbitrary
//! matrices.

use lsi_sparse::{CooMatrix, MatVec};
use proptest::prelude::*;

/// Strategy: shape plus a set of triplets within that shape.
fn coo_strategy() -> impl Strategy<Value = CooMatrix> {
    (1usize..12, 1usize..12)
        .prop_flat_map(|(m, n)| {
            let triplet = (0..m, 0..n, -5.0f64..5.0);
            (
                Just(m),
                Just(n),
                prop::collection::vec(triplet, 0..40),
            )
        })
        .prop_map(|(m, n, trips)| {
            let mut coo = CooMatrix::new(m, n);
            for (r, c, v) in trips {
                coo.push(r, c, v).unwrap();
            }
            coo
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csc_transpose_dense_all_agree(coo in coo_strategy()) {
        let csc = coo.to_csc();
        let t = csc.transpose();
        let mut dense = lsi_linalg::DenseMatrix::zeros(coo.nrows(), coo.ncols());
        for (r, c, v) in coo.triplets() {
            dense.set(r, c, dense.get(r, c) + v);
        }
        prop_assert!(csc.to_dense().fro_distance(&dense).unwrap() < 1e-12);
        prop_assert!(t.to_dense().fro_distance(&dense.transpose()).unwrap() < 1e-12);
        prop_assert_eq!(t.nnz(), csc.nnz());
    }

    #[test]
    fn transpose_is_involution(coo in coo_strategy()) {
        let csc = coo.to_csc();
        prop_assert_eq!(csc.transpose().transpose(), csc);
    }

    #[test]
    fn matvec_matches_dense(coo in coo_strategy(), xseed in 0u64..1000) {
        let csc = coo.to_csc();
        let x: Vec<f64> = (0..csc.ncols())
            .map(|i| ((xseed as usize + i * 37) % 13) as f64 - 6.0)
            .collect();
        let sparse_y = csc.matvec(&x).unwrap();
        let gather_y = csc.transpose().matvec_t(&x).unwrap();
        let dense_y = lsi_linalg::ops::matvec(&csc.to_dense(), &x).unwrap();
        for ((a, g), b) in sparse_y.iter().zip(&gather_y).zip(dense_y.iter()) {
            prop_assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
            prop_assert!((g - b).abs() < 1e-10, "{} vs {}", g, b);
        }
    }

    #[test]
    fn matvec_t_matches_dense(coo in coo_strategy(), xseed in 0u64..1000) {
        let csc = coo.to_csc();
        let x: Vec<f64> = (0..csc.nrows())
            .map(|i| ((xseed as usize + i * 17) % 11) as f64 - 5.0)
            .collect();
        let sparse_y = csc.matvec_t(&x).unwrap();
        let dense_y = lsi_linalg::ops::matvec_t(&csc.to_dense(), &x).unwrap();
        for (a, b) in sparse_y.iter().zip(dense_y.iter()) {
            prop_assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
        }
    }

    #[test]
    fn matvec_is_linear(coo in coo_strategy()) {
        let csc = coo.to_csc();
        let n = csc.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let combined: Vec<f64> = x.iter().zip(y.iter()).map(|(a, b)| 2.0 * a - 3.0 * b).collect();
        let lhs = csc.matvec(&combined).unwrap();
        let ax = csc.matvec(&x).unwrap();
        let ay = csc.matvec(&y).unwrap();
        for i in 0..lhs.len() {
            let rhs = 2.0 * ax[i] - 3.0 * ay[i];
            prop_assert!((lhs[i] - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_kernels_match_serial(coo in coo_strategy()) {
        let csc = coo.to_csc();
        let t = csc.transpose();
        let x: Vec<f64> = (0..csc.ncols()).map(|i| i as f64 + 1.0).collect();
        prop_assert_eq!(csc.matvec(&x).unwrap(), t.par_matvec_t(&x).unwrap());
        let xt: Vec<f64> = (0..csc.nrows()).map(|i| i as f64 - 2.0).collect();
        prop_assert_eq!(csc.matvec_t(&xt).unwrap(), csc.par_matvec_t(&xt).unwrap());
    }

    #[test]
    fn trait_object_consistency(coo in coo_strategy()) {
        // MatVec::apply through the trait equals the inherent method.
        let csc = coo.to_csc();
        let x: Vec<f64> = (0..csc.ncols()).map(|i| (i % 3) as f64).collect();
        let mut y = vec![0.0; csc.nrows()];
        MatVec::apply(&csc, &x, &mut y);
        prop_assert_eq!(y, csc.matvec(&x).unwrap());
    }
}
