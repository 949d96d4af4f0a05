//! Property-based tests for the dense kernels: the two SVDs agree,
//! factorizations reconstruct their inputs, and eigen/SVD invariants hold
//! on arbitrary matrices.

use lsi_linalg::gemm::reference;
use lsi_linalg::ops::{matmul, matmul_nt, matmul_tn, reconstruct};
use lsi_linalg::qr::orthogonalize_against;
use lsi_linalg::{golub_kahan_svd, jacobi_svd, sym_eigen, vecops, DenseMatrix};
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-10, 10] and modest dimensions.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        prop::collection::vec(-10.0f64..10.0, m * n)
            .prop_map(move |data| DenseMatrix::from_col_major(m, n, data).unwrap())
    })
}

fn identity_distance(q: &DenseMatrix) -> f64 {
    let g = matmul_tn(q, q).unwrap();
    g.fro_distance(&DenseMatrix::identity(q.ncols())).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn jacobi_svd_reconstructs(a in matrix_strategy(8)) {
        let svd = jacobi_svd(&a).unwrap();
        let rec = reconstruct(&svd.u, &svd.s, &svd.v).unwrap();
        let scale = a.fro_norm().max(1.0);
        prop_assert!(rec.fro_distance(&a).unwrap() <= 1e-9 * scale);
        prop_assert!(identity_distance(&svd.u) < 1e-9);
        prop_assert!(identity_distance(&svd.v) < 1e-9);
    }

    #[test]
    fn the_two_svds_agree_on_singular_values(a in matrix_strategy(7)) {
        let j = jacobi_svd(&a).unwrap();
        let g = golub_kahan_svd(&a).unwrap();
        prop_assert_eq!(j.s.len(), g.s.len());
        let scale = a.fro_norm().max(1.0);
        for (x, y) in j.s.iter().zip(g.s.iter()) {
            prop_assert!((x - y).abs() < 1e-8 * scale, "jacobi {} vs gk {}", x, y);
        }
    }

    #[test]
    fn singular_values_sorted_and_nonnegative(a in matrix_strategy(8)) {
        let svd = jacobi_svd(&a).unwrap();
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn frobenius_norm_equals_singular_value_norm(a in matrix_strategy(8)) {
        // Theorem 2.1(3) of the paper: ||A||_F^2 = sum sigma_i^2.
        let svd = jacobi_svd(&a).unwrap();
        let s_norm = svd.s.iter().map(|x| x * x).sum::<f64>().sqrt();
        let scale = a.fro_norm().max(1.0);
        prop_assert!((s_norm - a.fro_norm()).abs() < 1e-9 * scale);
    }

    #[test]
    fn eckart_young_truncation_error(a in matrix_strategy(7)) {
        // Theorem 2.2: ||A - A_k||_F^2 = sum_{i>k} sigma_i^2.
        let svd = jacobi_svd(&a).unwrap();
        let k = svd.s.len() / 2;
        let t = svd.truncate(k);
        let ak = t.reconstruct().unwrap();
        let err = ak.fro_distance(&a).unwrap();
        let expect = svd.truncation_error_fro(k);
        let scale = a.fro_norm().max(1.0);
        prop_assert!((err - expect).abs() < 1e-8 * scale, "{} vs {}", err, expect);
    }

    #[test]
    fn sym_eigen_matches_svd_on_gram_matrix(a in matrix_strategy(6)) {
        let gram = matmul_tn(&a, &a).unwrap();
        let (vals, _) = sym_eigen(&gram).unwrap();
        let svd = jacobi_svd(&a).unwrap();
        let scale = gram.fro_norm().max(1.0);
        for (lam, sig) in vals.iter().zip(svd.s.iter()) {
            prop_assert!((lam - sig * sig).abs() < 1e-8 * scale, "{} vs {}", lam, sig * sig);
        }
    }

    #[test]
    fn spectral_norm_is_largest_singular_value(a in matrix_strategy(6)) {
        // Theorem 2.1(3): ||A||_2 = sigma_1. Check via the Gram matrix's
        // largest eigenvalue.
        let svd = jacobi_svd(&a).unwrap();
        let gram = matmul_tn(&a, &a).unwrap();
        let (vals, _) = sym_eigen(&gram).unwrap();
        let scale = a.fro_norm().max(1.0);
        prop_assert!((vals[0].max(0.0).sqrt() - svd.s[0]).abs() < 1e-8 * scale);
    }

    #[test]
    fn matmul_associativity(
        a in matrix_strategy(5),
        bdata in prop::collection::vec(-5.0f64..5.0, 25),
        cdata in prop::collection::vec(-5.0f64..5.0, 25)
    ) {
        let n = a.ncols();
        let b = DenseMatrix::from_col_major(n, 5, bdata[..n * 5].to_vec()).unwrap();
        let c = DenseMatrix::from_col_major(5, 5, cdata.clone()).unwrap();
        let ab_c = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let a_bc = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        let scale = ab_c.fro_norm().max(1.0);
        prop_assert!(ab_c.fro_distance(&a_bc).unwrap() < 1e-9 * scale);
    }
}

/// Strategy: an (m×k, k×n) pair with arbitrary shapes, including inner
/// dimensions of 0 and 1 and sizes that are not multiples of the GEMM
/// register-tile (8×4) or cache-block sizes.
fn gemm_pair_strategy() -> impl Strategy<Value = (DenseMatrix, DenseMatrix)> {
    (1..=33usize, 0..=19usize, 1..=21usize).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-10.0f64..10.0, m * k),
            prop::collection::vec(-10.0f64..10.0, k * n),
        )
            .prop_map(move |(adata, bdata)| {
                (
                    DenseMatrix::from_col_major(m, k, adata).unwrap(),
                    DenseMatrix::from_col_major(k, n, bdata).unwrap(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_matches_naive_oracle(ab in gemm_pair_strategy()) {
        let (a, b) = ab;
        let blocked = matmul(&a, &b).unwrap();
        let naive = reference::matmul(&a, &b);
        let scale = a.fro_norm().max(1.0) * b.fro_norm().max(1.0);
        prop_assert!(blocked.fro_distance(&naive).unwrap() <= 1e-12 * scale);
    }

    #[test]
    fn blocked_gemm_tn_matches_naive_oracle(ab in gemm_pair_strategy()) {
        let (a, b) = ab;
        // A^T B with A stored k×m: reuse the pair as (Aᵀ stored, B).
        let at = a.transpose();
        let blocked = matmul_tn(&at, &b).unwrap();
        let naive = reference::matmul_tn(&at, &b);
        let scale = a.fro_norm().max(1.0) * b.fro_norm().max(1.0);
        prop_assert!(blocked.fro_distance(&naive).unwrap() <= 1e-12 * scale);
    }

    #[test]
    fn blocked_gemm_nt_matches_naive_oracle(ab in gemm_pair_strategy()) {
        let (a, b) = ab;
        let bt = b.transpose();
        let blocked = matmul_nt(&a, &bt).unwrap();
        let naive = reference::matmul_nt(&a, &bt);
        let scale = a.fro_norm().max(1.0) * b.fro_norm().max(1.0);
        prop_assert!(blocked.fro_distance(&naive).unwrap() <= 1e-12 * scale);
    }
}

/// Grow a basis for 200 steps with the panel CGS2 reorthogonalization
/// and check it stays numerically orthonormal throughout — the
/// "twice is enough" property the Lanczos driver depends on.
#[test]
fn cgs2_keeps_200_step_basis_orthonormal() {
    let dim = 240;
    let steps = 200;
    // Deterministic, seedless pseudo-random input vectors (xorshift).
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut basis = DenseMatrix::zeros(dim, steps);
    for j in 0..steps {
        let mut w: Vec<f64> = (0..dim).map(|_| next()).collect();
        let norm = orthogonalize_against(&basis, j, &mut w);
        assert!(norm > 0.0, "random vector degenerate at step {j}");
        vecops::scal(1.0 / norm, &mut w);
        basis.col_mut(j).copy_from_slice(&w);
    }
    let gram = matmul_tn(&basis, &basis).unwrap();
    let mut max_dev = 0.0f64;
    for i in 0..steps {
        for j in 0..steps {
            let want = if i == j { 1.0 } else { 0.0 };
            max_dev = max_dev.max((gram.get(i, j) - want).abs());
        }
    }
    assert!(
        max_dev <= 1e-10,
        "max |QᵀQ − I| = {max_dev:.3e} after {steps} CGS2 steps"
    );
}
