//! BLAS-1 style vector kernels.
//!
//! These are the innermost loops of the Lanczos iteration and the query
//! scorer; they are written over plain slices so both dense and sparse
//! callers can use them without adapters.

/// Dot product `x · y`.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // Accumulate in four lanes to let LLVM vectorize without relying on
    // float re-association being legal.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = 4 * c;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut tail = 0.0;
    for i in 4 * chunks..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Euclidean norm `||x||_2`, guarded against overflow by scaling.
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
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

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalize `x` to unit 2-norm in place and return the original norm.
///
/// If `x` is (numerically) zero the vector is left unchanged and `0.0`
/// is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = nrm2(x);
    if n > 0.0 {
        scal(1.0 / n, x);
    }
    n
}

/// Cosine of the angle between `x` and `y`; `0.0` if either is zero.
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    let nx = nrm2(x);
    let ny = nrm2(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    dot(x, y) / (nx * ny)
}

/// Elementwise copy (`y = x`).
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `||x - y||_2`.
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Index and value of the entry with the largest absolute value.
///
/// Returns `None` for an empty slice. Magnitudes compare under
/// `f64::total_cmp`, which orders finite values as `<` does and ranks a
/// NaN above every number, so a NaN entry is returned rather than
/// panicking.
pub fn argmax_abs(x: &[f64]) -> Option<(usize, f64)> {
    x.iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .map(|(i, &v)| (i, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_known_vectors() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&x, &y), 35.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn nrm2_pythagorean() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn nrm2_handles_large_values_without_overflow() {
        let big = 1e300;
        let n = nrm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn normalize_returns_norm_and_unit_vector() {
        let mut x = [0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((nrm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = [0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-15);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-15);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn argmax_abs_finds_largest_magnitude() {
        assert_eq!(argmax_abs(&[1.0, -5.0, 3.0]), Some((1, -5.0)));
        assert_eq!(argmax_abs(&[]), None);
    }

    #[test]
    fn argmax_abs_returns_on_nan() {
        let (i, v) = argmax_abs(&[1.0, f64::NAN, -5.0]).unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());
    }

    #[test]
    fn distance_matches_norm_of_difference() {
        assert!((distance(&[1.0, 1.0], &[4.0, 5.0]) - 5.0).abs() < 1e-15);
    }
}
