//! Normalisation utilities.
//!
//! The tensor join exploits the identity `cos(a, b) = â · b̂` (cosine equals
//! dot product of normalised inputs, paper Section IV-C).  Normalising each
//! input relation once — `O(|R| + |S|)` work — turns every pair-wise cosine
//! into a plain dot product, which is what lets the join be expressed as a
//! dense matrix multiplication.

use crate::kernels::Kernel;
use crate::matrix::Matrix;

/// L2 norm of a slice using the default vectorised kernel.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    Kernel::Unrolled.l2_norm(a)
}

/// Normalises a slice in place; zero vectors are left untouched.
#[inline]
pub fn normalize(a: &mut [f32]) {
    normalize_with(a, Kernel::Unrolled);
}

/// Normalises a slice in place using an explicit kernel.
#[inline]
pub fn normalize_with(a: &mut [f32], kernel: Kernel) {
    let n = kernel.l2_norm(a);
    if n > 0.0 {
        let inv = 1.0 / n;
        for v in a.iter_mut() {
            *v *= inv;
        }
    }
}

/// Normalises every row of a matrix in place and returns the original row
/// norms (useful when the caller needs to undo the normalisation or report
/// magnitudes).
pub fn normalize_matrix_rows(m: &mut Matrix) -> Vec<f32> {
    normalize_matrix_rows_with(m, Kernel::Unrolled)
}

/// [`normalize_matrix_rows`] with an explicit kernel.
pub fn normalize_matrix_rows_with(m: &mut Matrix, kernel: Kernel) -> Vec<f32> {
    let rows = m.rows();
    let cols = m.cols();
    let data = m.as_mut_slice();
    let mut norms = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let n = kernel.l2_norm(row);
        norms.push(n);
        if n > 0.0 {
            let inv = 1.0 / n;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
    norms
}

/// Returns `true` when every row of the matrix has (approximately) unit norm
/// or is the zero vector.  Used by debug assertions in the tensor join.
pub fn rows_are_normalized(m: &Matrix, tolerance: f32) -> bool {
    (0..m.rows()).all(|r| {
        let n = l2_norm(m.row(r).expect("row in range"));
        n == 0.0 || (n - 1.0).abs() <= tolerance
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    #[test]
    fn normalize_slice() {
        let mut a = [3.0, 4.0];
        normalize(&mut a);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_slice_is_noop() {
        let mut a = [0.0, 0.0, 0.0];
        normalize(&mut a);
        assert_eq!(a, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn normalize_with_scalar_kernel_matches_unrolled() {
        let mut a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut b = a;
        normalize_with(&mut a, Kernel::Scalar);
        normalize_with(&mut b, Kernel::Unrolled);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn normalize_matrix_rows_returns_norms() {
        let mut m = Matrix::from_rows(&[
            Vector::new(vec![3.0, 4.0]),
            Vector::new(vec![0.0, 0.0]),
            Vector::new(vec![1.0, 0.0]),
        ])
        .unwrap();
        let norms = normalize_matrix_rows(&mut m);
        assert!((norms[0] - 5.0).abs() < 1e-6);
        assert_eq!(norms[1], 0.0);
        assert!((norms[2] - 1.0).abs() < 1e-6);
        assert!(rows_are_normalized(&m, 1e-5));
    }

    #[test]
    fn rows_are_normalized_detects_unnormalized() {
        let m = Matrix::from_rows(&[Vector::new(vec![2.0, 0.0])]).unwrap();
        assert!(!rows_are_normalized(&m, 1e-5));
    }

    #[test]
    fn normalized_dot_equals_cosine() {
        let a = Vector::new(vec![0.2, 0.7, -0.3, 1.2]);
        let b = Vector::new(vec![0.9, -0.1, 0.5, 0.4]);
        let cos = a.cosine_similarity(&b).unwrap();
        let dot_norm = a.normalized().dot(&b.normalized()).unwrap();
        assert!((cos - dot_norm).abs() < 1e-5);
    }
}
