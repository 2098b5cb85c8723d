//! Back substitution, the triangular solve behind the QR pseudoinverse.

use crate::Matrix;

/// Solves `R x = b` for upper-triangular `R` by back substitution, or
/// `None` if a diagonal entry is exactly zero.
///
/// # Panics
/// Panics if `R` is not square or `b` has the wrong length.
pub fn solve_upper_triangular(r: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = r.cols();
    assert!(
        r.rows() == n && b.len() == n,
        "solve_upper_triangular: R is {:?}, b has {} entries",
        r.shape(),
        b.len()
    );
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        if d == 0.0 {
            return None;
        }
        x[i] = s / d;
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_substitution_known_system() {
        let r = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 3.0]]);
        let x = solve_upper_triangular(&r, &[5.0, 6.0]).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn back_substitution_rejects_singular() {
        let r = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 0.0]]);
        assert!(solve_upper_triangular(&r, &[1.0, 1.0]).is_none());
    }
}
