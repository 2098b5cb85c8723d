//! The dense norms that the CSR and operator norms are checked against.
//!
//! The central quantity is the **L1 operator norm** `‖W‖₁` — the maximum
//! absolute column sum. For a 0/1 workload matrix over disjoint domain
//! partitions this equals the *sensitivity* of the query set: the largest
//! change in the workload answer caused by adding or removing a single
//! tuple (Section 5.1 of the paper).

use crate::Matrix;

/// The L1 operator norm `‖M‖₁`: the maximum over columns of the column's
/// absolute sum. For workload matrices this is the query-set sensitivity.
///
/// Returns `0.0` for an empty matrix.
pub fn l1_operator_norm(m: &Matrix) -> f64 {
    let (rows, cols) = m.shape();
    let mut best = 0.0_f64;
    for j in 0..cols {
        let mut s = 0.0;
        for i in 0..rows {
            s += m[(i, j)].abs();
        }
        best = best.max(s);
    }
    best
}

/// The Frobenius norm `‖M‖_F = sqrt(Σ m_ij²)`, used in the closed-form upper
/// bound on the strategy mechanism's privacy cost (Theorem A.1).
pub fn frobenius_norm(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_norm_of_identity_is_one() {
        assert_eq!(l1_operator_norm(&Matrix::identity(7)), 1.0);
    }

    #[test]
    fn l1_norm_of_prefix_workload_is_workload_size() {
        // Prefix (CDF) workload over 4 cells: row i sums cells 0..=i. The
        // first column appears in every row, so sensitivity = L = 4.
        let w = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ]);
        assert_eq!(l1_operator_norm(&w), 4.0);
    }

    #[test]
    fn l1_norm_uses_absolute_values() {
        let m = Matrix::from_rows(&[vec![-1.0, 2.0], vec![-3.0, 0.5]]);
        assert_eq!(l1_operator_norm(&m), 4.0);
    }

    #[test]
    fn l1_norm_of_empty_is_zero() {
        assert_eq!(l1_operator_norm(&Matrix::zeros(0, 0)), 0.0);
    }

    #[test]
    fn frobenius_matches_hand_computation() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((frobenius_norm(&m) - 5.0).abs() < 1e-12);
    }
}
