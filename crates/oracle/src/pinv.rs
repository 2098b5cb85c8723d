//! Moore–Penrose pseudoinverse for full-rank matrices.
//!
//! Section 5.2 of the paper reconstructs workload answers from strategy
//! answers as `(W A⁺) ŷ`, where `A⁺` is the Moore–Penrose pseudoinverse of
//! the strategy matrix `A`. Every strategy APEx ships (identity,
//! hierarchical, prefix) has full *row* rank when expressed as an
//! `l × |dom|` matrix, and full *column* rank after transposition, so the
//! closed forms below cover all of them:
//!
//! * full column rank (`m ≥ n`): `A⁺ = (AᵀA)⁻¹Aᵀ`, computed stably as
//!   `R⁻¹Qᵀ` from a thin QR of `A`;
//! * full row rank (`m < n`): `A⁺ = Aᵀ(AAᵀ)⁻¹ = (Aᵀ)⁺ᵀ`, reduced to the
//!   first case by transposition.

use crate::qr::qr_decompose;
use crate::solve::solve_upper_triangular;
use crate::Matrix;

/// Computes the Moore–Penrose pseudoinverse of a full-rank matrix.
///
/// For an `m × n` input the result is `n × m` and satisfies the
/// Moore–Penrose identities `A A⁺ A = A` and `A⁺ A A⁺ = A⁺` (verified by
/// property tests in `tests/`). Returns `None` for an empty matrix or one
/// without full rank (neither full column nor full row rank): every APEx
/// strategy is built full rank, so that is a malformed test input.
pub fn pinv(a: &Matrix) -> Option<Matrix> {
    let (m, n) = a.shape();
    if m >= n {
        pinv_full_column_rank(a)
    } else {
        // Full row rank: A⁺ = (Aᵀ⁺)ᵀ where Aᵀ is tall.
        Some(pinv_full_column_rank(&a.transpose())?.transpose())
    }
}

/// `A⁺ = R⁻¹ Qᵀ` for a tall full-column-rank `A = QR`.
fn pinv_full_column_rank(a: &Matrix) -> Option<Matrix> {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    let qr = qr_decompose(a)?;
    let qt = qr.q.transpose(); // n × m
    let mut out = Matrix::zeros(n, m);
    for j in 0..m {
        let col = qt.col(j);
        let x = solve_upper_triangular(&qr.r, &col)?;
        for i in 0..n {
            out[(i, j)] = x[i];
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_mp_identities(a: &Matrix, ap: &Matrix, tol: f64) {
        let aapa = a.matmul(ap).unwrap().matmul(a).unwrap();
        assert!(aapa.approx_eq(a, tol), "A A+ A != A");
        let apaap = ap.matmul(a).unwrap().matmul(ap).unwrap();
        assert!(apaap.approx_eq(ap, tol), "A+ A A+ != A+");
        // Symmetry of the projectors.
        let p = a.matmul(ap).unwrap();
        assert!(p.approx_eq(&p.transpose(), tol), "A A+ not symmetric");
        let q = ap.matmul(a).unwrap();
        assert!(q.approx_eq(&q.transpose(), tol), "A+ A not symmetric");
    }

    #[test]
    fn pinv_of_identity_is_identity() {
        let i = Matrix::identity(5);
        assert!(pinv(&i).unwrap().approx_eq(&i, 1e-12));
    }

    #[test]
    fn pinv_of_square_invertible_is_inverse() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let ap = pinv(&a).unwrap();
        assert!(a
            .matmul(&ap)
            .unwrap()
            .approx_eq(&Matrix::identity(2), 1e-10));
        check_mp_identities(&a, &ap, 1e-10);
    }

    #[test]
    fn pinv_tall_full_column_rank() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let ap = pinv(&a).unwrap();
        assert_eq!(ap.shape(), (2, 3));
        check_mp_identities(&a, &ap, 1e-10);
        // A+ A = I for full column rank.
        assert!(ap
            .matmul(&a)
            .unwrap()
            .approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn pinv_wide_full_row_rank() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]);
        let ap = pinv(&a).unwrap();
        assert_eq!(ap.shape(), (3, 2));
        check_mp_identities(&a, &ap, 1e-10);
        // A A+ = I for full row rank.
        assert!(a
            .matmul(&ap)
            .unwrap()
            .approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn pinv_hierarchical_strategy_reconstructs_workload() {
        // A tiny H2 strategy over 4 cells: root, two internal, four leaves.
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
        ]);
        // Prefix workload over the same 4 cells.
        let w = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ]);
        let ap = pinv(&a).unwrap();
        // W A⁺ A = W — the reconstruction condition Algorithm 3 needs
        // (the paper writes it loosely as "WAA⁺ = W" in Section 5.2).
        let wapa = w.matmul(&ap).unwrap().matmul(&a).unwrap();
        assert!(wapa.approx_eq(&w, 1e-10));
    }

    #[test]
    fn pinv_rejects_empty() {
        assert!(pinv(&Matrix::zeros(0, 3)).is_none());
    }

    #[test]
    fn pinv_rejects_rank_deficient() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        assert!(pinv(&a).is_none());
    }
}
