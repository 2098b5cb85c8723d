//! Lossless conversion between the dense [`Matrix`] and [`CsrMatrix`].
//!
//! `Matrix → CsrMatrix → Matrix` reproduces every nonzero value bit for
//! bit; exact zeros are dropped and restored as `+0.0` (so a stored `-0.0`
//! normalizes — the one value the round trip does not preserve at the bit
//! level).

use apex_linalg::{CsrBuilder, CsrMatrix};

use crate::Matrix;

impl Matrix {
    /// The dense equivalent of a CSR matrix.
    pub fn from_csr(s: &CsrMatrix) -> Self {
        let mut m = Matrix::zeros(s.rows(), s.cols());
        for i in 0..s.rows() {
            let (cols, vals) = s.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// The CSR equivalent, dropping exact zeros.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut b = CsrBuilder::new(self.cols());
        for i in 0..self.rows() {
            b.push_row(self.row(i).iter().copied().enumerate());
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frobenius_norm, l1_operator_norm};

    fn example_dense() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, -3.0, 0.0, 0.5],
        ])
    }

    #[test]
    fn round_trip_is_lossless() {
        let d = example_dense();
        let s = d.to_csr();
        assert_eq!(s.nnz(), 4);
        assert_eq!(Matrix::from_csr(&s), d);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = example_dense();
        let s = d.to_csr();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(s.matvec(&x).unwrap(), d.matvec(&x).unwrap());
        assert!(s.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_matches_dense() {
        let d = example_dense();
        let s = d.to_csr();
        assert_eq!(Matrix::from_csr(&s.transpose()), d.transpose());
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn l1_and_frobenius_match_dense() {
        let d = example_dense();
        let s = d.to_csr();
        assert_eq!(s.l1_operator_norm(), l1_operator_norm(&d));
        assert!((s.frobenius_norm() - frobenius_norm(&d)).abs() < 1e-15);
    }
}
