//! The dense reference algebra the APEx tests compare against.
//!
//! Nothing served is dense: workloads and strategies are CSR
//! ([`apex_linalg::CsrMatrix`]) and the strategy mechanism applies `A⁺`
//! matrix-free ([`apex_linalg::StrategyOperator`]). This dev-only crate
//! keeps the slow, obviously right versions for the tests to check those
//! paths against:
//!
//! * a dense row-major [`Matrix`], converted losslessly to and from CSR
//!   by [`Matrix::from_csr`] and [`Matrix::to_csr`],
//! * Householder QR with back substitution, and on top of it [`pinv`], the
//!   Moore–Penrose pseudoinverse of a full-rank matrix,
//! * the dense [`l1_operator_norm`] and [`frobenius_norm`].
//!
//! Inputs only a broken test can produce (an empty or rank-deficient
//! matrix, or a wide one handed to QR) give `None`; there is no error type
//! of its own. Shape mismatches in products are `apex_linalg`'s
//! `ShapeMismatch`, as in the sparse code.

#[cfg(test)]
mod hier_solve;
mod matrix;
mod norms;
mod pinv;
mod qr;
mod solve;
mod sparse;

pub use matrix::Matrix;
pub use norms::{frobenius_norm, l1_operator_norm};
pub use pinv::pinv;
