//! Dense + sparse linear algebra substrate for the APEx reproduction.
//!
//! APEx represents counting-query workloads as matrices (`W`), answers them
//! through *strategy* matrices (`A`), and reconstructs workload answers via
//! the Moore–Penrose pseudoinverse (`W A⁺`, Section 5.2 of the paper). None
//! of the allowed offline crates provide linear algebra, so this crate
//! implements the small, numerically careful subset APEx needs:
//!
//! * a dense row-major [`Matrix`] with the usual arithmetic,
//! * a compressed-sparse-row [`CsrMatrix`] for the 0/1 incidence structures
//!   (workloads, hierarchical strategies) whose products should scale with
//!   *nonzeros*, not *cells* — see the [`sparse`] module docs for when each
//!   representation wins,
//! * the [`StrategyOperator`] abstraction — matrix-free `apply` /
//!   `apply_transpose` / `solve_normal` actions of a strategy matrix —
//!   with the `O(n)`-per-solve [`HierarchicalOperator`] (recursive
//!   Sherman–Morrison over the `H_b` interval tree, see [`hier_solve`]),
//!   the trivial [`IdentityOperator`], and the dense [`DenseOperator`]
//!   reference that wraps [`pinv`],
//! * Householder [`qr_decompose`] decomposition,
//! * least-squares solving and matrix inversion built on QR,
//! * [`pinv`] — the Moore–Penrose pseudoinverse for full-rank matrices,
//! * the norms used by the paper: the **L1 operator norm** (`‖·‖₁`, maximum
//!   column absolute sum — the *sensitivity* of a workload), the Frobenius
//!   norm, and the `ℓ∞` vector norm.
//!
//! Everything is `f64`. Dense stays the right choice for anything derived
//! from a pseudoinverse (those matrices are numerically dense); sparse wins
//! for the incidence structures, whose density drops as `O(log n / n)` for
//! hierarchical strategies.

pub mod hier_solve;
mod matrix;
mod norms;
pub mod operator;
pub mod par;
mod pinv;
mod qr;
mod solve;
pub mod sparse;

pub use hier_solve::HierarchicalOperator;
pub use matrix::Matrix;
pub use norms::{frobenius_norm, l1_operator_norm, linf_norm};
pub use operator::{DenseOperator, IdentityOperator, OpScratch, SharedOperator, StrategyOperator};
pub use par::max_threads;
pub use pinv::pinv;
pub use qr::{qr_decompose, QrDecomposition};
pub use solve::{invert, solve_least_squares, solve_upper_triangular};
pub use sparse::{CsrBuilder, CsrMatrix, PanelPlan};

/// Errors surfaced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix is (numerically) rank deficient, so the requested
    /// decomposition or inverse does not exist.
    RankDeficient {
        /// Index of the pivot that collapsed.
        pivot: usize,
        /// Magnitude of the collapsed pivot.
        magnitude: f64,
    },
    /// An empty matrix was supplied where a non-empty one is required.
    Empty,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::RankDeficient { pivot, magnitude } => write!(
                f,
                "matrix is numerically rank deficient (pivot {pivot} has magnitude {magnitude:.3e})"
            ),
            LinalgError::Empty => write!(f, "operation requires a non-empty matrix"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
