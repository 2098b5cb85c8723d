//! Sparse + operator linear algebra substrate for the APEx reproduction.
//!
//! APEx represents counting-query workloads as matrices (`W`), answers them
//! through *strategy* matrices (`A`), and reconstructs workload answers via
//! the Moore–Penrose pseudoinverse (`W A⁺`, Section 5.2 of the paper). None
//! of the allowed offline crates provide linear algebra, so this crate
//! implements the small subset the served pipeline needs:
//!
//! * a compressed-sparse-row [`CsrMatrix`] for the 0/1 incidence structures
//!   (workloads, hierarchical strategies), whose products scale with
//!   *nonzeros*, not *cells* — see the [`sparse`] module docs,
//! * the [`StrategyOperator`] abstraction — the matrix-free actions `A x`,
//!   `A⁺ y` and `(AᵀA)⁻¹ b` of a strategy matrix, without ever forming
//!   `A⁺` — with the `O(n)`-per-solve [`HierarchicalOperator`] (recursive
//!   Sherman–Morrison over the `H_b` interval tree, see [`hier_solve`])
//!   and the trivial [`IdentityOperator`],
//! * the L1 operator norm (`‖·‖₁`, maximum column absolute sum — the
//!   *sensitivity* of a workload) and the Frobenius norm, on CSR.
//!
//! Everything is `f64`. There is no dense matrix here: the dense QR,
//! pseudoinverse and norms the tests check these paths against live in the
//! dev-only `apex-oracle` crate (`crates/oracle`).

pub mod hier_solve;
mod lanes;
pub mod operator;
pub mod par;
pub mod sparse;

pub use hier_solve::HierarchicalOperator;
pub use operator::{IdentityOperator, OpScratch, SharedOperator, StrategyOperator};
pub use par::max_threads;
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
            LinalgError::Empty => write!(f, "operation requires a non-empty matrix"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
