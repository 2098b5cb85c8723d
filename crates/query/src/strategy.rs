//! Strategy matrices for the matrix (strategy-based) mechanism.
//!
//! Section 5.2: instead of answering the workload `W` directly, APEx can
//! answer a *strategy* `A` with low sensitivity `‖A‖₁` and reconstruct
//! `W x ≈ (W A⁺)(A x + η)`. The paper uses the hierarchical `H₂` strategy
//! of Hay et al. for all benchmark queries; we implement the general
//! `H_b` family (branching factor `b`), the identity strategy, and the
//! trivial "workload as strategy" fallback.

use std::sync::Arc;

use apex_linalg::{CsrBuilder, CsrMatrix, HierarchicalOperator, IdentityOperator, SharedOperator};

/// Errors raised while building a strategy matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyError {
    /// Strategies require at least one domain cell.
    EmptyDomain,
    /// Branching factor must be at least 2.
    BadBranching(usize),
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::EmptyDomain => write!(f, "strategy requires a non-empty domain"),
            StrategyError::BadBranching(b) => {
                write!(f, "hierarchical branching factor must be >= 2, got {b}")
            }
        }
    }
}

impl std::error::Error for StrategyError {}

/// A strategy for answering a workload through the matrix mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Answer every domain cell directly (`A = I`). Optimal for disjoint
    /// histogram workloads.
    Identity,
    /// The hierarchical strategy `H_b`: interval sums arranged in a
    /// `b`-ary tree over the cells, leaves included. `H2` (the paper's
    /// choice) is `Hierarchical { branching: 2 }`.
    Hierarchical {
        /// Tree fan-out (`b >= 2`).
        branching: usize,
    },
}

impl Strategy {
    /// The paper's default `H2` strategy.
    pub const H2: Strategy = Strategy::Hierarchical { branching: 2 };

    /// Builds the strategy matrix over `n_cells` domain cells in CSR form,
    /// without ever materializing the dense tree: every row of `H_b` is a
    /// contiguous run of ones over the node's interval, so the sparse
    /// construction is `O(total interval length)` = `O(n log_b n)` instead
    /// of the dense `O(n²/  (b−1))` cells.
    ///
    /// The returned matrix always has full column rank (it contains every
    /// singleton row), which the pseudoinverse in the mechanism requires.
    /// Mechanism code uses the matrix-free [`Strategy::operator`] instead;
    /// this form is the row-order reference the operator is tested against.
    ///
    /// # Errors
    /// * [`StrategyError::EmptyDomain`] when `n_cells == 0`.
    /// * [`StrategyError::BadBranching`] when `branching < 2`.
    pub fn build_csr(&self, n_cells: usize) -> Result<CsrMatrix, StrategyError> {
        if n_cells == 0 {
            return Err(StrategyError::EmptyDomain);
        }
        match self {
            Strategy::Identity => Ok(CsrMatrix::identity(n_cells)),
            Strategy::Hierarchical { branching } => {
                if *branching < 2 {
                    return Err(StrategyError::BadBranching(*branching));
                }
                Ok(hierarchical(n_cells, *branching))
            }
        }
    }

    /// Hands out the strategy as a matrix-free [`SharedOperator`] — the
    /// representation mechanism code uses. `apply` answers the strategy and
    /// `pinv_apply` is the pseudoinverse action `A⁺ŷ = (AᵀA)⁻¹ Aᵀ ŷ`, so
    /// the `O(n³)` dense pseudoinverse is never materialized: the
    /// hierarchical family solves its normal equations in `O(n)` per
    /// right-hand side.
    ///
    /// The operator's rows are in the exact order of
    /// [`Strategy::build_csr`]; `apply` matches the CSR matvec and the
    /// transpose inside `pinv_apply` matches the transposed-CSR matvec,
    /// both bit for bit (property-tested).
    ///
    /// # Errors
    /// * [`StrategyError::EmptyDomain`] when `n_cells == 0`.
    /// * [`StrategyError::BadBranching`] when `branching < 2`.
    pub fn operator(&self, n_cells: usize) -> Result<SharedOperator, StrategyError> {
        if n_cells == 0 {
            return Err(StrategyError::EmptyDomain);
        }
        match self {
            Strategy::Identity => Ok(Arc::new(IdentityOperator::new(n_cells))),
            Strategy::Hierarchical { branching } => {
                if *branching < 2 {
                    return Err(StrategyError::BadBranching(*branching));
                }
                Ok(Arc::new(
                    HierarchicalOperator::new(n_cells, *branching)
                        .expect("non-empty domain checked above"),
                ))
            }
        }
    }

    /// Human-readable name used by benchmark output.
    pub fn name(&self) -> String {
        match self {
            Strategy::Identity => "identity".to_string(),
            Strategy::Hierarchical { branching } => format!("H{branching}"),
        }
    }
}

/// Builds the `H_b` hierarchy over `n` cells: one row per tree node
/// covering the node's interval `[lo, hi)`, emitted directly in CSR.
/// Every singleton leaf appears as a row, so the matrix has full column
/// rank.
fn hierarchical(n: usize, b: usize) -> CsrMatrix {
    // Collect intervals breadth-first; skip the root when it would
    // duplicate a single leaf (n == 1).
    let mut intervals: Vec<(usize, usize)> = Vec::new();
    let mut frontier = vec![(0usize, n)];
    while let Some((lo, hi)) = frontier.pop() {
        intervals.push((lo, hi));
        let len = hi - lo;
        if len <= 1 {
            continue;
        }
        // Split [lo, hi) into b nearly equal children.
        let base = len / b;
        let extra = len % b;
        let mut start = lo;
        for i in 0..b {
            let width = base + usize::from(i < extra);
            if width == 0 {
                continue;
            }
            frontier.push((start, start + width));
            start += width;
        }
    }
    // Deduplicate (n == 1 yields a single interval; nested equal spans
    // cannot occur otherwise, but dedup is cheap insurance).
    intervals.sort_unstable();
    intervals.dedup();

    let mut m = CsrBuilder::new(n);
    for &(lo, hi) in &intervals {
        m.push_interval_row(lo, hi);
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_linalg::OpScratch;
    use apex_oracle::{l1_operator_norm, pinv, Matrix};

    /// The strategy over `n` cells as a dense oracle matrix.
    fn dense(strat: Strategy, n: usize) -> Matrix {
        Matrix::from_csr(&strat.build_csr(n).unwrap())
    }

    #[test]
    fn identity_strategy() {
        let a = dense(Strategy::Identity, 5);
        assert_eq!(a, Matrix::identity(5));
        assert_eq!(l1_operator_norm(&a), 1.0);
    }

    #[test]
    fn h2_sensitivity_is_logarithmic() {
        // For n a power of two, each cell appears in log2(n) + 1 nodes.
        let a = dense(Strategy::H2, 8);
        assert_eq!(l1_operator_norm(&a), 4.0); // log2(8) + 1
        let a = dense(Strategy::H2, 16);
        assert_eq!(l1_operator_norm(&a), 5.0);
    }

    #[test]
    fn h2_contains_all_singletons() {
        let a = dense(Strategy::H2, 6);
        for c in 0..6 {
            let found =
                (0..a.rows()).any(|r| (0..6).all(|j| a[(r, j)] == if j == c { 1.0 } else { 0.0 }));
            assert!(found, "missing singleton for cell {c}");
        }
    }

    #[test]
    fn h2_has_full_column_rank() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let a = dense(Strategy::H2, n);
            // pinv only succeeds on full-rank input.
            let ap = pinv(&a).unwrap();
            let papa = ap.matmul(&a).unwrap();
            assert!(papa.approx_eq(&Matrix::identity(n), 1e-8), "n = {n}");
        }
    }

    #[test]
    fn higher_branching_reduces_sensitivity_for_wide_domains() {
        let h2 = dense(Strategy::H2, 64);
        let h8 = dense(Strategy::Hierarchical { branching: 8 }, 64);
        assert!(l1_operator_norm(&h8) < l1_operator_norm(&h2));
    }

    #[test]
    fn single_cell_domain() {
        let a = dense(Strategy::H2, 1);
        assert_eq!(a.shape(), (1, 1));
        assert_eq!(a[(0, 0)], 1.0);
    }

    #[test]
    fn csr_and_dense_forms_agree() {
        for n in [1usize, 2, 7, 16, 33] {
            for strat in [
                Strategy::Identity,
                Strategy::H2,
                Strategy::Hierarchical { branching: 4 },
            ] {
                let sparse = strat.build_csr(n).unwrap();
                let dense = Matrix::from_csr(&sparse);
                assert_eq!(dense.to_csr(), sparse, "{} over {n}", strat.name());
                assert_eq!(sparse.l1_operator_norm(), l1_operator_norm(&dense));
            }
        }
    }

    #[test]
    fn h2_is_sparse_at_scale() {
        // Density of H_b over n cells is Θ(log n / n): storing it densely
        // wastes >95% of the cells from n = 64 on.
        let a = Strategy::H2.build_csr(256).unwrap();
        assert!(a.density() < 0.04, "density {}", a.density());
        assert_eq!(
            a.nnz(),
            (0..a.rows()).map(|i| a.row(i).0.len()).sum::<usize>()
        );
    }

    #[test]
    fn operator_agrees_with_csr_bit_for_bit() {
        for n in [1usize, 2, 6, 17, 33] {
            for strat in [
                Strategy::Identity,
                Strategy::H2,
                Strategy::Hierarchical { branching: 3 },
            ] {
                let csr = strat.build_csr(n).unwrap();
                let op = strat.operator(n).unwrap();
                assert_eq!(op.shape(), csr.shape(), "{} over {n}", strat.name());
                assert_eq!(op.l1_operator_norm(), csr.l1_operator_norm());

                let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 1.0).collect();
                assert_eq!(op.apply(&x).unwrap(), csr.matvec(&x).unwrap());

                // A⁺y = (AᵀA)⁻¹ (Aᵀy): the operator's own transpose must
                // feed the solve exactly what the transposed CSR would.
                let y: Vec<f64> = (0..csr.rows()).map(|i| ((i % 9) as f64) - 4.0).collect();
                let mut via_csr = Vec::new();
                op.solve_normal_multi(
                    &csr.transpose().matvec(&y).unwrap(),
                    1,
                    &mut via_csr,
                    &mut OpScratch::new(),
                )
                .unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&op.pinv_apply(&y).unwrap()), bits(&via_csr));
            }
        }
    }

    #[test]
    fn operator_pinv_apply_matches_dense_pinv() {
        for n in [3usize, 8, 13] {
            let op = Strategy::H2.operator(n).unwrap();
            let ap = pinv(&dense(Strategy::H2, n)).unwrap();
            let y: Vec<f64> = (0..op.rows()).map(|i| (i as f64).cos()).collect();
            let via_op = op.pinv_apply(&y).unwrap();
            let via_dense = ap.matvec(&y).unwrap();
            for (a, b) in via_op.iter().zip(&via_dense) {
                assert!((a - b).abs() < 1e-10, "n = {n}");
            }
        }
    }

    #[test]
    fn operator_errors_match_builder_errors() {
        assert!(matches!(
            Strategy::Identity.operator(0),
            Err(StrategyError::EmptyDomain)
        ));
        assert!(matches!(
            Strategy::Hierarchical { branching: 1 }.operator(4),
            Err(StrategyError::BadBranching(1))
        ));
    }

    #[test]
    fn errors() {
        assert!(matches!(
            Strategy::Identity.build_csr(0),
            Err(StrategyError::EmptyDomain)
        ));
        assert!(matches!(
            Strategy::Hierarchical { branching: 1 }.build_csr(4),
            Err(StrategyError::BadBranching(1))
        ));
    }

    #[test]
    fn names() {
        assert_eq!(Strategy::Identity.name(), "identity");
        assert_eq!(Strategy::H2.name(), "H2");
        assert_eq!(Strategy::Hierarchical { branching: 4 }.name(), "H4");
    }
}
