//! Matrix-free strategy operators.
//!
//! The strategy mechanism never needs the strategy matrix `A` — or its
//! pseudoinverse — as an array of numbers. Every quantity it consumes is
//! the *action* of `A` on a vector:
//!
//! * `ŷ = A x + η` — one [`StrategyOperator::apply`];
//! * `A⁺ ŷ = (AᵀA)⁻¹ Aᵀ ŷ` — one [`StrategyOperator::pinv_apply`] (for
//!   full column rank, which every APEx strategy has), or
//!   [`StrategyOperator::pinv_apply_multi`] over a panel of `ŷ`s;
//! * `(AᵀA)⁻¹ b` over a panel — [`StrategyOperator::solve_normal_multi`],
//!   the trace identity behind `‖W A⁺‖_F`;
//! * the sensitivity `‖A‖₁` — a scalar the operator knows structurally.
//!
//! Expressing strategies as operators replaces the `O(n³)` dense QR
//! pseudoinverse — the dominant prepare-time cost at large domains — with
//! structure-exploiting solves: the hierarchical family solves its normal
//! equations in `O(n)` per right-hand side
//! (see [`crate::hier_solve::HierarchicalOperator`]), and the identity is
//! free. The tests check both against the dense QR pseudoinverse of the
//! dev-only `apex-oracle` crate.

use std::sync::Arc;

use crate::{LinalgError, Result};

/// The action of a full-column-rank strategy matrix `A ∈ ℝ^{m × n}`,
/// `m ≥ n`, without committing to a representation.
///
/// The panel methods take `k` right-hand sides stored column-major
/// (`xs[j * len..(j + 1) * len]` is column `j`) and resize `out` to `k`
/// columns of `cols` each. A column's result does not depend on `k`, on
/// its position in the panel or on what `scratch` holds: a panel is
/// exactly its columns, each computed alone.
pub trait StrategyOperator: std::fmt::Debug + Send + Sync {
    /// `(rows, cols)` of the underlying `A` — rows are strategy queries,
    /// cols are domain cells.
    fn shape(&self) -> (usize, usize);

    /// `A x` — the strategy's answer vector on a histogram `x`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `x.len() != cols`.
    fn apply(&self, x: &[f64]) -> Result<Vec<f64>>;

    /// The L1 operator norm `‖A‖₁` (maximum column absolute sum) — the
    /// strategy's sensitivity.
    fn l1_operator_norm(&self) -> f64;

    /// Number of strategy rows `m`.
    fn rows(&self) -> usize {
        self.shape().0
    }

    /// Number of domain cells `n`.
    fn cols(&self) -> usize {
        self.shape().1
    }

    /// `A⁺ y = (AᵀA)⁻¹ Aᵀ y` for each of the `k` columns of `ys` (each
    /// `rows` long) — the panel entry point of the blocked Monte-Carlo
    /// prepare.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `ys.len() != k * rows`.
    fn pinv_apply_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()>;

    /// `(AᵀA)⁻¹ b` for each of the `k` columns of `bs` (each `cols` long).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `bs.len() != k * cols`.
    fn solve_normal_multi(
        &self,
        bs: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()>;

    /// `A⁺ y` for one vector: a one-column
    /// [`StrategyOperator::pinv_apply_multi`] — the strategy mechanism's
    /// per-answer reconstruction.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `y.len() != rows`.
    fn pinv_apply(&self, y: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.pinv_apply_multi(y, 1, &mut out, &mut OpScratch::new())?;
        Ok(out)
    }
}

/// Shared handle to a strategy operator — the shape caches and mechanism
/// state want (operators are immutable once built).
pub type SharedOperator = Arc<dyn StrategyOperator>;

/// Reusable scratch space for the panel methods of [`StrategyOperator`].
///
/// Holding one `OpScratch` per worker thread makes the Monte-Carlo
/// prepare's steady-state loop allocation-free: buffers grow to the
/// operator's dimensions once and are fully overwritten on every call.
/// They carry no values between calls — a dirty scratch is as good as a
/// fresh one (property-tested).
#[derive(Debug, Clone, Default)]
pub struct OpScratch {
    /// Node-sized sweep buffer (hierarchical solve: subtree sums, then
    /// the top-down corrections).
    pub(crate) sweep_a: Vec<f64>,
    /// Node-sized sweep buffer (Sherman–Morrison coefficients).
    pub(crate) sweep_b: Vec<f64>,
    /// Lane-interleaved packed input panel.
    pub(crate) panel_a: Vec<f64>,
    /// Lane-interleaved intermediate panel (`Aᵀ` of a noise panel, or the
    /// packed right-hand sides of a solve).
    pub(crate) panel_b: Vec<f64>,
    /// Lane-interleaved output panel.
    pub(crate) panel_c: Vec<f64>,
}

impl OpScratch {
    /// A fresh (empty) scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Validates a column-major panel: `len` must be exactly `k` columns of
/// `col_len` elements each.
pub(crate) fn check_panel(len: usize, col_len: usize, k: usize, op: &'static str) -> Result<()> {
    if len != col_len.saturating_mul(k) {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: (col_len, k),
            rhs: (len, 1),
        });
    }
    Ok(())
}

/// The identity strategy `A = I_n`: every operation is a copy.
#[derive(Debug, Clone)]
pub struct IdentityOperator {
    n: usize,
}

impl IdentityOperator {
    /// The identity over `n` domain cells.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// `out ← xs` after checking the panel shape: `A⁺ = (AᵀA)⁻¹ = I`.
    fn copy_panel(&self, xs: &[f64], k: usize, out: &mut Vec<f64>, op: &'static str) -> Result<()> {
        check_panel(xs.len(), self.n, k, op)?;
        out.clear();
        out.extend_from_slice(xs);
        Ok(())
    }
}

impl StrategyOperator for IdentityOperator {
    fn shape(&self) -> (usize, usize) {
        (self.n, self.n)
    }

    fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        check_panel(x.len(), self.n, 1, "identity apply")?;
        Ok(x.to_vec())
    }

    fn l1_operator_norm(&self) -> f64 {
        1.0
    }

    fn pinv_apply_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        _scratch: &mut OpScratch,
    ) -> Result<()> {
        self.copy_panel(ys, k, out, "identity pinv_apply_multi")
    }

    fn solve_normal_multi(
        &self,
        bs: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        _scratch: &mut OpScratch,
    ) -> Result<()> {
        self.copy_panel(bs, k, out, "identity solve_normal_multi")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Aᵀ y` built from `apply` alone: `(Aᵀ y)_j = ⟨A e_j, y⟩`.
    fn adjoint_by_columns(op: &dyn StrategyOperator, y: &[f64]) -> Vec<f64> {
        let n = op.cols();
        (0..n)
            .map(|j| {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let col = op.apply(&e).unwrap();
                col.iter().zip(y).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    #[test]
    fn identity_operator_is_a_no_op() {
        let op = IdentityOperator::new(3);
        assert_eq!(op.shape(), (3, 3));
        assert_eq!(op.rows(), 3);
        assert_eq!(op.cols(), 3);
        assert_eq!(op.l1_operator_norm(), 1.0);
        let x = [1.0, -2.0, 0.5];
        assert_eq!(op.apply(&x).unwrap(), x.to_vec());
        assert_eq!(op.pinv_apply(&x).unwrap(), x.to_vec());
        // Both panel methods copy, whatever `out` held before.
        let panel = [1.0, -2.0, 0.5, 4.0, 0.0, -0.25];
        let mut scratch = OpScratch::new();
        let mut out = vec![f64::NAN; 5];
        op.pinv_apply_multi(&panel, 2, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, panel.to_vec());
        out.fill(f64::NAN);
        op.solve_normal_multi(&panel, 2, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, panel.to_vec());
        assert!(op.apply(&[1.0]).is_err());
        assert!(op.pinv_apply(&[1.0]).is_err());
        assert!(op
            .solve_normal_multi(&panel[..5], 2, &mut out, &mut scratch)
            .is_err());
    }

    #[test]
    fn solve_normal_solves_the_normal_equations() {
        // The trait contract, on every operator this crate ships: AᵀA x = b
        // for x = solve_normal_multi(b), with A applied by `apply` and Aᵀ
        // built from it column by column.
        let ops: [SharedOperator; 3] = [
            Arc::new(IdentityOperator::new(5)),
            Arc::new(crate::HierarchicalOperator::new(5, 2).unwrap()),
            Arc::new(crate::HierarchicalOperator::new(11, 3).unwrap()),
        ];
        let mut scratch = OpScratch::new();
        let mut x = Vec::new();
        for op in &ops {
            let b: Vec<f64> = (0..op.cols()).map(|i| 1.0 - 0.75 * i as f64).collect();
            op.solve_normal_multi(&b, 1, &mut x, &mut scratch).unwrap();
            let back = adjoint_by_columns(op.as_ref(), &op.apply(&x).unwrap());
            for (got, want) in back.iter().zip(&b) {
                assert!((got - want).abs() < 1e-10, "{op:?}: {back:?} vs {b:?}");
            }
            // A⁺ y = (AᵀA)⁻¹ Aᵀ y, composed from the same two pieces.
            let y: Vec<f64> = (0..op.rows()).map(|i| (i as f64).sin()).collect();
            op.solve_normal_multi(
                &adjoint_by_columns(op.as_ref(), &y),
                1,
                &mut x,
                &mut scratch,
            )
            .unwrap();
            for (got, want) in op.pinv_apply(&y).unwrap().iter().zip(&x) {
                assert!((got - want).abs() < 1e-10, "{op:?}");
            }
        }
    }
}
