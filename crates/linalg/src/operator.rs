//! Matrix-free strategy operators.
//!
//! The strategy mechanism never needs the strategy matrix `A` — or its
//! pseudoinverse — as an array of numbers. Every quantity it consumes is
//! the *action* of `A` on a vector:
//!
//! * `ŷ = A x + η` — one [`StrategyOperator::apply`];
//! * `A⁺ ŷ = (AᵀA)⁻¹ Aᵀ ŷ` — one [`StrategyOperator::apply_transpose`]
//!   followed by one [`StrategyOperator::solve_normal`] (for full column
//!   rank, which every APEx strategy has);
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
/// Implementations must be consistent: `apply_transpose` must be the exact
/// adjoint of `apply`, and `solve_normal` must solve `(AᵀA) x = b` for the
/// same `A`. The provided [`StrategyOperator::pinv_apply`] then computes
/// `A⁺ y` for any `y`, which is all the matrix mechanism needs to
/// reconstruct workload answers as `W (A⁺ ŷ)`.
pub trait StrategyOperator: std::fmt::Debug + Send + Sync {
    /// `(rows, cols)` of the underlying `A` — rows are strategy queries,
    /// cols are domain cells.
    fn shape(&self) -> (usize, usize);

    /// `A x` — the strategy's answer vector on a histogram `x`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `x.len() != cols`.
    fn apply(&self, x: &[f64]) -> Result<Vec<f64>>;

    /// `Aᵀ y`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `y.len() != rows`.
    fn apply_transpose(&self, y: &[f64]) -> Result<Vec<f64>>;

    /// Solves the normal equations `(AᵀA) x = b`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `b.len() != cols`.
    fn solve_normal(&self, b: &[f64]) -> Result<Vec<f64>>;

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

    /// `A⁺ y = (AᵀA)⁻¹ Aᵀ y` — the pseudoinverse action for full column
    /// rank, composed from the two primitives.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `y.len() != rows`.
    fn pinv_apply(&self, y: &[f64]) -> Result<Vec<f64>> {
        self.solve_normal(&self.apply_transpose(y)?)
    }

    /// [`StrategyOperator::apply_transpose`] writing into a caller-owned
    /// buffer. The default delegates to the allocating method (so every
    /// implementation is automatically correct); structured operators
    /// override it to reuse `out`. `out` is resized and fully overwritten.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `y.len() != rows`.
    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) -> Result<()> {
        *out = self.apply_transpose(y)?;
        Ok(())
    }

    /// [`StrategyOperator::solve_normal`] writing into a caller-owned
    /// buffer, with `scratch` available for the solver's intermediates.
    /// The default delegates to the allocating method; structured
    /// operators override it to make the solve allocation-free. Results
    /// are bit-identical to `solve_normal` regardless of scratch contents.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `b.len() != cols`.
    fn solve_normal_into(
        &self,
        b: &[f64],
        out: &mut Vec<f64>,
        _scratch: &mut OpScratch,
    ) -> Result<()> {
        *out = self.solve_normal(b)?;
        Ok(())
    }

    /// [`StrategyOperator::pinv_apply`] writing into a caller-owned
    /// buffer — the per-sample hot call of the Monte-Carlo prepare. The
    /// default delegates to `pinv_apply` (preserving each implementation's
    /// exact numerics); structured operators override it to chain the `_into` primitives
    /// through `scratch` with zero allocations in steady state.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `y.len() != rows`.
    fn pinv_apply_into(
        &self,
        y: &[f64],
        out: &mut Vec<f64>,
        _scratch: &mut OpScratch,
    ) -> Result<()> {
        *out = self.pinv_apply(y)?;
        Ok(())
    }

    /// Multi-RHS [`StrategyOperator::apply_transpose`]: `ys` holds `k`
    /// right-hand-side columns of length `rows` each, stored column-major
    /// (`ys[j*rows..(j+1)*rows]` is column `j`); `out` is resized to
    /// `k * cols` and column `j` of it receives `Aᵀ ysⱼ`.
    ///
    /// The default processes the panel one column at a time through
    /// [`StrategyOperator::apply_transpose_into`], so every column of the
    /// result is **bit-identical** to the single-RHS path by construction —
    /// that makes the default the correctness reference every blocked
    /// override is property-tested against. Structured operators override
    /// it to amortize their structural walk across the panel.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `ys.len() != k * rows`.
    fn apply_transpose_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let (m, n) = self.shape();
        check_panel(ys.len(), m, k, "apply_transpose_multi")?;
        out.resize(k * n, 0.0);
        let mut col = scratch.take_col();
        let mut result = Ok(());
        for j in 0..k {
            if let Err(e) = self.apply_transpose_into(&ys[j * m..(j + 1) * m], &mut col) {
                result = Err(e);
                break;
            }
            out[j * n..(j + 1) * n].copy_from_slice(&col);
        }
        scratch.put_col(col);
        result
    }

    /// Multi-RHS [`StrategyOperator::solve_normal`]: `bs` holds `k`
    /// column-major right-hand sides of length `cols`; column `j` of `out`
    /// receives `(AᵀA)⁻¹ bsⱼ`. Same per-column bit-identity contract (and
    /// default implementation shape) as
    /// [`StrategyOperator::apply_transpose_multi`].
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `bs.len() != k * cols`.
    fn solve_normal_multi(
        &self,
        bs: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let n = self.cols();
        check_panel(bs.len(), n, k, "solve_normal_multi")?;
        out.resize(k * n, 0.0);
        let mut col = scratch.take_col();
        let mut result = Ok(());
        for j in 0..k {
            if let Err(e) = self.solve_normal_into(&bs[j * n..(j + 1) * n], &mut col, scratch) {
                result = Err(e);
                break;
            }
            out[j * n..(j + 1) * n].copy_from_slice(&col);
        }
        scratch.put_col(col);
        result
    }

    /// Multi-RHS [`StrategyOperator::pinv_apply`]: `ys` holds `k`
    /// column-major noise columns of length `rows`; column `j` of `out`
    /// receives `A⁺ ysⱼ`. This is the panel entry point of the blocked
    /// Monte-Carlo prepare. Same per-column bit-identity contract (and
    /// default implementation shape) as
    /// [`StrategyOperator::apply_transpose_multi`].
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `ys.len() != k * rows`.
    fn pinv_apply_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let (m, n) = self.shape();
        check_panel(ys.len(), m, k, "pinv_apply_multi")?;
        out.resize(k * n, 0.0);
        let mut col = scratch.take_col();
        let mut result = Ok(());
        for j in 0..k {
            if let Err(e) = self.pinv_apply_into(&ys[j * m..(j + 1) * m], &mut col, scratch) {
                result = Err(e);
                break;
            }
            out[j * n..(j + 1) * n].copy_from_slice(&col);
        }
        scratch.put_col(col);
        result
    }

    /// Grows the operator to `n_new` domain cells after a domain
    /// extension, reusing this operator's precompute where the structure
    /// allows. Returns `None` when the operator has no incremental path
    /// (the caller falls back to a fresh build); implementations that
    /// return `Some` guarantee the result is **bit-identical** to a fresh
    /// build over `n_new` cells (property-tested for the hierarchical
    /// family).
    fn extend_to(&self, _n_new: usize) -> Option<SharedOperator> {
        None
    }
}

/// Shared handle to a strategy operator — the shape caches and mechanism
/// state want (operators are immutable once built).
pub type SharedOperator = Arc<dyn StrategyOperator>;

/// Reusable scratch space for the `_into` entry points of
/// [`StrategyOperator`].
///
/// The operator-path Monte-Carlo prepare performs one `pinv_apply` per
/// sample; with fresh allocations that is five vectors per sample (the
/// `Aᵀy` intermediate plus the four sweep buffers of the hierarchical
/// solve). Holding one `OpScratch` per worker thread and calling
/// [`StrategyOperator::pinv_apply_into`] makes the steady-state loop
/// allocation-free: buffers grow to the operator's dimensions once and are
/// fully overwritten on every call, so results are bit-identical to the
/// allocating paths.
///
/// The buffers carry no values between calls — a dirty scratch is as good
/// as a fresh one (property-tested).
#[derive(Debug, Clone, Default)]
pub struct OpScratch {
    /// Node-sized sweep buffer (hierarchical solve: subtree sums `sx`).
    pub(crate) sweep_a: Vec<f64>,
    /// Node-sized sweep buffer (Sherman–Morrison coefficients).
    pub(crate) sweep_b: Vec<f64>,
    /// Node-sized sweep buffer (top-down accumulated corrections).
    pub(crate) sweep_c: Vec<f64>,
    /// Domain-sized intermediate (`Aᵀ y` inside `pinv_apply_into`).
    transpose: Vec<f64>,
    /// Single-column staging buffer for the per-column multi-RHS defaults
    /// and blocked-kernel ragged tails.
    col: Vec<f64>,
    /// Lane-interleaved packed input panel of the blocked kernels.
    pub(crate) panel_a: Vec<f64>,
    /// Lane-interleaved intermediate panel (`Aᵀ` of a noise panel).
    pub(crate) panel_b: Vec<f64>,
    /// Lane-interleaved output panel of the blocked kernels.
    pub(crate) panel_c: Vec<f64>,
}

impl OpScratch {
    /// A fresh (empty) scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the `Aᵀy` buffer out of the scratch so an implementation can
    /// use it while still passing `&mut self` to `solve_normal_into`
    /// (returned via [`OpScratch::put_transpose`]).
    pub fn take_transpose(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.transpose)
    }

    /// Returns the buffer taken by [`OpScratch::take_transpose`].
    pub fn put_transpose(&mut self, buf: Vec<f64>) {
        self.transpose = buf;
    }

    /// Takes the single-column staging buffer (same ownership dance as
    /// [`OpScratch::take_transpose`], for the multi-RHS per-column paths).
    pub fn take_col(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.col)
    }

    /// Returns the buffer taken by [`OpScratch::take_col`].
    pub fn put_col(&mut self, buf: Vec<f64>) {
        self.col = buf;
    }
}

fn check_len(len: usize, expect: usize, op: &'static str) -> Result<()> {
    if len != expect {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: (expect, 1),
            rhs: (len, 1),
        });
    }
    Ok(())
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
}

impl StrategyOperator for IdentityOperator {
    fn shape(&self) -> (usize, usize) {
        (self.n, self.n)
    }

    fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        check_len(x.len(), self.n, "identity apply")?;
        Ok(x.to_vec())
    }

    fn apply_transpose(&self, y: &[f64]) -> Result<Vec<f64>> {
        check_len(y.len(), self.n, "identity apply_transpose")?;
        Ok(y.to_vec())
    }

    fn solve_normal(&self, b: &[f64]) -> Result<Vec<f64>> {
        check_len(b.len(), self.n, "identity solve_normal")?;
        Ok(b.to_vec())
    }

    fn l1_operator_norm(&self) -> f64 {
        1.0
    }

    fn extend_to(&self, n_new: usize) -> Option<SharedOperator> {
        // The identity has no precompute; "extension" is just a bigger
        // identity, trivially bit-identical to a fresh build.
        (n_new >= self.n).then(|| Arc::new(IdentityOperator::new(n_new)) as SharedOperator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_operator_is_a_no_op() {
        let op = IdentityOperator::new(3);
        assert_eq!(op.shape(), (3, 3));
        assert_eq!(op.rows(), 3);
        assert_eq!(op.cols(), 3);
        assert_eq!(op.l1_operator_norm(), 1.0);
        let x = [1.0, -2.0, 0.5];
        assert_eq!(op.apply(&x).unwrap(), x.to_vec());
        assert_eq!(op.apply_transpose(&x).unwrap(), x.to_vec());
        assert_eq!(op.solve_normal(&x).unwrap(), x.to_vec());
        assert_eq!(op.pinv_apply(&x).unwrap(), x.to_vec());
        assert!(op.apply(&[1.0]).is_err());
    }

    #[test]
    fn default_into_paths_match_allocating_paths() {
        // The identity keeps the default `_into` impls, which must
        // reproduce the allocating paths exactly, whatever `out` held.
        let ident = IdentityOperator::new(3);
        let mut scratch = OpScratch::new();
        let mut out = vec![f64::NAN; 5];

        let y3 = [1.0, -2.0, 0.5];
        ident.pinv_apply_into(&y3, &mut out, &mut scratch).unwrap();
        assert_eq!(out, ident.pinv_apply(&y3).unwrap());
        ident.apply_transpose_into(&y3, &mut out).unwrap();
        assert_eq!(out, ident.apply_transpose(&y3).unwrap());
        ident
            .solve_normal_into(&y3, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, ident.solve_normal(&y3).unwrap());

        let b2 = [0.25, -4.0];
        assert!(ident.pinv_apply_into(&b2, &mut out, &mut scratch).is_err());
    }

    #[test]
    fn solve_normal_solves_the_normal_equations() {
        // The trait contract, on every operator this crate ships: AᵀA x = b
        // for x = solve_normal(b), with AᵀA applied as two matvecs.
        let ops: [SharedOperator; 3] = [
            Arc::new(IdentityOperator::new(5)),
            Arc::new(crate::HierarchicalOperator::new(5, 2).unwrap()),
            Arc::new(crate::HierarchicalOperator::new(11, 3).unwrap()),
        ];
        for op in &ops {
            let b: Vec<f64> = (0..op.cols()).map(|i| 1.0 - 0.75 * i as f64).collect();
            let x = op.solve_normal(&b).unwrap();
            let back = op.apply_transpose(&op.apply(&x).unwrap()).unwrap();
            for (got, want) in back.iter().zip(&b) {
                assert!((got - want).abs() < 1e-10, "{op:?}: {back:?} vs {b:?}");
            }
        }
    }
}
