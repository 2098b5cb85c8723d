//! The hierarchical strategy `H_b` as a matrix-free operator with a
//! near-linear normal-equations solve.
//!
//! # Structure
//!
//! `H_b` over `n` cells has one 0/1 row per node of a `b`-ary interval
//! tree (root `[0, n)`, children splitting their parent into `b` nearly
//! equal parts, singleton leaves included). Its normal matrix is a sum of
//! all-ones blocks, one per tree node `v` with interval `I_v`:
//!
//! ```text
//! M = HᵀH = Σ_v 1_{I_v} 1_{I_v}ᵀ
//! ```
//!
//! Restricted to a subtree, `M_v = blockdiag(M_c for children c) +
//! 1 1ᵀ` — a block-diagonal matrix plus a rank-one all-ones update. That
//! is exactly the shape the Sherman–Morrison identity collapses:
//!
//! ```text
//! (D + uuᵀ)⁻¹ b  =  D⁻¹b − D⁻¹u · (uᵀD⁻¹b) / (1 + uᵀD⁻¹u)
//! ```
//!
//! with `u = 1_{I_v}`. Two observations make the recursion linear instead
//! of exponential:
//!
//! * `D⁻¹u` restricted to child `c` is `t_c = M_c⁻¹ 1`, whose **sum**
//!   `s_c = Σ t_c` obeys the scalar recurrence `s_leaf = 1`,
//!   `γ_v = Σ_c s_c`, `s_v = γ_v / (1 + γ_v)` — precomputed bottom-up
//!   once per operator, one f64 per node;
//! * the rank-one corrections applied by every ancestor of a leaf
//!   telescope into a single scalar per node, accumulated in one
//!   top-down sweep (`A_child = (A_v + c_v) · f_child` below).
//!
//! A solve is therefore one bottom-up sweep (subtree sums `Σ M_c⁻¹ b`)
//! and one top-down sweep (correction coefficients), `O(#nodes) = O(n)`
//! per right-hand side after the `O(n)` precompute — against `O(n³)` for
//! the dense QR pseudoinverse the operator replaces. `apply` and the
//! transpose inside `A⁺` walk the `O(n log_b n)` stored interval lengths.
//!
//! Row order matches `Strategy::build_csr` exactly (intervals ascending
//! by `(lo, hi)`), and the summation orders match the CSR matvec and its
//! transpose, so operator and CSR paths agree bit for bit —
//! property-tested in `tests/properties.rs`.
//!
//! The panel methods run each kernel at two widths of the same code (see
//! the `lanes` module): 8-lane tiles, and `W = 1` for single vectors and
//! ragged tails.

use crate::lanes::{pack_lanes, unpack_lanes, LANES};
use crate::operator::{check_panel, OpScratch, StrategyOperator};
use crate::{LinalgError, Result};

/// One node of the interval tree, in BFS order (children contiguous).
#[derive(Debug, Clone)]
struct Node {
    lo: usize,
    hi: usize,
    /// Index of the first child in the BFS `nodes` vec (0 ⇒ leaf, since
    /// node 0 is always the root and never anyone's child).
    child_start: usize,
    /// Number of children (0 for leaves).
    child_count: usize,
    /// `γ_v = Σ_c s_c` (0 for leaves, unused there).
    gamma: f64,
    /// `s_v = Σ (M_v⁻¹ 1)`: 1 for leaves, `γ/(1+γ)` for internal nodes.
    s: f64,
}

/// Which action a tile of the panel methods computes.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// `A⁺ y`: the cover-list scatter `Aᵀ y`, then the solve.
    Pinv,
    /// `(AᵀA)⁻¹ b`: the solve alone.
    Solve,
}

/// The hierarchical strategy `H_b` over `n` cells as a matrix-free
/// [`StrategyOperator`]. Construction is `O(n log_b n)` time and memory
/// (the interval lists); a solve is `O(n)` per right-hand side.
#[derive(Debug, Clone)]
pub struct HierarchicalOperator {
    n: usize,
    /// Tree nodes in BFS order; `nodes[0]` is the root.
    nodes: Vec<Node>,
    /// Row intervals sorted ascending by `(lo, hi)` — the exact row order
    /// of `Strategy::build_csr`.
    rows: Vec<(usize, usize)>,
    /// Per-cell scatter plan for the transpose:
    /// `cover_rows[cover_off[c]..cover_off[c + 1]]` lists the rows
    /// covering cell `c`, ascending. `O(n log_b n)` entries. `u32` is
    /// ample: a domain near `u32::MAX` would need hundreds of GiB of
    /// panel memory long before the plan overflows.
    cover_rows: Vec<u32>,
    /// Offsets into [`Self::cover_rows`], length `n + 1`.
    cover_off: Vec<u32>,
    /// `‖H_b‖₁`: the maximum number of tree nodes covering one cell.
    l1_norm: f64,
}

impl HierarchicalOperator {
    /// Builds `H_b` over `n` cells with fan-out `branching`.
    ///
    /// # Errors
    /// * [`LinalgError::Empty`] when `n == 0`.
    /// * [`LinalgError::ShapeMismatch`] is never returned here; a
    ///   branching factor below 2 is rejected by the caller
    ///   (`Strategy::operator`) — this constructor clamps defensively.
    pub fn new(n: usize, branching: usize) -> Result<Self> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let b = branching.max(2);

        // BFS construction: the same splitting rule as the CSR builder
        // (b nearly equal children, wider ones first, zero-width skipped).
        let mut nodes: Vec<Node> = vec![Node {
            lo: 0,
            hi: n,
            child_start: 0,
            child_count: 0,
            gamma: 0.0,
            s: 0.0,
        }];
        let mut next = 0;
        while next < nodes.len() {
            let (lo, hi) = (nodes[next].lo, nodes[next].hi);
            let len = hi - lo;
            if len > 1 {
                let base = len / b;
                let extra = len % b;
                let child_start = nodes.len();
                let mut start = lo;
                for i in 0..b {
                    let width = base + usize::from(i < extra);
                    if width == 0 {
                        continue;
                    }
                    nodes.push(Node {
                        lo: start,
                        hi: start + width,
                        child_start: 0,
                        child_count: 0,
                        gamma: 0.0,
                        s: 0.0,
                    });
                    start += width;
                }
                nodes[next].child_start = child_start;
                nodes[next].child_count = nodes.len() - child_start;
            }
            next += 1;
        }

        // Bottom-up γ/s precompute (reverse BFS order: children before
        // parents).
        for v in (0..nodes.len()).rev() {
            if nodes[v].child_count == 0 {
                nodes[v].s = 1.0;
            } else {
                let (cs, cc) = (nodes[v].child_start, nodes[v].child_count);
                let gamma: f64 = nodes[cs..cs + cc].iter().map(|c| c.s).sum();
                nodes[v].gamma = gamma;
                nodes[v].s = gamma / (1.0 + gamma);
            }
        }

        // Row order: the CSR builder sorts intervals ascending (and dedups,
        // which only matters for n == 1 where root == leaf).
        let mut rows: Vec<(usize, usize)> = nodes.iter().map(|v| (v.lo, v.hi)).collect();
        rows.sort_unstable();
        rows.dedup();

        // ‖H_b‖₁ = max cell cover count, via a difference array.
        let mut cover = vec![0i64; n + 1];
        for &(lo, hi) in &rows {
            cover[lo] += 1;
            cover[hi] -= 1;
        }
        let mut running = 0i64;
        let mut max_cover = 0i64;
        for d in &cover[..n] {
            running += d;
            max_cover = max_cover.max(running);
        }

        // Scatter plan: counting sort of the covering rows per cell,
        // stable in row order (rows visited ascending both passes), so the
        // per-cell fold order is ascending by row.
        let mut cover_off = vec![0u32; n + 1];
        let mut running_cov = 0i64;
        for c in 0..n {
            running_cov += cover[c];
            cover_off[c + 1] = cover_off[c] + running_cov as u32;
        }
        let mut cover_rows = vec![0u32; cover_off[n] as usize];
        let mut cursor: Vec<u32> = cover_off[..n].to_vec();
        for (r, &(lo, hi)) in rows.iter().enumerate() {
            for c in lo..hi {
                cover_rows[cursor[c] as usize] = r as u32;
                cursor[c] += 1;
            }
        }

        Ok(Self {
            n,
            nodes,
            rows,
            cover_rows,
            cover_off,
            l1_norm: max_cover as f64,
        })
    }

    /// `Aᵀ` of `W` lane-interleaved columns at once: each cell gathers a
    /// whole lane-vector of row weights per covering row.
    ///
    /// Walks the precomputed per-cell cover lists, so each output cell is
    /// accumulated in registers and written exactly once — a row-major
    /// sweep read-modify-writes every cell once per covering row
    /// (≈ depth × the panel) and is L2-bandwidth-bound on large domains.
    /// The row-weight loads stay cache-hot because adjacent cells share
    /// all but their deepest covering rows. Per lane, each cell
    /// accumulates its covering rows in ascending row order (the lists
    /// are built row-ascending), starting from zero — the floating-point
    /// sequence of the transposed-CSR matvec, bit for bit.
    fn scatter_lanes<const W: usize>(&self, yt: &[f64], bt: &mut [f64]) {
        for (c, cell) in bt.chunks_exact_mut(W).enumerate() {
            let lo = self.cover_off[c] as usize;
            let hi = self.cover_off[c + 1] as usize;
            let mut acc = [0.0f64; W];
            for &r in &self.cover_rows[lo..hi] {
                let w = &yt[r as usize * W..(r as usize + 1) * W];
                for (a, &wl) in acc.iter_mut().zip(w) {
                    *a += wl;
                }
            }
            cell.copy_from_slice(&acc);
        }
    }

    /// The two sweeps of the Sherman–Morrison solve over `W`
    /// lane-interleaved right-hand sides: one interval-tree walk amortized
    /// across the whole tile, with every scalar recurrence replicated per
    /// lane in the same order (children summed ascending, identical
    /// correction telescoping).
    ///
    /// Every entry that is ever read is written first (`sx` fully in the
    /// bottom-up sweep; `coeff` for internal nodes only, which are the
    /// only ones read; `acc` for every non-root node by its parent, with
    /// the root seeded explicitly; `x` once per leaf, and every cell is
    /// exactly one leaf), so dirty buffers produce bit-identical results
    /// to fresh ones. The top-down correction accumulator reuses `sx`: the
    /// subtree sums are dead once the bottom-up pass finishes (only
    /// `coeff` carries over), and every `acc` slot is written by the
    /// parent before its node reads it, so the aliasing is value-invisible
    /// — it just avoids streaming a third `nodes × W` buffer through the
    /// cache per tile.
    fn solve_sweeps_lanes<const W: usize>(
        &self,
        b: &[f64],
        sx: &mut [f64],
        coeff: &mut [f64],
        x: &mut [f64],
    ) {
        let nodes = &self.nodes;
        let m = nodes.len();

        // Bottom-up: per node, the entry sum of its subtree solution
        // `Σ (M_v⁻¹ b_v)` (`sx`) and the Sherman–Morrison coefficient
        // `c_v = (uᵀD⁻¹b) / (1 + γ_v)`.
        for v in (0..m).rev() {
            let node = &nodes[v];
            if node.child_count == 0 {
                let src = &b[node.lo * W..(node.lo + 1) * W];
                sx[v * W..(v + 1) * W].copy_from_slice(src);
            } else {
                let (cs, cc) = (node.child_start, node.child_count);
                let mut alpha = [0.0f64; W];
                for c in cs..cs + cc {
                    let child = &sx[c * W..(c + 1) * W];
                    for (a, &s) in alpha.iter_mut().zip(child) {
                        *a += s;
                    }
                }
                for (l, &a) in alpha.iter().enumerate() {
                    let c = a / (1.0 + node.gamma);
                    coeff[v * W + l] = c;
                    sx[v * W + l] = a - c * node.gamma;
                }
            }
        }

        // Top-down: accumulate the telescoped correction coefficient
        // `A_child = (A_v + c_v) · f_child`, `f = 1/(1+γ)` for internal
        // children and 1 for leaves; at a leaf, x = b − A.
        let acc = sx;
        acc[..W].fill(0.0);
        for v in 0..m {
            let node = &nodes[v];
            if node.child_count == 0 {
                let lo = node.lo;
                for l in 0..W {
                    x[lo * W + l] = b[lo * W + l] - acc[v * W + l];
                }
            } else {
                let mut down = [0.0f64; W];
                for (l, d) in down.iter_mut().enumerate() {
                    *d = acc[v * W + l] + coeff[v * W + l];
                }
                let (cs, cc) = (node.child_start, node.child_count);
                for c in cs..cs + cc {
                    if nodes[c].child_count == 0 {
                        acc[c * W..(c + 1) * W].copy_from_slice(&down);
                    } else {
                        let inv = 1.0 + nodes[c].gamma;
                        for (l, &d) in down.iter().enumerate() {
                            acc[c * W + l] = d / inv;
                        }
                    }
                }
            }
        }
    }

    /// One tile of `W` columns: pack, scatter (for [`Action::Pinv`]),
    /// solve, unpack into `dst`.
    fn tile<const W: usize>(
        &self,
        action: Action,
        src: &[f64],
        dst: &mut [f64],
        s: &mut OpScratch,
    ) {
        let n = self.n;
        let b = match action {
            Action::Pinv => {
                let y = pack_lanes::<W>(src, self.rows.len(), &mut s.panel_a);
                s.panel_b.resize(n * W, 0.0);
                self.scatter_lanes::<W>(y, &mut s.panel_b);
                &s.panel_b
            }
            Action::Solve => pack_lanes::<W>(src, n, &mut s.panel_b),
        };
        let nodes = self.nodes.len();
        s.sweep_a.resize(nodes * W, 0.0);
        s.sweep_b.resize(nodes * W, 0.0);
        unpack_lanes::<W>(dst, n, &mut s.panel_c, |x| {
            self.solve_sweeps_lanes::<W>(b, &mut s.sweep_a, &mut s.sweep_b, x)
        });
    }

    /// The panel methods: full tiles of [`LANES`] columns, then the
    /// ragged tail one column at a time — the same kernels at `W = 1`.
    fn panel(
        &self,
        action: Action,
        src: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let n = self.n;
        let (len, op) = match action {
            Action::Pinv => (self.rows.len(), "hier pinv_apply_multi"),
            Action::Solve => (n, "hier solve_normal_multi"),
        };
        check_panel(src.len(), len, k, op)?;
        out.resize(k * n, 0.0);
        let full = k / LANES * LANES;
        let (src_tiles, src_tail) = src.split_at(full * len);
        let (out_tiles, out_tail) = out.split_at_mut(full * n);
        let tiles = src_tiles.chunks_exact(LANES * len);
        for (s, d) in tiles.zip(out_tiles.chunks_exact_mut(LANES * n)) {
            self.tile::<LANES>(action, s, d, scratch);
        }
        for (s, d) in src_tail.chunks_exact(len).zip(out_tail.chunks_exact_mut(n)) {
            self.tile::<1>(action, s, d, scratch);
        }
        Ok(())
    }
}

impl StrategyOperator for HierarchicalOperator {
    fn shape(&self) -> (usize, usize) {
        (self.rows.len(), self.n)
    }

    fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                op: "hier apply",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        // Row i sums x over its interval, left to right — the same
        // floating-point sequence as the CSR matvec over a 0/1 row.
        Ok(self
            .rows
            .iter()
            .map(|&(lo, hi)| x[lo..hi].iter().sum())
            .collect())
    }

    fn l1_operator_norm(&self) -> f64 {
        self.l1_norm
    }

    fn pinv_apply_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        self.panel(Action::Pinv, ys, k, out, scratch)
    }

    fn solve_normal_multi(
        &self,
        bs: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        self.panel(Action::Solve, bs, k, out, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_close(a: &[f64], b: &[f64], tol: f64) -> bool {
        let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol * scale)
    }

    /// `(AᵀA)⁻¹ b` for one right-hand side.
    fn solve(op: &HierarchicalOperator, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        op.solve_normal_multi(b, 1, &mut x, &mut OpScratch::new())
            .unwrap();
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn solve_normal_matches_dense_inverse_small() {
        // Hand-checked 3-cell H2 case: M = [[3,2,1],[2,3,1],[1,1,2]],
        // M⁻¹ e₁ = (5, −3, −1)/8.
        let op = HierarchicalOperator::new(3, 2).unwrap();
        let x = solve(&op, &[1.0, 0.0, 0.0]);
        assert!(vec_close(&x, &[5.0 / 8.0, -3.0 / 8.0, -1.0 / 8.0], 1e-12));
    }

    #[test]
    fn solve_normal_is_an_inverse_of_the_normal_matrix() {
        for (n, b) in [(6usize, 2usize), (10, 3), (17, 4)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            let x0: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            // A⁺ (A x0) = (AᵀA)⁻¹ AᵀA x0 must recover x0.
            let back = op.pinv_apply(&op.apply(&x0).unwrap()).unwrap();
            assert!(vec_close(&back, &x0, 1e-10), "n={n} b={b}");
        }
    }

    #[test]
    fn single_cell_domain() {
        let op = HierarchicalOperator::new(1, 2).unwrap();
        assert_eq!(op.shape(), (1, 1));
        assert_eq!(solve(&op, &[3.0]), vec![3.0]);
        assert_eq!(op.pinv_apply(&[3.0]).unwrap(), vec![3.0]);
        assert_eq!(op.l1_operator_norm(), 1.0);
    }

    #[test]
    fn empty_domain_is_rejected() {
        assert!(matches!(
            HierarchicalOperator::new(0, 2),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn shape_mismatches_error() {
        let op = HierarchicalOperator::new(4, 2).unwrap();
        let mut out = Vec::new();
        assert!(op.apply(&[1.0]).is_err());
        assert!(op.pinv_apply(&[1.0]).is_err());
        assert!(op
            .solve_normal_multi(&[1.0], 1, &mut out, &mut OpScratch::new())
            .is_err());
    }

    /// Deterministic pseudo-noise panel: `k` column-major columns.
    fn panel(col_len: usize, k: usize, salt: u64) -> Vec<f64> {
        (0..col_len * k)
            .map(|i| {
                let mut z = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                z ^= z >> 29;
                (z % 2_000) as f64 / 100.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn into_paths_are_bit_identical_even_with_dirty_scratch() {
        // A scratch reused across differently-sized operators and both
        // tile widths must reproduce a fresh scratch bit for bit.
        let mut dirty = OpScratch::new();
        let mut out = vec![f64::NAN; 3];
        let mut fresh = Vec::new();
        for (n, b) in [(17usize, 3usize), (4, 2), (33, 2), (9, 5), (1, 2)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            let m = op.rows();
            for k in [9usize, 1] {
                let ys = panel(m, k, (n * b) as u64);
                op.pinv_apply_multi(&ys, k, &mut out, &mut dirty).unwrap();
                op.pinv_apply_multi(&ys, k, &mut fresh, &mut OpScratch::new())
                    .unwrap();
                assert_eq!(bits(&out), bits(&fresh), "pinv n={n} b={b} k={k}");

                let bs = panel(n, k, (n + b) as u64);
                op.solve_normal_multi(&bs, k, &mut out, &mut dirty).unwrap();
                op.solve_normal_multi(&bs, k, &mut fresh, &mut OpScratch::new())
                    .unwrap();
                assert_eq!(bits(&out), bits(&fresh), "solve n={n} b={b} k={k}");
            }
        }
    }

    #[test]
    fn multi_rhs_is_bit_identical_to_single_rhs_per_column() {
        // Each column of a panel — whether an 8-lane tile or the `W = 1`
        // tail computed it — must equal that column computed alone, bit
        // for bit, across branchings, non-power domains, and panel widths
        // that exercise empty/partial/multiple tiles plus ragged tails.
        // The scratch is reused across every iteration (so dirty,
        // differently-sized buffers are part of the test).
        let mut scratch = OpScratch::new();
        let mut got = Vec::new();
        let mut want_col = Vec::new();
        for b in [2usize, 3, 5] {
            for n in [1usize, 3, 7, 9, 33, 100] {
                let op = HierarchicalOperator::new(n, b).unwrap();
                let m = op.rows();
                for k in [1usize, 7, 8, 9, 16, 17] {
                    let bs = panel(n, k, (b * 77 + n) as u64);
                    op.solve_normal_multi(&bs, k, &mut got, &mut scratch)
                        .unwrap();
                    for j in 0..k {
                        op.solve_normal_multi(
                            &bs[j * n..(j + 1) * n],
                            1,
                            &mut want_col,
                            &mut scratch,
                        )
                        .unwrap();
                        assert_eq!(
                            bits(&got[j * n..(j + 1) * n]),
                            bits(&want_col),
                            "solve_normal_multi b={b} n={n} k={k} col={j}"
                        );
                    }

                    let ys = panel(m, k, (b * 1000 + n) as u64);
                    op.pinv_apply_multi(&ys, k, &mut got, &mut scratch).unwrap();
                    for j in 0..k {
                        let want = op.pinv_apply(&ys[j * m..(j + 1) * m]).unwrap();
                        assert_eq!(
                            bits(&got[j * n..(j + 1) * n]),
                            bits(&want),
                            "pinv_apply_multi b={b} n={n} k={k} col={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_rhs_checks_panel_shapes() {
        let op = HierarchicalOperator::new(4, 2).unwrap();
        let mut out = Vec::new();
        let mut scratch = OpScratch::new();
        // One element short of two full columns.
        let bad = vec![0.0; 2 * op.rows() - 1];
        assert!(op
            .pinv_apply_multi(&bad, 2, &mut out, &mut scratch)
            .is_err());
        let bad_n = vec![0.0; 2 * 4 - 1];
        assert!(op
            .solve_normal_multi(&bad_n, 2, &mut out, &mut scratch)
            .is_err());
    }

    #[test]
    fn large_domain_solve_is_fast_and_accurate() {
        // 100k cells: a dense pinv would be ~10¹⁵ flops; the operator
        // solves in milliseconds. Accuracy is checked via the round trip.
        let n = 100_000;
        let op = HierarchicalOperator::new(n, 2).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) / 97.0 - 0.5).collect();
        let back = op.pinv_apply(&op.apply(&x0).unwrap()).unwrap();
        assert!(vec_close(&back, &x0, 1e-9));
    }
}
