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
//! the dense QR pseudoinverse the operator replaces. `apply` and
//! `apply_transpose` walk the `O(n log_b n)` stored interval lengths.
//!
//! Row order matches `Strategy::build_csr` exactly (intervals ascending
//! by `(lo, hi)`), and the per-row summation order matches the CSR
//! matvec, so operator and CSR paths agree bit for bit — property-tested
//! in `tests/properties.rs`.

use crate::operator::{check_panel, OpScratch, SharedOperator, StrategyOperator};
use crate::{LinalgError, Result};
use std::sync::Arc;

/// Lane width of the blocked multi-RHS kernels. Panels are processed in
/// tiles of `LANES` columns stored lane-interleaved (`buf[i * LANES + l]`
/// is element `i` of lane `l`), so the innermost loops are fixed-width
/// independent f64 operations that LLVM autovectorizes and that break the
/// loop-carried FP addition chains of the single-RHS sweeps. Eight lanes
/// cover one AVX-512 vector, two AVX2 vectors, or four SSE2 vectors.
const LANES: usize = 8;

/// Rows per chunk of the lane transposes below: the interleaved slab a
/// chunk touches is `1024 × LANES × 8 B = 64 KiB`, small enough to stay
/// cached across the per-lane passes. Without chunking, every one of the
/// `LANES` passes walks the full tile and touches every cache line of it,
/// multiplying the transpose traffic by `LANES` on tiles past cache size.
const XPOSE_CHUNK: usize = 1024;

/// Packs `LANES` column-major columns of length `len` into one
/// lane-interleaved tile (`tile[i * LANES + l] = cols[l * len + i]`).
fn pack_lanes(cols: &[f64], len: usize, tile: &mut [f64]) {
    let mut i0 = 0;
    while i0 < len {
        let i1 = (i0 + XPOSE_CHUNK).min(len);
        for (l, col) in cols.chunks_exact(len).enumerate() {
            for i in i0..i1 {
                tile[i * LANES + l] = col[i];
            }
        }
        i0 = i1;
    }
}

/// Inverse of [`pack_lanes`]: spreads a lane-interleaved tile back into
/// `LANES` column-major columns of length `len`.
fn unpack_lanes(tile: &[f64], len: usize, cols: &mut [f64]) {
    let mut i0 = 0;
    while i0 < len {
        let i1 = (i0 + XPOSE_CHUNK).min(len);
        for (l, col) in cols.chunks_exact_mut(len).enumerate() {
            for i in i0..i1 {
                col[i] = tile[i * LANES + l];
            }
        }
        i0 = i1;
    }
}

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

/// The hierarchical strategy `H_b` over `n` cells as a matrix-free
/// [`StrategyOperator`]. Construction is `O(n log_b n)` time and memory
/// (the interval lists); `solve_normal` is `O(n)` per right-hand side.
#[derive(Debug, Clone)]
pub struct HierarchicalOperator {
    n: usize,
    branching: usize,
    /// Tree nodes in BFS order; `nodes[0]` is the root.
    nodes: Vec<Node>,
    /// Row intervals sorted ascending by `(lo, hi)` — the exact row order
    /// of `Strategy::build_csr`.
    rows: Vec<(usize, usize)>,
    /// Per-cell scatter plan for the blocked transpose:
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
        Self::build(n, branching, &mut std::collections::HashMap::new())
    }

    /// Grows the operator to `n_new ≥ n` cells after a domain extension.
    ///
    /// The tree over `[0, n_new)` is re-laid out (interval bounds shift
    /// when the root interval grows), but the expensive part of the
    /// precompute — the Sherman–Morrison scalars `(γ, s)` — is a **pure
    /// function of a node's width** given the branching factor: children
    /// split a width-`w` node the same way wherever it sits. Seeding the
    /// width memo from this operator's nodes means the γ/s pass of the
    /// extension only computes scalars for widths this tree has never
    /// seen, and reuses everything else verbatim — which also makes the
    /// result **bit-identical** to a fresh build (the fresh build computes
    /// the same pure function in the same order; property-tested).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `n_new < n` — domains grow,
    /// they never shrink.
    pub fn extended(&self, n_new: usize) -> Result<Self> {
        if n_new < self.n {
            return Err(LinalgError::ShapeMismatch {
                op: "hier extend_to",
                lhs: (self.rows.len(), self.n),
                rhs: (n_new, n_new),
            });
        }
        let mut memo: std::collections::HashMap<usize, (f64, f64)> = self
            .nodes
            .iter()
            .map(|v| (v.hi - v.lo, (v.gamma, v.s)))
            .collect();
        Self::build(n_new, self.branching, &mut memo)
    }

    /// Shared constructor: `memo` maps node width → `(γ, s)`. An empty
    /// memo is a fresh build; [`Self::extended`] seeds it from an existing
    /// operator. Entries must come from this same pure recurrence (leaf
    /// `s = 1`; internal `γ = Σ child s`, `s = γ/(1+γ)`) over the same
    /// branching factor.
    fn build(
        n: usize,
        branching: usize,
        memo: &mut std::collections::HashMap<usize, (f64, f64)>,
    ) -> Result<Self> {
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
        // parents). `(γ, s)` is a pure function of node width given the
        // branching factor, so the memo short-circuits every width already
        // solved — either earlier in this pass or by the seed operator in
        // [`Self::extended`]. Memoised and freshly computed values are
        // bitwise interchangeable: both run this exact recurrence.
        for v in (0..nodes.len()).rev() {
            let width = nodes[v].hi - nodes[v].lo;
            if let Some(&(gamma, s)) = memo.get(&width) {
                nodes[v].gamma = gamma;
                nodes[v].s = s;
            } else {
                if nodes[v].child_count == 0 {
                    nodes[v].s = 1.0;
                } else {
                    let (cs, cc) = (nodes[v].child_start, nodes[v].child_count);
                    let gamma: f64 = nodes[cs..cs + cc].iter().map(|c| c.s).sum();
                    nodes[v].gamma = gamma;
                    nodes[v].s = gamma / (1.0 + gamma);
                }
                memo.insert(width, (nodes[v].gamma, nodes[v].s));
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
        // per-cell fold order matches the serial reference exactly.
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
            branching: b,
            nodes,
            rows,
            cover_rows,
            cover_off,
            l1_norm: max_cover as f64,
        })
    }

    /// The tree fan-out `b`.
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// The two sweeps of the Sherman–Morrison solve, writing into
    /// caller-owned buffers. Every entry that is ever read is written
    /// first (`sx` fully in the bottom-up sweep; `coeff` for internal
    /// nodes only, which are the only ones read; `acc` for every non-root
    /// node by its parent, with the root seeded explicitly; `x` once per
    /// leaf, and every cell is exactly one leaf), so dirty buffers produce
    /// bit-identical results to fresh ones.
    fn solve_sweeps(
        &self,
        b: &[f64],
        sx: &mut [f64],
        coeff: &mut [f64],
        acc: &mut [f64],
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
                sx[v] = b[node.lo];
            } else {
                let (cs, cc) = (node.child_start, node.child_count);
                let alpha: f64 = sx[cs..cs + cc].iter().sum();
                let c = alpha / (1.0 + node.gamma);
                coeff[v] = c;
                sx[v] = alpha - c * node.gamma;
            }
        }

        // Top-down: accumulate the telescoped correction coefficient
        // `A_child = (A_v + c_v) · f_child`, `f = 1/(1+γ)` for internal
        // children and 1 for leaves; at a leaf, x = b − A.
        acc[0] = 0.0;
        for v in 0..m {
            let node = &nodes[v];
            if node.child_count == 0 {
                x[node.lo] = b[node.lo] - acc[v];
            } else {
                let down = acc[v] + coeff[v];
                let (cs, cc) = (node.child_start, node.child_count);
                for c in cs..cs + cc {
                    acc[c] = if nodes[c].child_count == 0 {
                        down
                    } else {
                        down / (1.0 + nodes[c].gamma)
                    };
                }
            }
        }
    }

    /// `Aᵀ` of `LANES` lane-interleaved columns at once: each cell gathers
    /// a whole lane-vector of row weights per covering row.
    ///
    /// Walks the precomputed per-cell cover lists, so each output cell is
    /// accumulated in registers and written exactly once — the naive
    /// row-major sweep read-modify-writes every cell once per covering row
    /// (≈ depth × the panel) and is L2-bandwidth-bound on large domains.
    /// The row-weight loads stay cache-hot because adjacent cells share
    /// all but their deepest covering rows. Per lane, each cell still
    /// accumulates its covering rows in ascending row order (the lists
    /// are built row-ascending), starting from zero — the exact
    /// floating-point sequence of the single-RHS scatter, bit for bit.
    fn scatter_lanes(&self, yt: &[f64], bt: &mut [f64]) {
        for (c, cell) in bt.chunks_exact_mut(LANES).enumerate() {
            let lo = self.cover_off[c] as usize;
            let hi = self.cover_off[c + 1] as usize;
            let mut acc = [0.0f64; LANES];
            for &r in &self.cover_rows[lo..hi] {
                let w = &yt[r as usize * LANES..(r as usize + 1) * LANES];
                for (a, &wl) in acc.iter_mut().zip(w) {
                    *a += wl;
                }
            }
            cell.copy_from_slice(&acc);
        }
    }

    /// [`HierarchicalOperator::solve_sweeps`] over `LANES` lane-interleaved
    /// right-hand sides: one interval-tree walk amortized across the whole
    /// tile, with every scalar recurrence replicated per lane in the same
    /// order (children summed ascending, identical correction telescoping),
    /// so each lane is bit-identical to the scalar sweeps. The same
    /// write-before-read discipline as the scalar version keeps dirty
    /// buffers safe.
    ///
    /// Unlike the scalar sweeps, the top-down correction accumulator
    /// reuses `sx`: the subtree sums are dead once the bottom-up pass
    /// finishes (only `coeff` carries over), and every `acc` slot is
    /// written by the parent before its node reads it, so the aliasing is
    /// value-invisible — it just avoids streaming a third
    /// `nodes × LANES` buffer through the cache per tile.
    fn solve_sweeps_lanes(&self, b: &[f64], sx: &mut [f64], coeff: &mut [f64], x: &mut [f64]) {
        let nodes = &self.nodes;
        let m = nodes.len();

        for v in (0..m).rev() {
            let node = &nodes[v];
            if node.child_count == 0 {
                let src = &b[node.lo * LANES..(node.lo + 1) * LANES];
                sx[v * LANES..(v + 1) * LANES].copy_from_slice(src);
            } else {
                let (cs, cc) = (node.child_start, node.child_count);
                let mut alpha = [0.0f64; LANES];
                for c in cs..cs + cc {
                    let child = &sx[c * LANES..(c + 1) * LANES];
                    for (a, &s) in alpha.iter_mut().zip(child) {
                        *a += s;
                    }
                }
                for (l, &a) in alpha.iter().enumerate() {
                    let c = a / (1.0 + node.gamma);
                    coeff[v * LANES + l] = c;
                    sx[v * LANES + l] = a - c * node.gamma;
                }
            }
        }

        let acc = sx;
        acc[..LANES].fill(0.0);
        for v in 0..m {
            let node = &nodes[v];
            if node.child_count == 0 {
                let lo = node.lo;
                for l in 0..LANES {
                    x[lo * LANES + l] = b[lo * LANES + l] - acc[v * LANES + l];
                }
            } else {
                let mut down = [0.0f64; LANES];
                for (l, d) in down.iter_mut().enumerate() {
                    *d = acc[v * LANES + l] + coeff[v * LANES + l];
                }
                let (cs, cc) = (node.child_start, node.child_count);
                for c in cs..cs + cc {
                    if nodes[c].child_count == 0 {
                        acc[c * LANES..(c + 1) * LANES].copy_from_slice(&down);
                    } else {
                        let inv = 1.0 + nodes[c].gamma;
                        for (l, &d) in down.iter().enumerate() {
                            acc[c * LANES + l] = d / inv;
                        }
                    }
                }
            }
        }
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

    fn apply_transpose(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "hier apply_transpose",
                lhs: (self.n, self.rows.len()),
                rhs: (y.len(), 1),
            });
        }
        // Scatter row values over their intervals in ascending row order:
        // each output cell accumulates exactly the covering rows,
        // ascending — the same sequence as the transposed-CSR matvec.
        let mut out = vec![0.0; self.n];
        for (&(lo, hi), &w) in self.rows.iter().zip(y) {
            for o in &mut out[lo..hi] {
                *o += w;
            }
        }
        Ok(out)
    }

    fn solve_normal(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                op: "hier solve_normal",
                lhs: (self.n, self.n),
                rhs: (b.len(), 1),
            });
        }
        let m = self.nodes.len();
        let mut sx = vec![0.0f64; m];
        let mut coeff = vec![0.0f64; m];
        let mut acc = vec![0.0f64; m];
        let mut x = vec![0.0f64; self.n];
        self.solve_sweeps(b, &mut sx, &mut coeff, &mut acc, &mut x);
        Ok(x)
    }

    fn l1_operator_norm(&self) -> f64 {
        self.l1_norm
    }

    fn extend_to(&self, n_new: usize) -> Option<SharedOperator> {
        self.extended(n_new)
            .ok()
            .map(|op| Arc::new(op) as SharedOperator)
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if y.len() != self.rows.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "hier apply_transpose",
                lhs: (self.n, self.rows.len()),
                rhs: (y.len(), 1),
            });
        }
        // Zero + scatter, exactly like the allocating path.
        out.clear();
        out.resize(self.n, 0.0);
        for (&(lo, hi), &w) in self.rows.iter().zip(y) {
            for o in &mut out[lo..hi] {
                *o += w;
            }
        }
        Ok(())
    }

    fn solve_normal_into(
        &self,
        b: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                op: "hier solve_normal",
                lhs: (self.n, self.n),
                rhs: (b.len(), 1),
            });
        }
        let m = self.nodes.len();
        scratch.sweep_a.resize(m, 0.0);
        scratch.sweep_b.resize(m, 0.0);
        scratch.sweep_c.resize(m, 0.0);
        out.resize(self.n, 0.0);
        self.solve_sweeps(
            b,
            &mut scratch.sweep_a,
            &mut scratch.sweep_b,
            &mut scratch.sweep_c,
            out,
        );
        Ok(())
    }

    fn pinv_apply_into(
        &self,
        y: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let mut t = scratch.take_transpose();
        let r = self
            .apply_transpose_into(y, &mut t)
            .and_then(|()| self.solve_normal_into(&t, out, scratch));
        scratch.put_transpose(t);
        r
    }

    /// Blocked override: full tiles of [`LANES`] columns go through
    /// [`HierarchicalOperator::scatter_lanes`]; the ragged tail falls back
    /// to the per-column single-RHS path (bit-identical by definition).
    fn apply_transpose_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let m = self.rows.len();
        let n = self.n;
        check_panel(ys.len(), m, k, "hier apply_transpose_multi")?;
        out.resize(k * n, 0.0);
        let tiles = k / LANES;
        for t in 0..tiles {
            scratch.panel_a.resize(m * LANES, 0.0);
            pack_lanes(
                &ys[t * LANES * m..(t + 1) * LANES * m],
                m,
                &mut scratch.panel_a,
            );
            scratch.panel_b.resize(n * LANES, 0.0);
            self.scatter_lanes(&scratch.panel_a, &mut scratch.panel_b);
            unpack_lanes(
                &scratch.panel_b,
                n,
                &mut out[t * LANES * n..(t + 1) * LANES * n],
            );
        }
        let mut col = scratch.take_col();
        let mut result = Ok(());
        for j in tiles * LANES..k {
            if let Err(e) = self.apply_transpose_into(&ys[j * m..(j + 1) * m], &mut col) {
                result = Err(e);
                break;
            }
            out[j * n..(j + 1) * n].copy_from_slice(&col);
        }
        scratch.put_col(col);
        result
    }

    /// Blocked override: one lane-parallel pair of sweeps per tile of
    /// [`LANES`] right-hand sides, amortizing the interval-tree walk.
    fn solve_normal_multi(
        &self,
        bs: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let n = self.n;
        check_panel(bs.len(), n, k, "hier solve_normal_multi")?;
        out.resize(k * n, 0.0);
        let m = self.nodes.len();
        let tiles = k / LANES;
        for t in 0..tiles {
            scratch.panel_a.resize(n * LANES, 0.0);
            pack_lanes(
                &bs[t * LANES * n..(t + 1) * LANES * n],
                n,
                &mut scratch.panel_a,
            );
            scratch.sweep_a.resize(m * LANES, 0.0);
            scratch.sweep_b.resize(m * LANES, 0.0);
            scratch.panel_c.resize(n * LANES, 0.0);
            self.solve_sweeps_lanes(
                &scratch.panel_a,
                &mut scratch.sweep_a,
                &mut scratch.sweep_b,
                &mut scratch.panel_c,
            );
            unpack_lanes(
                &scratch.panel_c,
                n,
                &mut out[t * LANES * n..(t + 1) * LANES * n],
            );
        }
        let mut col = scratch.take_col();
        let mut result = Ok(());
        for j in tiles * LANES..k {
            if let Err(e) = self.solve_normal_into(&bs[j * n..(j + 1) * n], &mut col, scratch) {
                result = Err(e);
                break;
            }
            out[j * n..(j + 1) * n].copy_from_slice(&col);
        }
        scratch.put_col(col);
        result
    }

    /// Blocked override chaining [`HierarchicalOperator::scatter_lanes`]
    /// and [`HierarchicalOperator::solve_sweeps_lanes`] per tile — the
    /// panel entry point of the blocked Monte-Carlo prepare.
    fn pinv_apply_multi(
        &self,
        ys: &[f64],
        k: usize,
        out: &mut Vec<f64>,
        scratch: &mut OpScratch,
    ) -> Result<()> {
        let m = self.rows.len();
        let n = self.n;
        check_panel(ys.len(), m, k, "hier pinv_apply_multi")?;
        out.resize(k * n, 0.0);
        let nodes = self.nodes.len();
        let tiles = k / LANES;
        for t in 0..tiles {
            scratch.panel_a.resize(m * LANES, 0.0);
            pack_lanes(
                &ys[t * LANES * m..(t + 1) * LANES * m],
                m,
                &mut scratch.panel_a,
            );
            scratch.panel_b.resize(n * LANES, 0.0);
            self.scatter_lanes(&scratch.panel_a, &mut scratch.panel_b);
            scratch.sweep_a.resize(nodes * LANES, 0.0);
            scratch.sweep_b.resize(nodes * LANES, 0.0);
            scratch.panel_c.resize(n * LANES, 0.0);
            self.solve_sweeps_lanes(
                &scratch.panel_b,
                &mut scratch.sweep_a,
                &mut scratch.sweep_b,
                &mut scratch.panel_c,
            );
            unpack_lanes(
                &scratch.panel_c,
                n,
                &mut out[t * LANES * n..(t + 1) * LANES * n],
            );
        }
        let mut col = scratch.take_col();
        let mut result = Ok(());
        for j in tiles * LANES..k {
            if let Err(e) = self.pinv_apply_into(&ys[j * m..(j + 1) * m], &mut col, scratch) {
                result = Err(e);
                break;
            }
            out[j * n..(j + 1) * n].copy_from_slice(&col);
        }
        scratch.put_col(col);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_close(a: &[f64], b: &[f64], tol: f64) -> bool {
        let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol * scale)
    }

    #[test]
    fn solve_normal_matches_dense_inverse_small() {
        // Hand-checked 3-cell H2 case: M = [[3,2,1],[2,3,1],[1,1,2]],
        // M⁻¹ e₁ = (5, −3, −1)/8.
        let op = HierarchicalOperator::new(3, 2).unwrap();
        let x = op.solve_normal(&[1.0, 0.0, 0.0]).unwrap();
        assert!(vec_close(&x, &[5.0 / 8.0, -3.0 / 8.0, -1.0 / 8.0], 1e-12));
    }

    #[test]
    fn solve_normal_is_an_inverse_of_the_normal_matrix() {
        for (n, b) in [(6usize, 2usize), (10, 3), (17, 4)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            let x0: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            // b = (AᵀA) x0, then solve must recover x0.
            let ax = op.apply(&x0).unwrap();
            let atax = op.apply_transpose(&ax).unwrap();
            let back = op.solve_normal(&atax).unwrap();
            assert!(vec_close(&back, &x0, 1e-10), "n={n} b={b}");
        }
    }

    #[test]
    fn single_cell_domain() {
        let op = HierarchicalOperator::new(1, 2).unwrap();
        assert_eq!(op.shape(), (1, 1));
        assert_eq!(op.solve_normal(&[3.0]).unwrap(), vec![3.0]);
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
        assert!(op.apply(&[1.0]).is_err());
        assert!(op.apply_transpose(&[1.0]).is_err());
        assert!(op.solve_normal(&[1.0]).is_err());
    }

    #[test]
    fn into_paths_are_bit_identical_even_with_dirty_scratch() {
        // The _into entry points must reproduce the allocating paths bit
        // for bit, regardless of what a reused scratch carries from a
        // previous (differently-sized) call.
        let mut scratch = OpScratch::new();
        let mut out = vec![f64::NAN; 3];
        for (n, b) in [(17usize, 3usize), (4, 2), (33, 2), (9, 5), (1, 2)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            let y: Vec<f64> = (0..op.rows())
                .map(|i| ((i * 5 % 11) as f64) - 4.0)
                .collect();
            let fresh = op.pinv_apply(&y).unwrap();
            op.pinv_apply_into(&y, &mut out, &mut scratch).unwrap();
            assert_eq!(out, fresh, "pinv n={n} b={b}");

            let rhs: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let fresh = op.solve_normal(&rhs).unwrap();
            op.solve_normal_into(&rhs, &mut out, &mut scratch).unwrap();
            assert_eq!(out, fresh, "solve n={n} b={b}");

            let fresh = op.apply_transpose(&y).unwrap();
            op.apply_transpose_into(&y, &mut out).unwrap();
            assert_eq!(out, fresh, "transpose n={n} b={b}");
        }
    }

    #[test]
    fn into_paths_check_shapes() {
        let op = HierarchicalOperator::new(4, 2).unwrap();
        let mut out = Vec::new();
        let mut scratch = OpScratch::new();
        assert!(op.apply_transpose_into(&[1.0], &mut out).is_err());
        assert!(op
            .solve_normal_into(&[1.0], &mut out, &mut scratch)
            .is_err());
        assert!(op.pinv_apply_into(&[1.0], &mut out, &mut scratch).is_err());
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
    fn multi_rhs_is_bit_identical_to_single_rhs_per_column() {
        // The blocked kernels must reproduce the single-RHS loop bit for
        // bit across branchings, non-power domains, and panel widths that
        // exercise empty/partial/multiple tiles plus ragged tails. The
        // scratch is reused across every iteration (so dirty,
        // differently-sized buffers are part of the test).
        let mut scratch = OpScratch::new();
        let mut got = Vec::new();
        let mut want_col = Vec::new();
        for b in [2usize, 3, 5] {
            for n in [1usize, 3, 7, 9, 33, 100] {
                let op = HierarchicalOperator::new(n, b).unwrap();
                let m = op.rows();
                for k in [1usize, 7, 8, 9, 16, 17] {
                    let ys = panel(m, k, (b * 1000 + n) as u64);
                    op.apply_transpose_multi(&ys, k, &mut got, &mut scratch)
                        .unwrap();
                    for j in 0..k {
                        op.apply_transpose_into(&ys[j * m..(j + 1) * m], &mut want_col)
                            .unwrap();
                        assert_eq!(
                            &got[j * n..(j + 1) * n],
                            &want_col[..],
                            "apply_transpose_multi b={b} n={n} k={k} col={j}"
                        );
                    }

                    let bs = panel(n, k, (b * 77 + n) as u64);
                    op.solve_normal_multi(&bs, k, &mut got, &mut scratch)
                        .unwrap();
                    for j in 0..k {
                        op.solve_normal_into(&bs[j * n..(j + 1) * n], &mut want_col, &mut scratch)
                            .unwrap();
                        assert_eq!(
                            &got[j * n..(j + 1) * n],
                            &want_col[..],
                            "solve_normal_multi b={b} n={n} k={k} col={j}"
                        );
                    }

                    op.pinv_apply_multi(&ys, k, &mut got, &mut scratch).unwrap();
                    for j in 0..k {
                        op.pinv_apply_into(&ys[j * m..(j + 1) * m], &mut want_col, &mut scratch)
                            .unwrap();
                        assert_eq!(
                            &got[j * n..(j + 1) * n],
                            &want_col[..],
                            "pinv_apply_multi b={b} n={n} k={k} col={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_rhs_matches_the_default_per_column_implementation() {
        // The trait's default multi-RHS implementation is the reference;
        // the blocked override must agree with it bit for bit. Route the
        // default through a thin wrapper that does not override the multi
        // methods.
        #[derive(Debug)]
        struct Unblocked<'a>(&'a HierarchicalOperator);
        impl StrategyOperator for Unblocked<'_> {
            fn shape(&self) -> (usize, usize) {
                self.0.shape()
            }
            fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
                self.0.apply(x)
            }
            fn apply_transpose(&self, y: &[f64]) -> Result<Vec<f64>> {
                self.0.apply_transpose(y)
            }
            fn solve_normal(&self, b: &[f64]) -> Result<Vec<f64>> {
                self.0.solve_normal(b)
            }
            fn l1_operator_norm(&self) -> f64 {
                self.0.l1_operator_norm()
            }
            fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) -> Result<()> {
                self.0.apply_transpose_into(y, out)
            }
            fn solve_normal_into(
                &self,
                b: &[f64],
                out: &mut Vec<f64>,
                scratch: &mut OpScratch,
            ) -> Result<()> {
                self.0.solve_normal_into(b, out, scratch)
            }
            fn pinv_apply_into(
                &self,
                y: &[f64],
                out: &mut Vec<f64>,
                scratch: &mut OpScratch,
            ) -> Result<()> {
                self.0.pinv_apply_into(y, out, scratch)
            }
        }

        let mut s1 = OpScratch::new();
        let mut s2 = OpScratch::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (n, b, k) in [(33usize, 2usize, 17usize), (27, 3, 8), (50, 5, 9)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            let reference = Unblocked(&op);
            let ys = panel(op.rows(), k, 0xDEAD ^ n as u64);
            op.pinv_apply_multi(&ys, k, &mut got, &mut s1).unwrap();
            reference
                .pinv_apply_multi(&ys, k, &mut want, &mut s2)
                .unwrap();
            assert_eq!(got, want, "n={n} b={b} k={k}");
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
            .apply_transpose_multi(&bad, 2, &mut out, &mut scratch)
            .is_err());
        assert!(op
            .pinv_apply_multi(&bad, 2, &mut out, &mut scratch)
            .is_err());
        let bad_n = vec![0.0; 2 * 4 - 1];
        assert!(op
            .solve_normal_multi(&bad_n, 2, &mut out, &mut scratch)
            .is_err());
    }

    #[test]
    fn extended_is_bit_identical_to_fresh_build() {
        // The whole point of `extended` is that the incremental path is
        // indistinguishable from a from-scratch rebuild — not just "close",
        // but bitwise. Compare every precomputed field and a solve.
        for &b in &[2usize, 3, 5] {
            for &(n_old, n_new) in &[
                (1usize, 2usize),
                (4, 4),
                (4, 7),
                (16, 17),
                (16, 64),
                (100, 257),
            ] {
                let old = HierarchicalOperator::new(n_old, b).unwrap();
                let ext = old.extended(n_new).unwrap();
                let fresh = HierarchicalOperator::new(n_new, b).unwrap();

                assert_eq!(ext.n, fresh.n, "b={b} {n_old}->{n_new}");
                assert_eq!(ext.branching, fresh.branching);
                assert_eq!(ext.rows, fresh.rows, "b={b} {n_old}->{n_new}");
                assert_eq!(ext.cover_off, fresh.cover_off);
                assert_eq!(ext.cover_rows, fresh.cover_rows);
                assert_eq!(ext.l1_norm.to_bits(), fresh.l1_norm.to_bits());
                assert_eq!(ext.nodes.len(), fresh.nodes.len());
                for (e, f) in ext.nodes.iter().zip(fresh.nodes.iter()) {
                    assert_eq!((e.lo, e.hi), (f.lo, f.hi));
                    assert_eq!(
                        (e.child_start, e.child_count),
                        (f.child_start, f.child_count)
                    );
                    assert_eq!(
                        e.gamma.to_bits(),
                        f.gamma.to_bits(),
                        "b={b} {n_old}->{n_new}"
                    );
                    assert_eq!(e.s.to_bits(), f.s.to_bits(), "b={b} {n_old}->{n_new}");
                }

                let rhs: Vec<f64> = (0..n_new).map(|i| (i as f64).sin()).collect();
                let xe = ext.solve_normal(&rhs).unwrap();
                let xf = fresh.solve_normal(&rhs).unwrap();
                for (a, c) in xe.iter().zip(xf.iter()) {
                    assert_eq!(a.to_bits(), c.to_bits());
                }
            }
        }
    }

    #[test]
    fn extend_to_rejects_shrinking() {
        let op = HierarchicalOperator::new(8, 2).unwrap();
        assert!(matches!(
            op.extended(7),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(op.extend_to(7).is_none());
        // Equal size is a valid (trivial) extension.
        assert!(op.extend_to(8).is_some());
    }

    #[test]
    fn large_domain_solve_is_fast_and_accurate() {
        // 100k cells: a dense pinv would be ~10¹⁵ flops; the operator
        // solves in milliseconds. Accuracy is checked via the residual.
        let n = 100_000;
        let op = HierarchicalOperator::new(n, 2).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) / 97.0 - 0.5).collect();
        let rhs = op.apply_transpose(&op.apply(&x0).unwrap()).unwrap();
        let back = op.solve_normal(&rhs).unwrap();
        assert!(vec_close(&back, &x0, 1e-9));
    }
}
