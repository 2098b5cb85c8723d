//! Compressed-sparse-row matrices.
//!
//! Workload matrices `W` and hierarchical strategy matrices `H_b` in APEx
//! are 0/1 and overwhelmingly sparse at realistic domain sizes: a histogram
//! workload has exactly one nonzero per row, and `H_b` over `n` cells has
//! `O(n log n)` nonzeros in an `O(n) × n` matrix (>95% zeros for `n ≥ 64`).
//! Storing them densely makes every product scale with *cells* instead of
//! *nonzeros*.
//!
//! [`CsrMatrix`] `matvec` costs `O(nnz)` instead of `O(rows · cols)`: at a
//! 1024-cell domain the H₂ strategy is ~99.5% sparse, so sparse products
//! are ~200× less work. What a pseudoinverse produces (`A⁺`, `W A⁺`) is
//! numerically dense, so the served pipeline never forms it and applies
//! `A⁺` matrix-free instead (see [`crate::StrategyOperator`]).

use crate::lanes::{check_tile, panel_by_tiles, LANES};
use crate::operator::check_panel;
use crate::{LinalgError, Result};

/// A compressed-sparse-row `f64` matrix.
///
/// Storage is the classic three-array CSR layout: row `i`'s entries live at
/// positions `indptr[i]..indptr[i+1]` of `indices` (column ids, strictly
/// ascending within a row) and `values` (the nonzero values).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

/// Row classification for [`CsrMatrix::matvec_tile_with_plan`], built by
/// [`CsrMatrix::panel_plan`]: which rows are prefix-sum-shaped (answered
/// by one shared running-sum sweep per tile) and which need the generic
/// per-row kernel. Valid only for the matrix it was built from.
#[derive(Debug, Clone)]
pub struct PanelPlan {
    /// Prefix rows as `(hi, row)`, sorted ascending by `hi`.
    prefix: Vec<(usize, usize)>,
    /// All other rows, ascending.
    general: Vec<usize>,
    /// Largest prefix `hi`: how far the shared sweep must run.
    sweep_hi: usize,
}

impl CsrMatrix {
    /// An all-zero sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a 0/1 incidence matrix from per-row sorted support lists
    /// (`support[i]` = ascending column ids where row `i` is 1).
    ///
    /// # Panics
    /// Panics if a support list is unsorted, has duplicates, or references a
    /// column `>= cols`.
    pub fn from_row_support(cols: usize, support: &[Vec<usize>]) -> Self {
        let mut b = CsrBuilder::new(cols);
        for row in support {
            b.push_row(row.iter().map(|&c| (c, 1.0)));
        }
        b.finish()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells that are stored, in `[0, 1]` (0 for empty shapes).
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Row `i` as parallel `(column ids, values)` slices.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(
            i < self.rows,
            "row index {i} out of bounds ({} rows)",
            self.rows
        );
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// The entry at `(i, j)` (0.0 when not stored).
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({} cols)",
            self.cols
        );
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `self * x`, `O(nnz)`: every output
    /// element is the row dot product, `k` ascending.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "csr matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter().zip(vals).map(|(&j, &v)| v * x[j]).sum()
            })
            .collect())
    }

    /// Classifies this matrix's rows for [`CsrMatrix::matvec_tile_with_plan`].
    ///
    /// A "prefix row" reads columns `0..hi` contiguously with unit
    /// weights — the shape of every range/CDF workload row over the
    /// leading cells — so its dot product is a prefix sum of `x`. The
    /// classification walks every stored nonzero (`O(nnz)`), so callers
    /// issuing many tile products against the same matrix build the plan
    /// once and reuse it.
    pub fn panel_plan(&self) -> PanelPlan {
        let mut prefix: Vec<(usize, usize)> = Vec::new(); // (hi, row)
        let mut general: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let is_prefix =
                cols.iter().enumerate().all(|(p, &j)| j == p) && vals.iter().all(|&v| v == 1.0);
            if is_prefix {
                prefix.push((cols.len(), i));
            } else {
                general.push(i);
            }
        }
        prefix.sort_unstable();
        let sweep_hi = prefix.last().map_or(0, |&(hi, _)| hi);
        PanelPlan {
            prefix,
            general,
            sweep_hi,
        }
    }

    /// Multi-RHS matvec on one lane tile: `xt` holds `width ∈ {1, LANES}`
    /// input vectors lane-interleaved (`xt[j * width + l]` is element `j`
    /// of lane `l`, `cols × width`), and lane `l` of `yt` (`rows × width`)
    /// receives `self * x_l`. The plan must come from
    /// [`CsrMatrix::panel_plan`] on this same matrix.
    ///
    /// One walk over the sparsity pattern serves the whole tile with
    /// independent per-lane accumulators (see the `lanes` module). Per
    /// lane, each row accumulates its nonzeros in ascending-k order
    /// starting from 0.0, so a lane's result does not depend on the width
    /// or on the other lanes.
    ///
    /// One shared running accumulator per lane serves all prefix rows at
    /// once: after `hi` additions it holds exactly the ascending-k fold
    /// (IEEE `1.0 * x == x`, additions in the same order from the same
    /// 0.0), so emitting it at each row's boundary equals the row's dot
    /// product while doing `O(max hi)` work per tile instead of
    /// `O(Σ hi)`. Other rows keep the generic per-row kernel.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `width` is neither 1 nor
    /// [`LANES`], or a length does not match it.
    pub fn matvec_tile_with_plan(
        &self,
        plan: &PanelPlan,
        xt: &[f64],
        width: usize,
        yt: &mut [f64],
    ) -> Result<()> {
        let shapes = ((xt.len(), self.cols), (yt.len(), self.rows));
        check_tile(shapes.0, shapes.1, width, "csr matvec_tile")?;
        if width == LANES {
            self.plan_tile::<LANES>(plan, xt, yt);
        } else {
            self.plan_tile::<1>(plan, xt, yt);
        }
        Ok(())
    }

    /// [`CsrMatrix::matvec_tile_with_plan`] over a column-major panel:
    /// `xs` holds `k` input columns of length `cols` each (`xs[c *
    /// cols..(c + 1) * cols]` is column `c`); `out` is resized to `k *
    /// rows` and column `c` of it receives `self * xsᶜ`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `xs.len() != k * cols`.
    pub fn matvec_panel_with_plan(
        &self,
        plan: &PanelPlan,
        xs: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        check_panel(xs.len(), self.cols, k, "csr matvec_panel")?;
        out.resize(k * self.rows, 0.0);
        // Lane-interleaved staging buffers, reused across the tiles of
        // this call.
        let (mut xt, mut yt) = (Vec::new(), Vec::new());
        panel_by_tiles(
            xs,
            self.cols,
            k,
            out,
            self.rows,
            (&mut xt, &mut yt),
            |t, w, o| self.matvec_tile_with_plan(plan, t, w, o),
        )
    }

    /// The plan kernel on one tile of `W` lanes: the shared prefix sweep,
    /// then the general rows.
    fn plan_tile<const W: usize>(&self, plan: &PanelPlan, xt: &[f64], yt: &mut [f64]) {
        let PanelPlan {
            prefix,
            general,
            sweep_hi,
        } = plan;
        // Every row is a prefix row or a general row, so the kernel writes
        // every entry of `yt`.
        let mut acc = [0.0f64; W];
        let mut next = 0usize;
        while next < prefix.len() && prefix[next].0 == 0 {
            let r = prefix[next].1;
            yt[r * W..(r + 1) * W].copy_from_slice(&acc);
            next += 1;
        }
        for j in 0..*sweep_hi {
            for (a, &xv) in acc.iter_mut().zip(&xt[j * W..(j + 1) * W]) {
                *a += xv;
            }
            while next < prefix.len() && prefix[next].0 == j + 1 {
                let r = prefix[next].1;
                yt[r * W..(r + 1) * W].copy_from_slice(&acc);
                next += 1;
            }
        }
        for &i in general {
            let (cols, vals) = self.row(i);
            let mut acc = [0.0f64; W];
            for (&j, &v) in cols.iter().zip(vals) {
                for (a, &xv) in acc.iter_mut().zip(&xt[j * W..(j + 1) * W]) {
                    *a += v * xv;
                }
            }
            yt[i * W..(i + 1) * W].copy_from_slice(&acc);
        }
    }

    /// The transpose, `O(nnz + rows + cols)` by counting sort.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = cursor[j];
                indices[p] = i;
                values[p] = v;
                cursor[j] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// The L1 operator norm `‖·‖₁` (maximum column absolute sum) — the
    /// sensitivity of a 0/1 workload/strategy matrix — in `O(nnz)`.
    pub fn l1_operator_norm(&self) -> f64 {
        let mut col_sums = vec![0.0_f64; self.cols];
        for (&j, &v) in self.indices.iter().zip(&self.values) {
            col_sums[j] += v.abs();
        }
        col_sums.into_iter().fold(0.0, f64::max)
    }

    /// The Frobenius norm `sqrt(Σ v²)` in `O(nnz)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// A stable 64-bit structural signature: FNV-1a over shape, row
    /// pointers, column ids and value bits. Equal matrices always produce
    /// equal signatures; the converse holds only up to 64-bit hash
    /// collisions (FNV-1a is not collision-resistant against adversarial
    /// input), so cache lookups keyed by this signature must verify the
    /// hit against the actual structure — see the verify-on-hit check in
    /// `apex-mech`'s strategy-mechanism cache.
    pub fn signature(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.rows as u64);
        eat(self.cols as u64);
        for &p in &self.indptr {
            eat(p as u64);
        }
        for (&j, &v) in self.indices.iter().zip(&self.values) {
            eat(j as u64);
            eat(v.to_bits());
        }
        h
    }
}

/// Incremental row-by-row CSR constructor.
#[derive(Debug)]
pub struct CsrBuilder {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// A builder for matrices with `cols` columns and no rows yet.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends one row given `(column, value)` pairs in strictly ascending
    /// column order. Zero values are dropped.
    ///
    /// # Panics
    /// Panics on out-of-range or non-ascending columns.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        let mut last: Option<usize> = None;
        for (j, v) in entries {
            assert!(
                j < self.cols,
                "column {j} out of bounds ({} cols)",
                self.cols
            );
            assert!(
                last.is_none_or(|l| l < j),
                "columns must be strictly ascending within a row"
            );
            last = Some(j);
            if v != 0.0 {
                self.indices.push(j);
                self.values.push(v);
            }
        }
        self.indptr.push(self.indices.len());
    }

    /// Appends one 0/1 row that is a contiguous run of ones on `lo..hi`
    /// (the shape of every hierarchical-strategy row) without intermediate
    /// allocation.
    ///
    /// # Panics
    /// Panics if `hi > cols` or `lo > hi`.
    pub fn push_interval_row(&mut self, lo: usize, hi: usize) {
        assert!(
            lo <= hi && hi <= self.cols,
            "bad interval [{lo}, {hi}) for {} cols",
            self.cols
        );
        self.indices.extend(lo..hi);
        self.values.extend(std::iter::repeat_n(1.0, hi - lo));
        self.indptr.push(self.indices.len());
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Finalizes the matrix.
    pub fn finish(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.indptr.len() - 1,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[[1, 0, 2, 0], [0, 0, 0, 0], [0, −3, 0, ½]]`, every value times
    /// `scale`.
    fn example(scale: f64) -> CsrMatrix {
        let mut b = CsrBuilder::new(4);
        b.push_row([(0, scale), (2, 2.0 * scale)]);
        b.push_row([]);
        b.push_row([(1, -3.0 * scale), (3, 0.5 * scale)]);
        b.finish()
    }

    #[test]
    fn get_and_row_access() {
        let s = example(1.0);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(2, 3), 0.5);
        let (cols, vals) = s.row(2);
        assert_eq!(cols, &[1, 3]);
        assert_eq!(vals, &[-3.0, 0.5]);
        let (cols, _) = s.row(1);
        assert!(cols.is_empty());
    }

    #[test]
    fn matvec_panel_is_bit_identical_to_per_column_matvec() {
        // Panels exercising no tiles (k < 8), exactly one tile, and
        // tiles + ragged tail, over an interval workload (prefix and
        // general rows) and the sparse example (which has an all-zero
        // row).
        let mut mats = vec![example(1.0)];
        let mut b = CsrBuilder::new(33);
        for i in 0..20 {
            b.push_interval_row(i, (i * 3 + 5).min(33));
        }
        mats.push(b.finish());
        let mut out = vec![f64::NAN; 3];
        for s in &mats {
            let plan = s.panel_plan();
            for k in [1usize, 7, 8, 9, 16, 17] {
                let xs: Vec<f64> = (0..k * s.cols())
                    .map(|i| ((i * 31 % 19) as f64) / 3.0 - 3.0)
                    .collect();
                s.matvec_panel_with_plan(&plan, &xs, k, &mut out).unwrap();
                assert_eq!(out.len(), k * s.rows());
                for c in 0..k {
                    let want = s.matvec(&xs[c * s.cols()..(c + 1) * s.cols()]).unwrap();
                    assert_eq!(
                        &out[c * s.rows()..(c + 1) * s.rows()],
                        &want[..],
                        "k={k} c={c}"
                    );
                }
            }
            // Shape check: one element short of k columns.
            assert!(s
                .matvec_panel_with_plan(&plan, &vec![0.0; 2 * s.cols() - 1], 2, &mut out)
                .is_err());
        }
        // The tile entry point refuses widths other than 1 and LANES.
        let s = &mats[1];
        let mut yt = vec![0.0; 3 * s.rows()];
        let xt = vec![1.0; 3 * s.cols()];
        assert!(s
            .matvec_tile_with_plan(&s.panel_plan(), &xt, 3, &mut yt)
            .is_err());
        // Empty shapes: a full tile plus a tail of all-zero rows, and of
        // no rows at all.
        for z in [CsrMatrix::zeros(3, 0), CsrMatrix::zeros(0, 4)] {
            z.matvec_panel_with_plan(&z.panel_plan(), &vec![1.0; 9 * z.cols()], 9, &mut out)
                .unwrap();
            assert_eq!(out, vec![0.0; 9 * z.rows()]);
        }
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::identity(4);
        assert_eq!(
            i,
            CsrMatrix::from_row_support(4, &[vec![0], vec![1], vec![2], vec![3]])
        );
        assert_eq!(i.l1_operator_norm(), 1.0);
        let z = CsrMatrix::zeros(2, 3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn builder_interval_rows() {
        let mut b = CsrBuilder::new(5);
        b.push_interval_row(0, 5);
        b.push_interval_row(2, 4);
        b.push_interval_row(3, 3); // empty interval = zero row
        let m = b.finish();
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.get(0, 4), 1.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.row(2).0.len(), 0);
    }

    #[test]
    fn from_row_support() {
        let m = CsrMatrix::from_row_support(4, &[vec![0, 2], vec![], vec![3]]);
        let mut b = CsrBuilder::new(4);
        b.push_row([(0, 1.0), (2, 1.0)]);
        b.push_row([]);
        b.push_row([(3, 1.0)]);
        assert_eq!(m, b.finish());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn builder_rejects_unsorted() {
        let mut b = CsrBuilder::new(4);
        b.push_row([(2, 1.0), (1, 1.0)]);
    }

    #[test]
    fn density_and_signature() {
        let s = example(1.0);
        assert!((s.density() - 4.0 / 12.0).abs() < 1e-15);
        assert_eq!(s.signature(), example(1.0).signature());
        let other = example(2.0);
        assert_ne!(s.signature(), other.signature());
        // Same values, different shape must differ.
        assert_ne!(
            CsrMatrix::zeros(2, 3).signature(),
            CsrMatrix::zeros(3, 2).signature()
        );
    }
}
