//! Compiled workloads: the matrix form `W ← T(W), x ← T_W(D)`.
//!
//! The incidence structure is stored **sparsely** (CSR): a workload row is
//! 1 exactly on the partition cells its predicate covers, so a histogram
//! workload has one nonzero per row and even heavily overlapping workloads
//! stay far below 50% density. All products (`true_answer`, sensitivity)
//! run over nonzeros.

use std::sync::{Arc, OnceLock};

use apex_data::{Dataset, DomainPartition, PartitionError, Predicate, RowDelta, Schema};
use apex_linalg::{CsrBuilder, CsrMatrix};

/// Errors raised when compiling a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Domain partitioning failed.
    Partition(PartitionError),
    /// An extension target is not a pure domain growth of this workload's
    /// partition (different workload, or a cell straddles the new grid).
    Incompatible(String),
}

impl From<PartitionError> for WorkloadError {
    fn from(e: PartitionError) -> Self {
        WorkloadError::Partition(e)
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Partition(e) => write!(f, "cannot compile workload: {e}"),
            WorkloadError::Incompatible(m) => write!(f, "cannot extend workload: {m}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Why a [`RowDelta`] could not be folded into a compiled workload.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// A delta row lies outside the domain this workload was compiled
    /// over — the mutation grew the domain, so the caller must recompile
    /// against the widened schema (see [`CompiledWorkload::extended`],
    /// which also yields a cell remap carrying the old histogram over).
    DomainGrowth(String),
    /// A delta row does not match the compiled schema at all (arity).
    RowMismatch(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::DomainGrowth(m) => write!(f, "delta grows the domain: {m}"),
            DeltaError::RowMismatch(m) => write!(f, "delta row mismatch: {m}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A sparse histogram update: the observable effect of a [`RowDelta`] on
/// the cell-count vector `x = T_W(D)`, computed in O(rows touched) —
/// no dataset rescan. Cells are deduplicated and carry net counts, so a
/// delta that inserts and deletes in the same cell collapses.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDelta {
    /// `(cell, net count change)`, sorted by cell, zero entries dropped.
    pub updates: Vec<(usize, f64)>,
    /// Epoch the originating mutation committed (from the [`RowDelta`]).
    pub epoch: u64,
}

impl HistogramDelta {
    /// Whether the delta changes nothing (e.g. insert + delete of the
    /// same rows, or a delete that matched nothing).
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Folds the delta into a histogram vector in O(cells touched).
    pub fn apply_to(&self, x: &mut [f64]) {
        for &(cell, dv) in &self.updates {
            x[cell] += dv;
        }
    }
}

/// A workload compiled against a schema: the minimal domain partition, the
/// `L × |dom_W(R)|` 0/1 matrix `W`, and its sensitivity `‖W‖₁`.
///
/// Compilation is **data independent** — it sees only the public schema
/// and the workload — so the matrix and the sensitivity can safely drive
/// the accuracy-to-privacy translation before any data access.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// Shared with the dataset's maintained histogram of this partition
    /// (which outlives the compiled workload), hence the `Arc`.
    partition: Arc<DomainPartition>,
    /// Schema the partition was built over — consulted by
    /// [`Self::apply_delta`] to tell in-domain mutations from ones that
    /// grew the domain (which require [`Self::extended`]).
    schema: Schema,
    /// The `L × n_cells` 0/1 incidence structure, sparse.
    csr: CsrMatrix,
    /// Transposed incidence (cell → query rows touching it), built on the
    /// first incremental answer update only.
    cell_to_queries: OnceLock<Vec<Vec<u32>>>,
    sensitivity: f64,
    /// Structural signature of the compiled incidence (cache key for
    /// derived artifacts: the strategy operator and MC translator).
    signature: u64,
}

impl CompiledWorkload {
    /// Compiles `workload` against `schema`.
    ///
    /// # Errors
    /// Propagates partitioning failures (unknown attributes, empty
    /// workload, cell blow-up).
    pub fn compile(schema: &Schema, workload: &[Predicate]) -> Result<Self, WorkloadError> {
        let partition = Arc::new(DomainPartition::build(schema, workload)?);
        let mut b = CsrBuilder::new(partition.n_cells());
        for i in 0..partition.n_predicates() {
            b.push_row(partition.cells_of(i).iter().map(|&c| (c, 1.0)));
        }
        let csr = b.finish();
        let sensitivity = csr.l1_operator_norm();
        let signature = csr.signature();
        Ok(Self {
            partition,
            schema: schema.clone(),
            csr,
            cell_to_queries: OnceLock::new(),
            sensitivity,
            signature,
        })
    }

    /// The workload matrix `W` (`L × n_cells`) in sparse (CSR) form — its
    /// only representation.
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// The domain partition backing the matrix.
    pub fn partition(&self) -> &DomainPartition {
        &self.partition
    }

    /// Workload size `L`.
    pub fn n_queries(&self) -> usize {
        self.csr.rows()
    }

    /// Number of domain cells `|dom_W(R)|`.
    pub fn n_cells(&self) -> usize {
        self.csr.cols()
    }

    /// The sensitivity `‖W‖₁` of the workload (max column L1 norm).
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// A stable 64-bit signature of the compiled incidence structure
    /// (shape + sparsity pattern + values). Repeated compilations of the
    /// same workload over the same schema produce the same signature, so
    /// it keys caches of expensive derived artifacts.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The histogram `x = T_W(D)` of a dataset over the partition cells,
    /// read from the dataset's maintained views: O(cells) once this
    /// partition has been asked of a resident `data`, one scan the first
    /// time (and every time when `data` is paged).
    pub fn histogram(&self, data: &Dataset) -> Vec<f64> {
        data.histogram(&self.partition)
    }

    /// The exact (non-private) workload answer `W x`, computed over the
    /// sparse incidence in `O(nnz)`.
    pub fn true_answer(&self, data: &Dataset) -> Vec<f64> {
        let x = self.histogram(data);
        self.csr
            .matvec(&x)
            .expect("histogram length matches matrix columns")
    }

    /// Folds a committed [`RowDelta`] into a [`HistogramDelta`] in
    /// O(rows touched): each inserted/deleted row locates its partition
    /// cell directly — no dataset rescan. A checked wrapper over
    /// [`DomainPartition::fold_rows`], the primitive the dataset's own
    /// views are maintained with.
    ///
    /// # Errors
    /// [`DeltaError::DomainGrowth`] when a delta row lies outside the
    /// domain this workload was compiled over (the mutation widened the
    /// schema): recompile via [`Self::extended`] and retry against the
    /// new workload. [`DeltaError::RowMismatch`] on arity mismatch.
    pub fn apply_delta(&self, delta: &RowDelta) -> Result<HistogramDelta, DeltaError> {
        let arity = self.schema.arity();
        for row in delta.inserted.iter().chain(&delta.deleted) {
            if row.len() != arity {
                return Err(DeltaError::RowMismatch(format!(
                    "expected {arity} values, got {}",
                    row.len()
                )));
            }
            self.schema
                .validate_row(row)
                .map_err(|e| DeltaError::DomainGrowth(e.to_string()))?;
        }
        let mut net = std::collections::BTreeMap::new();
        self.partition
            .fold_rows(&delta.inserted, &delta.deleted, |cell, dv| {
                *net.entry(cell).or_insert(0.0) += dv;
            });
        Ok(HistogramDelta {
            updates: net.into_iter().filter(|&(_, v)| v != 0.0).collect(),
            epoch: delta.epoch,
        })
    }

    /// Folds a [`HistogramDelta`] into a workload answer vector
    /// `y = W x` in O(Σ queries touching each changed cell), via the
    /// transposed CSR incidence (built once, lazily).
    pub fn update_answer(&self, delta: &HistogramDelta, y: &mut [f64]) {
        let t = self.cell_to_queries.get_or_init(|| {
            let mut t = vec![Vec::new(); self.partition.n_cells()];
            for i in 0..self.partition.n_predicates() {
                for &c in self.partition.cells_of(i) {
                    t[c].push(i as u32);
                }
            }
            t
        });
        for &(cell, dv) in &delta.updates {
            for &q in &t[cell] {
                y[q as usize] += dv;
            }
        }
    }

    /// Recompiles this workload against a **widened** schema (domain
    /// growth from an insert) and returns the new compiled workload plus
    /// the old-cell → new-cell map: an existing histogram carries over in
    /// O(n_cells) (`x_new[map[c]] += x_old[c]`) instead of an O(|D|)
    /// rescan, because widening only adds cell boundaries outside the old
    /// coverage.
    ///
    /// # Errors
    /// Compilation failures propagate; [`WorkloadError::Incompatible`] if
    /// `workload` is not the workload this was compiled from (the remap
    /// would be ill-defined).
    pub fn extended(
        &self,
        schema: &Schema,
        workload: &[Predicate],
    ) -> Result<(Self, Vec<usize>), WorkloadError> {
        let new = Self::compile(schema, workload)?;
        let map = self.partition.remap_to(new.partition()).ok_or_else(|| {
            WorkloadError::Incompatible(
                "target partition is not a domain growth of this one".into(),
            )
        })?;
        Ok((new, map))
    }

    /// The schema this workload was compiled over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::{Attribute, CmpOp, Dataset, Domain, Value};

    fn schema() -> Schema {
        Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 99 },
        )])
        .unwrap()
    }

    fn data(values: &[i64]) -> Dataset {
        let mut d = Dataset::empty(schema());
        for &v in values {
            d.push(vec![Value::Int(v)]).unwrap();
        }
        d
    }

    /// The reference the dataset's maintained views must equal.
    fn rescan(c: &CompiledWorkload, d: &Dataset) -> Vec<f64> {
        c.partition().histogram(d)
    }

    fn histogram_workload(bins: usize, width: i64) -> Vec<Predicate> {
        (0..bins)
            .map(|i| {
                Predicate::range(
                    "v",
                    (i as i64 * width) as f64,
                    ((i as i64 + 1) * width) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn histogram_workload_has_sensitivity_one() {
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        assert_eq!(c.sensitivity(), 1.0);
        assert_eq!(c.n_queries(), 10);
    }

    #[test]
    fn prefix_workload_has_sensitivity_l() {
        let w: Vec<Predicate> = (1..=8)
            .map(|i| Predicate::cmp("v", CmpOp::Lt, i * 10))
            .collect();
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        assert_eq!(c.sensitivity(), 8.0);
    }

    #[test]
    fn true_answer_matches_direct_counts() {
        let d = data(&[5, 15, 15, 25, 95]);
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        let ans = c.true_answer(&d);
        assert_eq!(ans[0], 1.0);
        assert_eq!(ans[1], 2.0);
        assert_eq!(ans[2], 1.0);
        assert_eq!(ans[9], 1.0);
        assert_eq!(ans.iter().sum::<f64>(), 5.0);
    }

    #[test]
    fn histogram_sums_to_data_size() {
        let d = data(&[1, 2, 3, 50, 99]);
        let c = CompiledWorkload::compile(&schema(), &histogram_workload(5, 20)).unwrap();
        assert_eq!(c.histogram(&d).iter().sum::<f64>(), 5.0);
    }

    #[test]
    fn empty_workload_is_an_error() {
        assert!(CompiledWorkload::compile(&schema(), &[]).is_err());
    }

    #[test]
    fn sparse_and_dense_forms_agree() {
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        let dense = apex_oracle::Matrix::from_csr(c.csr());
        assert_eq!(dense.to_csr(), *c.csr());
        assert_eq!(apex_oracle::l1_operator_norm(&dense), c.sensitivity());
        // A 10-bin histogram over an 11-cell partition: 1 nonzero per row.
        assert_eq!(c.csr().nnz(), 10);
    }

    #[test]
    fn apply_delta_matches_full_rescan() {
        let mut d = data(&[5, 15, 15, 25, 95]);
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        let mut x = c.histogram(&d);
        let mut y = c.csr().matvec(&x).unwrap();

        let delta = d
            .insert_rows(&[vec![Value::Int(15)], vec![Value::Int(77)]])
            .unwrap();
        let hd = c.apply_delta(&delta).unwrap();
        hd.apply_to(&mut x);
        c.update_answer(&hd, &mut y);
        assert_eq!(x, rescan(&c, &d), "insert: incremental == rescan");
        assert_eq!(x, c.histogram(&d), "insert: the dataset's view folded too");
        assert_eq!(y, c.true_answer(&d), "insert: answers track");

        let delta = d.delete_rows(&[vec![Value::Int(15)]]).unwrap();
        let hd = c.apply_delta(&delta).unwrap();
        hd.apply_to(&mut x);
        c.update_answer(&hd, &mut y);
        assert_eq!(x, rescan(&c, &d), "delete: incremental == rescan");
        assert_eq!(x, c.histogram(&d), "delete: the dataset's view folded too");
        assert_eq!(y, c.true_answer(&d), "delete: answers track");
    }

    #[test]
    fn self_cancelling_delta_is_empty() {
        let c = CompiledWorkload::compile(&schema(), &histogram_workload(10, 10)).unwrap();
        let delta = apex_data::RowDelta {
            inserted: vec![vec![Value::Int(15)]],
            deleted: vec![vec![Value::Int(17)]], // same bin [10,20)
            epoch: 1,
        };
        let hd = c.apply_delta(&delta).unwrap();
        assert!(hd.is_empty());
    }

    #[test]
    fn domain_growth_is_detected_and_extension_carries_the_histogram() {
        let mut d = data(&[5, 15, 95]);
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        let x_old = c.histogram(&d);

        // Insert widens the domain: 500 is outside IntRange{0,99}.
        let delta = d.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        assert!(matches!(
            c.apply_delta(&delta),
            Err(DeltaError::DomainGrowth(_))
        ));

        // Extend against the widened schema; carry the histogram over and
        // fold the delta in — bit-identical to a from-scratch rebuild.
        let (c2, map) = c.extended(d.schema(), &w).unwrap();
        let mut x = vec![0.0; c2.n_cells()];
        for (cell, v) in x_old.iter().enumerate() {
            x[map[cell]] += v;
        }
        c2.apply_delta(&delta).unwrap().apply_to(&mut x);
        assert_eq!(x, rescan(&c2, &d));
        assert_eq!(x, c2.histogram(&d));
    }

    #[test]
    fn prefix_workloads_with_one_matrix_but_different_cuts_get_different_views() {
        // Both compile to the same lower-triangular incidence — equal CSR,
        // equal signature, one shared translator — yet they cut the domain
        // at different points, so their histograms differ. The dataset's
        // views are keyed by the row→cell mapping and must not alias.
        let prefix = |step: i64| -> Vec<Predicate> {
            (1..=8)
                .map(|i| Predicate::cmp("v", CmpOp::Lt, i * step))
                .collect()
        };
        let d = data(&[5, 15, 15, 25, 65, 95]);
        let a = CompiledWorkload::compile(&schema(), &prefix(10)).unwrap();
        let b = CompiledWorkload::compile(&schema(), &prefix(4)).unwrap();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.csr(), b.csr());
        assert!(!a.partition().same_mapping(b.partition()));

        let (xa, xb) = (a.histogram(&d), b.histogram(&d));
        assert_ne!(xa, xb);
        assert_eq!(d.view_stats().entries, 2);
        // Second asks are hits, each on its own view.
        assert_eq!(a.histogram(&d), rescan(&a, &d));
        assert_eq!(b.histogram(&d), rescan(&b, &d));
        let s = d.view_stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn delta_arity_mismatch_is_rejected() {
        let c = CompiledWorkload::compile(&schema(), &histogram_workload(10, 10)).unwrap();
        let delta = apex_data::RowDelta {
            inserted: vec![vec![Value::Int(1), Value::Int(2)]],
            deleted: vec![],
            epoch: 1,
        };
        assert!(matches!(
            c.apply_delta(&delta),
            Err(DeltaError::RowMismatch(_))
        ));
    }

    #[test]
    fn signature_is_stable_and_discriminating() {
        let w = histogram_workload(10, 10);
        let a = CompiledWorkload::compile(&schema(), &w).unwrap();
        let b = CompiledWorkload::compile(&schema(), &w).unwrap();
        assert_eq!(a.signature(), b.signature());
        let other = CompiledWorkload::compile(&schema(), &histogram_workload(5, 20)).unwrap();
        assert_ne!(a.signature(), other.signature());
    }
}
