//! Compiled workloads: the matrix form `W ← T(W), x ← T_W(D)`.
//!
//! The incidence structure is stored **sparsely** (CSR): a workload row is
//! 1 exactly on the partition cells its predicate covers, so a histogram
//! workload has one nonzero per row and even heavily overlapping workloads
//! stay far below 50% density. All products (`true_answer`, sensitivity)
//! run over nonzeros.

use std::sync::Arc;

use apex_data::{Dataset, DomainPartition, PartitionError, Predicate, Schema};
use apex_linalg::{CsrBuilder, CsrMatrix};

/// Errors raised when compiling a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Domain partitioning failed.
    Partition(PartitionError),
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
        }
    }
}

impl std::error::Error for WorkloadError {}

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
    /// Schema the partition was built over: a widening insert changes
    /// the dataset's schema, and a workload is recompiled against it.
    schema: Schema,
    /// The `L × n_cells` 0/1 incidence structure, sparse.
    csr: CsrMatrix,
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
        // A mutation reaches the histogram through the dataset's folded
        // view; it must equal a rescan of the mutated rows.
        let mut d = data(&[5, 15, 15, 25, 95]);
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        c.histogram(&d);

        d.insert_rows(&[vec![Value::Int(15)], vec![Value::Int(77)]])
            .unwrap();
        let x = c.histogram(&d);
        assert_eq!(x, rescan(&c, &d), "insert: the view folded == rescan");
        assert_eq!(c.true_answer(&d), c.csr().matvec(&x).unwrap());

        d.delete_rows(&[vec![Value::Int(15)]]).unwrap();
        let x = c.histogram(&d);
        assert_eq!(x, rescan(&c, &d), "delete: the view folded == rescan");
        assert_eq!(c.true_answer(&d), c.csr().matvec(&x).unwrap());

        let s = d.view_stats();
        assert_eq!((s.misses, s.folds), (1, 2), "one scan, then folds only");
    }

    #[test]
    fn self_cancelling_delta_is_empty() {
        // An insert and a delete in one cell (the bin [10, 20)) cancel
        // out: the folded view is unchanged by the pair.
        let mut d = data(&[5, 15, 17, 25, 95]);
        let c = CompiledWorkload::compile(&schema(), &histogram_workload(10, 10)).unwrap();
        let x = c.histogram(&d);

        d.insert_rows(&[vec![Value::Int(15)]]).unwrap();
        d.delete_rows(&[vec![Value::Int(17)]]).unwrap();
        assert_eq!(c.histogram(&d), x, "a self-cancelling pair");
        assert_eq!(c.histogram(&d), rescan(&c, &d));
        let s = d.view_stats();
        assert_eq!((s.misses, s.folds), (1, 2), "one scan, then folds only");
    }

    #[test]
    fn a_widening_insert_is_served_by_a_recompile_over_the_new_schema() {
        let mut d = data(&[5, 15, 95]);
        let w = histogram_workload(10, 10);
        let c = CompiledWorkload::compile(&schema(), &w).unwrap();
        c.histogram(&d);

        // 500 lies outside IntRange{0,99}: the insert widens the schema
        // and clears the views; the workload recompiles against the new
        // schema and its first histogram is a rescan.
        d.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        assert_ne!(d.schema(), &schema());
        let c2 = CompiledWorkload::compile(d.schema(), &w).unwrap();
        assert_eq!(c2.histogram(&d), rescan(&c2, &d));
        assert_eq!(c2.histogram(&d).iter().sum::<f64>(), 4.0);
        assert_eq!(c2.true_answer(&d), c.true_answer(&data(&[5, 15, 95])));
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
    fn signature_is_stable_and_discriminating() {
        let w = histogram_workload(10, 10);
        let a = CompiledWorkload::compile(&schema(), &w).unwrap();
        let b = CompiledWorkload::compile(&schema(), &w).unwrap();
        assert_eq!(a.signature(), b.signature());
        let other = CompiledWorkload::compile(&schema(), &histogram_workload(5, 20)).unwrap();
        assert_ne!(a.signature(), other.signature());
    }
}
