//! Queries compiled into the matrix form mechanisms operate on.

use std::sync::Arc;

use apex_data::Schema;
use apex_query::{CompiledWorkload, ExplorationQuery, QueryKind, WorkloadError};

/// An exploration query compiled against a schema: the workload matrix,
/// its sensitivity, and the query kind.
///
/// Preparation is data independent; mechanisms receive the sensitive
/// dataset only inside `run`. The compiled workload is shared, so WCQ,
/// ICQ and TCQ over one predicate list can use one compile.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    compiled: Arc<CompiledWorkload>,
    kind: QueryKind,
}

impl PreparedQuery {
    /// Compiles `query` against `schema`.
    ///
    /// # Errors
    /// Propagates workload-compilation failures (unknown attributes,
    /// empty workloads, domain blow-up).
    pub fn prepare(schema: &Schema, query: &ExplorationQuery) -> Result<Self, WorkloadError> {
        let compiled = CompiledWorkload::compile(schema, &query.workload)?;
        Ok(Self::new(Arc::new(compiled), query.kind))
    }

    /// A query of `kind` over an already compiled workload.
    pub fn new(compiled: Arc<CompiledWorkload>, kind: QueryKind) -> Self {
        Self { compiled, kind }
    }

    /// The compiled workload (matrix + partition + sensitivity).
    pub fn compiled(&self) -> &Arc<CompiledWorkload> {
        &self.compiled
    }

    /// WCQ / ICQ / TCQ.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// Workload size `L`.
    pub fn n_queries(&self) -> usize {
        self.compiled.n_queries()
    }

    /// The workload sensitivity `‖W‖₁`.
    pub fn sensitivity(&self) -> f64 {
        self.compiled.sensitivity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::{Attribute, Domain, Predicate};

    fn schema() -> Schema {
        Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 9 },
        )])
        .unwrap()
    }

    #[test]
    fn prepare_histogram_query() {
        let q = ExplorationQuery::wcq(
            (0..5)
                .map(|i| Predicate::range("v", (2 * i) as f64, (2 * i + 2) as f64))
                .collect(),
        );
        let p = PreparedQuery::prepare(&schema(), &q).unwrap();
        assert_eq!(p.n_queries(), 5);
        assert_eq!(p.sensitivity(), 1.0);
        assert_eq!(p.kind(), QueryKind::Wcq);
    }

    #[test]
    fn prepare_rejects_empty_workload() {
        let q = ExplorationQuery::wcq(vec![]);
        assert!(PreparedQuery::prepare(&schema(), &q).is_err());
    }
}
