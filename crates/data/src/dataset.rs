//! Multiset table instances.

use crate::store::{widen_schema, DatasetLog, MutationOp, PagedRows, PoolStats, StoreError};
use crate::views::{ViewCache, ViewStats};
use crate::{DomainPartition, Predicate, Schema, SchemaError, Value};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The observable effect of one committed mutation batch: the rows that
/// actually entered/left the dataset, and the epoch stamped by the
/// commit. This is the currency of incremental maintenance — the query
/// layer folds a `RowDelta` into compiled artifacts in O(rows touched).
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// Rows added (exactly the requested batch for an insert).
    pub inserted: Vec<Vec<Value>>,
    /// Rows actually removed (first matching occurrence per requested
    /// row; requests with no match contribute nothing here).
    pub deleted: Vec<Vec<Value>>,
    /// Dataset epoch after this mutation committed.
    pub epoch: u64,
}

/// Why a mutation was refused. Validation happens *before* anything is
/// logged and the log append before anything is applied — a failed
/// mutation leaves the dataset as it was.
#[derive(Debug)]
pub enum MutationError {
    /// A row failed validation (wrong arity, unknown category, too large
    /// for a page…): the caller's fault.
    Schema(SchemaError),
    /// The mutation log or the page store failed: a storage fault, not
    /// the caller's.
    Store(StoreError),
    /// Empty batches are refused: they would burn an epoch for nothing.
    EmptyBatch,
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Schema(e) => write!(f, "mutation rejected: {e}"),
            MutationError::Store(e) => write!(f, "mutation failed in store: {e}"),
            MutationError::EmptyBatch => write!(f, "mutation rejected: empty batch"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Schema(e) => Some(e),
            MutationError::Store(e) => Some(e),
            MutationError::EmptyBatch => None,
        }
    }
}

impl From<SchemaError> for MutationError {
    fn from(e: SchemaError) -> Self {
        MutationError::Schema(e)
    }
}

impl From<StoreError> for MutationError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Rejected(e) => MutationError::Schema(e),
            e => MutationError::Store(e),
        }
    }
}

/// Row storage: resident or paged through the buffer pool.
#[derive(Debug, Clone)]
enum Rows {
    /// Fully resident (synthesized or built by tests).
    Mem(Vec<Vec<Value>>),
    /// Backed by a durable page file; rows stream through the pool.
    Paged {
        store: Arc<PagedRows>,
        /// Lazy full materialization for the few legacy callers of
        /// [`Dataset::rows`]; scans never touch this.
        resident: Arc<OnceLock<Vec<Vec<Value>>>>,
    },
}

/// An instance `D` of a schema: a multiset of tuples.
///
/// This is the *sensitive* object in APEx — everything the analyst learns
/// about it must flow through a differentially private mechanism. Access
/// control is the engine's job; this type's job is storage. A dataset is
/// either **resident** (plain `Vec` of rows, as synthesized) or **paged**
/// (opened from a durable store directory; rows are checksum-verified and
/// streamed page-by-page through a buffer pool, so the instance can be
/// larger than memory). Mechanisms only ever consume the schema and a row
/// stream, so they cannot tell the difference.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Shared by clones; a widening insert installs a new `Arc`, so
    /// pointer identity tells one schema version from the next.
    schema: Arc<Schema>,
    rows: Rows,
    /// Generation counter for resident datasets (paged datasets read the
    /// live epoch from their store). Bumped by every committed mutation;
    /// *not* bumped by the pre-serving builder API ([`Self::push`]).
    mem_epoch: u64,
    /// Mutations applied to a resident dataset (paged: from the store).
    mem_applied: u64,
    /// A resident dataset's mutation log, once attached
    /// ([`Self::attach_mutation_log`]): every mutation is appended to it
    /// before it applies. Clones share it. (A paged dataset's log is its
    /// store's.)
    log: Option<Arc<Mutex<DatasetLog>>>,
    /// Maintained histograms of recently asked partitions (see
    /// [`crate::views`]): read by [`Self::histogram`], folded by every
    /// mutation, cloned with the value. Always empty when paged.
    views: ViewCache,
}

impl Dataset {
    fn from_rows(schema: Schema, rows: Rows) -> Self {
        Self {
            schema: Arc::new(schema),
            rows,
            mem_epoch: 0,
            mem_applied: 0,
            log: None,
            views: ViewCache::default(),
        }
    }

    fn from_store(store: PagedRows) -> Self {
        Self::from_rows(
            store.schema(),
            Rows::Paged {
                store: Arc::new(store),
                resident: Arc::new(OnceLock::new()),
            },
        )
    }

    /// Creates an empty dataset over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Self::from_rows(schema, Rows::Mem(Vec::new()))
    }

    /// Creates a dataset from pre-built rows, validating each against the
    /// schema.
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, SchemaError> {
        for row in &rows {
            schema.validate_row(row)?;
        }
        Ok(Self::from_rows(schema, Rows::Mem(rows)))
    }

    /// Persists this dataset into `dir` (pages + checksums + manifest) and
    /// returns a paged dataset reading back from it. `epoch` stamps the
    /// generation; bump it on re-ingest. `pool_frames` bounds how many
    /// 8 KiB pages the returned dataset keeps resident.
    pub fn ingest_paged(
        &self,
        dir: &Path,
        epoch: u64,
        pool_frames: usize,
    ) -> Result<Dataset, StoreError> {
        let store = match &self.rows {
            Rows::Mem(rows) => PagedRows::ingest(
                dir,
                &self.schema,
                rows.iter().map(|r| r.as_slice()),
                epoch,
                pool_frames,
            )?,
            Rows::Paged { store, .. } => {
                // Re-ingest from the existing store (e.g. copying a tenant
                // into a new data dir): stream rows across.
                let rows = store.materialize()?;
                PagedRows::ingest(
                    dir,
                    &self.schema,
                    rows.iter().map(|r| r.as_slice()),
                    epoch,
                    pool_frames,
                )?
            }
        };
        Ok(Self::from_store(store))
    }

    /// Opens a dataset previously persisted with [`Self::ingest_paged`],
    /// verifying the manifest (format version, checksum, page coverage)
    /// without reading any data pages. Acked-but-uncommitted mutations in
    /// the store's mutation log are replayed before the dataset is served.
    pub fn open_paged(dir: &Path, pool_frames: usize) -> Result<Dataset, StoreError> {
        Ok(Self::from_store(PagedRows::open(dir, pool_frames)?))
    }

    /// Whether this dataset is backed by the durable store.
    pub fn is_paged(&self) -> bool {
        matches!(self.rows, Rows::Paged { .. })
    }

    /// Buffer-pool counters, when paged.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.rows {
            Rows::Mem(_) => None,
            Rows::Paged { store, .. } => Some(store.pool_stats()),
        }
    }

    /// Storage generation, when paged.
    pub fn storage_epoch(&self) -> Option<u64> {
        match &self.rows {
            Rows::Mem(_) => None,
            Rows::Paged { store, .. } => Some(store.epoch()),
        }
    }

    /// Dataset generation: bumped by every committed mutation. Resident
    /// datasets count from 0; paged datasets report the live store epoch
    /// (stamped at ingest, bumped durably per mutation). The engine
    /// snapshots this at `evaluate` and refuses to `commit` across a
    /// mismatch — a compiled artifact from another epoch is never served.
    pub fn epoch(&self) -> u64 {
        match &self.rows {
            Rows::Mem(_) => self.mem_epoch,
            Rows::Paged { store, .. } => store.epoch(),
        }
    }

    /// Mutation batches folded into this dataset over its lifetime.
    pub fn mutations_applied(&self) -> u64 {
        match &self.rows {
            Rows::Mem(_) => self.mem_applied,
            Rows::Paged { store, .. } => store.mutations_applied(),
        }
    }

    /// Gives a resident dataset its own durable mutation log in `dir`.
    /// The records already there (the mutations acked before a restart)
    /// are replayed over this dataset in order, through the same mutation
    /// path; from then on every mutation is appended and fsynced before
    /// it applies. The file is created by the first mutation, so a
    /// dataset that is never mutated leaves nothing on disk. Attach once,
    /// to the dataset as built. A paged dataset already logs in its store
    /// directory and is left as it is.
    ///
    /// # Errors
    /// The log cannot be read, holds a corrupt record (only a torn tail
    /// is skipped: a resident dataset has no count of its own to tell a
    /// dropped acked record from a missing one), or a record fails to
    /// re-apply (the dataset is not the base the log was written over).
    pub fn attach_mutation_log(&mut self, dir: &Path) -> Result<(), MutationError> {
        if self.is_paged() {
            return Ok(());
        }
        let mut records = Vec::new();
        DatasetLog::replay(dir, |r| records.push(r))?;
        for r in records {
            match r.op {
                MutationOp::Insert => self.insert_rows(&r.rows)?,
                MutationOp::Delete => self.delete_rows(&r.rows)?,
            };
        }
        self.log = Some(Arc::new(Mutex::new(DatasetLog::new(dir))));
        Ok(())
    }

    /// Inserts a batch of rows as one committed mutation, returning the
    /// [`RowDelta`] for incremental artifact maintenance. Numeric domains
    /// widen automatically to admit out-of-range values (deterministically
    /// — replay re-derives the same widened schema); any other mismatch is
    /// refused before anything is logged. The batch is durable before it
    /// applies when the dataset has a mutation log (paged datasets always
    /// do: log ack + copy-on-write pages + manifest epoch bump).
    pub fn insert_rows(&mut self, rows: &[Vec<Value>]) -> Result<RowDelta, MutationError> {
        if rows.is_empty() {
            return Err(MutationError::EmptyBatch);
        }
        let (schema, epoch) = match &mut self.rows {
            Rows::Mem(existing) => {
                let widened = widen_schema(&self.schema, rows);
                for row in rows {
                    widened.validate_row(row)?;
                }
                if let Some(log) = &self.log {
                    let mut log = log.lock().expect("mutation log lock");
                    log.append(self.mem_applied, MutationOp::Insert, rows)?; // ← the ack point
                }
                existing.extend(rows.iter().cloned());
                self.mem_epoch += 1;
                self.mem_applied += 1;
                (widened, self.mem_epoch)
            }
            Rows::Paged { store, resident } => {
                let outcome = store.insert_rows(rows)?;
                // Drop any stale materialization; the store may have
                // widened the schema, mirrored below.
                *resident = Arc::new(OnceLock::new());
                (store.schema(), outcome.epoch)
            }
        };
        let delta = RowDelta {
            inserted: rows.to_vec(),
            deleted: Vec::new(),
            epoch,
        };
        if schema == *self.schema {
            self.views.fold(&delta);
        } else {
            // A widened domain moves segment boundaries: partitions
            // compiled from now on map rows differently, so the old views
            // could never be asked for again.
            self.schema = Arc::new(schema);
            self.views.clear();
        }
        Ok(delta)
    }

    /// Deletes the first matching occurrence (in storage order) of each
    /// row in `rows`, as one committed mutation. Rows with no match are
    /// silent no-ops; the returned [`RowDelta`] lists what was actually
    /// removed. Resident and paged datasets share these semantics, so the
    /// same request yields the same delta on either backing.
    pub fn delete_rows(&mut self, rows: &[Vec<Value>]) -> Result<RowDelta, MutationError> {
        if rows.is_empty() {
            return Err(MutationError::EmptyBatch);
        }
        let (deleted, epoch) = match &mut self.rows {
            Rows::Mem(existing) => {
                let arity = self.schema.arity();
                if let Some(row) = rows.iter().find(|row| row.len() != arity) {
                    let msg = format!("expected {arity} values, got {}", row.len());
                    return Err(MutationError::Schema(SchemaError::RowMismatch(msg)));
                }
                if let Some(log) = &self.log {
                    let mut log = log.lock().expect("mutation log lock");
                    log.append(self.mem_applied, MutationOp::Delete, rows)?; // ← the ack point
                }
                let mut want: Vec<&Vec<Value>> = rows.iter().collect();
                let mut deleted = Vec::new();
                let mut kept = Vec::with_capacity(existing.len());
                for row in existing.drain(..) {
                    if let Some(pos) = want.iter().position(|w| **w == row) {
                        want.remove(pos);
                        deleted.push(row);
                    } else {
                        kept.push(row);
                    }
                }
                *existing = kept;
                self.mem_epoch += 1;
                self.mem_applied += 1;
                (deleted, self.mem_epoch)
            }
            Rows::Paged { store, resident } => {
                let outcome = store.delete_rows(rows)?;
                *resident = Arc::new(OnceLock::new());
                (outcome.deleted, outcome.epoch)
            }
        };
        let delta = RowDelta {
            inserted: Vec::new(),
            deleted,
            epoch,
        };
        self.views.fold(&delta);
        Ok(delta)
    }

    /// The schema of the dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema's shared handle: equal pointers mean the same schema
    /// version (no widening insert in between).
    pub fn schema_arc(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples `|D|`.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Mem(rows) => rows.len(),
            Rows::Paged { store, .. } => store.row_count() as usize,
        }
    }

    /// Whether the dataset holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams every row through `f` with bounded memory: resident
    /// datasets iterate the vector, paged datasets go page-by-page
    /// through the buffer pool (checksum-verified). This is the accessor
    /// mechanisms and partition histograms use.
    ///
    /// # Panics
    ///
    /// On storage corruption detected mid-scan. The store fails stop:
    /// serving a silently wrong histogram would corrupt every noisy
    /// answer derived from it, which is strictly worse than dying.
    pub fn for_each_row(&self, mut f: impl FnMut(&[Value])) {
        match &self.rows {
            Rows::Mem(rows) => {
                for row in rows {
                    f(row);
                }
            }
            Rows::Paged { store, .. } => store
                .for_each_row(f)
                .unwrap_or_else(|e| panic!("paged dataset scan failed: {e}")),
        }
    }

    /// The histogram `x = T_W(D)` over `partition`'s cells. A resident
    /// dataset answers through its maintained views: O(cells) when this
    /// partition's row→cell mapping was already asked for since the last
    /// domain change, one [`DomainPartition::histogram`] scan (then
    /// cached) otherwise. A paged dataset always scans (see
    /// [`crate::views`]). Either way the result is bit-identical to that
    /// scan.
    pub fn histogram(&self, partition: &Arc<DomainPartition>) -> Vec<f64> {
        if self.is_paged() {
            return partition.histogram(self);
        }
        if let Some(x) = self.views.lookup(partition) {
            return x;
        }
        let x = partition.histogram(self);
        self.views.insert(partition, &x);
        x
    }

    /// Counters and sizes of the maintained histograms.
    pub fn view_stats(&self) -> ViewStats {
        self.views.stats()
    }

    /// Rescans the rows once per cached view and compares bit for bit:
    /// `Ok(views checked)`, or the first divergence. An integrity probe
    /// for tests, the schedule exerciser and the service self-test.
    pub fn audit_views(&self) -> Result<usize, String> {
        let views = self.views.snapshot();
        for (i, (partition, x)) in views.iter().enumerate() {
            let fresh = partition.histogram(self);
            let differs = |(a, b): (&f64, &f64)| a.to_bits() != b.to_bits();
            if let Some(cell) = fresh.iter().zip(x).position(differs) {
                return Err(format!(
                    "view {i} of {}: cell {cell} holds {} but a rescan counts {}",
                    views.len(),
                    x[cell],
                    fresh[cell]
                ));
            }
        }
        Ok(views.len())
    }

    /// Immutable access to the rows as one slice.
    ///
    /// For a paged dataset this materializes **all** rows on first call
    /// (kept for the lifetime of the dataset) — fine for tests and small
    /// tables, wrong for scans: use [`Self::for_each_row`] there.
    pub fn rows(&self) -> &[Vec<Value>] {
        match &self.rows {
            Rows::Mem(rows) => rows,
            Rows::Paged { store, resident } => resident.get_or_init(|| {
                store
                    .materialize()
                    .unwrap_or_else(|e| panic!("paged dataset materialization failed: {e}"))
            }),
        }
    }

    /// Appends a row after validating it — the pre-serving *builder* API
    /// (synthesis, tests). Deliberately does **not** bump the epoch: a
    /// dataset under construction has no consumers to invalidate (its
    /// maintained histograms, if any were built, are dropped). Once a
    /// dataset is live, use [`Self::insert_rows`] / [`Self::delete_rows`],
    /// which commit real epochs; `push` on a dataset with a mutation log
    /// (every paged one) is refused, as the log would never see the row.
    pub fn push(&mut self, row: Vec<Value>) -> Result<(), SchemaError> {
        self.schema.validate_row(&row)?;
        match &mut self.rows {
            Rows::Mem(rows) if self.log.is_none() => {
                rows.push(row);
                self.views.clear();
                Ok(())
            }
            _ => Err(SchemaError::RowMismatch(
                "dataset logs its mutations; use insert_rows for live mutation".into(),
            )),
        }
    }

    /// The exact (non-private!) count of rows satisfying `pred`. Used
    /// internally by mechanisms (through the histogram) and by tests that
    /// compare noisy answers with ground truth; never exposed to analysts
    /// by the engine.
    pub fn count(&self, pred: &Predicate) -> Result<u64, SchemaError> {
        let mut n = 0;
        let mut err = None;
        self.for_each_row(|row| {
            if err.is_some() {
                return;
            }
            match pred.eval(&self.schema, row) {
                Ok(true) => n += 1,
                Ok(false) => {}
                Err(e) => err = Some(e),
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// A new (resident) dataset containing the first `n` rows (used by
    /// the case study to vary `|D|`; Figure 7).
    pub fn take(&self, n: usize) -> Dataset {
        let mut rows = Vec::with_capacity(n.min(self.len()));
        self.for_each_row(|row| {
            if rows.len() < n {
                rows.push(row.to_vec());
            }
        });
        Self::from_rows((*self.schema).clone(), Rows::Mem(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, CmpOp, Domain};
    use std::path::PathBuf;

    fn demo() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("age", Domain::IntRange { min: 0, max: 120 }),
            Attribute::new("sex", Domain::Categorical(vec!["M".into(), "F".into()])),
        ])
        .unwrap();
        Dataset::new(
            schema,
            vec![
                vec![Value::Int(25), Value::from("M")],
                vec![Value::Int(60), Value::from("F")],
                vec![Value::Int(60), Value::from("F")], // multiset: duplicates allowed
                vec![Value::Int(70), Value::from("M")],
            ],
        )
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-ds-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn len_and_rows() {
        let d = demo();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.rows()[0][0], Value::Int(25));
    }

    #[test]
    fn count_respects_duplicates() {
        let d = demo();
        let p = Predicate::cmp("age", CmpOp::Gt, 50_i64);
        assert_eq!(d.count(&p).unwrap(), 3);
        let p = Predicate::cmp("sex", CmpOp::Eq, "F");
        assert_eq!(d.count(&p).unwrap(), 2);
    }

    #[test]
    fn new_validates_rows() {
        let schema = Schema::new(vec![Attribute::new(
            "age",
            Domain::IntRange { min: 0, max: 10 },
        )])
        .unwrap();
        let err = Dataset::new(schema, vec![vec![Value::Int(99)]]);
        assert!(err.is_err());
    }

    #[test]
    fn push_validates() {
        let mut d = demo();
        assert!(d.push(vec![Value::Int(5), Value::from("M")]).is_ok());
        assert!(d.push(vec![Value::Int(5)]).is_err());
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn take_prefix() {
        let d = demo();
        let t = d.take(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1][0], Value::Int(60));
        // Taking more than available returns everything.
        assert_eq!(d.take(100).len(), 4);
    }

    #[test]
    fn paged_dataset_behaves_like_resident() {
        let dir = tmp_dir("parity");
        let mem = demo();
        let paged = mem.ingest_paged(&dir, 1, 2).unwrap();
        assert!(paged.is_paged() && !mem.is_paged());
        assert_eq!(paged.len(), mem.len());
        assert_eq!(paged.schema(), mem.schema());
        let p = Predicate::cmp("age", CmpOp::Gt, 50_i64);
        assert_eq!(paged.count(&p).unwrap(), mem.count(&p).unwrap());
        assert_eq!(paged.rows(), mem.rows());
        assert_eq!(paged.take(2).rows(), mem.take(2).rows());
        assert_eq!(paged.storage_epoch(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_dataset_reopens_without_source() {
        let dir = tmp_dir("reopen");
        demo().ingest_paged(&dir, 7, 2).unwrap();
        let reopened = Dataset::open_paged(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.storage_epoch(), Some(7));
        let mut ages = Vec::new();
        reopened.for_each_row(|row| ages.push(row[0].clone()));
        assert_eq!(ages[3], Value::Int(70));
        // Scanning again hits the pool.
        reopened.for_each_row(|_| {});
        assert!(reopened.pool_stats().unwrap().hits > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_push_is_refused_but_insert_rows_works() {
        let dir = tmp_dir("frozen");
        let mut paged = demo().ingest_paged(&dir, 1, 2).unwrap();
        assert!(paged.push(vec![Value::Int(5), Value::from("M")]).is_err());
        assert_eq!(paged.len(), 4);
        let delta = paged
            .insert_rows(&[vec![Value::Int(5), Value::from("M")]])
            .unwrap();
        assert_eq!(delta.epoch, 2);
        assert_eq!(paged.len(), 5);
        assert_eq!(paged.epoch(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_and_paged_mutations_agree() {
        let dir = tmp_dir("mut-parity");
        let mut mem = demo();
        let mut paged = mem.ingest_paged(&dir, 1, 2).unwrap();
        let ins = vec![
            vec![Value::Int(33), Value::from("F")],
            vec![Value::Int(60), Value::from("F")],
        ];
        let d1 = mem.insert_rows(&ins).unwrap();
        let d2 = paged.insert_rows(&ins).unwrap();
        assert_eq!(d1.inserted, d2.inserted);
        // Delete a duplicated row once plus a row that does not exist.
        let del = vec![
            vec![Value::Int(60), Value::from("F")],
            vec![Value::Int(999), Value::from("M")],
        ];
        let d1 = mem.delete_rows(&del).unwrap();
        let d2 = paged.delete_rows(&del).unwrap();
        assert_eq!(d1.deleted, d2.deleted);
        assert_eq!(d1.deleted.len(), 1); // the ghost row removed nothing
        assert_eq!(mem.rows(), paged.rows());
        assert_eq!(mem.mutations_applied(), 2);
        assert_eq!(paged.mutations_applied(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_insert_widens_schema_and_bumps_epoch() {
        let mut d = demo();
        assert_eq!(d.epoch(), 0);
        d.insert_rows(&[vec![Value::Int(500), Value::from("M")]])
            .unwrap();
        assert_eq!(d.epoch(), 1);
        assert_eq!(
            d.schema().attribute("age").unwrap().domain,
            Domain::IntRange { min: 0, max: 500 }
        );
        // Unknown categories are refused, nothing is applied.
        let err = d.insert_rows(&[vec![Value::Int(1), Value::from("X")]]);
        assert!(err.is_err());
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn empty_batches_are_refused() {
        let mut d = demo();
        assert!(matches!(d.insert_rows(&[]), Err(MutationError::EmptyBatch)));
        assert!(matches!(d.delete_rows(&[]), Err(MutationError::EmptyBatch)));
        assert_eq!(d.epoch(), 0);
    }

    #[test]
    fn resident_mutations_replay_from_their_own_log() {
        let dir = tmp_dir("resident-log");
        let mut d = demo();
        d.attach_mutation_log(&dir).unwrap();
        assert!(!dir.exists(), "attaching creates nothing");
        let ins = vec![vec![Value::Int(500), Value::from("F")]]; // widens age
        d.insert_rows(&ins).unwrap();
        d.delete_rows(&[
            vec![Value::Int(60), Value::from("F")],
            vec![Value::Int(1), Value::from("M")],
        ])
        .unwrap();
        assert!(d.push(vec![Value::Int(5), Value::from("M")]).is_err());
        // The rebuilt base plus its log is the mutated dataset, exactly.
        let mut again = demo();
        again.attach_mutation_log(&dir).unwrap();
        assert_eq!(again.rows(), d.rows());
        assert_eq!(again.schema(), d.schema());
        assert_eq!((again.epoch(), again.mutations_applied()), (2, 2));
        // Appends continue at the replayed position.
        again.insert_rows(&ins).unwrap();
        let mut third = demo();
        third.attach_mutation_log(&dir).unwrap();
        assert_eq!((third.epoch(), third.len()), (3, 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_record_refuses_the_attach_and_is_left_on_disk() {
        let dir = tmp_dir("resident-rot");
        let mut d = demo();
        d.attach_mutation_log(&dir).unwrap();
        let row = vec![vec![Value::Int(7), Value::from("F")]];
        for _ in 0..3 {
            d.insert_rows(&row).unwrap();
        }
        let path = dir.join(crate::store::MUTATION_LOG_FILE);
        let mut rotted = std::fs::read(&path).unwrap();
        let middle = rotted.len() - (rotted.len() - 8) / 3 * 2; // three equal frames
        rotted[middle + 20] ^= 1;
        std::fs::write(&path, &rotted).unwrap();
        let mut again = demo();
        let err = again.attach_mutation_log(&dir).unwrap_err();
        assert!(err.to_string().contains("record 1"), "{err}");
        assert_eq!((again.epoch(), again.len()), (0, 4));
        assert_eq!(std::fs::read(&path).unwrap(), rotted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_log_append_applies_nothing() {
        // `/dev/null` reads as an empty log and refuses the fsync: the
        // append fails after its write, so nothing may apply.
        let dir = tmp_dir("resident-null");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(crate::store::MUTATION_LOG_FILE);
        std::os::unix::fs::symlink("/dev/null", path).unwrap();
        let mut d = demo();
        d.attach_mutation_log(&dir).unwrap();
        let row = vec![vec![Value::Int(25), Value::from("M")]];
        assert!(matches!(d.insert_rows(&row), Err(MutationError::Store(_))));
        assert!(matches!(d.delete_rows(&row), Err(MutationError::Store(_))));
        assert_eq!((d.epoch(), d.mutations_applied()), (0, 0));
        assert_eq!(d.rows(), demo().rows());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_another_dataset_moved_on_is_refused() {
        let dir = tmp_dir("resident-step");
        let (mut a, mut b) = (demo(), demo());
        a.attach_mutation_log(&dir).unwrap();
        b.attach_mutation_log(&dir).unwrap();
        let row = vec![vec![Value::Int(7), Value::from("F")]];
        a.insert_rows(&row).unwrap();
        // `b` has applied nothing, the log holds one record: appending
        // there would replay over a history `b` never had.
        match b.insert_rows(&row) {
            Err(MutationError::Store(StoreError::LogOutOfStep { applied, logged })) => {
                assert_eq!((applied, logged), (0, 1));
            }
            other => panic!("expected LogOutOfStep, got {other:?}"),
        }
        assert_eq!((b.epoch(), b.len()), (0, 4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_mutations_survive_reopen() {
        let dir = tmp_dir("mut-reopen");
        let mut paged = demo().ingest_paged(&dir, 1, 2).unwrap();
        paged
            .insert_rows(&[vec![Value::Int(41), Value::from("M")]])
            .unwrap();
        paged
            .delete_rows(&[vec![Value::Int(25), Value::from("M")]])
            .unwrap();
        let want = paged.rows().to_vec();
        drop(paged);
        let reopened = Dataset::open_paged(&dir, 2).unwrap();
        assert_eq!(reopened.epoch(), 3);
        assert_eq!(reopened.mutations_applied(), 2);
        assert_eq!(reopened.rows(), want.as_slice());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
