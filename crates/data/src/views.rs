//! Maintained histograms: `x = T_W(D)` as a materialized view owned by
//! the [`Dataset`](crate::Dataset).
//!
//! The transformation is data-dependent but *partition*-fixed, and an
//! exploration session asks the same few partitions over and over. So the
//! dataset keeps the cell-count vector of every partition it has recently
//! been asked for: a query whose partition was already seen reads `x` in
//! O(cells) without touching a row, a new partition scans once, and a row
//! mutation folds its delta into every cached view in O(rows touched) per
//! view (Berkholz et al.: linear preprocessing, constant-time update,
//! answer without touching `D`). Counts are integers held in `f64`, so a
//! folded view is bit-identical to a rescan.
//!
//! A view is keyed by the partition's row→cell *mapping* (attributes,
//! segment boundaries, elementary→merged table): found by the hash of it
//! that [`DomainPartition::build`] computes once, then compared in full —
//! not by the compiled workload's CSR signature, which is equal for prefix
//! workloads that cut the domain at different points.
//!
//! **Resident datasets only.** A paged dataset keeps no views and scans
//! its store through the buffer pool for every histogram. Clones of a
//! paged dataset share one row store, so its views would also have to
//! track the store's epoch. Built that way, they cut the request
//! benchmark's `paged_mutating` median query 14.2 → 0.24 ms but raise its
//! peak RSS by 84 %, past the benchmark's bound — not through the views:
//! the benchmark client keeps up to 4 000 answered queries for its
//! accuracy check, and a faster service fills that buffer further. So
//! they wait on a benchmark change that makes that retention independent
//! of throughput (docs/PERFORMANCE.md, "What was left out, and why").
//!
//! **Consistency.** The cache is part of the dataset *value*: it is cloned
//! with it, folded only under `&mut Dataset`, and read only through
//! `&Dataset`. Clones share their rows' chunks ([`crate::chunk`]), but a
//! chunk never changes once built: a mutation swaps new chunks into the
//! mutating value's own chunk list and folds that value's own views, and
//! every other clone keeps its list and its views as they were. So the
//! rows a value's views describe are exactly the chunks its list holds —
//! a view can never describe other rows than its dataset's. The lock
//! guards lookup and insert only — a scan never runs under it.
//!
//! **Bounds.** At most [`MAX_VIEWS`] views and [`MAX_VIEW_BYTES`] of
//! cells + mapping per dataset, least-recently-used out first; a single
//! partition over the byte cap is scanned every time and never cached.
//! Views are volatile: nothing is persisted, a rebuilt dataset starts
//! empty and refills lazily.
//!
//! **Privacy.** `x` is exactly what the mechanisms already read; it never
//! leaves the process, and whether a lookup hits depends on the query
//! history and the public `|D|`, never on row values.

use std::sync::{Arc, Mutex};

use crate::{BoundedLru, DomainPartition, RowDelta};

/// Most views one dataset keeps.
pub const MAX_VIEWS: usize = 64;

/// Most bytes (cell counts plus the partition's own tables) one dataset's
/// views may hold together.
pub const MAX_VIEW_BYTES: usize = 8 << 20;

/// Counters and sizes of one dataset's maintained histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Views currently cached.
    pub entries: usize,
    /// Bytes those views account for (cells + partition tables).
    pub bytes: usize,
    /// Histogram requests answered from a view.
    pub hits: u64,
    /// Histogram requests that scanned the rows.
    pub misses: u64,
    /// Mutation batches folded into a view (one per batch per view).
    pub folds: u64,
    /// Views dropped wholesale: a domain-widening insert or a builder
    /// `push`.
    pub cleared: u64,
}

type View = (Arc<DomainPartition>, Vec<f64>);

#[derive(Debug, Clone)]
struct Inner {
    views: BoundedLru<u64, View>,
    stats: ViewStats,
}

/// The per-dataset view cache (see the module docs).
#[derive(Debug)]
pub(crate) struct ViewCache(Mutex<Inner>);

impl Default for ViewCache {
    fn default() -> Self {
        Self(Mutex::new(Inner {
            views: BoundedLru::new(MAX_VIEWS, MAX_VIEW_BYTES),
            stats: ViewStats::default(),
        }))
    }
}

impl Clone for ViewCache {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

impl ViewCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // No panic can happen under this lock short of allocation failure
        // (it guards vector bookkeeping only), so poison means a bug here.
        self.0.lock().expect("view cache lock poisoned")
    }

    fn inner_mut(&mut self) -> &mut Inner {
        self.0.get_mut().expect("view cache lock poisoned")
    }

    /// The cached `x` of `partition`, if any.
    pub(crate) fn lookup(&self, partition: &DomainPartition) -> Option<Vec<f64>> {
        let hash = partition.mapping_hash();
        let mut inner = self.lock();
        let view = inner.views.get(&hash, |(p, _)| p.same_mapping(partition));
        view.map(|(_, x)| x.clone())
    }

    /// Caches `x` as the view of `partition` (a racing miss's identical
    /// view is replaced). Dropped silently when the view alone is over
    /// the byte cap.
    pub(crate) fn insert(&self, partition: &Arc<DomainPartition>, x: &[f64]) {
        let bytes = std::mem::size_of_val(x) + partition.heap_bytes();
        let (key, view) = (partition.mapping_hash(), (partition.clone(), x.to_vec()));
        self.lock().views.insert(key, view, bytes);
    }

    /// Folds one committed mutation batch into every view.
    pub(crate) fn fold(&mut self, delta: &RowDelta) {
        let inner = self.inner_mut();
        for (partition, x) in inner.views.values_mut() {
            partition.fold_rows(&delta.inserted, &delta.deleted, |cell, dv| x[cell] += dv);
        }
        inner.stats.folds += inner.views.len() as u64;
    }

    /// Drops every view (the domain changed under them).
    pub(crate) fn clear(&mut self) {
        let inner = self.inner_mut();
        inner.stats.cleared += inner.views.len() as u64;
        inner.views.clear();
    }

    pub(crate) fn stats(&self) -> ViewStats {
        let inner = self.lock();
        let lru = inner.views.stats();
        ViewStats {
            entries: inner.views.len(),
            bytes: inner.views.bytes(),
            hits: lru.hits,
            misses: lru.misses,
            ..inner.stats
        }
    }

    /// Every cached `(partition, x)`, for the audit that compares views
    /// with a rescan.
    pub(crate) fn snapshot(&self) -> Vec<View> {
        self.lock().views.values_mut().map(|v| v.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, Dataset, Domain, Predicate, Schema, Value};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 99 },
        )])
        .unwrap();
        let rows = (0..40).map(|i| vec![Value::Int(i * 7 % 100)]).collect();
        Dataset::new(schema, rows).unwrap()
    }

    fn bins(d: &Dataset, width: i64) -> Arc<DomainPartition> {
        let workload: Vec<Predicate> = (0..100 / width)
            .map(|i| Predicate::range("v", (i * width) as f64, ((i + 1) * width) as f64))
            .collect();
        Arc::new(DomainPartition::build(d.schema(), &workload).unwrap())
    }

    #[test]
    fn a_seen_partition_is_answered_without_a_scan_and_equals_one() {
        let d = dataset();
        let p = bins(&d, 10);
        let first = d.histogram(&p);
        // A recompiled, equal partition is the same view.
        let again = d.histogram(&bins(&d, 10));
        assert_eq!(first, p.histogram(&d));
        assert_eq!(again, first);
        let s = d.view_stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 1));
        assert!(s.bytes >= p.heap_bytes() + 8 * p.n_cells());
        assert_eq!(d.audit_views(), Ok(1));
    }

    #[test]
    fn mutations_fold_into_every_view_and_widening_clears_them() {
        let mut d = dataset();
        let (p10, p25) = (bins(&d, 10), bins(&d, 25));
        d.histogram(&p10);
        d.histogram(&p25);
        d.insert_rows(&[vec![Value::Int(3)], vec![Value::Int(77)]])
            .unwrap();
        // One real row, one absent row: only the real one leaves.
        d.delete_rows(&[vec![Value::Int(7)], vec![Value::Int(8)]])
            .unwrap();
        assert_eq!(d.histogram(&p10), p10.histogram(&d));
        assert_eq!(d.histogram(&p25), p25.histogram(&d));
        let s = d.view_stats();
        assert_eq!((s.misses, s.folds, s.cleared), (2, 4, 0));
        assert_eq!(d.audit_views(), Ok(2));

        d.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        let s = d.view_stats();
        assert_eq!((s.entries, s.bytes, s.cleared), (0, 0, 2));
        // The builder API drops views too.
        d.histogram(&p10);
        d.push(vec![Value::Int(1)]).unwrap();
        assert_eq!(d.view_stats().entries, 0);
        assert_eq!(d.histogram(&p10), p10.histogram(&d));
    }

    #[test]
    fn a_clone_carries_its_own_copy_of_the_views() {
        let mut d = dataset();
        let p = bins(&d, 10);
        d.histogram(&p);
        let snapshot = d.clone();
        d.insert_rows(&[vec![Value::Int(5)]]).unwrap();
        assert_eq!(snapshot.histogram(&p), p.histogram(&snapshot));
        assert_eq!(d.histogram(&p), p.histogram(&d));
        assert_ne!(snapshot.histogram(&p), d.histogram(&p));
        assert_eq!(snapshot.view_stats().misses, 1);
    }

    #[test]
    fn the_least_recently_used_view_goes_first_past_the_entry_cap() {
        let d = dataset();
        let grids: Vec<_> = (1..=MAX_VIEWS + 1)
            .map(|n| Arc::new(DomainPartition::identity_grid(n)))
            .collect();
        for g in &grids[..MAX_VIEWS] {
            d.histogram(g);
        }
        d.histogram(&grids[0]); // touch the oldest: the second-oldest is now LRU
        d.histogram(&grids[MAX_VIEWS]);
        assert_eq!(d.view_stats().entries, MAX_VIEWS);
        let misses = d.view_stats().misses;
        d.histogram(&grids[0]);
        assert_eq!(d.view_stats().misses, misses, "touched view survived");
        d.histogram(&grids[1]);
        assert_eq!(d.view_stats().misses, misses + 1, "LRU view was evicted");
        assert_eq!(d.audit_views(), Ok(MAX_VIEWS));
    }

    #[test]
    fn the_byte_cap_evicts_and_an_oversized_partition_is_never_cached() {
        let d = dataset();
        // ~24 bytes per cell (count + table + boundary): 300k cells fit
        // once but not twice; 400k cells do not fit at all.
        let (a, b) = (
            Arc::new(DomainPartition::identity_grid(300_000)),
            Arc::new(DomainPartition::identity_grid(300_001)),
        );
        d.histogram(&a);
        assert_eq!(d.view_stats().entries, 1);
        d.histogram(&b);
        let s = d.view_stats();
        assert_eq!(s.entries, 1, "the older view made room");
        assert!(s.bytes <= MAX_VIEW_BYTES);
        d.histogram(&b);
        assert_eq!(d.view_stats().hits, 1);

        let huge = Arc::new(DomainPartition::identity_grid(400_000));
        assert!(huge.heap_bytes() + 8 * huge.n_cells() > MAX_VIEW_BYTES);
        let before = d.view_stats();
        assert_eq!(d.histogram(&huge), huge.histogram(&d));
        d.histogram(&huge);
        let after = d.view_stats();
        assert_eq!(after.entries, before.entries);
        assert_eq!(after.misses, before.misses + 2, "scanned both times");
    }

    #[test]
    fn a_paged_dataset_keeps_no_views_and_scans_every_time() {
        let dir = std::env::temp_dir().join(format!("apex-views-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut paged = dataset().ingest_paged(&dir, 1, 4).unwrap();
        let p = bins(&paged, 10);
        assert_eq!(paged.histogram(&p), p.histogram(&paged));
        assert_eq!(paged.histogram(&p), p.histogram(&paged));
        // Clones share the one store: whichever value mutates it, every
        // value scans the rows as they are now.
        let clone = paged.clone();
        paged
            .insert_rows(&[vec![Value::Int(5)], vec![Value::Int(95)]])
            .unwrap();
        assert_eq!(paged.histogram(&p), p.histogram(&paged));
        assert_eq!(clone.histogram(&p), paged.histogram(&p));
        assert_eq!(paged.view_stats(), ViewStats::default());
        assert_eq!(clone.view_stats(), ViewStats::default());
        assert_eq!(paged.audit_views(), Ok(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
