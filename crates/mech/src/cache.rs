//! Shared, capacity-bounded cache of strategy-mechanism artifacts
//! (strategy operator + Monte-Carlo translator).
//!
//! The dominant cost of answering an exploration query through the
//! strategy mechanism is *data-independent*: the strategy operator is
//! `O(n log n)` to build, but the Monte-Carlo simulation behind the
//! accuracy-to-privacy translation costs thousands of solves, and both
//! depend **only** on the workload's compiled incidence structure (not
//! the data, not `α`/`β`). The common APEx session pattern — many
//! exploration queries over the same domain partition — would otherwise
//! rebuild identical artifacts on every `submit`, twice (once in the
//! analyzer's `translate`, once in `run`).
//!
//! [`TranslatorCache`] memoizes them behind an [`Arc`], keyed by the
//! workload's structural
//! [`signature`](apex_query::CompiledWorkload::signature), the strategy,
//! and the full Monte-Carlo configuration. Reuse is **exact**: the cached
//! translator is the very value a rebuild would produce, so caching cannot
//! change any admit/deny decision or any translated ε (the privacy proof
//! of Theorem 6.2 is untouched).
//!
//! Two properties make the cache fit multi-tenant deployments:
//!
//! * **capacity-bounded** — least-recently-used eviction with a
//!   configurable entry cap ([`TranslatorCache::with_capacity`], default
//!   [`TranslatorCache::DEFAULT_CAPACITY`]): artifacts are small
//!   (`O(n log n)`), but adversarial analysts could still submit
//!   unboundedly many distinct workloads. Evictions only ever cost a
//!   rebuild, never correctness — [`CacheStats::evictions`] counts them;
//! * **shareable** — the handle is cloneable and clones share the storage,
//!   so many engines (one per tenant dataset) can warm one cache, which is
//!   sound because the artifacts are data-independent.
//!
//! The type lives here because the artifact types do; `apex-core`
//! re-exports it and threads it through mechanism selection.

use std::sync::{Arc, Mutex};

use apex_data::BoundedLru;
pub use apex_data::CacheStats;
use apex_query::Strategy;

use crate::sm::SmArtifacts;
use crate::MechError;

/// Cache key: everything the artifacts depend on. The dataset is not in
/// it — the artifacts derive from public workload structure only, so a
/// row mutation cannot stale them, and a mutation that widens the domain
/// recompiles the workload to a different `workload_signature` (or to the
/// same CSR, for which the same artifacts are exact).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SmCacheKey {
    /// Structural signature of the compiled workload (shape + sparsity
    /// pattern + values — effectively the partition signature).
    pub workload_signature: u64,
    /// The strategy the mechanism answers through.
    pub strategy: Strategy,
    /// Monte-Carlo sample count `N`.
    pub samples: usize,
    /// Monte-Carlo RNG seed.
    pub seed: u64,
    /// Bit pattern of the binary-search tolerance (f64 is not `Hash`).
    pub tolerance_bits: u64,
}

/// The storage every scope of one cache shares; its counters are the
/// *global* ones, aggregated over all scopes.
type Store = BoundedLru<SmCacheKey, Arc<SmArtifacts>>;

/// A cloneable handle to a thread-safe, LRU-bounded memo table for
/// [`SmArtifacts`].
///
/// A handle is a **scope** onto shared storage: cloning it shares both the
/// storage and the scope's counters (all analysts of one engine warm the
/// same cache and count into the same scope), while
/// [`TranslatorCache::scoped`] creates a handle that shares the storage
/// (and its capacity bound) but owns fresh hit/miss/eviction counters. A
/// multi-tenant deployment gives each tenant engine its own scope of one
/// shared cache, so `/stats`-style endpoints can report per-tenant
/// counters ([`TranslatorCache::local_stats`]) next to the global
/// aggregate ([`TranslatorCache::stats`]).
#[derive(Debug, Clone)]
pub struct TranslatorCache {
    store: Arc<Mutex<Store>>,
    capacity: usize,
    /// This scope's counters (for the root scope of a cache these track
    /// exactly the lookups made through it and its clones, not other
    /// scopes').
    local: Arc<Mutex<CacheStats>>,
}

impl Default for TranslatorCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl TranslatorCache {
    /// Default entry cap: generous for single-engine sessions (an analyst
    /// rarely touches more than a handful of domain partitions) while
    /// bounding a shared multi-tenant cache to a few hundred `O(n log n)`
    /// artifact bundles.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (clamped to ≥ 1 — a
    /// zero-capacity cache would silently disable memoization, which is
    /// never what a caller configuring a cache wants).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            // Artifacts are small (`O(n log n)`): the entry cap bounds them.
            store: Arc::new(Mutex::new(Store::new(capacity, usize::MAX))),
            capacity,
            local: Arc::default(),
        }
    }

    /// A new scope onto the same storage: entries, capacity bound, and
    /// global counters are shared; hit/miss/eviction counters local to the
    /// new handle start at zero. This is how a multi-tenant service gives
    /// each tenant its own attribution window over one shared cache.
    pub fn scoped(&self) -> Self {
        Self {
            store: self.store.clone(),
            capacity: self.capacity,
            local: Arc::default(),
        }
    }

    /// A clone of this handle. Exists only because the request-path
    /// benchmark (`benchmark/`, frozen) spells it this way; new code
    /// clones.
    pub fn handle(&self) -> Self {
        self.clone()
    }

    /// The configured entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the cached artifacts for `key`, building them with `build`
    /// on a miss. The build runs outside the lock, so a slow build never
    /// blocks hits on other keys; concurrent misses on the same key may
    /// build twice, which is harmless (both builds are deterministic and
    /// identical — last insert wins). Inserting beyond capacity evicts the
    /// least-recently-used entries.
    ///
    /// # Errors
    /// Propagates the builder's error without caching it.
    pub fn get_or_build(
        &self,
        key: SmCacheKey,
        build: impl FnOnce() -> Result<SmArtifacts, MechError>,
    ) -> Result<Arc<SmArtifacts>, MechError> {
        let hit = self.store().get(&key, |_| true).cloned();
        if let Some(hit) = hit {
            self.local.lock().expect("no poisoning").hits += 1;
            return Ok(hit);
        }
        self.local.lock().expect("no poisoning").misses += 1;
        let built = Arc::new(build()?);
        let evicted = self.store().insert(key, built.clone(), 0);
        self.local.lock().expect("no poisoning").evictions += evicted;
        Ok(built)
    }

    /// Current hit/miss/eviction counters, aggregated over every scope of
    /// this cache's storage.
    pub fn stats(&self) -> CacheStats {
        self.store().stats()
    }

    /// The counters attributable to lookups made through *this* handle
    /// and its clones (see [`TranslatorCache::scoped`]); evictions count
    /// against the scope whose insert triggered them.
    pub fn local_stats(&self) -> CacheStats {
        *self.local.lock().expect("no poisoning")
    }

    /// Number of distinct `(workload, strategy, MC config)` entries.
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (e.g. to bound memory in a long-running
    /// service); counters are kept — clearing is not an eviction.
    pub fn clear(&self) {
        self.store().clear();
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().expect("no poisoning")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::McConfig;
    use apex_linalg::CsrMatrix;

    fn key(sig: u64) -> SmCacheKey {
        SmCacheKey {
            workload_signature: sig,
            strategy: Strategy::H2,
            samples: 10,
            seed: 1,
            tolerance_bits: 1e-3_f64.to_bits(),
        }
    }

    fn artifacts() -> SmArtifacts {
        SmArtifacts::build(
            &CsrMatrix::identity(2),
            Strategy::H2,
            McConfig {
                samples: 10,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn scopes_share_storage_but_own_their_counters() {
        let root = TranslatorCache::with_capacity(2);
        let scope = root.scoped();
        // Build through the root, hit through the scope: one shared entry.
        let a = root.get_or_build(key(1), || Ok(artifacts())).unwrap();
        let b = scope
            .get_or_build(key(1), || panic!("must not rebuild across scopes"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(root.len(), 1);
        assert_eq!(scope.len(), 1);
        // Global counters aggregate both scopes; local counters split.
        let global = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(root.stats(), global);
        assert_eq!(scope.stats(), global);
        assert_eq!(root.local_stats().misses, 1);
        assert_eq!(root.local_stats().hits, 0);
        assert_eq!(scope.local_stats().hits, 1);
        assert_eq!(scope.local_stats().misses, 0);
        // Evictions count against the scope whose insert triggered them.
        scope.get_or_build(key(2), || Ok(artifacts())).unwrap();
        scope.get_or_build(key(3), || Ok(artifacts())).unwrap();
        assert_eq!(scope.local_stats().evictions, 1);
        assert_eq!(root.local_stats().evictions, 0);
        assert_eq!(root.stats().evictions, 1);
    }

    #[test]
    fn clones_share_storage() {
        let a = TranslatorCache::new();
        let b = a.handle();
        assert!(a.is_empty());
        assert_eq!(a.stats(), CacheStats::default());
        let built = a.get_or_build(key(1), || Ok(artifacts())).unwrap();
        let hit = b
            .get_or_build(key(1), || panic!("clones share storage"))
            .unwrap();
        assert!(Arc::ptr_eq(&built, &hit));
        assert_eq!(b.len(), 1);
        // A clone is the same scope: both count into one set of counters.
        let both = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(a.local_stats(), both);
        assert_eq!(b.local_stats(), both);
    }

    #[test]
    fn capacity_is_configurable() {
        let c = TranslatorCache::with_capacity(7);
        assert_eq!(c.capacity(), 7);
        assert_eq!(c.clone().capacity(), 7);
        assert_eq!(
            TranslatorCache::new().capacity(),
            TranslatorCache::DEFAULT_CAPACITY
        );
    }

    #[test]
    fn hit_returns_same_arc() {
        let cache = TranslatorCache::new();
        let a = cache.get_or_build(key(7), || Ok(artifacts())).unwrap();
        let b = cache
            .get_or_build(key(7), || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_separately() {
        let cache = TranslatorCache::new();
        cache.get_or_build(key(1), || Ok(artifacts())).unwrap();
        cache.get_or_build(key(2), || Ok(artifacts())).unwrap();
        let mut k = key(1);
        k.samples = 11;
        cache.get_or_build(k, || Ok(artifacts())).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = TranslatorCache::new();
        let err = cache.get_or_build(key(9), || Err(MechError::BadK { k: 1, workload: 0 }));
        assert!(err.is_err());
        assert_eq!(cache.len(), 0);
        // A later successful build for the same key works.
        cache.get_or_build(key(9), || Ok(artifacts())).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_empties_the_map() {
        let cache = TranslatorCache::new();
        cache.get_or_build(key(3), || Ok(artifacts())).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = TranslatorCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.get_or_build(key(1), || Ok(artifacts())).unwrap();
        cache.get_or_build(key(2), || Ok(artifacts())).unwrap();
        // Touch key 1 so key 2 becomes the LRU victim.
        cache.get_or_build(key(1), || panic!("cached")).unwrap();
        cache.get_or_build(key(3), || Ok(artifacts())).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Key 1 survived (recently used), key 2 was evicted.
        cache.get_or_build(key(1), || panic!("cached")).unwrap();
        let mut rebuilt = false;
        cache
            .get_or_build(key(2), || {
                rebuilt = true;
                Ok(artifacts())
            })
            .unwrap();
        assert!(rebuilt, "LRU entry must have been evicted");
        // Inserting key 2 evicted the new LRU (key 3).
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = TranslatorCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.get_or_build(key(1), || Ok(artifacts())).unwrap();
        cache.get_or_build(key(2), || Ok(artifacts())).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shared_across_threads() {
        let cache = TranslatorCache::with_capacity(8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..6 {
                        cache
                            .get_or_build(key(i % 3 + t % 2), || Ok(artifacts()))
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 24);
        assert!(cache.len() <= 4);
    }
}
