//! One least-recently-used map with an entry cap and a byte cap — the
//! container under the dataset's maintained histograms
//! ([`crate::views`]), the translator cache (`apex_mech::cache`), the
//! engine's compile memo (`apex_core::memo`) and the service's per-shard
//! parse memo (`apex_serve::parse_memo`).
//!
//! Not thread-safe by itself: each user keeps it behind its own lock.
//! Eviction scans for the oldest tick, O(entries) — the caps are tens to a
//! few hundred entries.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Hit, miss and eviction counts of one [`BoundedLru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that found nothing usable (the caller builds).
    pub misses: u64,
    /// Entries evicted to keep the map within its caps.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    bytes: usize,
    /// Logical access time, for least-recently-used eviction.
    last_used: u64,
}

/// A map bounded to `max_entries` entries and `max_bytes` bytes (as the
/// caller sizes each entry), least-recently-used out first.
#[derive(Debug, Clone)]
pub struct BoundedLru<K, V> {
    map: HashMap<K, Slot<V>>,
    max_entries: usize,
    max_bytes: usize,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> BoundedLru<K, V> {
    /// An empty map bounded to `max_entries` (at least 1) and `max_bytes`.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            map: HashMap::new(),
            max_entries: max_entries.max(1),
            max_bytes,
            bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The value under `key` if `usable` accepts it — a hit, marked as
    /// just used — or a miss. `key` may be any borrowed form of `K`, so a
    /// `Box<str>`-keyed map is looked up by `&str` without allocating.
    pub fn get<Q>(&mut self, key: &Q, usable: impl FnOnce(&V) -> bool) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        match self.map.get_mut(key).filter(|s| usable(&s.value)) {
            Some(slot) => {
                self.stats.hits += 1;
                slot.last_used = self.tick;
                Some(&mut slot.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until both caps hold; returns how many were evicted. An
    /// entry alone over the byte cap is not stored.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> u64 {
        if bytes > self.max_bytes {
            return 0;
        }
        self.tick += 1;
        let slot = Slot {
            value,
            bytes,
            last_used: self.tick,
        };
        self.bytes += bytes;
        if let Some(old) = self.map.insert(key, slot) {
            self.bytes -= old.bytes;
        }
        let mut evicted = 0;
        while self.map.len() > self.max_entries || self.bytes > self.max_bytes {
            let oldest = self.map.iter().min_by_key(|(_, s)| s.last_used);
            let oldest = oldest.map(|(k, _)| k.clone()).expect("over a cap");
            self.bytes -= self.map.remove(&oldest).expect("present").bytes;
            evicted += 1;
        }
        self.stats.evictions += evicted;
        evicted
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes the held entries account for.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Hits, misses and evictions so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Every held value, in no particular order (sizes and ages stay as
    /// they were).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut().map(|s| &mut s.value)
    }

    /// Drops every entry (not counted as evictions).
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_caps_evict_the_least_recently_used_entry() {
        let mut lru = BoundedLru::new(2, 100);
        assert_eq!(lru.insert(1, 'a', 10), 0);
        assert_eq!(lru.insert(2, 'b', 10), 0);
        lru.get(&1, |_| true); // 2 is now the oldest
        assert_eq!(lru.insert(3, 'c', 10), 1);
        assert!(lru.get(&2, |_| true).is_none());
        assert_eq!((lru.len(), lru.bytes()), (2, 20));
        // 1 and 3 hold 20 bytes: a 91-byte entry needs both gone.
        assert_eq!(lru.insert(4, 'd', 91), 2);
        assert_eq!((lru.len(), lru.bytes()), (1, 91));
        // Replacing resizes; an entry over the cap is never stored.
        assert_eq!(lru.insert(4, 'e', 5), 0);
        assert_eq!(lru.get(&4, |_| true).copied(), Some('e'));
        assert_eq!(lru.bytes(), 5);
        assert_eq!(lru.insert(5, 'f', 101), 0);
        assert!(lru.get(&5, |_| true).is_none());
        // An entry the caller cannot use is a miss, and stays.
        assert!(lru.get(&4, |v| *v == 'x').is_none());
        assert_eq!(lru.len(), 1);
        let stats = CacheStats {
            hits: 2,
            misses: 3,
            evictions: 3,
        };
        assert_eq!(lru.stats(), stats);
        lru.clear();
        assert!(lru.is_empty() && lru.bytes() == 0);
        assert_eq!(lru.stats(), stats);
    }
}
