//! Fixed-capacity frame cache over a [`FileManager`].
//!
//! ## Locking discipline
//!
//! One mutex guards all pool metadata (page map, pin counts, dirty flags,
//! clock hand, stats); each frame's byte buffer sits behind its own
//! `RwLock`. The lock order is strictly **meta → frame**: frame locks are
//! only ever acquired while holding meta or while holding nothing, and
//! nothing blocks on meta while holding a frame lock, so there is no
//! cycle. The miss path (victim selection, write-back, disk read) runs
//! under the meta lock — misses serialize, hits only brush it. That is
//! the right trade for this workload: dataset pages are scanned hot out
//! of the cache and the disk read would serialize in the kernel anyway.
//!
//! ## Invariants (exercised by the tests below and `tests/store_faults.rs`)
//!
//! * A frame with `pin > 0` is never chosen for eviction.
//! * Resident pages never exceed `capacity`; frames are pre-allocated.
//! * A dirty frame is written back (re-sealed with a fresh CRC) before
//!   its frame is reused, and on [`BufferPool::flush_all`].
//! * A read that fails (corrupt page, short read, I/O error) leaves its
//!   frame empty — clean, unpinned, mapped to no page — never labelled
//!   with the page it displaced.
//! * When every frame is pinned, a miss fails with
//!   [`StoreError::AllPinned`] rather than evicting under a reader.

use super::file_manager::FileManager;
use super::page::{self, PAGE_SIZE};
use super::StoreError;
use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

/// Monotonic counters exposed through `/v1/stats` by the service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins satisfied from a resident frame.
    pub hits: u64,
    /// Pins that had to read the page from disk.
    pub misses: u64,
    /// Resident pages displaced to make room.
    pub evictions: u64,
    /// Dirty pages written back (on eviction or flush).
    pub flushes: u64,
}

impl PoolStats {
    /// Component-wise sum (the service aggregates per-tenant pools).
    pub fn merge(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            flushes: self.flushes + other.flushes,
        }
    }
}

const NO_PAGE: u32 = u32::MAX;

struct Slot {
    page_no: u32,
    pin: u32,
    dirty: bool,
    referenced: bool,
}

impl Slot {
    /// A frame that holds no page.
    const EMPTY: Slot = Slot {
        page_no: NO_PAGE,
        pin: 0,
        dirty: false,
        referenced: false,
    };
}

struct Meta {
    map: HashMap<u32, usize>,
    slots: Vec<Slot>,
    hand: usize,
    stats: PoolStats,
}

/// The pool proper. Independent of any one file: the [`FileManager`] is
/// passed per call so tests can drive the pool against scratch files.
pub struct BufferPool {
    frames: Vec<RwLock<Vec<u8>>>,
    meta: Mutex<Meta>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let meta = self.meta.lock().expect("pool meta");
        f.debug_struct("BufferPool")
            .field("capacity", &self.frames.len())
            .field("resident", &meta.map.len())
            .field("stats", &meta.stats)
            .finish()
    }
}

impl BufferPool {
    /// Allocates a pool with `capacity` frames (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let frames = (0..capacity)
            .map(|_| RwLock::new(vec![0u8; PAGE_SIZE]))
            .collect();
        let slots = (0..capacity).map(|_| Slot::EMPTY).collect();
        Self {
            frames,
            meta: Mutex::new(Meta {
                map: HashMap::new(),
                slots,
                hand: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.meta.lock().expect("pool meta").map.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        self.meta.lock().expect("pool meta").stats
    }

    /// Pins page `page_no`, reading it (with verification) from `fm` on a
    /// miss. The returned guard keeps the frame resident until dropped.
    pub fn pin<'a>(&'a self, fm: &FileManager, page_no: u32) -> Result<PageRef<'a>, StoreError> {
        self.pin_inner(fm, page_no, false)
    }

    /// Pins page `page_no` as a **fresh** page: the frame is zeroed
    /// instead of read from disk and starts dirty. Used by ingest and the
    /// transcript log to build pages that do not exist on disk yet. If the
    /// page is already resident this degrades to a normal hit.
    pub fn pin_new<'a>(
        &'a self,
        fm: &FileManager,
        page_no: u32,
    ) -> Result<PageRef<'a>, StoreError> {
        self.pin_inner(fm, page_no, true)
    }

    fn pin_inner<'a>(
        &'a self,
        fm: &FileManager,
        page_no: u32,
        fresh: bool,
    ) -> Result<PageRef<'a>, StoreError> {
        let mut meta = self.meta.lock().expect("pool meta");
        if let Some(&idx) = meta.map.get(&page_no) {
            meta.stats.hits += 1;
            let slot = &mut meta.slots[idx];
            slot.pin += 1;
            slot.referenced = true;
            return Ok(PageRef {
                pool: self,
                frame: idx,
                page_no,
                read_from_disk: false,
            });
        }
        meta.stats.misses += 1;

        let idx = self.find_victim(&mut meta)?;
        // Write back the displaced page before the frame is reused. Safe
        // to take the frame lock here (meta -> frame order); the victim
        // has pin == 0 so no guard holds it.
        let old = meta.slots[idx].page_no;
        if old != NO_PAGE {
            if meta.slots[idx].dirty {
                // Write-back without fsync: durability is the manifest
                // commit's job (flush_all + sync before Manifest::write).
                let mut buf = self.frames[idx].write().expect("frame lock");
                fm.write_page(old, &mut buf)?;
                meta.slots[idx].dirty = false;
                meta.stats.flushes += 1;
            }
            meta.map.remove(&old);
            meta.stats.evictions += 1;
        }

        let read = {
            let mut buf = self.frames[idx].write().expect("frame lock");
            if fresh {
                buf.fill(0);
                Ok(0)
            } else {
                fm.read_page(page_no, &mut buf)
            }
        };
        if let Err(e) = read {
            // The frame holds the failed read's bytes and belongs to no
            // page now: left labelled `old`, a later eviction would seal
            // those bytes as `old` or unmap a live frame of it.
            meta.slots[idx] = Slot::EMPTY;
            return Err(e);
        }
        meta.map.insert(page_no, idx);
        let slot = &mut meta.slots[idx];
        slot.page_no = page_no;
        slot.pin = 1;
        slot.dirty = fresh;
        slot.referenced = true;
        Ok(PageRef {
            pool: self,
            frame: idx,
            page_no,
            read_from_disk: !fresh,
        })
    }

    /// Clock sweep over unpinned slots. Two full sweeps (the first may
    /// only clear reference bits) before concluding everything is pinned.
    fn find_victim(&self, meta: &mut Meta) -> Result<usize, StoreError> {
        let n = meta.slots.len();
        for _ in 0..2 * n {
            let idx = meta.hand;
            meta.hand = (meta.hand + 1) % n;
            let slot = &mut meta.slots[idx];
            if slot.pin > 0 {
                continue;
            }
            if slot.page_no != NO_PAGE && slot.referenced {
                slot.referenced = false;
                continue;
            }
            return Ok(idx);
        }
        Err(StoreError::AllPinned)
    }

    /// Writes back every dirty frame and fsyncs the page file.
    pub fn flush_all(&self, fm: &FileManager) -> Result<(), StoreError> {
        let mut meta = self.meta.lock().expect("pool meta");
        let mut flushed = false;
        for idx in 0..meta.slots.len() {
            let (no, dirty) = (meta.slots[idx].page_no, meta.slots[idx].dirty);
            if no != NO_PAGE && dirty {
                let mut buf = self.frames[idx].write().expect("frame lock");
                fm.write_page(no, &mut buf)?;
                meta.slots[idx].dirty = false;
                meta.stats.flushes += 1;
                flushed = true;
            }
        }
        drop(meta);
        if flushed {
            fm.sync()?;
        }
        Ok(())
    }
}

/// A pinned page. Dropping it unpins the frame.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    frame: usize,
    page_no: u32,
    read_from_disk: bool,
}

impl<'a> PageRef<'a> {
    /// The page number this guard pins.
    pub fn page_no(&self) -> u32 {
        self.page_no
    }

    /// Read access to the full page buffer (header + payload).
    pub fn with_read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let buf = self.pool.frames[self.frame].read().expect("frame lock");
        f(&buf)
    }

    /// Read access to the page's used payload, checksum-verified. A page
    /// this pin read from disk was verified by that read; a frame that
    /// was already resident is verified again here, so every byte served
    /// was checked after it was last read.
    pub fn with_verified<R>(
        &self,
        f: impl FnOnce(&[u8]) -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        self.with_read(|buf| {
            if !self.read_from_disk {
                page::verify(buf, self.page_no)?;
            }
            f(page::payload(buf))
        })
    }

    /// Write access to the page buffer; marks the frame dirty. The closure
    /// is responsible for keeping the length field coherent
    /// ([`page::set_len`](super::page::set_len)); the checksum is
    /// recomputed at write-back.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        {
            let mut meta = self.pool.meta.lock().expect("pool meta");
            meta.slots[self.frame].dirty = true;
        }
        let mut buf = self.pool.frames[self.frame].write().expect("frame lock");
        f(&mut buf)
    }
}

impl<'a> Drop for PageRef<'a> {
    fn drop(&mut self) {
        let mut meta = self.pool.meta.lock().expect("pool meta");
        let slot = &mut meta.slots[self.frame];
        debug_assert!(slot.pin > 0, "unpin of an unpinned frame");
        slot.pin = slot.pin.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::super::page::{get_len, set_len, PAGE_HEADER};
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-pool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A page file with `n` pages whose payload is `[page_no as u8; 8]`.
    fn seed_pages(dir: &Path, n: u32) -> FileManager {
        let fm = FileManager::create(dir).unwrap();
        for no in 0..n {
            let mut buf = vec![0u8; PAGE_SIZE];
            buf[PAGE_HEADER..PAGE_HEADER + 8].fill(no as u8);
            set_len(&mut buf, 8);
            fm.write_page(no, &mut buf).unwrap();
        }
        fm.sync().unwrap();
        fm
    }

    #[test]
    fn hit_and_miss_counters() {
        let dir = tmp_dir("counters");
        let fm = seed_pages(&dir, 4);
        let pool = BufferPool::new(2);
        pool.pin(&fm, 0).unwrap();
        pool.pin(&fm, 0).unwrap();
        pool.pin(&fm, 1).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let dir = tmp_dir("cap");
        let fm = seed_pages(&dir, 16);
        let pool = BufferPool::new(3);
        for round in 0..3 {
            for no in 0..16 {
                let g = pool.pin(&fm, no).unwrap();
                g.with_read(|buf| assert_eq!(buf[PAGE_HEADER], no as u8));
                assert!(pool.resident_pages() <= 3, "round {round}");
            }
        }
        assert!(pool.stats().evictions > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let dir = tmp_dir("pinned");
        let fm = seed_pages(&dir, 8);
        let pool = BufferPool::new(2);
        let held = pool.pin(&fm, 0).unwrap();
        for no in 1..8 {
            let _ = pool.pin(&fm, no).unwrap();
        }
        // Page 0 must still be resident and hit without a disk read.
        let misses_before = pool.stats().misses;
        let again = pool.pin(&fm, 0).unwrap();
        assert_eq!(pool.stats().misses, misses_before);
        again.with_read(|buf| assert_eq!(buf[PAGE_HEADER], 0));
        drop(held);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_pinned_is_an_error_not_an_eviction() {
        let dir = tmp_dir("allpinned");
        let fm = seed_pages(&dir, 4);
        let pool = BufferPool::new(2);
        let _g0 = pool.pin(&fm, 0).unwrap();
        let _g1 = pool.pin(&fm, 1).unwrap();
        assert!(matches!(pool.pin(&fm, 2), Err(StoreError::AllPinned)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_pages_are_flushed_before_eviction() {
        let dir = tmp_dir("dirty");
        let fm = seed_pages(&dir, 4);
        let pool = BufferPool::new(1);
        {
            let g = pool.pin(&fm, 0).unwrap();
            g.with_write(|buf| {
                buf[PAGE_HEADER] = 0xAB;
                set_len(buf, 8);
            });
        }
        // Evict page 0 by pinning page 1 in the single frame.
        let _ = pool.pin(&fm, 1).unwrap();
        assert_eq!(pool.stats().flushes, 1);
        // The write-back must have re-sealed: a direct verified read sees it.
        let mut buf = vec![0u8; PAGE_SIZE];
        fm.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER], 0xAB);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let dir = tmp_dir("flushall");
        let fm = seed_pages(&dir, 2);
        let pool = BufferPool::new(4);
        pool.pin(&fm, 1).unwrap().with_write(|buf| {
            buf[PAGE_HEADER] = 0xCD;
            set_len(buf, 8);
        });
        pool.flush_all(&fm).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        fm.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER], 0xCD);
        // A second flush is a no-op: the dirty bit was cleared.
        pool.flush_all(&fm).unwrap();
        assert_eq!(pool.stats().flushes, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pin_new_builds_pages_that_do_not_exist_yet() {
        let dir = tmp_dir("pinnew");
        let fm = FileManager::create(&dir).unwrap();
        let pool = BufferPool::new(2);
        {
            let g = pool.pin_new(&fm, 0).unwrap();
            g.with_write(|buf| {
                buf[PAGE_HEADER..PAGE_HEADER + 3].copy_from_slice(b"abc");
                set_len(buf, 3);
            });
        }
        pool.flush_all(&fm).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert_eq!(fm.read_page(0, &mut buf).unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips one payload byte of page `no` in the page file.
    fn corrupt_page(dir: &Path, no: u32) {
        let path = dir.join("pages.dat");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[no as usize * PAGE_SIZE + PAGE_HEADER] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn a_failed_read_into_a_dirty_victim_corrupts_no_page() {
        let dir = tmp_dir("failed-read");
        let fm = seed_pages(&dir, 3);
        let pool = BufferPool::new(1);
        pool.pin(&fm, 0).unwrap().with_write(|buf| {
            buf[PAGE_HEADER] = 0xAA;
            set_len(buf, 8);
        });
        corrupt_page(&dir, 1);
        // The miss writes page 0 back, then the read of page 1 fails.
        assert!(matches!(
            pool.pin(&fm, 1),
            Err(StoreError::CorruptPage { .. })
        ));
        assert_eq!(pool.resident_pages(), 0);
        // Reusing the frame must not seal page 1's bytes as page 0.
        pool.pin(&fm, 2)
            .unwrap()
            .with_read(|buf| assert_eq!(buf[PAGE_HEADER], 2));
        let mut buf = vec![0u8; PAGE_SIZE];
        fm.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER], 0xAA, "page 0's write was lost");
        assert_eq!(pool.stats().flushes, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_read_leaves_no_orphan_to_unmap_a_live_frame() {
        let dir = tmp_dir("orphan");
        let fm = seed_pages(&dir, 6);
        let pool = BufferPool::new(3);
        for no in 0..3 {
            pool.pin(&fm, no).unwrap();
        }
        corrupt_page(&dir, 3);
        // The clock evicts page 0's frame for this read, which fails.
        assert!(pool.pin(&fm, 3).is_err());
        // Page 0 comes back in another frame and is written, still pinned.
        let live = pool.pin(&fm, 0).unwrap();
        live.with_write(|buf| buf[PAGE_HEADER] = 0xAA);
        pool.pin(&fm, 4).unwrap();
        // This miss reuses the failed read's frame; it must not unmap the
        // live frame of page 0.
        pool.pin(&fm, 5).unwrap();
        let misses = pool.stats().misses;
        let again = pool.pin(&fm, 0).unwrap();
        assert_eq!(pool.stats().misses, misses, "page 0 was unmapped");
        again.with_read(|buf| assert_eq!(buf[PAGE_HEADER], 0xAA));
        drop((live, again));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_pin_unpin_hammer() {
        let dir = tmp_dir("hammer");
        let fm = Arc::new(seed_pages(&dir, 32));
        let pool = Arc::new(BufferPool::new(8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let fm = Arc::clone(&fm);
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    // Deterministic per-thread page walk; xorshift stride.
                    let mut x = 0x9E37_79B9u32 ^ (t as u32);
                    for _ in 0..500 {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        let no = x % 32;
                        let g = pool.pin(&fm, no).unwrap();
                        g.with_read(|buf| {
                            assert_eq!(buf[PAGE_HEADER], no as u8, "frame served wrong page");
                            assert_eq!(get_len(buf), 8);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8 * 500);
        assert!(pool.resident_pages() <= 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
