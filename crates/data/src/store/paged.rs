//! A dataset's durable row file: ingest once, scan lazily, mutate live.
//!
//! `ingest` packs validated rows into pages *through the buffer pool*
//! (so a pool smaller than the dataset exercises dirty write-back during
//! ingest), fsyncs the page file, then commits the manifest — schema,
//! row count, page table, epoch — via atomic rename. `open` verifies the
//! manifest and serves rows page-at-a-time; a scan of an N-page dataset
//! through a K-frame pool holds at most K pages resident.
//!
//! ## Live mutations (copy-on-write)
//!
//! Since this store learned to mutate, a *logical* page (position in the
//! row stream) is decoupled from the *physical* page (offset in
//! `pages.dat`) through a page table carried in the manifest payload.
//! [`PagedRows::insert_rows`] / [`PagedRows::delete_rows`]:
//!
//! 1. append the mutation to the [`MutationLog`] and fsync — the **ack**;
//! 2. rewrite only the touched logical pages as fresh physical pages
//!    *beyond* committed coverage (committed pages are never overwritten
//!    — asserted by the [`FileManager`]) and fsync them;
//! 3. commit through [`FileManager::bump_epoch`]: one atomic manifest
//!    rename that bumps `epoch`, advances the applied-mutation count and
//!    swaps the page table.
//!
//! A crash before step 1 loses an unacked mutation; between 1 and 3 the
//! old manifest still governs (the fresh pages sit outside coverage) and
//! [`PagedRows::open`] re-applies the acked records the manifest has not
//! seen — replay-after-crash yields exactly the acked mutations, and a
//! torn log tail vanishes cleanly. Scans snapshot the page table at
//! entry, so a scan concurrent with a mutation sees one consistent
//! epoch throughout.

use super::buffer_pool::{BufferPool, PageRef, PoolStats};
use super::codec;
use super::file_manager::{FileManager, Manifest, FORMAT_VERSION};
use super::mutation_log::{DatasetLog, MutationLog, MutationOp, MutationRecord};
use super::page::{self, PAGE_CAPACITY, PAGE_HEADER, PAGE_SIZE};
use super::StoreError;
use crate::chunk::{Chunk, Codes, RowMatcher};
use crate::{Domain, Schema, SchemaError, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// Default buffer-pool capacity (frames) when the caller does not care.
pub const DEFAULT_POOL_FRAMES: usize = 64;

/// Committed store state: everything the manifest carries, decoded.
#[derive(Debug, Clone)]
struct Meta {
    schema: Arc<Schema>,
    row_count: u64,
    /// Logical page → physical page in `pages.dat`.
    table: Vec<u32>,
    /// Physical pages covered by the manifest (fresh pages are allocated
    /// from here upward).
    phys_pages: u32,
    epoch: u64,
    /// Mutation-log records folded into the pages this manifest covers.
    applied: u64,
}

/// The result of one applied mutation batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// Epoch after the commit (every mutation bumps it by one).
    pub epoch: u64,
    /// Total mutation records applied over the store's lifetime.
    pub applied: u64,
    /// Rows added by this batch.
    pub inserted: u64,
    /// Rows actually removed by this batch (first matching occurrence
    /// per requested row; requests with no match remove nothing).
    pub deleted: Vec<Vec<Value>>,
}

/// An open, verified paged row store.
pub struct PagedRows {
    fm: FileManager,
    pool: Arc<BufferPool>,
    dir: PathBuf,
    meta: RwLock<Meta>,
    /// Serializes mutators over the store's mutation log.
    mutators: Mutex<DatasetLog>,
}

impl std::fmt::Debug for PagedRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let meta = self.meta.read().expect("paged meta");
        f.debug_struct("PagedRows")
            .field("dir", &self.dir)
            .field("rows", &meta.row_count)
            .field("pages", &meta.table.len())
            .field("epoch", &meta.epoch)
            .field("applied", &meta.applied)
            .finish()
    }
}

/// Widens numeric attribute domains of `schema` just enough to admit
/// every value in `rows`. Non-numeric domains are never widened (an
/// unknown category is a validation error, not a domain change). The
/// result is deterministic in (schema, rows) — mutation-log replay
/// re-derives the identical widened schema.
pub fn widen_schema(schema: &Schema, rows: &[Vec<Value>]) -> Schema {
    let mut attrs = schema.attributes().to_vec();
    for row in rows {
        for (attr, v) in attrs.iter_mut().zip(row.iter()) {
            match (&mut attr.domain, v) {
                (Domain::IntRange { min, max }, Value::Int(i)) => {
                    if i < min {
                        *min = *i;
                    }
                    if i > max {
                        *max = *i;
                    }
                }
                (Domain::FloatRange { min, max }, Value::Float(f)) => {
                    if f < min {
                        *min = *f;
                    }
                    // FloatRange max is exclusive: nudge just past f.
                    if *f >= *max {
                        *max = next_up(*f);
                    }
                }
                (Domain::FloatRange { min, max }, Value::Int(i)) => {
                    let f = *i as f64;
                    if f < *min {
                        *min = f;
                    }
                    if f >= *max {
                        *max = next_up(f);
                    }
                }
                _ => {}
            }
        }
    }
    Schema::new(attrs).expect("widening preserves attribute names")
}

/// The smallest f64 strictly greater than `x` (finite inputs). Mirrors
/// the partitioner's MSRV-safe implementation.
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// Manifest payload layout (opaque to the file manager):
/// `schema_len:u32 schema applied:u64 logical:u32 table[u32 × logical]`.
fn encode_meta_payload(schema: &Schema, applied: u64, table: &[u32]) -> Vec<u8> {
    let schema_bytes = codec::encode_schema(schema);
    let mut out = Vec::with_capacity(16 + schema_bytes.len() + 4 * table.len());
    out.extend_from_slice(&(schema_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&schema_bytes);
    out.extend_from_slice(&applied.to_le_bytes());
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for &p in table {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

fn decode_meta_payload(bytes: &[u8]) -> Result<(Schema, u64, Vec<u32>), StoreError> {
    let err = |m: &str| StoreError::Codec(format!("manifest payload: {m}"));
    let (head, rest) = bytes
        .split_at_checked(4)
        .ok_or_else(|| err("short schema length"))?;
    let schema_len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
    let (schema_bytes, rest) = rest
        .split_at_checked(schema_len)
        .ok_or_else(|| err("short schema"))?;
    let schema = codec::decode_schema(schema_bytes)?;
    let (head, rest) = rest
        .split_at_checked(8)
        .ok_or_else(|| err("short applied count"))?;
    let applied = u64::from_le_bytes(head.try_into().expect("8 bytes"));
    let (head, mut rest) = rest
        .split_at_checked(4)
        .ok_or_else(|| err("short table length"))?;
    let logical = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
    let mut table = Vec::with_capacity(logical);
    for _ in 0..logical {
        let (e, r) = rest
            .split_at_checked(4)
            .ok_or_else(|| err("short table entry"))?;
        table.push(u32::from_le_bytes(e.try_into().expect("4 bytes")));
        rest = r;
    }
    if !rest.is_empty() {
        return Err(err("trailing bytes"));
    }
    Ok((schema, applied, table))
}

/// Packs a row stream into pages through a buffer pool (so a pool
/// smaller than the dataset exercises dirty write-back), then makes them
/// durable and commits the manifest: [`PagedRows::ingest`] over an
/// iterator, [`crate::Dataset::ingest_paged`] over a scan.
pub(crate) struct PageWriter {
    fm: FileManager,
    pool: BufferPool,
    dir: PathBuf,
    page_no: u32,
    row_count: u64,
    payload: Vec<u8>,
    rows_in_page: u16,
}

impl PageWriter {
    /// Starts a fresh store in `dir`, replacing any there.
    pub(crate) fn create(dir: &Path, pool_frames: usize) -> Result<Self, StoreError> {
        let fm = FileManager::create(dir)?;
        // A stale mutation log must not replay over the fresh generation.
        match std::fs::remove_file(dir.join(super::MUTATION_LOG_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let mut payload = Vec::with_capacity(PAGE_CAPACITY);
        payload.extend_from_slice(&0u16.to_le_bytes());
        Ok(Self {
            fm,
            pool: BufferPool::new(pool_frames),
            dir: dir.to_path_buf(),
            page_no: 0,
            row_count: 0,
            payload,
            rows_in_page: 0,
        })
    }

    fn seal_page(&mut self) -> Result<(), StoreError> {
        self.payload[..2].copy_from_slice(&self.rows_in_page.to_le_bytes());
        {
            let guard = self.pool.pin_new(&self.fm, self.page_no)?;
            let payload = &self.payload;
            guard.with_write(|buf| {
                buf[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
                page::set_len(buf, payload.len() as u32);
            });
        }
        self.payload.truncate(2);
        self.page_no += 1;
        self.rows_in_page = 0;
        Ok(())
    }

    /// Appends one row.
    pub(crate) fn push(&mut self, row: &[Value]) -> Result<(), StoreError> {
        let sz = codec::row_size(row);
        if sz > PAGE_CAPACITY - 2 {
            return Err(StoreError::Codec(format!(
                "row of {sz} bytes exceeds page capacity"
            )));
        }
        if self.payload.len() + sz > PAGE_CAPACITY || self.rows_in_page == u16::MAX {
            self.seal_page()?;
        }
        codec::push_row(&mut self.payload, row);
        self.rows_in_page += 1;
        self.row_count += 1;
        Ok(())
    }

    /// Durability order: pages → fsync → manifest (atomic rename); then
    /// the opened store.
    pub(crate) fn finish(mut self, schema: &Schema, epoch: u64) -> Result<PagedRows, StoreError> {
        if self.rows_in_page > 0 {
            self.seal_page()?;
        }
        self.pool.flush_all(&self.fm)?;
        self.fm.sync()?;
        let table: Vec<u32> = (0..self.page_no).collect();
        self.fm.bump_epoch(&Manifest {
            format_version: FORMAT_VERSION,
            epoch,
            page_count: self.page_no,
            record_count: self.row_count,
            payload: encode_meta_payload(schema, 0, &table),
        })?;
        Ok(PagedRows {
            mutators: Mutex::new(DatasetLog::new(&self.dir)),
            fm: self.fm,
            pool: Arc::new(self.pool),
            dir: self.dir,
            meta: RwLock::new(Meta {
                schema: Arc::new(schema.clone()),
                row_count: self.row_count,
                table,
                phys_pages: self.page_no,
                epoch,
                applied: 0,
            }),
        })
    }
}

impl PagedRows {
    /// Writes `rows` (already validated against `schema`) into `dir` and
    /// returns the opened store. Any existing store in `dir` is replaced
    /// — including its mutation log; pass a larger `epoch` than the one
    /// being replaced so readers can tell the generations apart.
    pub fn ingest<'a>(
        dir: &Path,
        schema: &Schema,
        rows: impl Iterator<Item = &'a [Value]>,
        epoch: u64,
        pool_frames: usize,
    ) -> Result<Self, StoreError> {
        let mut writer = PageWriter::create(dir, pool_frames)?;
        for row in rows {
            writer.push(row)?;
        }
        writer.finish(schema, epoch)
    }

    /// Opens and verifies an existing store: manifest checksum + version,
    /// schema decode, page-file length against the promised coverage —
    /// then replays any acked-but-unapplied mutation-log records, leaving
    /// the store exactly at the last acked state. Bytes beyond coverage
    /// (a torn final append) are ignored, never served; a file *shorter*
    /// than coverage, or a mutation log whose valid prefix is shorter
    /// than the manifest's applied-count, is an error.
    pub fn open(dir: &Path, pool_frames: usize) -> Result<Self, StoreError> {
        let manifest = Manifest::load(dir)?;
        let (schema, applied, table) = decode_meta_payload(&manifest.payload)?;
        let fm = FileManager::open(dir)?;
        let need = manifest.page_count as u64 * PAGE_SIZE as u64;
        let have = fm.len_bytes()?;
        if have < need {
            return Err(StoreError::Truncated {
                expected_pages: manifest.page_count,
                actual_bytes: have,
            });
        }
        if let Some(&p) = table.iter().find(|&&p| p >= manifest.page_count) {
            return Err(StoreError::Codec(format!(
                "page table entry {p} outside coverage {}",
                manifest.page_count
            )));
        }
        fm.track_committed(manifest.epoch, manifest.page_count);
        let store = Self {
            fm,
            pool: Arc::new(BufferPool::new(pool_frames)),
            dir: dir.to_path_buf(),
            meta: RwLock::new(Meta {
                schema: Arc::new(schema),
                row_count: manifest.record_count,
                table,
                phys_pages: manifest.page_count,
                epoch: manifest.epoch,
                applied,
            }),
            mutators: Mutex::new(DatasetLog::new(dir)),
        };
        store.replay_unapplied()?;
        Ok(store)
    }

    /// Re-applies acked mutation records the manifest has not folded in
    /// (crash between log ack and manifest commit). One commit covers all
    /// replayed records; the resulting epoch/applied counts are exactly
    /// what a crash-free run would have produced. (A torn tail past the
    /// acked prefix is cut by the next append's open.)
    fn replay_unapplied(&self) -> Result<(), StoreError> {
        let applied = self.meta.read().expect("paged meta").applied;
        let mut pending = Vec::new();
        let logged = MutationLog::replay(&self.dir, |r| {
            if r.seq >= applied {
                pending.push(r);
            }
        })?;
        if logged < applied {
            return Err(StoreError::LogOutOfStep { applied, logged });
        }
        for record in pending {
            self.apply_record(&record)?;
        }
        Ok(())
    }

    /// The schema recorded at ingest, as widened by later inserts.
    pub fn schema(&self) -> Schema {
        (*self.meta.read().expect("paged meta").schema).clone()
    }

    /// The directory the store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Logical row count (from the manifest, no scan needed).
    pub fn row_count(&self) -> u64 {
        self.meta.read().expect("paged meta").row_count
    }

    /// Logical pages of row data.
    pub fn page_count(&self) -> u32 {
        self.meta.read().expect("paged meta").table.len() as u32
    }

    /// Dataset generation: stamped at ingest, bumped by every mutation.
    pub fn epoch(&self) -> u64 {
        self.meta.read().expect("paged meta").epoch
    }

    /// Mutation records folded into the committed state.
    pub fn mutations_applied(&self) -> u64 {
        self.meta.read().expect("paged meta").applied
    }

    /// Buffer-pool counters for this store.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Inserts `rows` durably: log append + fsync (the ack), then a
    /// copy-on-write rewrite of the touched tail page plus fresh pages,
    /// committed by one manifest rename that bumps the epoch. Numeric
    /// attribute domains widen automatically to admit the rows; any other
    /// schema mismatch fails *before* the ack.
    pub fn insert_rows(&self, rows: &[Vec<Value>]) -> Result<MutationOutcome, StoreError> {
        if rows.is_empty() {
            return Err(StoreError::Codec("empty mutation batch".into()));
        }
        // Validate against the widened schema before acking anything.
        let widened = {
            let meta = self.meta.read().expect("paged meta");
            widen_schema(&meta.schema, rows)
        };
        for row in rows {
            widened.validate_row(row).map_err(StoreError::Rejected)?;
            let sz = codec::row_size(row);
            if sz > PAGE_CAPACITY - 2 {
                let msg = format!("row of {sz} bytes exceeds page capacity");
                return Err(StoreError::Rejected(SchemaError::RowMismatch(msg)));
            }
        }
        self.mutate(MutationOp::Insert, rows)
    }

    /// Deletes the first matching occurrence (in storage order) of each
    /// row in `rows`; rows with no match delete nothing. Same durability
    /// protocol as [`Self::insert_rows`]. The outcome lists the rows
    /// actually removed.
    pub fn delete_rows(&self, rows: &[Vec<Value>]) -> Result<MutationOutcome, StoreError> {
        if rows.is_empty() {
            return Err(StoreError::Codec("empty mutation batch".into()));
        }
        let arity = {
            let meta = self.meta.read().expect("paged meta");
            meta.schema.arity()
        };
        if let Some(row) = rows.iter().find(|row| row.len() != arity) {
            let msg = format!("expected {arity} values, got {}", row.len());
            return Err(StoreError::Rejected(SchemaError::RowMismatch(msg)));
        }
        self.mutate(MutationOp::Delete, rows)
    }

    /// Shared mutation path: ack through the log, then apply + commit.
    fn mutate(&self, op: MutationOp, rows: &[Vec<Value>]) -> Result<MutationOutcome, StoreError> {
        let mut log = self.mutators.lock().expect("mutation log lock");
        let record = log.append(self.mutations_applied(), op, rows)?; // ← the ack point
        self.apply_record(&record)
    }

    /// Applies one acked record: COW page writes, fsync, manifest commit.
    /// Callers hold the `mutators` lock (or are single-threaded `open`).
    fn apply_record(&self, record: &MutationRecord) -> Result<MutationOutcome, StoreError> {
        let meta = self.meta.read().expect("paged meta").clone();
        debug_assert_eq!(record.seq, meta.applied, "replay out of order");
        let mut table = meta.table.clone();
        let mut phys_next = meta.phys_pages;
        let mut row_count = meta.row_count;
        let mut schema = meta.schema.clone();
        let mut deleted: Vec<Vec<Value>> = Vec::new();
        let mut inserted = 0u64;

        // Fresh page images to write, (physical page, payload).
        let mut writes: Vec<(u32, Vec<u8>)> = Vec::new();

        match record.op {
            MutationOp::Insert => {
                schema = Arc::new(widen_schema(&schema, &record.rows));
                // Start from the tail page's payload when it has room.
                let mut payload: Vec<u8>;
                let mut rows_in_page: u16;
                let mut replaces: Option<usize> = None; // logical slot being rewritten
                if let Some(&tail_phys) = table.last() {
                    let guard = self.pool.pin(&self.fm, tail_phys)?;
                    payload = guard.with_verified(|p| Ok(p.to_vec()))?;
                    rows_in_page = u16::from_le_bytes(payload[..2].try_into().expect("2 bytes"));
                    replaces = Some(table.len() - 1);
                } else {
                    payload = 0u16.to_le_bytes().to_vec();
                    rows_in_page = 0;
                }
                let mut touched = false;
                for row in &record.rows {
                    let sz = codec::row_size(row);
                    if payload.len() + sz > PAGE_CAPACITY || rows_in_page == u16::MAX {
                        // Seal the current payload (only if we changed it).
                        if touched {
                            payload[..2].copy_from_slice(&rows_in_page.to_le_bytes());
                            let phys = phys_next;
                            phys_next += 1;
                            writes.push((phys, std::mem::take(&mut payload)));
                            match replaces.take() {
                                Some(slot) => table[slot] = phys,
                                None => table.push(phys),
                            }
                        }
                        payload = 0u16.to_le_bytes().to_vec();
                        rows_in_page = 0;
                        replaces = None;
                    }
                    codec::push_row(&mut payload, row);
                    rows_in_page += 1;
                    row_count += 1;
                    inserted += 1;
                    touched = true;
                }
                if touched {
                    payload[..2].copy_from_slice(&rows_in_page.to_le_bytes());
                    let phys = phys_next;
                    phys_next += 1;
                    writes.push((phys, payload));
                    match replaces {
                        Some(slot) => table[slot] = phys,
                        None => table.push(phys),
                    }
                }
            }
            MutationOp::Delete => {
                let mut want = RowMatcher::new(&record.rows);
                let codes = Codes::new(&schema);
                for slot in table.iter_mut() {
                    if want.is_done() {
                        break;
                    }
                    let (_pinned, chunk) = self.pin_chunk(*slot, &schema, &codes)?;
                    let hit = chunk.take_matches(&schema, &mut want);
                    if !hit.is_empty() {
                        deleted.extend(hit.iter().map(|&r| chunk.row(&schema, r)));
                        let kept = (0..chunk.len()).filter(|r| hit.binary_search(r).is_err());
                        let mut new_payload =
                            ((chunk.len() - hit.len()) as u16).to_le_bytes().to_vec();
                        for r in kept {
                            codec::push_row(&mut new_payload, &chunk.row(&schema, r));
                        }
                        let fresh = phys_next;
                        phys_next += 1;
                        writes.push((fresh, new_payload));
                        *slot = fresh;
                    }
                }
                row_count -= deleted.len() as u64;
            }
        }

        // COW write-out: fresh physical pages only, then fsync.
        for (phys, payload) in &writes {
            let mut buf = vec![0u8; PAGE_SIZE];
            buf[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
            page::set_len(&mut buf, payload.len() as u32);
            self.fm.write_page(*phys, &mut buf)?;
        }
        if !writes.is_empty() {
            self.fm.sync()?;
        }

        // The commit point: one manifest rename bumps the epoch.
        let new_meta = Meta {
            schema,
            row_count,
            table,
            phys_pages: phys_next,
            epoch: meta.epoch + 1,
            applied: meta.applied + 1,
        };
        self.fm.bump_epoch(&Manifest {
            format_version: FORMAT_VERSION,
            epoch: new_meta.epoch,
            page_count: new_meta.phys_pages,
            record_count: new_meta.row_count,
            payload: encode_meta_payload(&new_meta.schema, new_meta.applied, &new_meta.table),
        })?;
        let outcome = MutationOutcome {
            epoch: new_meta.epoch,
            applied: new_meta.applied,
            inserted,
            deleted,
        };
        *self.meta.write().expect("paged meta") = new_meta;
        Ok(outcome)
    }

    /// Streams every page through `f` as one decoded [`Chunk`], via the
    /// pool. Memory is bounded by the pool capacity plus one page's chunk
    /// regardless of dataset size. Each page is checksum-verified on its
    /// way in from disk; corruption surfaces as an error here, not as
    /// silently wrong counts. The page table is snapshotted at entry: a
    /// scan racing a mutation sees one consistent epoch end to end.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&Chunk)) -> Result<(), StoreError> {
        let (table, row_count, schema) = {
            let meta = self.meta.read().expect("paged meta");
            (meta.table.clone(), meta.row_count, meta.schema.clone())
        };
        let codes = Codes::new(&schema);
        let mut seen: u64 = 0;
        for &phys in &table {
            let (_pinned, chunk) = self.pin_chunk(phys, &schema, &codes)?;
            seen += chunk.len() as u64;
            f(&chunk);
        }
        if seen != row_count {
            return Err(StoreError::Codec(format!(
                "manifest promises {row_count} rows, pages held {seen}"
            )));
        }
        Ok(())
    }

    /// Pins physical page `phys` and decodes it into one chunk sized to
    /// the page; the page stays pinned while the caller holds the guard.
    /// The payload is verified by [`PageRef::with_verified`]'s rule.
    fn pin_chunk(
        &self,
        phys: u32,
        schema: &Schema,
        codes: &Codes<'_>,
    ) -> Result<(PageRef<'_>, Chunk), StoreError> {
        let guard = self.pool.pin(&self.fm, phys)?;
        let chunk = guard.with_verified(|p| codec::decode_page(p, schema, codes))?;
        Ok((guard, chunk))
    }

    /// Every row, owned, in storage order: for tests and diagnostics
    /// (unbounded memory; scans use [`Self::for_each_chunk`]).
    pub fn to_rows(&self) -> Result<Vec<Vec<Value>>, StoreError> {
        let schema = self.schema();
        let mut out = Vec::with_capacity(self.row_count() as usize);
        self.for_each_chunk(|c| out.extend((0..c.len()).map(|r| c.row(&schema, r))))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, Domain};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-paged-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_schema() -> Schema {
        Schema::new(vec![
            Attribute::new(
                "age",
                Domain::IntRange {
                    min: 0,
                    max: 200_000,
                },
            ),
            Attribute::new("tag", Domain::Text),
        ])
        .unwrap()
    }

    fn demo_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))])
            .collect()
    }

    #[test]
    fn ingest_open_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let schema = demo_schema();
        let rows = demo_rows(5000); // several pages worth
        let ingested =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        assert_eq!(ingested.row_count(), 5000);
        assert!(ingested.page_count() > 1, "want a multi-page store");
        drop(ingested);

        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(store.schema(), schema);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.to_rows().unwrap(), rows);
        // The 4-frame pool never holds more than 4 of the pages.
        assert!(store.pool_stats().misses >= store.page_count() as u64 - 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_pool_ingest_exercises_write_back() {
        let dir = tmp_dir("writeback");
        let schema = demo_schema();
        let rows = demo_rows(5000);
        let store =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 1).unwrap();
        assert!(store.pool_stats().flushes >= store.page_count() as u64);
        assert_eq!(PagedRows::open(&dir, 2).unwrap().to_rows().unwrap(), rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dataset_round_trips() {
        let dir = tmp_dir("empty");
        let schema = demo_schema();
        PagedRows::ingest(&dir, &schema, std::iter::empty(), 3, 2).unwrap();
        let store = PagedRows::open(&dir, 2).unwrap();
        assert_eq!(store.row_count(), 0);
        assert_eq!(store.page_count(), 0);
        assert!(store.to_rows().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reingest_replaces_and_bumps_epoch() {
        let dir = tmp_dir("reingest");
        let schema = demo_schema();
        let first = demo_rows(100);
        PagedRows::ingest(&dir, &schema, first.iter().map(|r| r.as_slice()), 1, 2).unwrap();
        let second = demo_rows(10);
        PagedRows::ingest(&dir, &schema, second.iter().map(|r| r.as_slice()), 2, 2).unwrap();
        let store = PagedRows::open(&dir, 2).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.to_rows().unwrap(), second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_page_file_is_rejected_at_open() {
        let dir = tmp_dir("truncated");
        let schema = demo_schema();
        let rows = demo_rows(5000);
        PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        let pages = dir.join("pages.dat");
        let len = std::fs::metadata(&pages).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&pages)
            .unwrap();
        f.set_len(len - 1).unwrap();
        assert!(matches!(
            PagedRows::open(&dir, 4),
            Err(StoreError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_append_beyond_manifest_is_ignored() {
        let dir = tmp_dir("torn");
        let schema = demo_schema();
        let rows = demo_rows(200);
        PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        // Simulate a crash mid-append: garbage half-page past coverage.
        let pages = dir.join("pages.dat");
        let mut bytes = std::fs::read(&pages).unwrap();
        bytes.extend_from_slice(&vec![0xAAu8; PAGE_SIZE / 2]);
        std::fs::write(&pages, &bytes).unwrap();
        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(store.to_rows().unwrap(), rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_appends_and_bumps_epoch() {
        let dir = tmp_dir("insert");
        let schema = demo_schema();
        let rows = demo_rows(100);
        let store =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        let extra = vec![
            vec![Value::Int(7), Value::Str("new-a".into())],
            vec![Value::Int(9), Value::Str("new-b".into())],
        ];
        let outcome = store.insert_rows(&extra).unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.inserted, 2);
        assert_eq!(store.row_count(), 102);
        let mut want = rows.clone();
        want.extend(extra.clone());
        assert_eq!(store.to_rows().unwrap(), want);
        drop(store);
        // Reopen: the committed state includes the mutation.
        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.mutations_applied(), 1);
        assert_eq!(store.to_rows().unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_removes_first_occurrences_only() {
        let dir = tmp_dir("delete");
        let schema = demo_schema();
        let mut rows = demo_rows(10);
        rows.push(rows[3].clone()); // duplicate of row 3
        let store =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        let outcome = store.delete_rows(&[rows[3].clone()]).unwrap();
        assert_eq!(outcome.deleted, vec![rows[3].clone()]);
        assert_eq!(store.row_count(), 10);
        // One copy of the duplicate row must survive.
        let left = store.to_rows().unwrap();
        assert_eq!(left.iter().filter(|r| **r == rows[3]).count(), 1);
        // Deleting a row that does not exist removes nothing.
        let missing = vec![vec![Value::Int(12345), Value::Str("ghost".into())]];
        let outcome = store.delete_rows(&missing).unwrap();
        assert!(outcome.deleted.is_empty());
        assert_eq!(store.row_count(), 10);
        assert_eq!(store.epoch(), 3); // both mutations committed
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_widens_numeric_domains() {
        let dir = tmp_dir("widen");
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 99 },
        )])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let store =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 2).unwrap();
        store.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        let widened = store.schema();
        assert_eq!(
            widened.attribute("v").unwrap().domain,
            Domain::IntRange { min: 0, max: 500 }
        );
        drop(store);
        // The widened schema is durable.
        let store = PagedRows::open(&dir, 2).unwrap();
        assert_eq!(
            store.schema().attribute("v").unwrap().domain,
            Domain::IntRange { min: 0, max: 500 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn acked_but_unapplied_mutations_replay_on_open() {
        let dir = tmp_dir("replay");
        let schema = demo_schema();
        let rows = demo_rows(50);
        let store =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        let extra = vec![vec![Value::Int(1), Value::Str("acked".into())]];
        store.insert_rows(&extra).unwrap();
        drop(store);

        // Simulate the crash window between log ack and manifest commit:
        // append a record directly to the log without touching pages.
        let mut log = MutationLog::open(&dir).unwrap();
        assert_eq!(log.next_seq(), 1);
        let ghost = vec![vec![Value::Int(2), Value::Str("crashed".into())]];
        log.append(MutationOp::Insert, ghost.clone()).unwrap();
        drop(log);

        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(store.mutations_applied(), 2);
        assert_eq!(store.epoch(), 3); // 1 (ingest) + 2 mutations
        let mut want = rows.clone();
        want.extend(extra);
        want.extend(ghost);
        assert_eq!(store.to_rows().unwrap(), want);
        // Re-opening again is stable (replay is idempotent via `applied`).
        drop(store);
        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(store.epoch(), 3);
        assert_eq!(store.row_count(), 52);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutations_spanning_many_pages_round_trip() {
        let dir = tmp_dir("many");
        let schema = demo_schema();
        let rows = demo_rows(300);
        let store =
            PagedRows::ingest(&dir, &schema, rows.iter().map(|r| r.as_slice()), 1, 4).unwrap();
        let pages_before = store.page_count();
        // Insert enough to spill several fresh pages.
        let extra = demo_rows(400);
        store.insert_rows(&extra).unwrap();
        assert!(store.page_count() > pages_before);
        let mut want = rows.clone();
        want.extend(extra.clone());
        assert_eq!(store.to_rows().unwrap(), want);
        // Delete a band spread over several pages.
        let band: Vec<Vec<Value>> = rows[50..150].to_vec();
        let outcome = store.delete_rows(&band).unwrap();
        // One occurrence per requested row, even though demo_rows(400)
        // duplicates ids 50..150 — the copies survive.
        assert_eq!(outcome.deleted.len(), 100);
        drop(store);
        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(store.row_count(), 600);
        let left = store.to_rows().unwrap();
        assert_eq!(left.iter().filter(|r| **r == rows[60]).count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
