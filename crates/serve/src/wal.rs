//! The write-ahead log: every budget-mutating event is appended (and
//! fsynced) *before* the client sees its ack.
//!
//! A restart that forgets spent privacy budget silently refills `B` —
//! the one failure a DP engine can never afford. So the rule is strict
//! write-ahead ordering per event: charge in memory → append + sync the
//! record → only then write the HTTP response. A crash between charge
//! and append loses an event the client was never acked (recovered spend
//! can only *undercount relative to memory*, never relative to acks);
//! a crash between append and ack recovers spend the client never saw —
//! recovered-spent ≥ acked-sum always holds.
//!
//! ## On-disk format (std-only, no serde)
//!
//! ```text
//! file   := magic record*           magic  := b"APEXWAL1"
//! record := len:u32 crc:u32 payload  (little-endian, crc32(payload))
//! payload:= tag:u8 fields…           (fixed-width LE fields)
//! ```
//!
//! Tags: 1 = session open, 2 = budget debit (an answered query),
//! 3 = deny (audit only — charges nothing), 4 = session close
//! (TTL expiry or admin, carrying the released unspent slice),
//! 5 = row mutation (an applied insert/delete batch with the rows and
//! the dataset epoch it produced — replayable against in-memory
//! tenants, idempotent against durable ones).
//!
//! ## Tail discipline
//!
//! [`read_wal`] stops at the **last valid record** and classifies what
//! follows: [`WalTail::Clean`] (EOF exactly after a record),
//! [`WalTail::Torn`] (a partial record — the expected artifact of a
//! crash mid-append; recovery truncates it and proceeds), or
//! [`WalTail::Corrupt`] (a *complete* record whose checksum or framing
//! is wrong — bit rot, not a torn write; recovery refuses to start
//! unless explicitly told to truncate). No partial record is ever
//! replayed in any mode.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic: identifies a WAL and pins its format version.
pub const WAL_MAGIC: &[u8; 8] = b"APEXWAL1";

/// Upper bound on a record payload; a declared length beyond this is
/// corruption (no legitimate record comes close — it bounds allocation
/// when a length prefix is damaged).
pub(crate) const MAX_PAYLOAD: usize = 64 << 10;

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session was opened on `dataset` with budget slice `allowance`.
    Open {
        /// Server-assigned session id.
        session: u64,
        /// The tenant dataset the session is bound to.
        dataset: String,
        /// The session's budget slice.
        allowance: f64,
    },
    /// An answered query charged `epsilon` to `session` (and its
    /// tenant's engine). This is the record privacy accounting lives by.
    Debit {
        /// The charged session.
        session: u64,
        /// Actual privacy loss charged.
        epsilon: f64,
    },
    /// A query was denied — charges nothing; logged so the persisted
    /// history mirrors the transcript's interaction order.
    Deny {
        /// The denied session.
        session: u64,
    },
    /// A session was closed (TTL expiry or admin), releasing the unspent
    /// remainder of its slice.
    Close {
        /// The closed session.
        session: u64,
        /// Unspent allowance released back to the grant pool.
        released: f64,
    },
    /// A row mutation was applied to `dataset`'s engine. Logged (and
    /// synced) before the mutation is acked, carrying the **requested**
    /// batch — replay runs it through the same mutation path, which is
    /// deterministic (first-match-in-storage-order deletes), so the
    /// recovered delta and epoch are bit-identical to the original.
    /// Recovery re-applies it to in-memory tenants; durable (paged)
    /// tenants committed it themselves, so the replay is made
    /// idempotent by `epoch_after`: a record whose epoch the store has
    /// already reached is skipped.
    Mutate {
        /// The mutated tenant dataset.
        dataset: String,
        /// `true` for an insert batch, `false` for a delete batch.
        insert: bool,
        /// Dataset epoch after this mutation applied.
        epoch_after: u64,
        /// The requested row batch (never empty).
        rows: Vec<Vec<apex_data::Value>>,
    },
}

impl WalRecord {
    /// Serializes the payload (tag + fields, no frame).
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Open {
                session,
                dataset,
                allowance,
            } => {
                out.push(1);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&allowance.to_le_bytes());
                push_str(&mut out, dataset);
            }
            WalRecord::Debit { session, epsilon } => {
                out.push(2);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&epsilon.to_le_bytes());
            }
            WalRecord::Deny { session } => {
                out.push(3);
                out.extend_from_slice(&session.to_le_bytes());
            }
            WalRecord::Close { session, released } => {
                out.push(4);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&released.to_le_bytes());
            }
            WalRecord::Mutate {
                dataset,
                insert,
                epoch_after,
                rows,
            } => {
                out.push(5);
                out.push(u8::from(*insert));
                out.extend_from_slice(&epoch_after.to_le_bytes());
                push_str(&mut out, dataset);
                push_rows(&mut out, rows);
            }
        }
        out
    }

    /// Parses a payload. `None` on any structural mismatch (unknown tag,
    /// wrong field width, non-UTF-8 dataset name) — the caller treats
    /// that as corruption.
    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        match tag {
            1 => {
                let (session, rest) = take_u64(rest)?;
                let (allowance, rest) = take_f64(rest)?;
                let (dataset, rest) = take_str(rest)?;
                rest.is_empty().then_some(WalRecord::Open {
                    session,
                    dataset,
                    allowance,
                })
            }
            2 => {
                let (session, rest) = take_u64(rest)?;
                let (epsilon, rest) = take_f64(rest)?;
                rest.is_empty()
                    .then_some(WalRecord::Debit { session, epsilon })
            }
            3 => {
                let (session, rest) = take_u64(rest)?;
                rest.is_empty().then_some(WalRecord::Deny { session })
            }
            4 => {
                let (session, rest) = take_u64(rest)?;
                let (released, rest) = take_f64(rest)?;
                rest.is_empty()
                    .then_some(WalRecord::Close { session, released })
            }
            5 => {
                let (&flag, rest) = rest.split_first()?;
                let insert = match flag {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let (epoch_after, rest) = take_u64(rest)?;
                let (dataset, rest) = take_str(rest)?;
                let (rows, rest) = take_rows(rest)?;
                rest.is_empty().then_some(WalRecord::Mutate {
                    dataset,
                    insert,
                    epoch_after,
                    rows,
                })
            }
            _ => None,
        }
    }

    /// Payload size of the [`WalRecord::Mutate`] these fields would
    /// encode to, computed without encoding: client-sized input (a 70 kB
    /// string cell, a 70 000-cell row) must be *measured* against
    /// [`MAX_PAYLOAD`] before it reaches the encoder, whose `u16` length
    /// casts assert. Pinned equal to the encoder by a unit test.
    pub(crate) fn mutate_payload_len(dataset: &str, rows: &[Vec<apex_data::Value>]) -> usize {
        let value_len = |v: &apex_data::Value| match v {
            apex_data::Value::Int(_) | apex_data::Value::Float(_) => 1 + 8,
            apex_data::Value::Str(s) => 1 + 2 + s.len(),
            apex_data::Value::Bool(_) => 1 + 1,
            apex_data::Value::Null => 1,
        };
        let rows_len: usize = rows
            .iter()
            .map(|row| 2 + row.iter().map(value_len).sum::<usize>())
            .sum();
        // tag + insert flag + epoch + dataset string + row count + rows.
        1 + 1 + 8 + (2 + dataset.len()) + 4 + rows_len
    }

    /// Serializes the full framed record (`len ‖ crc ‖ payload`).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("small payload")
                .to_le_bytes(),
        );
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

pub(crate) fn take_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = b.split_at_checked(8)?;
    Some((u64::from_le_bytes(head.try_into().ok()?), rest))
}

pub(crate) fn take_f64(b: &[u8]) -> Option<(f64, &[u8])> {
    let (head, rest) = b.split_at_checked(8)?;
    Some((f64::from_le_bytes(head.try_into().ok()?), rest))
}

pub(crate) fn take_u16(b: &[u8]) -> Option<(u16, &[u8])> {
    let (head, rest) = b.split_at_checked(2)?;
    Some((u16::from_le_bytes(head.try_into().ok()?), rest))
}

pub(crate) fn take_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = b.split_at_checked(4)?;
    Some((u32::from_le_bytes(head.try_into().ok()?), rest))
}

/// Length-prefixed UTF-8 string framing (u16 LE length + bytes) —
/// shared by the WAL and snapshot codecs so the two formats cannot
/// drift apart.
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).expect("names are short");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The decode half of [`push_str`].
pub(crate) fn take_str(b: &[u8]) -> Option<(String, &[u8])> {
    let (len, rest) = take_u16(b)?;
    let (head, rest) = rest.split_at_checked(len as usize)?;
    Some((std::str::from_utf8(head).ok()?.to_string(), rest))
}

/// Row-batch framing for mutation records (and the snapshot's mutation
/// journal): `count:u32`, then per row `arity:u16` + tagged values.
pub(crate) fn push_rows(out: &mut Vec<u8>, rows: &[Vec<apex_data::Value>]) {
    let n = u32::try_from(rows.len()).expect("bounded batch");
    out.extend_from_slice(&n.to_le_bytes());
    for row in rows {
        let arity = u16::try_from(row.len()).expect("narrow rows");
        out.extend_from_slice(&arity.to_le_bytes());
        for v in row {
            push_value(out, v);
        }
    }
}

/// The decode half of [`push_rows`]; `None` on structural mismatch.
pub(crate) fn take_rows(b: &[u8]) -> Option<(Vec<Vec<apex_data::Value>>, &[u8])> {
    let (n, mut rest) = take_u32(b)?;
    // A declared count that cannot fit in the payload is a damaged
    // field — refuse before allocating on it.
    if n as usize > rest.len() / 2 {
        return None;
    }
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (arity, mut r) = take_u16(rest)?;
        if arity as usize > r.len() {
            return None;
        }
        let mut row = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            let (v, r2) = take_value(r)?;
            row.push(v);
            r = r2;
        }
        rows.push(row);
        rest = r;
    }
    Some((rows, rest))
}

/// Tagged cell-value framing for mutation records: `tag:u8` then the
/// value (Int/Float = 8 LE bytes, Bool = 1 byte, Str = [`push_str`]
/// framing, Null = nothing).
fn push_value(out: &mut Vec<u8>, v: &apex_data::Value) {
    match v {
        apex_data::Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        apex_data::Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_le_bytes());
        }
        apex_data::Value::Str(s) => {
            out.push(3);
            push_str(out, s);
        }
        apex_data::Value::Bool(b) => {
            out.push(4);
            out.push(u8::from(*b));
        }
        apex_data::Value::Null => out.push(5),
    }
}

/// The decode half of [`push_value`]; `None` on any structural mismatch.
fn take_value(b: &[u8]) -> Option<(apex_data::Value, &[u8])> {
    let (&tag, rest) = b.split_first()?;
    match tag {
        1 => {
            let (head, rest) = rest.split_at_checked(8)?;
            Some((
                apex_data::Value::Int(i64::from_le_bytes(head.try_into().ok()?)),
                rest,
            ))
        }
        2 => {
            let (f, rest) = take_f64(rest)?;
            Some((apex_data::Value::Float(f), rest))
        }
        3 => {
            let (s, rest) = take_str(rest)?;
            Some((apex_data::Value::Str(s), rest))
        }
        4 => {
            let (&flag, rest) = rest.split_first()?;
            match flag {
                0 => Some((apex_data::Value::Bool(false), rest)),
                1 => Some((apex_data::Value::Bool(true), rest)),
                _ => None,
            }
        }
        5 => Some((apex_data::Value::Null, rest)),
        _ => None,
    }
}

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven, std-only.
///
/// The const-fn table now lives with the dataset store
/// (`apex_data::store::page`) so WAL records and data pages share one
/// implementation; re-exported here for the existing callers.
pub use apex_data::store::page::crc32;

/// What follows the last valid record in a WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly after the last valid record.
    Clean,
    /// A partial record at EOF — the normal artifact of a crash
    /// mid-append. Safe to truncate at `valid_len` and proceed.
    Torn {
        /// Byte offset of the end of the last valid record.
        valid_len: u64,
    },
    /// A structurally complete record that fails its checksum (or
    /// framing that cannot be a torn write): bit rot. Recovery stops at
    /// `valid_len` but should not proceed without explicit operator
    /// consent.
    Corrupt {
        /// Byte offset of the end of the last valid record.
        valid_len: u64,
    },
}

impl WalTail {
    /// The byte offset the valid prefix ends at (`None` when clean).
    pub fn valid_len(&self) -> Option<u64> {
        match self {
            WalTail::Clean => None,
            WalTail::Torn { valid_len } | WalTail::Corrupt { valid_len } => Some(*valid_len),
        }
    }
}

/// Decodes a WAL image: every record of the longest valid prefix, plus
/// the tail classification. **Never** returns a partially decoded
/// record — decoding stops at the last record whose frame, checksum,
/// and payload structure all verify.
pub fn decode_wal(bytes: &[u8]) -> (Vec<WalRecord>, WalTail) {
    let mut records = Vec::new();
    // An empty file is a fresh WAL; a short or wrong magic is damage.
    if bytes.is_empty() {
        return (records, WalTail::Clean);
    }
    if bytes.len() < WAL_MAGIC.len() {
        return (records, WalTail::Torn { valid_len: 0 });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return (records, WalTail::Corrupt { valid_len: 0 });
    }

    let mut pos = WAL_MAGIC.len();
    loop {
        let valid_len = pos as u64;
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (records, WalTail::Clean);
        }
        if rest.len() < 8 {
            // Not even a full frame header: torn mid-append.
            return (records, WalTail::Torn { valid_len });
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            // No legitimate writer produces this; a damaged length
            // prefix is indistinguishable from garbage: corruption.
            return (records, WalTail::Corrupt { valid_len });
        }
        if rest.len() < 8 + len {
            // Declared payload extends past EOF: torn mid-append.
            return (records, WalTail::Torn { valid_len });
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            return (records, WalTail::Corrupt { valid_len });
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            return (records, WalTail::Corrupt { valid_len });
        };
        records.push(record);
        pos += 8 + len;
    }
}

/// Reads and decodes a WAL file; a missing file is an empty, clean WAL.
///
/// # Errors
/// Propagates I/O failures (not corruption — that is in the [`WalTail`]).
pub fn read_wal(path: &Path) -> std::io::Result<(Vec<WalRecord>, WalTail)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(decode_wal(&bytes))
}

/// Truncates a damaged WAL at the end of its valid prefix, in place.
///
/// # Errors
/// Propagates I/O failures.
pub fn truncate_wal(path: &Path, valid_len: u64) -> std::io::Result<()> {
    let mut f = OpenOptions::new().write(true).open(path)?;
    // Below the magic there is nothing worth keeping: reset to a fresh
    // header so the file stays a well-formed (empty) WAL.
    if valid_len < WAL_MAGIC.len() as u64 {
        f.set_len(0)?;
        f.write_all(WAL_MAGIC)?;
    } else {
        f.set_len(valid_len)?;
    }
    f.sync_all()
}

/// An append handle: open (creating the magic if new), append records,
/// each append synced to disk before it returns.
///
/// A *failed* append may leave a partial frame on disk; the writer
/// truncates back to the end of the last good record before returning
/// the error, because a mid-file torn region would make every later
/// (acked!) record unreachable — [`decode_wal`] stops at the first bad
/// frame. If even the truncation fails, the writer poisons itself: all
/// further appends error out, so nothing past the damage can be acked.
#[derive(Debug)]
pub struct WalWriter {
    /// Shared so [`WalWriter::append_deferred`] can hand the caller a
    /// handle to `sync_data` *outside* whatever lock serializes appends.
    file: Arc<File>,
    /// Records appended through this writer (not counting pre-existing
    /// ones) — the compaction trigger counts these.
    appended: u64,
    /// Whether appends fsync before returning. Always true in
    /// production; tests may trade durability for speed.
    sync: bool,
    /// File length after the last successful append — the rollback
    /// point when an append fails partway.
    good_len: u64,
    /// Set when a failed append could not be rolled back; the file may
    /// hold a mid-file partial frame, so no further record may go after
    /// it.
    poisoned: bool,
}

impl WalWriter {
    /// Opens `path` for appending, writing the magic when the file is
    /// new or empty.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open(path: &Path, sync: bool) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(WAL_MAGIC)?;
            if sync {
                file.sync_all()?;
            }
        }
        let good_len = file.metadata()?.len();
        Ok(Self {
            file: Arc::new(file),
            appended: 0,
            sync,
            good_len,
            poisoned: false,
        })
    }

    /// Appends one record; when the writer syncs (production), the
    /// record is on disk before this returns — the write-ahead
    /// guarantee callers ack against.
    ///
    /// # Errors
    /// Propagates I/O failures; the caller must fail the request rather
    /// than ack an unlogged budget mutation. After an error the file is
    /// rolled back to the last good record (or the writer is poisoned),
    /// so a later successful append can never be stranded behind a
    /// partial frame.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.append_with(record, true)
    }

    fn append_with(&mut self, record: &WalRecord, durable: bool) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL writer poisoned by an earlier unrecoverable append failure",
            ));
        }
        apex_core::sched_point!("wal.append.enter");
        let frame = record.encode();
        let result = (&*self.file).write_all(&frame).and_then(|()| {
            if self.sync && durable {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        match result {
            Ok(()) => {
                self.good_len += frame.len() as u64;
                self.appended += 1;
                apex_core::sched_point!("wal.append.ok");
                Ok(())
            }
            Err(e) => {
                // Cut any partial frame off; in append mode the next
                // write lands at the (restored) EOF.
                if self.file.set_len(self.good_len).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Appends one record *without* syncing, returning (when this writer
    /// syncs at all) the file handle the caller must `sync_data` before
    /// acking. The point is lock scope: appends are serialized by
    /// whatever mutex guards this writer, but the fsync — the 100µs+
    /// part — can run after that mutex is released. A sibling thread
    /// then appends the next record *while* this one's fsync is in
    /// flight, and its own fsync finds the inode already clean (or
    /// rides the same journal commit): group commit, supplied by the
    /// kernel rather than bookkeeping. Concurrent `sync_data` calls on
    /// one file are safe; each returns only once every byte written
    /// before the call — in particular, this record — is durable.
    ///
    /// The deferred fsync has no rollback: by the time it fails, later
    /// records may sit after this one, so truncation would destroy
    /// them. The caller must [`WalWriter::poison`] the writer and fail
    /// the request instead. The un-synced record may still reach disk
    /// with a later journal commit — that only *over*-counts recovered
    /// spend relative to acks, the safe direction for a budget ledger.
    ///
    /// # Errors
    /// Propagates write failures; the file is rolled back (or the
    /// writer poisoned) exactly as for [`WalWriter::append`] — the
    /// write itself still happens under the append lock.
    pub fn append_deferred(&mut self, record: &WalRecord) -> std::io::Result<Option<Arc<File>>> {
        self.append_with(record, false)?;
        Ok(self.sync.then(|| Arc::clone(&self.file)))
    }

    /// Poisons the writer: every later append fails. For a deferred
    /// sync failure, where the usual truncate-the-partial-frame
    /// rollback is impossible (see [`WalWriter::append_deferred`]).
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Records appended through this writer.
    pub fn appended(&self) -> u64 {
        self.appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Open {
                session: 1,
                dataset: "adult".into(),
                allowance: 0.25,
            },
            WalRecord::Debit {
                session: 1,
                epsilon: 0.0625,
            },
            WalRecord::Deny { session: 1 },
            WalRecord::Open {
                session: 2,
                dataset: "taxi".into(),
                allowance: 0.5,
            },
            WalRecord::Debit {
                session: 2,
                epsilon: 0.125,
            },
            WalRecord::Close {
                session: 1,
                released: 0.1875,
            },
            WalRecord::Mutate {
                dataset: "adult".into(),
                insert: true,
                epoch_after: 3,
                rows: vec![
                    vec![
                        apex_data::Value::Int(41),
                        apex_data::Value::Float(2.5),
                        apex_data::Value::Str("clerk".into()),
                    ],
                    vec![
                        apex_data::Value::Bool(true),
                        apex_data::Value::Null,
                        apex_data::Value::Int(-7),
                    ],
                ],
            },
            WalRecord::Mutate {
                dataset: "taxi".into(),
                insert: false,
                epoch_after: 9,
                rows: vec![vec![apex_data::Value::Int(2)]],
            },
        ]
    }

    fn encode_log(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&r.encode());
        }
        bytes
    }

    #[test]
    fn mutate_payload_len_matches_the_encoder() {
        // Every value kind, plus an empty row and an empty name.
        let mut records = sample_records();
        records.push(WalRecord::Mutate {
            dataset: String::new(),
            insert: true,
            epoch_after: 0,
            rows: vec![vec![], vec![apex_data::Value::Str(String::new())]],
        });
        let mut checked = 0;
        for r in &records {
            if let WalRecord::Mutate { dataset, rows, .. } = r {
                assert_eq!(
                    WalRecord::mutate_payload_len(dataset, rows),
                    r.encode_payload().len(),
                    "{r:?}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 3);
        // What the encoder cannot frame is measured, not asserted on.
        let cell = vec![vec![apex_data::Value::Str("x".repeat(70_000))]];
        assert!(WalRecord::mutate_payload_len("d", &cell) > MAX_PAYLOAD);
        let wide = vec![vec![apex_data::Value::Null; 70_000]];
        assert!(WalRecord::mutate_payload_len("d", &wide) > MAX_PAYLOAD);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn every_record_type_round_trips() {
        for r in sample_records() {
            let framed = r.encode();
            let mut bytes = WAL_MAGIC.to_vec();
            bytes.extend_from_slice(&framed);
            let (decoded, tail) = decode_wal(&bytes);
            assert_eq!(tail, WalTail::Clean);
            assert_eq!(decoded, vec![r]);
        }
        // And as one log, in order.
        let (decoded, tail) = decode_wal(&encode_log(&sample_records()));
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, sample_records());
    }

    /// Property: EVERY possible truncation of the log decodes to an
    /// exact record-boundary prefix — never a partial record — and
    /// anything short of the full file is flagged as a damaged tail.
    #[test]
    fn any_truncation_yields_a_clean_prefix_and_is_detected() {
        let records = sample_records();
        let full = encode_log(&records);
        // Record end offsets, for computing the expected prefix.
        let mut ends = vec![WAL_MAGIC.len()];
        for r in &records {
            ends.push(ends.last().unwrap() + r.encode().len());
        }
        for cut in 0..full.len() {
            let (decoded, tail) = decode_wal(&full[..cut]);
            let expect_n = ends.iter().filter(|&&e| e <= cut).count().saturating_sub(1);
            assert_eq!(
                decoded,
                records[..expect_n],
                "truncation at {cut} must replay exactly the valid prefix"
            );
            if cut == 0 {
                assert_eq!(tail, WalTail::Clean, "empty file is a fresh WAL");
            } else if ends.contains(&cut) {
                // Cut exactly on a record boundary: indistinguishable
                // from a clean shutdown.
                assert_eq!(tail, WalTail::Clean, "cut at {cut}");
            } else {
                // Any mid-record cut is a torn write: flagged, with the
                // valid prefix ending at the last record boundary (or 0
                // when even the magic is incomplete).
                let expect_len = if cut < WAL_MAGIC.len() {
                    0
                } else {
                    ends[expect_n]
                };
                assert_eq!(
                    tail,
                    WalTail::Torn {
                        valid_len: expect_len as u64
                    },
                    "cut at {cut}"
                );
            }
        }
    }

    /// Property: EVERY single-bit corruption of the final record is
    /// detected — decoding stops at the last untouched record, and the
    /// flipped record is never replayed (in full or in part).
    #[test]
    fn any_single_bit_flip_in_the_tail_is_detected() {
        let records = sample_records();
        let full = encode_log(&records);
        let last_len = records.last().unwrap().encode().len();
        let tail_start = full.len() - last_len;
        for byte in tail_start..full.len() {
            for bit in 0..8 {
                let mut damaged = full.clone();
                damaged[byte] ^= 1 << bit;
                let (decoded, tail) = decode_wal(&damaged);
                assert!(
                    decoded.len() < records.len(),
                    "flip at {byte}:{bit} replayed the damaged record"
                );
                assert_eq!(
                    decoded,
                    records[..decoded.len()],
                    "flip at {byte}:{bit} must replay an untouched prefix"
                );
                assert_ne!(
                    tail,
                    WalTail::Clean,
                    "flip at {byte}:{bit} must be detected"
                );
                // The well-formed prefix before the damaged record
                // always survives intact.
                assert_eq!(
                    decoded,
                    records[..records.len() - 1],
                    "flip at {byte}:{bit}"
                );
            }
        }
    }

    /// A checksum-valid prefix followed by garbage that frames as a
    /// complete record is corruption (refuse by default), while a
    /// declared length running past EOF is a torn write (truncatable).
    #[test]
    fn corrupt_versus_torn_classification() {
        let records = sample_records();
        let mut bytes = encode_log(&records[..2]);
        let valid = bytes.len() as u64;

        // Complete frame, wrong checksum → Corrupt.
        let mut bad = records[2].encode();
        bad[4] ^= 0xFF; // damage the crc field
        let mut corrupted = bytes.clone();
        corrupted.extend_from_slice(&bad);
        let (decoded, tail) = decode_wal(&corrupted);
        assert_eq!(decoded, records[..2]);
        assert_eq!(tail, WalTail::Corrupt { valid_len: valid });

        // Half a record → Torn at the same boundary.
        let frame = records[2].encode();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        let (decoded, tail) = decode_wal(&bytes);
        assert_eq!(decoded, records[..2]);
        assert_eq!(tail, WalTail::Torn { valid_len: valid });

        // An absurd length prefix → Corrupt (bounded allocation).
        let mut huge = encode_log(&records[..1]);
        let valid = huge.len() as u64;
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0u8; 12]);
        let (decoded, tail) = decode_wal(&huge);
        assert_eq!(decoded, records[..1]);
        assert_eq!(tail, WalTail::Corrupt { valid_len: valid });
    }

    #[test]
    fn writer_reader_and_truncation_work_on_real_files() {
        let dir = crate::testutil::temp_dir("wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");

        let records = sample_records();
        {
            let mut w = WalWriter::open(&path, true).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            assert_eq!(w.appended(), records.len() as u64);
        }
        // Re-opening appends after the existing content.
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord::Deny { session: 9 }).unwrap();
        }
        let (decoded, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded.len(), records.len() + 1);
        assert_eq!(decoded[..records.len()], records);

        // Simulate a crash mid-append: drop half a record at the end.
        let mut bytes = std::fs::read(&path).unwrap();
        let garbage_at = bytes.len();
        bytes.extend_from_slice(&records[0].encode()[..5]);
        std::fs::write(&path, &bytes).unwrap();
        let (decoded, tail) = read_wal(&path).unwrap();
        assert_eq!(decoded.len(), records.len() + 1);
        assert_eq!(
            tail,
            WalTail::Torn {
                valid_len: garbage_at as u64
            }
        );
        truncate_wal(&path, garbage_at as u64).unwrap();
        let (decoded, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded.len(), records.len() + 1);

        // A missing file reads as a fresh WAL.
        let (decoded, tail) = read_wal(&dir.join("nope.log")).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(tail, WalTail::Clean);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
