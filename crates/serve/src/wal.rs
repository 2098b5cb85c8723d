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
//! ## On-disk format
//!
//! A [framed log](apex_data::store::framed) with magic `APEXWAL2`, one
//! frame per record, `payload := tag:u8 fields…` (fixed-width LE fields).
//! Tags: 1 = session open, 2 = budget debit (an answered query),
//! 3 = deny (audit only — charges nothing), 4 = session close
//! (TTL expiry or admin, carrying the released unspent slice),
//! 5 = row mutation (an applied insert/delete batch — rows in the store's
//! row codec — and the dataset epoch it produced).
//!
//! ## Tail policy
//!
//! [`WalTail::Torn`] is the expected artifact of a crash mid-append:
//! recovery truncates it and proceeds. [`WalTail::Corrupt`] is bit rot:
//! recovery refuses to start unless explicitly told to truncate. A file
//! with any other magic (an older format) is an error, never a tail. No
//! partial record is ever replayed in any mode.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use apex_data::store::codec;
use apex_data::store::framed::{self, Format, FramedWriter};

/// The WAL's magic (format version in the last byte) and payload cap: a
/// mutation batch whose record would exceed it is refused pre-apply.
pub const WAL_FORMAT: Format = Format {
    magic: b"APEXWAL2",
    max_payload: 64 << 10,
};

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
                codec::push_rows(&mut out, rows);
            }
        }
        out
    }

    /// Parses a payload. `None` on any structural mismatch (unknown tag,
    /// wrong field width, non-UTF-8 dataset name, trailing bytes) — the
    /// caller treats that as corruption.
    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let (record, rest) = match tag {
            1 => {
                let (session, rest) = take_u64(rest)?;
                let (allowance, rest) = take_f64(rest)?;
                let (dataset, rest) = take_str(rest)?;
                let open = WalRecord::Open {
                    session,
                    dataset,
                    allowance,
                };
                (open, rest)
            }
            2 => {
                let (session, rest) = take_u64(rest)?;
                let (epsilon, rest) = take_f64(rest)?;
                (WalRecord::Debit { session, epsilon }, rest)
            }
            3 => {
                let (session, rest) = take_u64(rest)?;
                (WalRecord::Deny { session }, rest)
            }
            4 => {
                let (session, rest) = take_u64(rest)?;
                let (released, rest) = take_f64(rest)?;
                (WalRecord::Close { session, released }, rest)
            }
            5 => {
                let (&flag, rest) = rest.split_first()?;
                let (epoch_after, rest) = take_u64(rest)?;
                let (dataset, rest) = take_str(rest)?;
                let (rows, rest) = codec::take_rows(rest).ok()?;
                let mutate = WalRecord::Mutate {
                    dataset,
                    insert: match flag {
                        0 => false,
                        1 => true,
                        _ => return None,
                    },
                    epoch_after,
                    rows,
                };
                (mutate, rest)
            }
            _ => return None,
        };
        rest.is_empty().then_some(record)
    }

    /// Payload size of the [`WalRecord::Mutate`] these fields would
    /// encode to, computed without encoding: client-sized input is
    /// *measured* against [`WAL_FORMAT`]'s cap before it is applied or
    /// reaches the encoder. Pinned equal to the encoder by a unit test.
    pub(crate) fn mutate_payload_len(dataset: &str, rows: &[Vec<apex_data::Value>]) -> usize {
        // tag + insert flag + epoch + dataset string + row batch.
        1 + 1 + 8 + (2 + dataset.len()) + codec::rows_size(rows)
    }

    /// The record as one frame (with `seq` 0): what an append writes,
    /// byte for byte but for `seq` and the checksum over it. For callers
    /// that measure a record's on-disk size.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        framed::push_frame(&mut out, 0, &self.encode_payload());
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
    let (len, rest) = b.split_first_chunk::<2>()?;
    let (head, rest) = rest.split_at_checked(u16::from_le_bytes(*len) as usize)?;
    Some((std::str::from_utf8(head).ok()?.to_string(), rest))
}

/// What follows the last valid record in a WAL.
pub use apex_data::store::framed::Tail as WalTail;

/// Reads and decodes a WAL file: every record of the longest valid
/// prefix, plus the tail classification. **Never** returns a partially
/// decoded record — a frame whose payload fails [`WalRecord`]'s structure
/// check ends the prefix as corrupt. A missing file is an empty WAL.
///
/// # Errors
/// I/O failures; `InvalidData` naming the file when it is not a WAL of
/// this format version (damage is in the [`WalTail`]).
pub fn read_wal(path: &Path) -> std::io::Result<(Vec<WalRecord>, WalTail)> {
    let mut records = Vec::new();
    let (_, tail) = framed::read(path, &WAL_FORMAT, |_, payload| {
        WalRecord::decode_payload(payload)
            .map(|r| records.push(r))
            .is_some()
    })?;
    Ok((records, tail))
}

/// Truncates a damaged WAL at the end of its valid prefix, in place.
///
/// # Errors
/// Propagates I/O failures.
pub fn truncate_wal(path: &Path, valid_len: u64) -> std::io::Result<()> {
    framed::truncate(path, valid_len)
}

/// An append handle: each append synced to disk before it returns. The
/// failure discipline (roll back a partial frame, poison when that
/// fails) is the [`FramedWriter`]'s.
#[derive(Debug)]
pub struct WalWriter {
    log: FramedWriter,
    /// Whether appends fsync before returning. Always true in
    /// production; tests may trade durability for speed.
    sync: bool,
}

impl WalWriter {
    /// Opens `path` for appending, writing the magic when the file is
    /// new or empty.
    ///
    /// # Errors
    /// Propagates I/O failures; refuses a file that is not a WAL of this
    /// version or whose tail is damaged.
    pub fn open(path: &Path, sync: bool) -> std::io::Result<Self> {
        let log = FramedWriter::open(path, &WAL_FORMAT)?;
        if sync && log.frames() == 0 {
            log.file().sync_all()?;
        }
        Ok(Self { log, sync })
    }

    /// Appends one record; when the writer syncs (production), the
    /// record is on disk before this returns — the write-ahead
    /// guarantee callers ack against.
    ///
    /// # Errors
    /// I/O failures: the caller must fail the request rather than ack an
    /// unlogged budget mutation. The file is rolled back to the last good
    /// record (or the writer poisoned), so a later append is never
    /// stranded behind a partial frame.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.append_with(record, true).map(drop)
    }

    /// The yield points live here, not in the primitive: `apex-data`
    /// cannot see `apex-core`.
    fn append_with(&mut self, record: &WalRecord, durable: bool) -> std::io::Result<Arc<File>> {
        apex_core::sched_point!("wal.append.enter");
        let payload = record.encode_payload();
        let file = if self.sync && durable {
            self.log.append(&payload)?;
            Arc::clone(self.log.file())
        } else {
            self.log.append_deferred(&payload)?
        };
        apex_core::sched_point!("wal.append.ok");
        Ok(file)
    }

    /// Appends one record *without* syncing, returning (when this writer
    /// syncs at all) the file handle the caller must `sync_data` before
    /// acking. The point is lock scope: the fsync — the 100µs+ part —
    /// runs after the mutex guarding this writer is released, so a
    /// sibling appends the next record meanwhile and its own fsync rides
    /// the same journal commit: group commit, supplied by the kernel.
    ///
    /// A deferred fsync that fails cannot be rolled back (see
    /// [`FramedWriter::append_deferred`]): the caller must
    /// [`WalWriter::poison`] the writer and fail the request. The record
    /// may still reach disk later — that only *over*-counts recovered
    /// spend relative to acks, the safe direction for a budget ledger.
    ///
    /// # Errors
    /// Write failures, rolled back as for [`WalWriter::append`].
    pub fn append_deferred(&mut self, record: &WalRecord) -> std::io::Result<Option<Arc<File>>> {
        let file = self.append_with(record, false)?;
        Ok(self.sync.then_some(file))
    }

    /// Poisons the writer: every later append fails (see
    /// [`WalWriter::append_deferred`]).
    pub fn poison(&mut self) {
        self.log.poison();
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

    /// Writes `bytes` as a WAL file in a fresh temp dir and reads it back.
    fn read_image(tag: &str, bytes: &[u8]) -> std::io::Result<(Vec<WalRecord>, WalTail)> {
        let dir = crate::testutil::temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), bytes).unwrap();
        let read = read_wal(&dir.join("wal.log"));
        std::fs::remove_dir_all(&dir).unwrap();
        read
    }

    fn encode_log(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_FORMAT.magic.to_vec();
        for (seq, r) in records.iter().enumerate() {
            framed::push_frame(&mut bytes, seq as u64, &r.encode_payload());
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
        assert!(WalRecord::mutate_payload_len("d", &cell) > WAL_FORMAT.max_payload);
        let wide = vec![vec![apex_data::Value::Null; 70_000]];
        assert!(WalRecord::mutate_payload_len("d", &wide) > WAL_FORMAT.max_payload);
    }

    #[test]
    fn every_record_type_round_trips() {
        // All five tags, as one log, in order; `encode` is that log's
        // first frame.
        let records = sample_records();
        let image = encode_log(&records);
        let (decoded, tail) = read_image("wal-rt", &image).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, records);
        let frame = records[0].encode();
        assert_eq!(image[WAL_FORMAT.magic.len()..][..frame.len()], frame);
    }

    /// What the WAL adds to the primitive's classification (its sweeps
    /// live in `apex_data::store::framed`): a checksum-valid frame whose
    /// payload is not a [`WalRecord`] ends the prefix as corrupt, and a
    /// file of another format version is an error, never a tail.
    #[test]
    fn corrupt_versus_torn_classification() {
        let records = sample_records();
        let prefix = encode_log(&records[..2]);
        let valid_len = prefix.len() as u64;

        for payload in [&[9u8, 0, 0][..], &[3u8, 1][..], &[]] {
            let mut bytes = prefix.clone();
            framed::push_frame(&mut bytes, 2, payload);
            let (decoded, tail) = read_image("wal-class", &bytes).unwrap();
            assert_eq!(decoded, records[..2]);
            assert_eq!(tail, WalTail::Corrupt { valid_len }, "{payload:?}");
        }

        // Half a record → torn at the same boundary.
        let mut bytes = prefix.clone();
        bytes.extend_from_slice(&records[2].encode()[..10]);
        let (decoded, tail) = read_image("wal-class", &bytes).unwrap();
        assert_eq!(decoded, records[..2]);
        assert_eq!(tail, WalTail::Torn { valid_len });

        let mut old = encode_log(&records);
        old[..8].copy_from_slice(b"APEXWAL1");
        let err = read_image("wal-class", &old).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("APEXWAL1"), "{err}");
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
