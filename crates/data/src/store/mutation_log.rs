//! Durable per-dataset mutation log: the ack point for live row changes.
//!
//! A store directory gains one flat file:
//!
//! ```text
//! <dir>/mutations.log    crc-framed mutation records, append-only
//! ```
//!
//! Each record reuses the page CRC ([`crate::store::page::crc32`]) over a
//! flat framing (records routinely span what would be a page boundary, so
//! the page format itself is the wrong container — the *checksum* is what
//! is reused):
//!
//! ```text
//! record  := crc:u32 len:u32 seq:u64 payload[len]
//! payload := op:u8 row_count:u32 row*        (rows via the page codec)
//! ```
//!
//! `crc` covers everything after itself (`len`, `seq` and the payload),
//! little-endian throughout, so any single-bit flip or truncation of a
//! record is detected. `seq` is the record's position in the log; replay
//! additionally demands consecutive sequence numbers from zero, so a
//! spliced or reordered log also fails validation.
//!
//! ## Durability contract
//!
//! [`MutationLog::append`] writes the framed record and fsyncs before
//! returning — a returned record IS the acknowledgement. The page-store
//! apply path then rewrites touched pages copy-on-write and commits via
//! [`super::FileManager::bump_epoch`]; the manifest records how many log
//! records are applied. After a crash, [`MutationLog::replay`] yields
//! exactly the acked prefix (a torn tail fails its CRC and is cut off),
//! and [`super::PagedRows::open`] re-applies the records the manifest has
//! not seen. [`MutationLog::open`] truncates the file back to the valid
//! prefix so the tear vanishes instead of corrupting a later append.
//!
//! Everything here is deliberately public — record encode/decode
//! included — so the fault-injection suite can build acked-but-unapplied
//! states and corrupt records at byte granularity without test-only hooks.

use super::codec;
use super::page::crc32;
use super::StoreError;
use crate::Value;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the mutation log inside a store directory.
pub const MUTATION_LOG_FILE: &str = "mutations.log";

/// Bytes of framing before a record's payload: crc(4) + len(4) + seq(8).
pub const RECORD_HEADER: usize = 16;

/// Upper bound on one record's payload — a sanity cap so a corrupt length
/// field cannot drive a multi-gigabyte allocation during replay.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 26; // 64 MiB

/// What a mutation does to the row multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Append the rows.
    Insert,
    /// Remove the first matching occurrence of each row (in storage
    /// order); rows with no match are ignored.
    Delete,
}

/// One acked mutation: a batch of rows inserted or deleted atomically.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRecord {
    /// Position in the log (0-based, consecutive).
    pub seq: u64,
    /// Insert or delete.
    pub op: MutationOp,
    /// The rows the batch carries.
    pub rows: Vec<Vec<Value>>,
}

impl MutationRecord {
    /// Encodes the record's payload (everything after the framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(match self.op {
            MutationOp::Insert => 0,
            MutationOp::Delete => 1,
        });
        out.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        for row in &self.rows {
            codec::push_row(&mut out, row);
        }
        out
    }

    /// Encodes the fully framed record (`crc len seq payload`) as it is
    /// laid out on disk.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut body = Vec::with_capacity(12 + payload.len());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&self.seq.to_le_bytes());
        body.extend_from_slice(&payload);
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes one framed record from the front of `bytes`. Returns the
    /// record and the number of bytes it consumed, or `None` when the
    /// bytes do not hold a valid record (short, CRC mismatch, bad payload)
    /// — the caller treats that as the end of the valid prefix.
    pub fn decode(bytes: &[u8]) -> Option<(MutationRecord, usize)> {
        if bytes.len() < RECORD_HEADER {
            return None;
        }
        let stored = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_PAYLOAD || bytes.len() < RECORD_HEADER + len {
            return None;
        }
        let body = &bytes[4..RECORD_HEADER + len];
        if crc32(body) != stored {
            return None;
        }
        let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let payload = &bytes[RECORD_HEADER..RECORD_HEADER + len];
        let record = Self::decode_payload(seq, payload)?;
        Some((record, RECORD_HEADER + len))
    }

    /// Decodes a record payload (strict: trailing bytes are invalid).
    pub fn decode_payload(seq: u64, payload: &[u8]) -> Option<MutationRecord> {
        let (&op_byte, rest) = payload.split_first()?;
        let op = match op_byte {
            0 => MutationOp::Insert,
            1 => MutationOp::Delete,
            _ => return None,
        };
        let (head, mut rest) = rest.split_at_checked(4)?;
        let n = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            // Row decoding via the strict page codec; a short or malformed
            // row invalidates the record.
            let (row, r) = codec::take_row(rest).ok()?;
            rows.push(row);
            rest = r;
        }
        if !rest.is_empty() {
            return None;
        }
        Some(MutationRecord { seq, op, rows })
    }
}

/// An open mutation log positioned after its valid prefix.
pub struct MutationLog {
    file: File,
    path: PathBuf,
    next_seq: u64,
}

impl std::fmt::Debug for MutationLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutationLog")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl MutationLog {
    /// Opens (creating if missing) the mutation log in `dir`, validates
    /// the record prefix and truncates any torn tail so the next append
    /// lands cleanly after the last acked record.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(MUTATION_LOG_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (valid_len, next_seq) = valid_prefix(&bytes);
        if (valid_len as u64) < bytes.len() as u64 {
            // Torn tail from a crash mid-append: cut it off so the log
            // stays a clean record sequence.
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        Ok(Self {
            file,
            path,
            next_seq,
        })
    }

    /// Sequence number the next append will carry (== acked record count).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one mutation and fsyncs. When this returns `Ok`, the
    /// mutation is acked: replay after any crash will include it.
    pub fn append(
        &mut self,
        op: MutationOp,
        rows: Vec<Vec<Value>>,
    ) -> Result<MutationRecord, StoreError> {
        let record = MutationRecord {
            seq: self.next_seq,
            op,
            rows,
        };
        let bytes = record.encode();
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        self.next_seq += 1;
        Ok(record)
    }

    /// Replays every valid record in `dir`'s log through `f`, in order,
    /// stopping silently at the first invalid byte (the torn tail).
    /// Returns how many records were valid. A missing log file replays
    /// zero records — a store that was never mutated has none.
    pub fn replay(dir: &Path, mut f: impl FnMut(MutationRecord)) -> Result<u64, StoreError> {
        let path = dir.join(MUTATION_LOG_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        let mut offset = 0usize;
        let mut expect_seq = 0u64;
        while let Some((record, used)) = MutationRecord::decode(&bytes[offset..]) {
            if record.seq != expect_seq {
                break; // spliced/reordered: not a valid continuation
            }
            f(record);
            offset += used;
            expect_seq += 1;
        }
        Ok(expect_seq)
    }
}

/// Length in bytes and record count of the valid record prefix.
fn valid_prefix(bytes: &[u8]) -> (usize, u64) {
    let mut offset = 0usize;
    let mut seq = 0u64;
    while let Some((record, used)) = MutationRecord::decode(&bytes[offset..]) {
        if record.seq != seq {
            break;
        }
        offset += used;
        seq += 1;
    }
    (offset, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-mlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows(k: usize) -> Vec<Vec<Value>> {
        (0..k)
            .map(|i| vec![Value::Int(i as i64), Value::Str(format!("r{i}"))])
            .collect()
    }

    fn collect(dir: &Path) -> Vec<MutationRecord> {
        let mut out = Vec::new();
        MutationLog::replay(dir, |r| out.push(r)).unwrap();
        out
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp_dir("rt");
        let mut log = MutationLog::open(&dir).unwrap();
        log.append(MutationOp::Insert, rows(3)).unwrap();
        log.append(MutationOp::Delete, rows(1)).unwrap();
        let records = collect(&dir);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].op, MutationOp::Insert);
        assert_eq!(records[0].rows, rows(3));
        assert_eq!(records[1].op, MutationOp::Delete);
        assert_eq!((records[0].seq, records[1].seq), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_log_replays_nothing() {
        let dir = tmp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(MutationLog::replay(&dir, |_| panic!()).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_on_open_and_appends_continue() {
        let dir = tmp_dir("torn");
        let mut log = MutationLog::open(&dir).unwrap();
        log.append(MutationOp::Insert, rows(2)).unwrap();
        drop(log);
        // Crash mid-append: half a record of garbage at the tail.
        let path = dir.join(MUTATION_LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len();
        bytes.extend_from_slice(&[0xAB; 9]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(collect(&dir).len(), 1);

        let mut log = MutationLog::open(&dir).unwrap();
        assert_eq!(log.next_seq(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep as u64);
        log.append(MutationOp::Delete, rows(1)).unwrap();
        assert_eq!(collect(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_invalidate_exactly_the_flipped_suffix() {
        let dir = tmp_dir("flip");
        let mut log = MutationLog::open(&dir).unwrap();
        log.append(MutationOp::Insert, rows(1)).unwrap();
        log.append(MutationOp::Insert, rows(2)).unwrap();
        drop(log);
        let path = dir.join(MUTATION_LOG_FILE);
        let clean = std::fs::read(&path).unwrap();
        let first_len = MutationRecord::decode(&clean).unwrap().1;
        // Flip one bit inside the second record: first still replays.
        let mut bad = clean.clone();
        bad[first_len + 5] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        let records = collect(&dir);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].rows, rows(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gaps_stop_replay() {
        let dir = tmp_dir("seq");
        std::fs::create_dir_all(&dir).unwrap();
        let r0 = MutationRecord {
            seq: 0,
            op: MutationOp::Insert,
            rows: rows(1),
        };
        let r2 = MutationRecord {
            seq: 2, // gap: should stop replay after r0
            op: MutationOp::Insert,
            rows: rows(1),
        };
        let mut bytes = r0.encode();
        bytes.extend_from_slice(&r2.encode());
        std::fs::write(dir.join(MUTATION_LOG_FILE), &bytes).unwrap();
        assert_eq!(collect(&dir).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
