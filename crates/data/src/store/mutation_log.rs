//! Durable per-dataset mutation log: the ack point for live row changes.
//!
//! A store directory gains one [framed log](super::framed):
//!
//! ```text
//! <dir>/mutations.log    magic "APEXMUT2", then one batch per mutation
//! payload := op:u8 row_count:u32 row*        (rows via the page codec)
//! ```
//!
//! The frame's `seq` is the record's position in the log, which the
//! manifest's applied-count is compared against.
//!
//! [`MutationLog::append`] writes the framed record and fsyncs before
//! returning — a returned record IS the acknowledgement. It is a row
//! mutation's one durable record, for both backings of a
//! [`crate::Dataset`], which drive it through one `DatasetLog`: validate,
//! append (the ack), then apply. The page-store apply path rewrites
//! touched pages copy-on-write and commits via
//! [`super::FileManager::bump_epoch`]; after a crash,
//! [`super::PagedRows::open`] re-applies the records the manifest has not
//! seen. A resident dataset applies in memory, and replays the whole log
//! over its base when the log is attached.
//!
//! Tail policy: [`MutationLog::replay`] stops at the first invalid frame,
//! torn or corrupt alike, and [`MutationLog::open`] cuts the file there
//! so the damage vanishes instead of stranding a later append. A dataset
//! checks its own count first: a log cut *below* the manifest's
//! applied-count is refused by [`super::PagedRows`], and a dataset's
//! first append refuses a log that does not hold exactly the records it
//! applied, before anything is cut. A resident dataset has no count to
//! check against, so its replay refuses a corrupt record outright and
//! stops only at a torn tail, the one artifact of a crash mid-append.

use super::codec;
use super::framed::{self, Format, FramedWriter};
use super::StoreError;
use crate::Value;
use std::path::{Path, PathBuf};

/// File name of the mutation log inside a store directory.
pub const MUTATION_LOG_FILE: &str = "mutations.log";

/// The mutation log's magic and payload cap (64 MiB — a sanity bound so a
/// corrupt length field cannot drive a huge allocation during replay).
pub const MUTATION_LOG_FORMAT: Format = Format {
    magic: b"APEXMUT2",
    v1_magic: Some(b"APEXMUT1"),
    max_payload: 1 << 26,
};

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
    /// Encodes the record's payload (the frame carries `seq`).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + codec::rows_size(&self.rows));
        out.push(match self.op {
            MutationOp::Insert => 0,
            MutationOp::Delete => 1,
        });
        codec::push_rows(&mut out, &self.rows);
        out
    }

    /// Decodes a record payload (strict: trailing bytes are invalid).
    pub fn decode_payload(seq: u64, payload: &[u8]) -> Option<MutationRecord> {
        let (&op_byte, rest) = payload.split_first()?;
        let op = match op_byte {
            0 => MutationOp::Insert,
            1 => MutationOp::Delete,
            _ => return None,
        };
        let (rows, rest) = codec::take_rows(rest).ok()?;
        rest.is_empty().then_some(MutationRecord { seq, op, rows })
    }
}

/// An open mutation log positioned after its valid prefix.
#[derive(Debug)]
pub struct MutationLog {
    writer: FramedWriter,
}

impl MutationLog {
    /// Opens (creating if missing) the mutation log in `dir`, cutting any
    /// invalid tail so the next append lands after the last valid record.
    ///
    /// # Errors
    /// I/O failures; a file that is not a mutation log of this version
    /// (left untouched).
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_at(dir, None)
    }

    /// [`Self::open`], first refusing with [`StoreError::LogOutOfStep`],
    /// and cutting nothing, when `applied` is given and the valid prefix
    /// holds a different number of records.
    fn open_at(dir: &Path, applied: Option<u64>) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(MUTATION_LOG_FILE);
        let (logged, tail) = Self::read(&path, |_| {})?;
        if let Some(applied) = applied.filter(|&applied| applied != logged) {
            return Err(StoreError::LogOutOfStep { applied, logged });
        }
        if let Some(valid_len) = tail.valid_len() {
            framed::truncate(&path, &MUTATION_LOG_FORMAT, valid_len)?;
        }
        let writer = FramedWriter::open(&path, &MUTATION_LOG_FORMAT, true)?;
        Ok(Self { writer })
    }

    /// Sequence number the next append will carry (== acked record count).
    pub fn next_seq(&self) -> u64 {
        self.writer.frames()
    }

    /// Appends one mutation and fsyncs. When this returns `Ok`, the
    /// mutation is acked: replay after any crash will include it.
    pub fn append(
        &mut self,
        op: MutationOp,
        rows: Vec<Vec<Value>>,
    ) -> Result<MutationRecord, StoreError> {
        let record = MutationRecord {
            seq: self.next_seq(),
            op,
            rows,
        };
        self.writer.append(&record.encode_payload())?;
        Ok(record)
    }

    /// Replays every valid record in `dir`'s log through `f`, in order,
    /// stopping silently at the first invalid frame. Returns how many
    /// records were valid. A missing log file replays zero records — a
    /// store that was never mutated has none.
    pub fn replay(dir: &Path, f: impl FnMut(MutationRecord)) -> Result<u64, StoreError> {
        Ok(Self::read(&dir.join(MUTATION_LOG_FILE), f)?.0)
    }

    fn read(
        path: &Path,
        mut f: impl FnMut(MutationRecord),
    ) -> std::io::Result<(u64, framed::Tail)> {
        framed::read(path, &MUTATION_LOG_FORMAT, |seq, payload| {
            MutationRecord::decode_payload(seq, payload)
                .map(&mut f)
                .is_some()
        })
    }
}

/// A dataset's mutation log as both backings drive it: opened by its
/// first append, so a dataset that is never mutated creates no file, and
/// appended to only at the position its owner has applied up to.
#[derive(Debug)]
pub(crate) struct DatasetLog {
    dir: PathBuf,
    log: Option<MutationLog>,
}

impl DatasetLog {
    /// The log in `dir`; nothing is opened or created yet.
    pub(crate) fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            log: None,
        }
    }

    /// Replays every record of the log in `dir` through `f`, for a
    /// dataset that keeps no count to check the log against (a resident
    /// one). A torn tail, a crash mid-append that was never acked, ends
    /// the replay. A corrupt record was acked, and skipping it would skip
    /// every record after it too, so it is refused and the file left as
    /// it is.
    pub(crate) fn replay(dir: &Path, f: impl FnMut(MutationRecord)) -> Result<(), StoreError> {
        let path = dir.join(MUTATION_LOG_FILE);
        match MutationLog::read(&path, f)? {
            (valid, framed::Tail::Corrupt { valid_len }) => Err(StoreError::Codec(format!(
                "{}: record {valid} (at byte {valid_len}) is corrupt",
                path.display()
            ))),
            _ => Ok(()),
        }
    }

    /// Appends one mutation as record number `applied` and fsyncs: when
    /// this returns `Ok` the mutation is acked, and the caller applies it.
    /// The first call opens the file, cutting an invalid tail once the
    /// valid prefix is known to hold exactly `applied` records.
    ///
    /// # Errors
    /// I/O failures (nothing appended); [`StoreError::LogOutOfStep`] when
    /// the log does not hold exactly `applied` records — a record
    /// appended there would be skipped, or re-applied, by the next replay.
    pub(crate) fn append(
        &mut self,
        applied: u64,
        op: MutationOp,
        rows: &[Vec<Value>],
    ) -> Result<MutationRecord, StoreError> {
        let log = match &mut self.log {
            Some(log) => log,
            empty => empty.insert(MutationLog::open_at(&self.dir, Some(applied))?),
        };
        let logged = log.next_seq();
        if logged != applied {
            return Err(StoreError::LogOutOfStep { applied, logged });
        }
        log.append(op, rows.to_vec())
    }
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

    fn prefix_len(path: &Path) -> u64 {
        framed::prefix_len(&MUTATION_LOG_FORMAT, &std::fs::read(path).unwrap()).unwrap()
    }

    #[test]
    fn torn_tail_is_cut_on_open_and_appends_continue() {
        let dir = tmp_dir("torn");
        let mut log = MutationLog::open(&dir).unwrap();
        log.append(MutationOp::Insert, rows(2)).unwrap();
        drop(log);
        // Crash mid-append: half a record of garbage where the next
        // record goes, over the zeroed room.
        let path = dir.join(MUTATION_LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let (keep, len) = (prefix_len(&path), bytes.len());
        bytes[keep as usize..][..9].fill(0xAB);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(collect(&dir).len(), 1);

        let mut log = MutationLog::open(&dir).unwrap();
        assert_eq!(log.next_seq(), 1);
        assert_eq!(prefix_len(&path), keep);
        // The cut re-zeroed the garbage: the room survives.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len as u64);
        log.append(MutationOp::Delete, rows(1)).unwrap();
        assert_eq!(collect(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_invalidate_exactly_the_flipped_suffix() {
        let dir = tmp_dir("flip");
        let mut log = MutationLog::open(&dir).unwrap();
        log.append(MutationOp::Insert, rows(1)).unwrap();
        let first_end = prefix_len(&dir.join(MUTATION_LOG_FILE));
        log.append(MutationOp::Insert, rows(2)).unwrap();
        drop(log);
        // Flip one bit inside the second record: replay does not fail, it
        // ends after the first.
        let path = dir.join(MUTATION_LOG_FILE);
        let mut bad = std::fs::read(&path).unwrap();
        bad[first_end as usize + 5] ^= 1;
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
        let record = |seq| MutationRecord {
            seq,
            op: MutationOp::Insert,
            rows: rows(1),
        };
        let mut bytes = MUTATION_LOG_FORMAT.magic.to_vec();
        framed::push_frame(&mut bytes, 0, &record(0).encode_payload());
        framed::push_trailer(&mut bytes, 1);
        // A gap: replay must stop after the first record.
        framed::push_frame(&mut bytes, 2, &record(2).encode_payload());
        framed::push_trailer(&mut bytes, 3);
        std::fs::write(dir.join(MUTATION_LOG_FILE), &bytes).unwrap();
        assert_eq!(collect(&dir).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
