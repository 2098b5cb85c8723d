//! Append-only audit transcript: one [framed log](super::framed) per
//! tenant, `<dir>/transcript.log`, records opaque byte strings.
//!
//! Appends are staged in memory; [`TranscriptLog::flush`] writes them
//! with one `write_all` after the last durable frame and fsyncs — the
//! per-query path makes no syscall, and no durable byte is ever
//! rewritten. Records appended since the last flush are lost on a crash:
//! acceptable for transcripts, whose source of truth for *charges* is the
//! service WAL; this log exists so auditors can replay what was asked and
//! answered.
//!
//! Tail policy: a torn tail (a crash mid-flush — nothing past it was ever
//! acknowledged as flushed) is cut on [`TranscriptLog::open`]; a corrupt
//! tail refuses the open, and [`TranscriptLog::replay`] reports any
//! damaged tail as an error after yielding the valid prefix.

use super::framed::{self, Format, FramedWriter, Tail};
use super::{Manifest, StoreError};
use std::path::Path;

/// File name of the transcript log inside its directory.
pub const TRANSCRIPT_FILE: &str = "transcript.log";

/// The transcript log's magic and largest record.
pub const TRANSCRIPT_FORMAT: Format = Format {
    magic: b"APEXTRN1",
    max_payload: 64 << 10,
};

/// Staged records past which an append flushes by itself, so a
/// deployment that never compacts still holds a bounded transcript in
/// memory (the compaction cadence flushes long before this).
const SPILL_RECORDS: u64 = 16 << 10;

/// An open transcript log.
#[derive(Debug)]
pub struct TranscriptLog {
    writer: FramedWriter,
}

impl TranscriptLog {
    /// Opens (creating if missing) the transcript log in `dir`.
    ///
    /// # Errors
    /// I/O failures; a corrupt tail; a directory holding the previous
    /// page-format transcript (`manifest.bin` + `pages.dat`), which this
    /// build does not read — nothing is modified in either case.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        if Manifest::exists(dir) {
            return Err(StoreError::Codec(format!(
                "{} holds a page-format transcript; this build reads {}",
                dir.display(),
                String::from_utf8_lossy(TRANSCRIPT_FORMAT.magic)
            )));
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(TRANSCRIPT_FILE);
        if let (_, Tail::Torn { valid_len }) = framed::read(&path, &TRANSCRIPT_FORMAT, |_, _| true)?
        {
            framed::truncate(&path, valid_len)?;
        }
        let writer = FramedWriter::open(&path, &TRANSCRIPT_FORMAT)?;
        Ok(Self { writer })
    }

    /// Records appended over the log's lifetime, flushed or not.
    pub fn record_count(&self) -> u64 {
        self.writer.frames() + self.writer.staged_frames()
    }

    /// Appends one record in memory. Durable after the next
    /// [`Self::flush`].
    pub fn append(&mut self, record: &[u8]) -> Result<(), StoreError> {
        self.writer.stage(record)?;
        if self.writer.staged_frames() >= SPILL_RECORDS {
            self.flush()?;
        }
        Ok(())
    }

    /// Makes everything appended so far durable. Idempotent when nothing
    /// changed. On failure the unflushed records are dropped (the file
    /// keeps its last flushed state).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        Ok(self.writer.flush()?)
    }

    /// Replays every flushed record of `dir`'s log in append order.
    ///
    /// # Errors
    /// I/O failures; a damaged tail (after `f` saw the valid prefix).
    pub fn replay(dir: &Path, mut f: impl FnMut(&[u8])) -> Result<u64, StoreError> {
        let path = dir.join(TRANSCRIPT_FILE);
        match framed::read(&path, &TRANSCRIPT_FORMAT, |_, record| {
            f(record);
            true
        })? {
            (seen, Tail::Clean) => Ok(seen),
            (seen, tail) => Err(StoreError::Codec(format!(
                "{}: damaged after {seen} records ({tail:?})",
                path.display()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn collect(dir: &Path) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        TranscriptLog::replay(dir, |r| out.push(r.to_vec())).unwrap();
        out
    }

    #[test]
    fn append_flush_replay_round_trip() {
        let dir = tmp_dir("rt");
        let mut log = TranscriptLog::open(&dir).unwrap();
        for i in 0..100u32 {
            log.append(format!("record-{i}").as_bytes()).unwrap();
        }
        assert_eq!(log.record_count(), 100);
        log.flush().unwrap();
        let records = collect(&dir);
        assert_eq!(records.len(), 100);
        assert_eq!(records[7], b"record-7");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_tail_is_lost_but_flushed_records_survive() {
        let dir = tmp_dir("tail");
        let mut log = TranscriptLog::open(&dir).unwrap();
        log.append(b"durable").unwrap();
        log.flush().unwrap();
        log.append(b"lost-on-crash").unwrap();
        drop(log); // crash: no flush
        assert_eq!(collect(&dir), vec![b"durable".to_vec()]);
        // Reopen resumes appending after the flushed horizon.
        let mut log = TranscriptLog::open(&dir).unwrap();
        assert_eq!(log.record_count(), 1);
        log.append(b"after-reopen").unwrap();
        log.flush().unwrap();
        assert_eq!(
            collect(&dir),
            vec![b"durable".to_vec(), b"after-reopen".to_vec()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_flushes_only_append() {
        let dir = tmp_dir("appendonly");
        let path = dir.join(TRANSCRIPT_FILE);
        let mut log = TranscriptLog::open(&dir).unwrap();
        let mut durable = Vec::new();
        for i in 0..10u32 {
            log.append(format!("r{i}").as_bytes()).unwrap();
            log.flush().unwrap();
            // Every byte an earlier flush made durable is still there,
            // unchanged: a torn flush can only damage its own records.
            let now = std::fs::read(&path).unwrap();
            assert!(now.len() > durable.len() && now.starts_with(&durable));
            durable = now;
        }
        log.flush().unwrap(); // nothing staged: no-op
        assert_eq!(std::fs::read(&path).unwrap(), durable);
        assert_eq!(collect(&dir).len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_is_rejected() {
        let dir = tmp_dir("big");
        let mut log = TranscriptLog::open(&dir).unwrap();
        let big = vec![0u8; TRANSCRIPT_FORMAT.max_payload + 1];
        assert!(log.append(&big).is_err());
        assert_eq!(log.record_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_page_format_transcript_dir_is_refused_untouched() {
        let dir = tmp_dir("oldfmt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.bin"), b"APEXDST1 old manifest").unwrap();
        let err = TranscriptLog::open(&dir).unwrap_err();
        assert!(err.to_string().contains("page-format"), "{err}");
        assert!(!dir.join(TRANSCRIPT_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
