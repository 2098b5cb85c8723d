//! The one durable-file primitive: a framed append-only log and a
//! checksummed atomic-replace file, under the service WAL, the mutation
//! log, the transcript log, the manifest and the snapshot
//! (docs/STORAGE.md, "The framed log").
//!
//! ```text
//! file  := magic[8] frame*
//! frame := crc:u32 len:u32 seq:u64 payload[len]      (little-endian)
//! ```
//!
//! `crc` ([`crc32`]) covers everything after itself, so any single-bit
//! flip of a frame is detected; `seq` counts frames from zero, so a
//! spliced or reordered log fails too. The magic names the format *and
//! its version*: a file that starts with anything else is an error and is
//! left untouched — an old-format file is never mistaken for a torn tail.
//!
//! [`scan`] accepts the longest valid prefix and classifies what follows
//! ([`Tail`]); it only reports — whether a class truncates, refuses or is
//! ignored is each log's policy. [`FramedWriter`] writes a batch of frames
//! with one `write_all` and, when that fails, rolls the file back or
//! poisons itself, because the reader stops at the first bad frame and a
//! mid-file partial frame would strand every later acked record.
//! [`write_atomic`] / [`read_atomic`] are the one-frame file replaced by
//! temp + fsync + rename + directory fsync.

use super::page::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Bytes of magic at the head of every framed file.
pub const MAGIC_LEN: usize = 8;

/// Bytes of framing before a payload: crc(4) + len(4) + seq(8).
pub const FRAME_HEADER: usize = 16;

/// What distinguishes one framed file type from another.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// File magic; its last byte is the format version.
    pub magic: &'static [u8; MAGIC_LEN],
    /// Largest payload a frame may carry (at most `u32::MAX`); a declared
    /// length beyond it is corruption, which bounds allocation.
    pub max_payload: usize,
}

/// What follows the valid prefix of a framed file; `valid_len` is the
/// byte offset that prefix ends at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The file ends exactly after the last valid frame.
    Clean,
    /// A partial frame at EOF — header or declared payload running past
    /// it: the artifact of a crash mid-append, safe to cut.
    Torn { valid_len: u64 },
    /// A *complete* frame with a wrong checksum, an over-cap length, the
    /// wrong `seq`, or a payload its owner rejects: bit rot.
    Corrupt { valid_len: u64 },
}

impl Tail {
    /// The byte offset the valid prefix ends at (`None` when clean).
    pub fn valid_len(&self) -> Option<u64> {
        match self {
            Tail::Clean => None,
            Tail::Torn { valid_len } | Tail::Corrupt { valid_len } => Some(*valid_len),
        }
    }
}

fn invalid(at: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("{}: {what}", at.display()))
}

fn check_cap(payload: &[u8], cap: usize) -> io::Result<()> {
    if payload.len() <= cap {
        return Ok(());
    }
    let msg = format!(
        "payload of {} bytes exceeds the {cap}-byte cap",
        payload.len()
    );
    Err(io::Error::new(ErrorKind::InvalidInput, msg))
}

/// Appends one frame to `out`.
pub fn push_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("payload within a format cap");
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Walks a file image, handing `accept` the `(seq, payload)` of every
/// frame of the longest valid prefix, in order; `accept` returning
/// `false` (the owner cannot decode the payload) ends the prefix as
/// `Corrupt`. Returns the number of accepted frames and the tail class.
/// An empty image is a fresh log.
///
/// # Errors
/// `InvalidData` when the image does not start with (a prefix of)
/// `format.magic`.
pub fn scan(
    format: &Format,
    bytes: &[u8],
    mut accept: impl FnMut(u64, &[u8]) -> bool,
) -> io::Result<(u64, Tail)> {
    let head = bytes.len().min(MAGIC_LEN);
    if bytes[..head] != format.magic[..head] {
        let (want, got) = (format.magic.escape_ascii(), bytes[..head].escape_ascii());
        let msg = format!("not an {want} file (starts with \"{got}\")");
        return Err(io::Error::new(ErrorKind::InvalidData, msg));
    }
    if head < MAGIC_LEN {
        let torn = Tail::Torn { valid_len: 0 };
        return Ok((0, if bytes.is_empty() { Tail::Clean } else { torn }));
    }
    let (mut pos, mut frames) = (MAGIC_LEN, 0u64);
    loop {
        let valid_len = pos as u64;
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return Ok((frames, Tail::Clean));
        }
        if rest.len() < FRAME_HEADER {
            return Ok((frames, Tail::Torn { valid_len }));
        }
        let crc = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        let seq = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        if len > format.max_payload {
            return Ok((frames, Tail::Corrupt { valid_len }));
        }
        let end = FRAME_HEADER + len;
        if rest.len() < end {
            return Ok((frames, Tail::Torn { valid_len }));
        }
        if crc32(&rest[4..end]) != crc || seq != frames || !accept(seq, &rest[FRAME_HEADER..end]) {
            return Ok((frames, Tail::Corrupt { valid_len }));
        }
        frames += 1;
        pos += end;
    }
}

/// [`scan`] over the file at `path`; a missing file is a fresh log, and a
/// wrong magic's `InvalidData` names the path.
pub fn read(
    path: &Path,
    format: &Format,
    accept: impl FnMut(u64, &[u8]) -> bool,
) -> io::Result<(u64, Tail)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    scan(format, &bytes, accept).map_err(|e| invalid(path, e))
}

/// Cuts the file at `path` back to the valid prefix a [`Tail`] reported
/// (an empty file is a fresh log) and fsyncs.
pub fn truncate(path: &Path, valid_len: u64) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_len)?;
    f.sync_all()
}

/// Writes `payload` as a one-frame file at `path`, atomically: temp file
/// (`path` with a `tmp` extension) + fsync + rename + directory fsync.
/// The rename is the commit point. An over-cap payload is `InvalidInput`.
pub fn write_atomic(path: &Path, format: &Format, payload: &[u8]) -> io::Result<()> {
    check_cap(payload, format.max_payload)?;
    let mut image = Vec::with_capacity(MAGIC_LEN + FRAME_HEADER + payload.len());
    image.extend_from_slice(format.magic);
    push_frame(&mut image, 0, payload);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&image)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself where the platform allows it.
    if let Some(Ok(dir)) = path.parent().map(File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Reads a [`write_atomic`] file back: `Ok(None)` when it does not exist,
/// `InvalidData` (naming the path) unless the file is the magic, exactly
/// one valid frame, and nothing else.
pub fn read_atomic(path: &Path, format: &Format) -> io::Result<Option<Vec<u8>>> {
    if !path.is_file() {
        return Ok(None);
    }
    let mut payload = None;
    let accept = |_: u64, p: &[u8]| payload.replace(p.to_vec()).is_none();
    match (read(path, format, accept)?, payload) {
        ((1, Tail::Clean), Some(payload)) => Ok(Some(payload)),
        (found, _) => Err(invalid(path, format_args!("damaged: {found:?}"))),
    }
}

/// The append half of a framed log. Frames are *staged* in memory
/// ([`FramedWriter::stage`]: no I/O) and written as one contiguous
/// buffer: [`FramedWriter::append`] and [`FramedWriter::append_deferred`]
/// stage one frame and write at once; a log whose records may wait (the
/// transcript) stages many and [`FramedWriter::flush`]es them together.
#[derive(Debug)]
pub struct FramedWriter {
    /// Shared so [`FramedWriter::append_deferred`] can hand the caller a
    /// handle to `sync_data` outside whatever lock serializes appends.
    file: Arc<File>,
    max_payload: usize,
    /// Frames in the file — also the `seq` of the next frame written.
    frames: u64,
    /// File length after the last good write: the rollback point.
    good_len: u64,
    staged: Vec<u8>,
    staged_frames: u64,
    poisoned: bool,
}

impl FramedWriter {
    /// Opens `path` for appending after its last frame, writing the magic
    /// (unsynced: the first record's `sync_data` carries it) when the
    /// file is new or empty.
    ///
    /// # Errors
    /// I/O failures; `InvalidData` for a wrong magic or a tail that is
    /// not [`Tail::Clean`] — the caller's policy [`truncate`]s (or
    /// refuses) first, a writer never appends behind damage.
    pub fn open(path: &Path, format: &Format) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (frames, tail) = scan(format, &bytes, |_, _| true).map_err(|e| invalid(path, e))?;
        if tail != Tail::Clean {
            return Err(invalid(path, format_args!("damaged tail ({tail:?})")));
        }
        if bytes.is_empty() {
            file.write_all(format.magic)?;
        }
        Ok(Self {
            file: Arc::new(file),
            max_payload: format.max_payload,
            frames,
            good_len: bytes.len().max(MAGIC_LEN) as u64,
            staged: Vec::new(),
            staged_frames: 0,
            poisoned: false,
        })
    }

    /// Frames written to the file (staged ones not counted).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Frames staged and not yet written.
    pub fn staged_frames(&self) -> u64 {
        self.staged_frames
    }

    /// The log file, for a caller that syncs it on its own schedule.
    pub fn file(&self) -> &Arc<File> {
        &self.file
    }

    /// Every later append fails. For a deferred sync that failed: later
    /// frames may already sit behind the unsynced one, so no rollback.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Frames `payload` into the in-memory batch; no I/O. Errors on an
    /// over-cap payload (`InvalidInput`) and on a poisoned writer.
    pub fn stage(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.poisoned {
            let msg = "log writer poisoned by an earlier unrecoverable append failure";
            return Err(io::Error::other(msg));
        }
        check_cap(payload, self.max_payload)?;
        push_frame(&mut self.staged, self.frames + self.staged_frames, payload);
        self.staged_frames += 1;
        Ok(())
    }

    /// Writes the staged batch with one `write_all` (and `sync_data`s it
    /// when `sync`). On failure the batch is discarded and rolled back.
    fn commit(&mut self, sync: bool) -> io::Result<()> {
        let mut result = (&*self.file).write_all(&self.staged);
        if sync && result.is_ok() {
            result = self.file.sync_data();
        }
        match result {
            Ok(()) => {
                self.good_len += self.staged.len() as u64;
                self.frames += self.staged_frames;
            }
            Err(_) => self.roll_back(),
        }
        self.staged.clear();
        self.staged_frames = 0;
        result
    }

    /// Cuts a partial batch off (in append mode the next write lands at
    /// the restored EOF); poisons the writer when even that fails.
    fn roll_back(&mut self) {
        self.poisoned |= self.file.set_len(self.good_len).is_err();
    }

    /// Writes everything staged and `sync_data`s: durable on return.
    /// Nothing staged is a no-op; a write or sync failure is rolled back
    /// to the length before the call.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.staged_frames == 0 {
            return Ok(());
        }
        self.commit(true)
    }

    /// Appends one frame, durable on return — the append IS the ack.
    /// Errors as [`FramedWriter::stage`] and [`FramedWriter::flush`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.stage(payload)?;
        self.commit(true)
    }

    /// Appends one frame *without* syncing and returns the file handle
    /// the caller must `sync_data` before acking — outside whatever lock
    /// serializes appends, so a sibling can append while the fsync is in
    /// flight. A deferred sync that fails cannot be rolled back; the
    /// caller must [`FramedWriter::poison`] the writer and fail the
    /// request. A failed *write* rolls back as in [`FramedWriter::flush`].
    pub fn append_deferred(&mut self, payload: &[u8]) -> io::Result<Arc<File>> {
        self.stage(payload)?;
        self.commit(false)?;
        Ok(Arc::clone(&self.file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A small cap, so a cap-sized payload is part of the sweeps.
    const TEST: Format = Format {
        magic: b"APEXTST1",
        max_payload: 48,
    };

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-framed-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Mixed sizes: ordinary, empty, cap-sized, one byte.
    fn payloads() -> Vec<Vec<u8>> {
        vec![
            b"first record".to_vec(),
            Vec::new(),
            (0..TEST.max_payload as u8).collect(),
            vec![0xFF],
            b"last".to_vec(),
        ]
    }

    /// The log image of `payloads` and the offset each frame ends at
    /// (`ends[0]` is the end of the magic).
    fn image(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = TEST.magic.to_vec();
        let mut ends = vec![bytes.len()];
        for (seq, p) in payloads.iter().enumerate() {
            push_frame(&mut bytes, seq as u64, p);
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    fn collect(bytes: &[u8]) -> io::Result<(Vec<Vec<u8>>, Tail)> {
        let mut seen = Vec::new();
        let (frames, tail) = scan(&TEST, bytes, |seq, p| {
            assert_eq!(seq, seen.len() as u64);
            seen.push(p.to_vec());
            true
        })?;
        assert_eq!(frames, seen.len() as u64);
        Ok((seen, tail))
    }

    /// Property: EVERY truncation of a log yields exactly the frames that
    /// fit — never a partial one — and anything but a cut on a frame
    /// boundary is a torn tail at the last boundary.
    #[test]
    fn every_truncation_yields_the_whole_frame_prefix_and_a_torn_tail() {
        let payloads = payloads();
        let (full, ends) = image(&payloads);
        for cut in 0..=full.len() {
            let (seen, tail) = collect(&full[..cut]).unwrap();
            let whole = ends.iter().filter(|&&e| e <= cut).count().saturating_sub(1);
            assert_eq!(seen, payloads[..whole], "cut at {cut}");
            let valid_len = if cut < MAGIC_LEN {
                0
            } else {
                ends[whole] as u64
            };
            let expect = if cut == 0 || ends.contains(&cut) {
                Tail::Clean // a fresh log, or indistinguishable from a clean stop
            } else {
                Tail::Torn { valid_len }
            };
            assert_eq!(tail, expect, "cut at {cut}");
        }
    }

    /// Property: EVERY single-bit flip is detected — never `Clean` — and
    /// the frames before the flipped one, and only they, are handed out
    /// untouched. A flip is `Corrupt` unless it grows a length field past
    /// EOF, which is indistinguishable from a torn write; a flip in the
    /// magic makes the file not this format at all.
    #[test]
    fn every_single_bit_flip_is_detected_and_yields_an_untouched_prefix() {
        let payloads = payloads();
        let (full, ends) = image(&payloads);
        for bit in 0..full.len() * 8 {
            let mut damaged = full.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            if bit / 8 < MAGIC_LEN {
                let err = collect(&damaged).unwrap_err();
                assert_eq!(err.kind(), ErrorKind::InvalidData, "flip at bit {bit}");
                continue;
            }
            let hit = ends.iter().filter(|&&e| e <= bit / 8).count() - 1;
            let (seen, tail) = collect(&damaged).unwrap();
            assert_eq!(seen, payloads[..hit], "flip at bit {bit}");
            let valid_len = ends[hit] as u64;
            let in_len_field = (4..8).contains(&(bit / 8 - ends[hit]));
            match tail {
                Tail::Corrupt { valid_len: v } => assert_eq!(v, valid_len, "flip at bit {bit}"),
                Tail::Torn { valid_len: v } => {
                    assert_eq!(v, valid_len, "flip at bit {bit}");
                    assert!(in_len_field, "flip at bit {bit} classified torn");
                }
                Tail::Clean => panic!("flip at bit {bit} went undetected"),
            }
        }
    }

    /// A complete frame that fails validation is corruption (refuse by
    /// default); a frame running past EOF is a torn write (truncatable).
    #[test]
    fn corrupt_versus_torn_classification() {
        let payloads = payloads();
        let (prefix, ends) = image(&payloads[..2]);
        let valid_len = *ends.last().unwrap() as u64;
        let mut frame = Vec::new();
        push_frame(&mut frame, 2, &payloads[2]);
        let with = |tail: &[u8]| [&prefix[..], tail].concat();

        // Complete frame, wrong checksum.
        let mut bad_crc = frame.clone();
        bad_crc[0] ^= 0xFF;
        // Complete, checksummed frame — out of sequence, or over the cap.
        let (mut gap, mut over_cap) = (Vec::new(), Vec::new());
        push_frame(&mut gap, 3, &payloads[2]);
        push_frame(&mut over_cap, 2, &[0; TEST.max_payload + 1]);
        // An absurd length prefix (bounded allocation).
        let huge = [&u32::MAX.to_le_bytes()[..], &[0u8; 28]].concat();
        for (what, tail) in [
            ("crc", bad_crc),
            ("seq", gap),
            ("cap", over_cap),
            ("len", huge),
        ] {
            let (seen, class) = collect(&with(&tail)).unwrap();
            assert_eq!(seen, payloads[..2], "{what}");
            assert_eq!(class, Tail::Corrupt { valid_len }, "{what}");
        }
        // A payload the owner rejects.
        let (frames, class) = scan(&TEST, &with(&frame), |seq, _| seq < 2).unwrap();
        assert_eq!((frames, class), (2, Tail::Corrupt { valid_len }));

        // Half a frame, and half a header.
        for cut in [frame.len() / 2, FRAME_HEADER - 1, 1] {
            let (seen, class) = collect(&with(&frame[..cut])).unwrap();
            assert_eq!(seen, payloads[..2]);
            assert_eq!(class, Tail::Torn { valid_len }, "cut {cut}");
        }
    }

    #[test]
    fn writer_resumes_refuses_damage_and_truncate_heals_it() {
        let dir = tmp_dir("writer");
        let path = dir.join("test.log");
        let payloads = payloads();
        let mut w = FramedWriter::open(&path, &TEST).unwrap();
        w.append(&payloads[0]).unwrap();
        let file = w.append_deferred(&payloads[1]).unwrap();
        file.sync_data().unwrap();
        // Staged frames reach the file only with the flush, in one batch.
        w.stage(&payloads[2]).unwrap();
        w.stage(&payloads[3]).unwrap();
        assert_eq!((w.frames(), w.staged_frames()), (2, 2));
        assert_eq!(std::fs::read(&path).unwrap(), image(&payloads[..2]).0);
        w.flush().unwrap();
        assert_eq!((w.frames(), w.staged_frames()), (4, 0));
        // An over-cap payload is refused before it touches anything.
        let err = w.append(&[0; TEST.max_payload + 1]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        drop(w);

        // Re-opening continues the sequence after the existing frames.
        let mut w = FramedWriter::open(&path, &TEST).unwrap();
        assert_eq!(w.frames(), 4);
        w.append(&payloads[4]).unwrap();
        drop(w);
        let (full, _) = image(&payloads);
        assert_eq!(std::fs::read(&path).unwrap(), full);

        // A damaged tail refuses the writer until the caller cuts it.
        let mut torn = full.clone();
        torn.extend_from_slice(&full[MAGIC_LEN..MAGIC_LEN + 5]);
        std::fs::write(&path, &torn).unwrap();
        assert!(FramedWriter::open(&path, &TEST).is_err());
        let (_, tail) = read(&path, &TEST, |_, _| true).unwrap();
        truncate(&path, tail.valid_len().unwrap()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), full);
        assert_eq!(FramedWriter::open(&path, &TEST).unwrap().frames(), 5);

        // A file of another format is refused and left as it is.
        std::fs::write(&path, b"APEXTST0 whatever").unwrap();
        assert!(FramedWriter::open(&path, &TEST).is_err());
        assert!(read(&path, &TEST, |_, _| true).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"APEXTST0 whatever");
        // A missing file reads as a fresh log.
        let fresh = read(&dir.join("nope.log"), &TEST, |_, _| true).unwrap();
        assert_eq!(fresh, (0, Tail::Clean));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The failure discipline, driven for real: the log file is swapped
    /// for `/dev/full`, so the write fails with ENOSPC — and the rollback
    /// `set_len` fails too (a device cannot be truncated), which must
    /// poison the writer: every later append errors, staged or not.
    #[test]
    fn a_failed_append_that_cannot_be_rolled_back_poisons_the_writer() {
        let dir = tmp_dir("full");
        let mut w = FramedWriter::open(&dir.join("test.log"), &TEST).unwrap();
        w.append(b"acked").unwrap();
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        w.file = Arc::new(full);
        assert!(w.append(b"fails").is_err());
        assert!(w.poisoned);
        assert_eq!((w.frames(), w.staged_frames()), (1, 0));
        for _ in 0..3 {
            assert!(w.append(b"after the damage").is_err());
            assert!(w.append_deferred(b"after the damage").is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// …and when the rollback works, the partial frame a failed write
    /// left behind is cut off, so the next acked append is not stranded
    /// behind it. (The leftovers are forged through a second handle —
    /// nothing in the sandbox makes a regular-file write fail halfway;
    /// the rollback is the writer's own.)
    #[test]
    fn rollback_cuts_a_partial_frame_so_the_next_append_is_not_stranded() {
        let dir = tmp_dir("rollback");
        let path = dir.join("test.log");
        let mut w = FramedWriter::open(&path, &TEST).unwrap();
        w.append(b"acked").unwrap();
        let good = std::fs::read(&path).unwrap();
        let mut second = OpenOptions::new().append(true).open(&path).unwrap();
        second.write_all(&[0xAB; 7]).unwrap();
        let valid_len = good.len() as u64;
        let torn = read(&path, &TEST, |_, _| true).unwrap();
        assert_eq!(torn, (1, Tail::Torn { valid_len }));

        w.roll_back();
        assert!(!w.poisoned);
        assert_eq!(std::fs::read(&path).unwrap(), good);
        w.append(b"next").unwrap();
        let mut seen = Vec::new();
        let outcome = read(&path, &TEST, |_, p| {
            seen.push(p.to_vec());
            true
        });
        assert_eq!(outcome.unwrap(), (2, Tail::Clean));
        assert_eq!(seen, [b"acked".to_vec(), b"next".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_files_round_trip_and_any_damage_is_an_error() {
        let dir = tmp_dir("atomic");
        let path = dir.join("state.bin");
        assert_eq!(read_atomic(&path, &TEST).unwrap(), None);
        write_atomic(&path, &TEST, b"one").unwrap();
        write_atomic(&path, &TEST, b"two, replacing one").unwrap();
        assert_eq!(
            read_atomic(&path, &TEST).unwrap().unwrap(),
            b"two, replacing one"
        );
        assert!(!dir.join("state.tmp").exists(), "the temp file was renamed");
        assert!(write_atomic(&path, &TEST, &[0; TEST.max_payload + 1]).is_err());

        let good = std::fs::read(&path).unwrap();
        let refused = |bytes: &[u8], what: String| {
            std::fs::write(&path, bytes).unwrap();
            let err = read_atomic(&path, &TEST).expect_err(&what);
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}");
        };
        for bit in 0..good.len() * 8 {
            let mut damaged = good.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            refused(&damaged, format!("flip at bit {bit}"));
        }
        for cut in 0..good.len() {
            refused(&good[..cut], format!("cut at {cut}"));
        }
        // Trailing bytes — even a second valid frame — are damage too.
        let mut two = good.clone();
        push_frame(&mut two, 1, b"x");
        refused(&two, "second frame".into());
        refused(&[&good[..], &[0]].concat(), "trailing byte".into());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
