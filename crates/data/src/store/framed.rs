//! The one durable-file primitive: a framed log over pre-zeroed room and
//! a checksummed atomic-replace file, under the service WAL, the mutation
//! log, the transcript log, the manifest and the snapshot
//! (docs/STORAGE.md, "The framed log").
//!
//! ```text
//! log (v2)    := magic[8] batch* zero*
//! batch       := frame+ trailer
//! v1 / atomic := magic[8] frame*
//! frame       := crc:u32 len:u32 seq:u64 payload[len]    (little-endian)
//! trailer     := crc:u32 0xFFFF_FFFF:u32 !count:u64
//! ```
//!
//! `crc` ([`crc32`]) covers everything after itself, so any single-bit
//! flip of a frame or a trailer is detected; `seq` counts frames from
//! zero, so a spliced or reordered log fails too. A trailer closes each
//! batch a writer wrote in one go: its length field is a value no frame
//! may carry, and `count` (stored inverted, so its last byte is never
//! zero) is the number of frames before it. The magic names the format
//! *and its version*: a file that starts with anything else is an error
//! and is left untouched — an old-format file is never mistaken for a
//! torn tail.
//!
//! A log is created with [`ROOM_CHUNK`] bytes of real, synced zeros, and
//! [`FramedWriter`] writes each batch over them at the valid prefix's
//! end, so an ack's `sync_data` carries data only — no new size, no new
//! extent for the filesystem journal. When a batch outgrows the room the
//! writer zero-fills another chunk first, so an ack waits on a zero-fill
//! at most once per chunk. It never writes in append mode: a write there
//! would land past the room, behind zeros every reader stops at. Logs of
//! the v1 layout (frames to EOF, no trailers) still read, and a writer
//! rewrites one as v2 when it opens it.
//!
//! [`scan`] accepts the longest valid prefix and classifies what follows
//! ([`Tail`]); it only reports — whether a class truncates, refuses or is
//! ignored is each log's policy. A writer that fails mid-batch re-zeroes
//! what it may have written, or poisons itself, because the reader stops
//! at the first bad frame and a partial batch would strand every later
//! acked record. [`write_atomic`] / [`read_atomic`] are the one-frame
//! file replaced by temp + fsync + rename + directory fsync.

use super::page::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Bytes of magic at the head of every framed file.
pub const MAGIC_LEN: usize = 8;

/// Bytes of framing before a payload: crc(4) + len(4) + seq(8).
pub const FRAME_HEADER: usize = 16;

/// Bytes of the trailer that closes each batch of a v2 log.
pub const TRAILER: usize = 16;

/// The length field that marks a trailer; no log's payload cap reaches
/// within one bit of it.
const TRAILER_MARK: u32 = u32::MAX;

/// Zeroed bytes a log is created with, and grows by when a batch
/// outgrows its room.
pub const ROOM_CHUNK: u64 = 256 << 10;

/// What zeros are written from: one shared, never-written buffer, so a
/// zero-fill costs no resident memory per log.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

/// What distinguishes one framed file type from another.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// File magic; its last byte is the format version.
    pub magic: &'static [u8; MAGIC_LEN],
    /// `Some` for a log — a file a [`FramedWriter`] appends to: `magic`
    /// then names the v2 layout, and a file that starts with this older
    /// magic is read as v1. `None` for a [`write_atomic`] file, whose one
    /// frame `magic` names in the v1 layout.
    pub v1_magic: Option<&'static [u8; MAGIC_LEN]>,
    /// Largest payload a frame may carry (at most `u32::MAX`; a log's
    /// below 2^30); a declared length beyond it is corruption, which
    /// bounds allocation.
    pub max_payload: usize,
}

/// What follows the valid prefix of a framed file; `valid_len` is the
/// byte offset that prefix ends at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Nothing follows the last valid frame (of a v2 log: the last
    /// trailer) but zeros, or nothing at all.
    Clean,
    /// The artifact of a crash mid-write, safe to cut: of v1, a partial
    /// frame at EOF; of v2, a final batch that no intact trailer closes.
    Torn { valid_len: u64 },
    /// Bit rot: of v1, a *complete* frame with a wrong checksum, an
    /// over-cap length or the wrong `seq`; of v2, a damaged batch that a
    /// later intact trailer shows was written whole, or a damaged
    /// trailer. Either way also a payload its owner rejects.
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

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Appends one frame to `out`.
pub fn push_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("payload within a format cap");
    push_checked(out, len, seq, payload);
}

/// Appends the trailer that closes a batch, `count` being the number of
/// frames in the log up to it.
pub fn push_trailer(out: &mut Vec<u8>, count: u64) {
    push_checked(out, TRAILER_MARK, !count, &[]);
}

fn push_checked(out: &mut Vec<u8>, len: u32, tag: u64, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Walks a file image, handing `accept` the `(seq, payload)` of every
/// frame of the longest valid prefix, in order — of a v2 log, a batch's
/// frames only once its trailer checks; `accept` returning `false` (the
/// owner cannot decode the payload) ends the prefix as `Corrupt`. Returns
/// the number of accepted frames and the tail class. An empty image is a
/// fresh log.
///
/// # Errors
/// `InvalidData` when the image does not start with (a prefix of)
/// `format.magic` or of its v1 magic.
pub fn scan(
    format: &Format,
    bytes: &[u8],
    accept: impl FnMut(u64, &[u8]) -> bool,
) -> io::Result<(u64, Tail)> {
    scan_image(format, bytes, accept).map(|s| (s.frames, s.tail))
}

/// The byte offset the valid prefix of an image ends at: where a
/// writer's next batch goes. Of a v2 log that is not the file's length.
///
/// # Errors
/// As [`scan`].
pub fn prefix_len(format: &Format, bytes: &[u8]) -> io::Result<u64> {
    scan_image(format, bytes, |_, _| true).map(|s| s.end as u64)
}

/// What a scan found, beyond [`scan`]'s report.
struct Scanned {
    frames: u64,
    /// Where the valid prefix ends.
    end: usize,
    tail: Tail,
    /// The image is in the v1 layout.
    v1: bool,
    /// Checksum-valid frames past `end` that no trailer closes (a v2 image
    /// that ends, or turns to zeros, mid-batch).
    unsealed: u64,
}

fn scan_image(
    format: &Format,
    bytes: &[u8],
    accept: impl FnMut(u64, &[u8]) -> bool,
) -> io::Result<Scanned> {
    let head = bytes.len().min(MAGIC_LEN);
    let starts = |magic: &[u8; MAGIC_LEN]| bytes[..head] == magic[..head];
    let v1 = match format.v1_magic {
        _ if starts(format.magic) => format.v1_magic.is_none(),
        Some(old) if starts(old) => true,
        old => {
            let want = format.magic.escape_ascii();
            let or = old.map_or(String::new(), |m| format!(" or {}", m.escape_ascii()));
            let got = bytes[..head].escape_ascii();
            let msg = format!("not an {want}{or} file (starts with \"{got}\")");
            return Err(io::Error::new(ErrorKind::InvalidData, msg));
        }
    };
    if head < MAGIC_LEN {
        let tail = if bytes.is_empty() {
            Tail::Clean
        } else {
            Tail::Torn { valid_len: 0 }
        };
        let (frames, end, unsealed) = (0, 0, 0);
        return Ok(Scanned {
            frames,
            end,
            tail,
            v1,
            unsealed,
        });
    }
    Ok(if v1 {
        scan_v1(format, bytes, accept)
    } else {
        scan_v2(format, bytes, accept)
    })
}

/// The v1 layout: frames to EOF. A frame running past EOF is torn; a
/// complete one that fails is corrupt.
fn scan_v1(format: &Format, bytes: &[u8], mut accept: impl FnMut(u64, &[u8]) -> bool) -> Scanned {
    let (mut pos, mut frames) = (MAGIC_LEN, 0u64);
    let tail = loop {
        let valid_len = pos as u64;
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break Tail::Clean;
        }
        if rest.len() < FRAME_HEADER {
            break Tail::Torn { valid_len };
        }
        let len = u32_at(rest, 4) as usize;
        if len > format.max_payload {
            break Tail::Corrupt { valid_len };
        }
        let end = FRAME_HEADER + len;
        if rest.len() < end {
            break Tail::Torn { valid_len };
        }
        let checks = crc32(&rest[4..end]) == u32_at(rest, 0) && u64_at(rest, 8) == frames;
        if !checks || !accept(frames, &rest[FRAME_HEADER..end]) {
            break Tail::Corrupt { valid_len };
        }
        frames += 1;
        pos += end;
    };
    let end = tail.valid_len().map_or(pos, |v| v as usize);
    Scanned {
        frames,
        end,
        tail,
        v1: true,
        unsealed: 0,
    }
}

/// One checked element of a v2 log.
enum Element {
    /// A frame with this payload length.
    Frame(usize),
    /// The trailer closing the batch.
    Trailer,
}

/// The element at the head of `rest`, if it checks as frame `seq` or as
/// the trailer after `seq` frames.
fn element(format: &Format, rest: &[u8], seq: u64) -> Option<Element> {
    let header = rest.get(..FRAME_HEADER)?;
    let (crc, len, tag) = (u32_at(header, 0), u32_at(header, 4), u64_at(header, 8));
    if len == TRAILER_MARK {
        return (tag == !seq && crc == crc32(&header[4..])).then_some(Element::Trailer);
    }
    let len = len as usize;
    let frame = rest
        .get(..FRAME_HEADER + len)
        .filter(|_| len <= format.max_payload)?;
    (tag == seq && crc == crc32(&frame[4..])).then_some(Element::Frame(len))
}

/// Whether `bytes` are all zero. (An OR over a block vectorizes; a byte
/// search does not, and a log's room is most of its file.)
fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().fold(0, |acc, &b| acc | b) == 0
}

/// The length of `bytes` without its trailing zeros — a v2 log's room.
fn written_len(bytes: &[u8]) -> usize {
    let mut end = bytes.len();
    for block in bytes.rchunks(256) {
        if !is_zero(block) {
            let last = block
                .iter()
                .rposition(|&b| b != 0)
                .expect("a non-zero byte");
            return end - block.len() + last + 1;
        }
        end -= block.len();
    }
    0
}

/// Whether `at` holds an intact trailer, whatever its count.
fn is_trailer(at: &[u8]) -> bool {
    at.len() >= TRAILER && u32_at(at, 4) == TRAILER_MARK && u32_at(at, 0) == crc32(&at[4..TRAILER])
}

/// The v2 layout: batches closed by trailers, then zeros. A batch's
/// frames are accepted once its trailer checks.
fn scan_v2(format: &Format, bytes: &[u8], mut accept: impl FnMut(u64, &[u8]) -> bool) -> Scanned {
    // From `zeros` on, the image is all zero: the room.
    let zeros = written_len(bytes);
    let (mut pos, mut end, mut frames) = (MAGIC_LEN, MAGIC_LEN, 0u64);
    let mut batch: Vec<Range<usize>> = Vec::new();
    let found = |frames, end, tail, unsealed| Scanned {
        frames,
        end,
        tail,
        v1: false,
        unsealed,
    };
    loop {
        let seq = frames + batch.len() as u64;
        if pos >= zeros {
            let unsealed = batch.len() as u64;
            let tail = if batch.is_empty() {
                Tail::Clean
            } else {
                Tail::Torn {
                    valid_len: end as u64,
                }
            };
            return found(frames, end, tail, unsealed);
        }
        match element(format, &bytes[pos..], seq) {
            Some(Element::Frame(len)) => {
                batch.push(pos + FRAME_HEADER..pos + FRAME_HEADER + len);
                pos += FRAME_HEADER + len;
            }
            Some(Element::Trailer) => {
                for payload in batch.drain(..) {
                    if !accept(frames, &bytes[payload.clone()]) {
                        let valid_len = payload.start - FRAME_HEADER;
                        let tail = Tail::Corrupt {
                            valid_len: valid_len as u64,
                        };
                        return found(frames, valid_len, tail, 0);
                    }
                    frames += 1;
                }
                pos += TRAILER;
                end = pos;
            }
            None => return found(frames, end, damage(&bytes[pos..], seq, end as u64), 0),
        }
    }
}

/// Classifies the damage a v2 scan met at the head of `rest`, where
/// frame `seq` or the trailer after `seq` frames belongs; `valid_len` is
/// where the last intact batch ended. A crash cuts a batch write short,
/// leaving the room's zeros behind the bytes that landed; rot flips bits
/// in place.
fn damage(rest: &[u8], seq: u64, valid_len: u64) -> Tail {
    // An intact trailer behind the damage: that write completed, so the
    // damaged bytes were written whole before it — and acked. (A
    // trailer ends in a non-zero byte, so none lies in the room.)
    let landed = written_len(rest);
    if (0..landed).any(|at| is_trailer(&rest[at..landed])) {
        return Tail::Corrupt { valid_len };
    }
    // The trailer that belongs here, cut short.
    let mut trailer = Vec::with_capacity(TRAILER);
    push_trailer(&mut trailer, seq);
    if landed < TRAILER && rest[..landed] == trailer[..landed] {
        return Tail::Torn { valid_len };
    }
    // A trailer's marker, whole or one bit off, that no cut explains: the
    // trailer closing the final batch rotted. (A cut leaves a marker
    // ending in zeros, and a frame's length is below 2^30.)
    let marker = rest.get(4..8).map(|_| u32_at(rest, 4) ^ TRAILER_MARK);
    if marker.is_some_and(|off| off.count_ones() <= 1) {
        return Tail::Corrupt { valid_len };
    }
    // A final batch that no trailer closes was never acked.
    Tail::Torn { valid_len }
}

/// Reads the file at `path` for a scan and returns its bytes and its
/// length; a missing file reads as empty. Of a v2 log, zero blocks at the
/// end are counted, not kept: the room is most of the file, and a scan
/// takes an image's end for more zeros.
fn read_log(path: &Path, format: &Format) -> io::Result<(Vec<u8>, u64)> {
    let file = match File::open(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        open => open?,
    };
    let v2 = |bytes: &[u8]| format.v1_magic.is_some() && bytes.starts_with(format.magic);
    let (mut bytes, mut zeros, mut len) = (Vec::new(), 0, 0);
    let mut block = [0; 16 << 10];
    loop {
        let n = file.read_at(&mut block, len)?;
        if n == 0 {
            return Ok((bytes, len));
        }
        len += n as u64;
        if v2(&bytes) && is_zero(&block[..n]) {
            zeros += n;
            continue;
        }
        bytes.resize(bytes.len() + zeros, 0);
        bytes.extend_from_slice(&block[..n]);
        zeros = 0;
    }
}

/// [`scan`] over the file at `path`; a missing file is a fresh log, and a
/// wrong magic's `InvalidData` names the path.
pub fn read(
    path: &Path,
    format: &Format,
    accept: impl FnMut(u64, &[u8]) -> bool,
) -> io::Result<(u64, Tail)> {
    scan(format, &read_log(path, format)?.0, accept).map_err(|e| invalid(path, e))
}

/// Cuts the log at `path` back to the valid prefix a [`Tail`] reported
/// and fsyncs. A v2 log keeps its length: what is cut is re-zeroed (up to
/// its last non-zero byte), so the room survives, and a prefix that ends
/// mid-batch (a payload its owner rejected) is closed by a trailer
/// first. A v1 log is cut to `valid_len`; so is a partial magic, which
/// leaves a fresh log.
pub fn truncate(path: &Path, format: &Format, valid_len: u64) -> io::Result<()> {
    let f = OpenOptions::new().read(true).write(true).open(path)?;
    let (bytes, _) = read_log(path, format)?;
    let cut = (valid_len as usize).min(bytes.len());
    let kept = scan_image(format, &bytes[..cut], |_, _| true).map_err(|e| invalid(path, e))?;
    if kept.v1 || cut < MAGIC_LEN {
        f.set_len(valid_len)?;
    } else {
        let mut at = valid_len;
        if kept.unsealed > 0 {
            let mut trailer = Vec::with_capacity(TRAILER);
            push_trailer(&mut trailer, kept.frames + kept.unsealed);
            f.write_all_at(&trailer, at)?;
            at += TRAILER as u64;
        }
        write_zeros(&f, at, written_len(&bytes) as u64)?;
    }
    f.sync_all()
}

/// Writes zeros over `[from, to)`.
fn write_zeros(file: &File, mut from: u64, to: u64) -> io::Result<()> {
    while from < to {
        let n = (to - from).min(ZEROS.len() as u64) as usize;
        file.write_all_at(&ZEROS[..n], from)?;
        from += n as u64;
    }
    Ok(())
}

/// Replaces the file at `path` with what `fill` writes, atomically: temp
/// file (`path` with a `tmp` extension) + fsync + rename + directory
/// fsync. The rename is the commit point.
fn replace(path: &Path, fill: impl FnOnce(&File) -> io::Result<()>) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let f = File::create(&tmp)?;
        fill(&f)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself where the platform allows it.
    if let Some(Ok(dir)) = path.parent().map(File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Writes `payload` as a one-frame file at `path`, atomically: temp
/// file, fsync, rename, directory fsync. An over-cap payload is
/// `InvalidInput`.
pub fn write_atomic(path: &Path, format: &Format, payload: &[u8]) -> io::Result<()> {
    check_cap(payload, format.max_payload)?;
    let mut image = Vec::with_capacity(MAGIC_LEN + FRAME_HEADER + payload.len());
    image.extend_from_slice(format.magic);
    push_frame(&mut image, 0, payload);
    replace(path, |f| f.write_all_at(&image, 0))
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

/// The write half of a framed log. Frames are *staged* in memory
/// ([`FramedWriter::stage`]: no I/O) and written as one batch, closed by
/// its trailer, at the valid prefix's end: [`FramedWriter::append`] and
/// [`FramedWriter::append_deferred`] stage one frame and write at once; a
/// log whose records may wait (the transcript) stages many and
/// [`FramedWriter::flush`]es them together.
#[derive(Debug)]
pub struct FramedWriter {
    /// Shared so [`FramedWriter::append_deferred`] can hand the caller a
    /// handle to `sync_data` outside whatever lock serializes appends.
    file: Arc<File>,
    max_payload: usize,
    /// Frames in the file — also the `seq` of the next frame written.
    frames: u64,
    /// Where the next batch goes: the end of the valid prefix, and the
    /// rollback point.
    end: u64,
    /// The file's length; the `len - end` bytes past the prefix are zeros.
    len: u64,
    staged: Vec<u8>,
    staged_frames: u64,
    poisoned: bool,
}

impl FramedWriter {
    /// Opens the log at `path` positioned at its valid prefix's end. A
    /// new or empty file gets the magic and a chunk of zeros, synced when
    /// `sync` — what makes a later append's `sync_data` data-only, so a
    /// log whose appends never sync skips it. A v1 log is first rewritten
    /// as v2 (the same frames, one trailer, a chunk of zeros) by atomic
    /// replace.
    ///
    /// # Errors
    /// I/O failures; `InvalidData` for a wrong magic or a tail that is
    /// not [`Tail::Clean`] — the caller's policy [`truncate`]s (or
    /// refuses) first, a writer never writes behind damage.
    pub fn open(path: &Path, format: &Format, sync: bool) -> io::Result<Self> {
        debug_assert!(format.v1_magic.is_some() && format.max_payload < 1 << 30);
        let (bytes, mut len) = read_log(path, format)?;
        let scanned = scan_image(format, &bytes, |_, _| true).map_err(|e| invalid(path, e))?;
        if scanned.tail != Tail::Clean {
            let msg = format_args!("damaged tail ({:?})", scanned.tail);
            return Err(invalid(path, msg));
        }
        if scanned.v1 && len > 0 {
            let mut image = format.magic.to_vec();
            image.extend_from_slice(&bytes[MAGIC_LEN..]);
            if scanned.frames > 0 {
                push_trailer(&mut image, scanned.frames);
            }
            let len = image.len() as u64;
            replace(path, |f| {
                f.write_all_at(&image, 0)?;
                write_zeros(f, len, len + ROOM_CHUNK)
            })?;
            return Self::open(path, format, sync);
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if len == 0 {
            file.write_all_at(format.magic, 0)?;
            write_zeros(&file, MAGIC_LEN as u64, ROOM_CHUNK)?;
            if sync {
                file.sync_all()?;
            }
            len = ROOM_CHUNK;
        }
        Ok(Self {
            file: Arc::new(file),
            max_payload: format.max_payload,
            frames: scanned.frames,
            end: scanned.end.max(MAGIC_LEN) as u64,
            len,
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

    /// Zeroed bytes left past the valid prefix: what the next batches
    /// overwrite before the file must grow.
    pub fn room(&self) -> u64 {
        self.len - self.end
    }

    /// The log file, for a caller that syncs it on its own schedule.
    pub fn file(&self) -> &Arc<File> {
        &self.file
    }

    /// Empties the log for reuse: every frame after the magic re-zeroed
    /// (and synced when `sync`), the file's length and room kept.
    ///
    /// # Errors
    /// I/O failures; the writer is then poisoned.
    pub fn reset(&mut self, sync: bool) -> io::Result<()> {
        let mut result = write_zeros(&self.file, MAGIC_LEN as u64, self.end);
        if sync && result.is_ok() {
            result = self.file.sync_data();
        }
        self.poisoned |= result.is_err();
        (self.frames, self.end) = (0, MAGIC_LEN as u64);
        self.staged.clear();
        self.staged_frames = 0;
        result
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

    /// Closes the staged batch with its trailer and writes it with one
    /// positional write at the prefix's end (and `sync_data`s it when
    /// `sync`). On failure the batch is discarded and rolled back.
    fn commit(&mut self, sync: bool) -> io::Result<()> {
        push_trailer(&mut self.staged, self.frames + self.staged_frames);
        let batch = self.staged.len() as u64;
        let mut result = self.make_room(batch);
        if result.is_ok() {
            result = self.file.write_all_at(&self.staged, self.end);
            if sync && result.is_ok() {
                result = self.file.sync_data();
            }
            match result {
                Ok(()) => {
                    self.end += batch;
                    self.frames += self.staged_frames;
                }
                Err(_) => self.roll_back(batch),
            }
        }
        self.staged.clear();
        self.staged_frames = 0;
        result
    }

    /// Zero-fills whole chunks past the file's end until `batch` bytes fit
    /// after the prefix. The sync that acks the batch carries them.
    fn make_room(&mut self, batch: u64) -> io::Result<()> {
        let short = (self.end + batch).saturating_sub(self.len);
        if short > 0 {
            let grown = self.len + short.div_ceil(ROOM_CHUNK) * ROOM_CHUNK;
            write_zeros(&self.file, self.len, grown)?;
            self.len = grown;
        }
        Ok(())
    }

    /// Re-zeroes the `batch` bytes a failed write may have left past the
    /// prefix, so the next batch is not stranded behind them; poisons the
    /// writer when even that fails.
    fn roll_back(&mut self, batch: u64) {
        self.poisoned |= write_zeros(&self.file, self.end, self.end + batch).is_err();
    }

    /// Writes everything staged and `sync_data`s: durable on return.
    /// Nothing staged is a no-op; a write or sync failure is rolled back
    /// to the prefix before the call.
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

    /// A small cap, so a cap-sized payload is part of the sweeps. The two
    /// magics differ in two bits, as every log's do.
    const TEST: Format = Format {
        magic: b"APEXTST2",
        v1_magic: Some(b"APEXTST1"),
        max_payload: 48,
    };

    /// A one-frame atomic file's format.
    const ATOMIC: Format = Format {
        magic: b"APEXTSA1",
        v1_magic: None,
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

    /// The v1 image of `payloads` and the offset each frame ends at
    /// (`ends[0]` is the end of the magic).
    fn image_v1(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = TEST.v1_magic.unwrap().to_vec();
        let mut ends = vec![bytes.len()];
        for (seq, p) in payloads.iter().enumerate() {
            push_frame(&mut bytes, seq as u64, p);
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    /// The v2 image of `payloads` written as batches of the given sizes,
    /// without room, and the offset each batch ends at (`ends[0]` is the
    /// end of the magic).
    fn image_v2(payloads: &[Vec<u8>], batches: &[usize]) -> (Vec<u8>, Vec<usize>) {
        assert_eq!(batches.iter().sum::<usize>(), payloads.len());
        let mut bytes = TEST.magic.to_vec();
        let mut ends = vec![bytes.len()];
        let mut seq = 0;
        for &n in batches {
            for p in &payloads[seq..seq + n] {
                push_frame(&mut bytes, seq as u64, p);
                seq += 1;
            }
            push_trailer(&mut bytes, seq as u64);
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    /// Batches of 2, 1 and 2 frames: the final batch holds two.
    const BATCHES: [usize; 3] = [2, 1, 2];

    /// Frames in the batches that end at or before `ends[i]`.
    fn frames_through(i: usize) -> usize {
        BATCHES[..i].iter().sum()
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

    /// v1 images scan as before. Property: EVERY truncation of a log
    /// yields exactly the frames that fit — never a partial one — and
    /// anything but a cut on a frame boundary is a torn tail at the last
    /// boundary.
    #[test]
    fn every_truncation_yields_the_whole_frame_prefix_and_a_torn_tail() {
        let payloads = payloads();
        let (full, ends) = image_v1(&payloads);
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

    /// v1 images scan as before. Property: EVERY single-bit flip is
    /// detected — never `Clean` — and the frames before the flipped one,
    /// and only they, are handed out untouched. A flip is `Corrupt`
    /// unless it grows a length field past EOF, which is
    /// indistinguishable from a torn write; a flip in the magic makes the
    /// file not this format at all.
    #[test]
    fn every_single_bit_flip_is_detected_and_yields_an_untouched_prefix() {
        let payloads = payloads();
        let (full, ends) = image_v1(&payloads);
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

    /// v1: a complete frame that fails validation is corruption (refuse by
    /// default); a frame running past EOF is a torn write (truncatable).
    #[test]
    fn corrupt_versus_torn_classification() {
        let payloads = payloads();
        let (prefix, ends) = image_v1(&payloads[..2]);
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

    /// v2: an all-zero remainder after the valid prefix is `Clean`, however
    /// much room there is (none included), and the prefix ends at the last
    /// trailer.
    #[test]
    fn an_all_zero_remainder_reads_clean() {
        let payloads = payloads();
        let (full, ends) = image_v2(&payloads, &BATCHES);
        for room in [0, 1, FRAME_HEADER - 1, TRAILER, 4096] {
            let image = [&full[..], &vec![0; room]].concat();
            assert_eq!(collect(&image).unwrap(), (payloads.clone(), Tail::Clean));
            assert_eq!(prefix_len(&TEST, &image).unwrap(), full.len() as u64);
        }
        // A fresh log: the magic and its room.
        let fresh = [&TEST.magic[..], &[0; 64]].concat();
        assert_eq!(collect(&fresh).unwrap(), (Vec::new(), Tail::Clean));
        assert_eq!(prefix_len(&TEST, &fresh).unwrap(), MAGIC_LEN as u64);
        assert_eq!(ends[0], MAGIC_LEN);
    }

    /// v2, the crash model: a batch write cut at ANY byte, the room's
    /// zeros behind it, reads `Torn` at the batch's start and hands out
    /// only the batches before it — but for a cut at its start (nothing
    /// landed) or its end (everything did), which are clean stops.
    #[test]
    fn every_byte_cut_of_the_final_batch_reads_torn() {
        let payloads = payloads();
        let (full, ends) = image_v2(&payloads, &BATCHES);
        let start = ends[ends.len() - 2];
        for cut in start..=full.len() {
            let mut image = full[..cut].to_vec();
            image.resize(full.len() + 64, 0);
            let (seen, tail) = collect(&image).unwrap();
            let clean = cut == start || cut == full.len();
            let whole = frames_through(BATCHES.len() - usize::from(cut < full.len()));
            assert_eq!(seen, payloads[..whole], "cut at {cut}");
            let expect = if clean {
                Tail::Clean
            } else {
                Tail::Torn {
                    valid_len: start as u64,
                }
            };
            assert_eq!(tail, expect, "cut at {cut}");
        }
    }

    /// v2. Property: EVERY single-bit flip — in any frame, in the final
    /// frame, in any trailer, in the room — is detected, never `Clean`,
    /// and hands out only whole batches before it, untouched. A flip in a
    /// batch is `Corrupt`: a later intact trailer shows the batch was
    /// written whole, and a trailer's own rot keeps its marker, which no
    /// cut leaves. The one `Torn` case is a flip in the room: a set bit
    /// there is what a batch write cut after its first bytes leaves, and
    /// the valid prefix keeps every batch. A flip in the magic makes the
    /// file not this format.
    #[test]
    fn every_single_bit_flip_of_a_v2_log_is_detected() {
        let payloads = payloads();
        let (full, ends) = image_v2(&payloads, &BATCHES);
        let image = [&full[..], &[0; 2 * TRAILER]].concat();
        for bit in 0..image.len() * 8 {
            let mut damaged = image.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            if bit / 8 < MAGIC_LEN {
                let err = collect(&damaged).unwrap_err();
                assert_eq!(err.kind(), ErrorKind::InvalidData, "flip at bit {bit}");
                continue;
            }
            let (seen, tail) = collect(&damaged).unwrap();
            let batch = ends.iter().filter(|&&e| e <= bit / 8).count() - 1;
            let valid_len = ends[batch] as u64;
            assert_eq!(seen, payloads[..frames_through(batch)], "flip at bit {bit}");
            let expect = if bit / 8 >= full.len() {
                Tail::Torn { valid_len }
            } else {
                Tail::Corrupt { valid_len }
            };
            assert_eq!(tail, expect, "flip at bit {bit}");
        }
    }

    /// v2: damage the crash model cannot explain is corruption even in
    /// the final batch; a payload the owner rejects ends the prefix at
    /// its frame, and `truncate` closes the frames kept before it.
    #[test]
    fn v2_corrupt_versus_torn_and_owner_rejection() {
        let payloads = payloads();
        let (prefix, ends) = image_v2(&payloads[..2], &[2]);
        let valid_len = ends[1] as u64;
        let with = |tail: &[u8]| [&prefix[..], tail, &[0; 64]].concat();
        let batch = |seq: u64, p: &[u8], count: u64| {
            let mut out = Vec::new();
            push_frame(&mut out, seq, p);
            push_trailer(&mut out, count);
            out
        };
        // Closed by an intact trailer: out of sequence, over the cap, or a
        // trailer that counts wrong.
        let mut over_cap = Vec::new();
        push_frame(&mut over_cap, 2, &[0; TEST.max_payload + 1]);
        push_trailer(&mut over_cap, 3);
        for (what, tail) in [
            ("seq", batch(3, &payloads[2], 4)),
            ("cap", over_cap),
            ("count", batch(2, &payloads[2], 4)),
        ] {
            let (seen, class) = collect(&with(&tail)).unwrap();
            assert_eq!(seen, payloads[..2], "{what}");
            assert_eq!(class, Tail::Corrupt { valid_len }, "{what}");
        }
        // A whole frame with no trailer behind it: never acked.
        let mut open = Vec::new();
        push_frame(&mut open, 2, &payloads[2]);
        let (seen, class) = collect(&with(&open)).unwrap();
        assert_eq!(seen, payloads[..2]);
        assert_eq!(class, Tail::Torn { valid_len });

        // The owner rejects frame 1 of the first batch: frame 0 is handed
        // out, and the prefix ends where frame 1 starts.
        let dir = tmp_dir("reject");
        let path = dir.join("test.log");
        let (image, _) = image_v2(&payloads, &BATCHES);
        std::fs::write(&path, [&image[..], &[0; 64]].concat()).unwrap();
        let (frames, tail) = read(&path, &TEST, |seq, _| seq < 1).unwrap();
        let frame_1 = MAGIC_LEN + FRAME_HEADER + payloads[0].len();
        assert_eq!(
            (frames, tail),
            (
                1,
                Tail::Corrupt {
                    valid_len: frame_1 as u64
                }
            )
        );
        truncate(&path, &TEST, frame_1 as u64).unwrap();
        assert_eq!(
            collect(&std::fs::read(&path).unwrap()).unwrap().0,
            payloads[..1]
        );
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        assert_eq!(w.frames(), 1);
        w.append(&payloads[1]).unwrap();
        assert_eq!(
            collect(&std::fs::read(&path).unwrap()).unwrap().0,
            payloads[..2]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_resumes_refuses_damage_and_truncate_heals_it() {
        let dir = tmp_dir("writer");
        let path = dir.join("test.log");
        let payloads = payloads();
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        assert_eq!(w.room(), ROOM_CHUNK - MAGIC_LEN as u64);
        w.append(&payloads[0]).unwrap();
        let file = w.append_deferred(&payloads[1]).unwrap();
        file.sync_data().unwrap();
        // Staged frames reach the file only with the flush, in one batch.
        w.stage(&payloads[2]).unwrap();
        w.stage(&payloads[3]).unwrap();
        assert_eq!((w.frames(), w.staged_frames()), (2, 2));
        let on_disk = || std::fs::read(&path).unwrap();
        let prefix = |n: usize| on_disk()[..n].to_vec();
        let (two, _) = image_v2(&payloads[..2], &[1, 1]);
        assert_eq!(prefix(two.len()), two);
        assert_eq!(
            collect(&on_disk()).unwrap(),
            (payloads[..2].to_vec(), Tail::Clean)
        );
        w.flush().unwrap();
        assert_eq!((w.frames(), w.staged_frames()), (4, 0));
        // An over-cap payload is refused before it touches anything.
        let err = w.append(&[0; TEST.max_payload + 1]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        drop(w);

        // Re-opening positions the writer at the valid prefix, not at EOF.
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        assert_eq!(w.frames(), 4);
        w.append(&payloads[4]).unwrap();
        drop(w);
        let (full, _) = image_v2(&payloads, &[1, 1, 2, 1]);
        assert_eq!(on_disk().len() as u64, ROOM_CHUNK, "the room was used");
        assert_eq!(prefix(full.len()), full);
        assert!(on_disk()[full.len()..].iter().all(|&b| b == 0));

        // A damaged tail refuses the writer until the caller cuts it, and
        // the cut re-zeroes what it drops: the room survives.
        let mut torn = on_disk();
        torn[full.len()..full.len() + 5].copy_from_slice(&full[MAGIC_LEN..MAGIC_LEN + 5]);
        std::fs::write(&path, &torn).unwrap();
        assert!(FramedWriter::open(&path, &TEST, true).is_err());
        let (_, tail) = read(&path, &TEST, |_, _| true).unwrap();
        assert_eq!(tail.valid_len(), Some(full.len() as u64));
        truncate(&path, &TEST, tail.valid_len().unwrap()).unwrap();
        assert_eq!(on_disk().len() as u64, ROOM_CHUNK);
        assert_eq!(prefix(full.len()), full);
        assert_eq!(FramedWriter::open(&path, &TEST, true).unwrap().frames(), 5);

        // A file of another format is refused and left as it is.
        std::fs::write(&path, b"APEXTST0 whatever").unwrap();
        assert!(FramedWriter::open(&path, &TEST, true).is_err());
        assert!(read(&path, &TEST, |_, _| true).is_err());
        assert_eq!(on_disk(), b"APEXTST0 whatever");
        // A missing file reads as a fresh log.
        let fresh = read(&dir.join("nope.log"), &TEST, |_, _| true).unwrap();
        assert_eq!(fresh, (0, Tail::Clean));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the gain rests on: appends inside the room never change the
    /// file's length, so a sync carries data only; a batch that outgrows
    /// the room grows the file by whole chunks, once.
    #[test]
    fn appends_within_the_room_keep_the_length_and_growth_is_by_chunk() {
        let dir = tmp_dir("room");
        let path = dir.join("test.log");
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        let len = || std::fs::metadata(&path).unwrap().len();
        assert_eq!(len(), ROOM_CHUNK);
        let record = [7u8; 32];
        let per = (FRAME_HEADER + record.len() + TRAILER) as u64;
        let fit = w.room() / per;
        for n in 1..=fit {
            w.append(&record).unwrap();
            assert_eq!(len(), ROOM_CHUNK, "append {n} changed the length");
            assert_eq!(w.room(), ROOM_CHUNK - MAGIC_LEN as u64 - n * per);
        }
        w.append(&record).unwrap();
        assert_eq!(len(), 2 * ROOM_CHUNK);
        assert_eq!(w.frames(), fit + 1);
        drop(w);
        let mut count = 0;
        let read = read(&path, &TEST, |_, p| {
            count += 1;
            p == record
        });
        assert_eq!(read.unwrap(), (fit + 1, Tail::Clean));
        assert_eq!(count, fit + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A scan reads a v2 log without its room — but a byte behind the
    /// room still counts, and reads as damage.
    #[test]
    fn reading_skips_the_room_but_not_what_lies_behind_it() {
        let dir = tmp_dir("room-read");
        let path = dir.join("test.log");
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        w.append(b"acked").unwrap();
        let end = w.end;
        drop(w);
        let (bytes, len) = read_log(&path, &TEST).unwrap();
        assert_eq!(len, ROOM_CHUNK);
        assert!(bytes.len() <= 16 << 10, "the room was kept");
        assert_eq!(read(&path, &TEST, |_, _| true).unwrap(), (1, Tail::Clean));

        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[1], ROOM_CHUNK - 1).unwrap();
        let (bytes, _) = read_log(&path, &TEST).unwrap();
        assert_eq!(bytes, std::fs::read(&path).unwrap());
        let torn = Tail::Torn { valid_len: end };
        assert_eq!(read(&path, &TEST, |_, _| true).unwrap(), (1, torn));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A v1 log still reads, and a writer opening it rewrites it as v2:
    /// the same frames, closed by one trailer, with room behind them.
    #[test]
    fn a_v1_log_reads_and_is_rewritten_as_v2_when_a_writer_opens_it() {
        let dir = tmp_dir("upgrade");
        let path = dir.join("test.log");
        let payloads = payloads();
        let (v1, _) = image_v1(&payloads[..3]);
        std::fs::write(&path, &v1).unwrap();
        assert_eq!(collect(&v1).unwrap(), (payloads[..3].to_vec(), Tail::Clean));
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        assert_eq!(w.frames(), 3);
        w.append(&payloads[3]).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let (v2, _) = image_v2(&payloads[..4], &[3, 1]);
        assert_eq!(bytes[..v2.len()], v2);
        assert_eq!(bytes.len(), v1.len() + TRAILER + ROOM_CHUNK as usize);
        assert!(!dir.join("test.tmp").exists());
        // A torn v1 tail is cut, not zeroed: v1 has no room.
        std::fs::write(&path, &v1[..v1.len() - 3]).unwrap();
        let (_, tail) = read(&path, &TEST, |_, _| true).unwrap();
        truncate(&path, &TEST, tail.valid_len().unwrap()).unwrap();
        assert_eq!(
            collect(&std::fs::read(&path).unwrap()).unwrap().0,
            payloads[..2]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The failure discipline, driven for real: the log file is swapped
    /// for `/dev/full`, so the write fails with ENOSPC — and the rollback
    /// re-zeroing fails too, which must poison the writer: every later
    /// append errors, staged or not.
    #[test]
    fn a_failed_append_that_cannot_be_rolled_back_poisons_the_writer() {
        let dir = tmp_dir("full");
        let mut w = FramedWriter::open(&dir.join("test.log"), &TEST, true).unwrap();
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

    /// …and when the rollback works, the partial batch a failed write
    /// left behind is re-zeroed, so the next acked append is not stranded
    /// behind it. (The leftovers are forged through a second handle —
    /// nothing in the sandbox makes a regular-file write fail halfway;
    /// the rollback is the writer's own.)
    #[test]
    fn rollback_cuts_a_partial_frame_so_the_next_append_is_not_stranded() {
        let dir = tmp_dir("rollback");
        let path = dir.join("test.log");
        let mut w = FramedWriter::open(&path, &TEST, true).unwrap();
        w.append(b"acked").unwrap();
        let good = std::fs::read(&path).unwrap();
        let second = OpenOptions::new().write(true).open(&path).unwrap();
        second.write_all_at(&[0xAB; 7], w.end).unwrap();
        let valid_len = w.end;
        let torn = read(&path, &TEST, |_, _| true).unwrap();
        assert_eq!(torn, (1, Tail::Torn { valid_len }));

        w.roll_back(7);
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
        assert_eq!(read_atomic(&path, &ATOMIC).unwrap(), None);
        write_atomic(&path, &ATOMIC, b"one").unwrap();
        write_atomic(&path, &ATOMIC, b"two, replacing one").unwrap();
        assert_eq!(
            read_atomic(&path, &ATOMIC).unwrap().unwrap(),
            b"two, replacing one"
        );
        assert!(!dir.join("state.tmp").exists(), "the temp file was renamed");
        assert!(write_atomic(&path, &ATOMIC, &[0; ATOMIC.max_payload + 1]).is_err());

        let good = std::fs::read(&path).unwrap();
        let refused = |bytes: &[u8], what: String| {
            std::fs::write(&path, bytes).unwrap();
            let err = read_atomic(&path, &ATOMIC).expect_err(&what);
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
