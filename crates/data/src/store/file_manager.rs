//! Raw page I/O plus the atomic-rename manifest.
//!
//! One store directory holds exactly one page file:
//!
//! ```text
//! <dir>/pages.dat      page_no-indexed array of PAGE_SIZE pages
//! <dir>/manifest.bin   commit point ([`framed::write_atomic`] file)
//! ```
//!
//! The manifest is what makes writes atomic without a WAL of its own:
//! pages are written and fsynced first, then the manifest — carrying the
//! page count they extend the file to — atomically replaces the old one
//! (temp file, fsync, rename). A crash at any point leaves either the
//! old manifest (new pages exist but are outside coverage — never served)
//! or the new one (pages are complete and fsynced). A torn final page can
//! therefore only ever sit *beyond* manifest coverage.

use super::framed::{self, Format};
use super::page::{self, PAGE_SIZE};
use super::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Bump (with the manifest magic's last byte) when the page or manifest
/// layout changes incompatibly. Version 2 moved the manifest onto the
/// framed atomic-replace file.
pub const FORMAT_VERSION: u32 = 2;

/// The manifest is read whole, so the cap only has to fit the frame's
/// `u32` length (a page table is 4 bytes per page).
const MANIFEST_FORMAT: Format = Format {
    magic: b"APEXDST2",
    v1_magic: None,
    max_payload: 1 << 30,
};
const PAGES_FILE: &str = "pages.dat";
const MANIFEST_FILE: &str = "manifest.bin";
/// Manifest payload bytes before the opaque part:
/// `format_version:u32 epoch:u64 page_count:u32 record_count:u64`.
const MANIFEST_FIXED: usize = 24;

/// Sentinel meaning "no committed manifest is being tracked" — the state
/// during an initial ingest, before the first commit.
const UNTRACKED: u64 = u64::MAX;

/// Page-granular I/O over `<dir>/pages.dat`.
///
/// All methods take `&self`; the file handle sits behind a mutex because
/// seek+read is two steps. Callers (the buffer pool) already serialize
/// the miss path, so this lock is uncontended in practice.
///
/// ## Epoch tracking (the mutation commit point)
///
/// A manager can *track* its committed manifest: the epoch and the page
/// coverage the last committed manifest promised. [`FileManager::bump_epoch`]
/// is then the **single commit point** for every mutation — it writes the
/// manifest atomically and advances the tracked state in one step. While
/// tracking, two copy-on-write invariants are asserted (debug builds):
///
/// * [`FileManager::read_page`] only serves pages inside committed
///   coverage — an open handle can never observe a page image that a
///   *different* epoch's manifest covers, because
/// * [`FileManager::write_page`] refuses to overwrite a committed page:
///   mutations may only write fresh pages beyond coverage, which become
///   readable exactly when `bump_epoch` extends coverage over them.
pub struct FileManager {
    file: Mutex<File>,
    dir: PathBuf,
    /// Epoch of the last committed manifest ([`UNTRACKED`] when not
    /// tracking).
    committed_epoch: AtomicU64,
    /// Page coverage of the last committed manifest.
    committed_pages: AtomicU32,
}

impl std::fmt::Debug for FileManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileManager")
            .field("dir", &self.dir)
            .finish()
    }
}

impl FileManager {
    /// Creates (or truncates) the page file in `dir`, creating `dir` first.
    pub fn create(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(PAGES_FILE))?;
        Ok(Self {
            file: Mutex::new(file),
            dir: dir.to_path_buf(),
            committed_epoch: AtomicU64::new(UNTRACKED),
            committed_pages: AtomicU32::new(0),
        })
    }

    /// Opens an existing page file in `dir`.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(PAGES_FILE))?;
        Ok(Self {
            file: Mutex::new(file),
            dir: dir.to_path_buf(),
            committed_epoch: AtomicU64::new(UNTRACKED),
            committed_pages: AtomicU32::new(0),
        })
    }

    /// Starts tracking the committed manifest state (epoch + coverage) so
    /// the copy-on-write assertions engage. Called by the dataset store
    /// right after it loads or writes a manifest.
    pub fn track_committed(&self, epoch: u64, page_coverage: u32) {
        debug_assert_ne!(epoch, UNTRACKED);
        self.committed_pages.store(page_coverage, Ordering::SeqCst);
        self.committed_epoch.store(epoch, Ordering::SeqCst);
    }

    /// Epoch of the last committed manifest, when tracking.
    pub fn committed_epoch(&self) -> Option<u64> {
        match self.committed_epoch.load(Ordering::SeqCst) {
            UNTRACKED => None,
            e => Some(e),
        }
    }

    /// The single mutation commit point: atomically replaces the manifest
    /// ([`Manifest::write`]) and advances the tracked
    /// committed state to its epoch and coverage. Fresh pages written
    /// beyond the previous coverage become servable exactly here — never
    /// before — so a reader can never pair an old manifest with a new
    /// page image or vice versa.
    ///
    /// # Errors
    /// Propagates manifest I/O failures; the tracked state only advances
    /// on success.
    pub fn bump_epoch(&self, manifest: &Manifest) -> Result<(), StoreError> {
        if let Some(committed) = self.committed_epoch() {
            debug_assert!(
                manifest.epoch > committed,
                "bump_epoch must advance the epoch ({} -> {})",
                committed,
                manifest.epoch
            );
        }
        manifest.write(&self.dir)?;
        self.track_committed(manifest.epoch, manifest.page_count);
        Ok(())
    }

    /// The directory this manager serves.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current size of the page file in bytes.
    pub fn len_bytes(&self) -> Result<u64, StoreError> {
        let file = self.file.lock().expect("file lock");
        Ok(file.metadata()?.len())
    }

    /// Reads and verifies page `page_no` into `buf` (must be PAGE_SIZE).
    ///
    /// A short read (the page lies past EOF or the file was truncated
    /// mid-page) is reported as corruption, not EOF: the caller only asks
    /// for pages the manifest promised.
    pub fn read_page(&self, page_no: u32, buf: &mut [u8]) -> Result<u32, StoreError> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        debug_assert!(
            self.committed_epoch.load(Ordering::SeqCst) == UNTRACKED
                || page_no < self.committed_pages.load(Ordering::SeqCst),
            "read of page {page_no} outside committed coverage \
             (epoch {}): a handle may only observe pages its manifest covers",
            self.committed_epoch.load(Ordering::SeqCst),
        );
        {
            let mut file = self.file.lock().expect("file lock");
            file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))?;
            if let Err(e) = file.read_exact(buf) {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    return Err(StoreError::CorruptPage {
                        page_no,
                        detail: "short read: page truncated or past EOF".into(),
                    });
                }
                return Err(e.into());
            }
        }
        page::verify(buf, page_no)
    }

    /// Seals `buf` (stamps `page_no`, recomputes the checksum over its
    /// current contents — the length field must already be set) and writes
    /// it at page offset `page_no`. Does **not** sync.
    pub fn write_page(&self, page_no: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        debug_assert!(
            self.committed_epoch.load(Ordering::SeqCst) == UNTRACKED
                || page_no >= self.committed_pages.load(Ordering::SeqCst),
            "copy-on-write violation: overwrite of committed page {page_no} \
             (epoch {})",
            self.committed_epoch.load(Ordering::SeqCst),
        );
        page::seal(buf, page_no);
        let mut file = self.file.lock().expect("file lock");
        file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))?;
        file.write_all(buf)?;
        Ok(())
    }

    /// Fsyncs the page file.
    pub fn sync(&self) -> Result<(), StoreError> {
        let file = self.file.lock().expect("file lock");
        file.sync_data()?;
        Ok(())
    }
}

/// The store's commit record.
///
/// `payload` is opaque to the file manager: the dataset store puts the
/// encoded schema there, the transcript log leaves it empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// On-disk format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Dataset epoch: bumped when a tenant's data is re-ingested, so a
    /// stale directory is distinguishable from the current generation.
    pub epoch: u64,
    /// Pages covered by this manifest. Bytes beyond
    /// `page_count * PAGE_SIZE` are uncommitted and never served.
    pub page_count: u32,
    /// Logical records (rows for a dataset, entries for a log).
    pub record_count: u64,
    /// Opaque payload (encoded schema for datasets).
    pub payload: Vec<u8>,
}

impl Manifest {
    /// Whether `dir` holds a manifest (i.e. a committed store).
    pub fn exists(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    /// Writes the manifest atomically ([`framed::write_atomic`]). This is
    /// the commit point for everything `page_count` covers.
    pub fn write(&self, dir: &Path) -> Result<(), StoreError> {
        let mut out = Vec::with_capacity(MANIFEST_FIXED + self.payload.len());
        out.extend_from_slice(&self.format_version.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.page_count.to_le_bytes());
        out.extend_from_slice(&self.record_count.to_le_bytes());
        out.extend_from_slice(&self.payload);
        framed::write_atomic(&dir.join(MANIFEST_FILE), &MANIFEST_FORMAT, &out)?;
        Ok(())
    }

    /// Loads and verifies the manifest in `dir`.
    ///
    /// The whole file is covered: a wrong magic (e.g. a previous format's
    /// `APEXDST1`), a checksum mismatch, a truncated byte or a trailing
    /// byte all fail. Version skew is reported distinctly so operators can
    /// tell corruption from one build reading another's directory.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let corrupt = |m: String| StoreError::CorruptManifest(m);
        let body = framed::read_atomic(&dir.join(MANIFEST_FILE), &MANIFEST_FORMAT)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::InvalidData => corrupt(e.to_string()),
                _ => StoreError::Io(e),
            })?
            .ok_or_else(|| corrupt("manifest missing".into()))?;
        let Some((fixed, payload)) = body.split_at_checked(MANIFEST_FIXED) else {
            return Err(corrupt("header truncated".into()));
        };
        let format_version = u32::from_le_bytes(fixed[0..4].try_into().expect("4 bytes"));
        if format_version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {format_version} (this build reads {FORMAT_VERSION})"
            )));
        }
        Ok(Self {
            format_version,
            epoch: u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes")),
            page_count: u32::from_le_bytes(fixed[12..16].try_into().expect("4 bytes")),
            record_count: u64::from_le_bytes(fixed[16..24].try_into().expect("8 bytes")),
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::page::{set_len, PAGE_HEADER};
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apex-fm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_manifest() -> Manifest {
        Manifest {
            format_version: FORMAT_VERSION,
            epoch: 42,
            page_count: 3,
            record_count: 1000,
            payload: b"schema-bytes".to_vec(),
        }
    }

    #[test]
    fn page_write_read_round_trip() {
        let dir = tmp_dir("rw");
        let fm = FileManager::create(&dir).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[PAGE_HEADER..PAGE_HEADER + 4].copy_from_slice(b"data");
        set_len(&mut buf, 4);
        fm.write_page(2, &mut buf).unwrap();
        fm.sync().unwrap();

        let mut back = vec![0u8; PAGE_SIZE];
        assert_eq!(fm.read_page(2, &mut back).unwrap(), 4);
        assert_eq!(&back[PAGE_HEADER..PAGE_HEADER + 4], b"data");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reading_past_eof_is_corruption_not_panic() {
        let dir = tmp_dir("eof");
        let fm = FileManager::create(&dir).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            fm.read_page(9, &mut buf),
            Err(StoreError::CorruptPage { page_no: 9, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tmp_dir("manifest");
        let m = demo_manifest();
        m.write(&dir).unwrap();
        assert!(Manifest::exists(&dir));
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The committed manifest's file image, and the path it lives at.
    fn written_manifest(tag: &str) -> (PathBuf, PathBuf, Vec<u8>) {
        let dir = tmp_dir(tag);
        demo_manifest().write(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).unwrap();
        (dir, path, bytes)
    }

    #[test]
    fn every_manifest_bit_flip_is_detected() {
        let (dir, path, bytes) = written_manifest("mflip");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                std::fs::write(&path, &flipped).unwrap();
                assert!(
                    matches!(Manifest::load(&dir), Err(StoreError::CorruptManifest(_))),
                    "manifest flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_manifest_truncation_is_detected() {
        let (dir, path, bytes) = written_manifest("mtrunc");
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                Manifest::load(&dir).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        // Trailing garbage is also rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        std::fs::write(&path, &extended).unwrap();
        assert!(Manifest::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bump_epoch_commits_manifest_and_advances_tracking() {
        let dir = tmp_dir("bump");
        let fm = FileManager::create(&dir).unwrap();
        assert_eq!(fm.committed_epoch(), None);
        let mut m = demo_manifest();
        m.epoch = 1;
        m.page_count = 2;
        fm.bump_epoch(&m).unwrap();
        assert_eq!(fm.committed_epoch(), Some(1));
        assert_eq!(Manifest::load(&dir).unwrap().epoch, 1);
        m.epoch = 2;
        m.page_count = 3;
        fm.bump_epoch(&m).unwrap();
        assert_eq!(fm.committed_epoch(), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn overwriting_a_committed_page_is_a_cow_violation() {
        let dir = tmp_dir("cowwrite");
        let fm = FileManager::create(&dir).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        set_len(&mut buf, 0);
        fm.write_page(0, &mut buf).unwrap();
        fm.sync().unwrap();
        let mut m = demo_manifest();
        m.epoch = 1;
        m.page_count = 1;
        fm.bump_epoch(&m).unwrap();
        // Fresh pages beyond coverage are fine…
        fm.write_page(1, &mut buf).unwrap();
        // …but rewriting the committed page 0 trips the assertion.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = vec![0u8; PAGE_SIZE];
            set_len(&mut buf, 0);
            let _ = fm.write_page(0, &mut buf);
        }));
        assert!(err.is_err(), "committed-page overwrite went unasserted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn reading_outside_committed_coverage_is_asserted() {
        let dir = tmp_dir("cowread");
        let fm = FileManager::create(&dir).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        set_len(&mut buf, 0);
        fm.write_page(0, &mut buf).unwrap();
        fm.write_page(1, &mut buf).unwrap(); // beyond what we will commit
        fm.sync().unwrap();
        let mut m = demo_manifest();
        m.epoch = 1;
        m.page_count = 1;
        fm.bump_epoch(&m).unwrap();
        let mut back = vec![0u8; PAGE_SIZE];
        fm.read_page(0, &mut back).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut back = vec![0u8; PAGE_SIZE];
            let _ = fm.read_page(1, &mut back);
        }));
        assert!(err.is_err(), "out-of-coverage read went unasserted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_format_version_is_rejected_distinctly() {
        let dir = tmp_dir("future");
        let mut m = demo_manifest();
        m.format_version = FORMAT_VERSION + 1;
        m.write(&dir).unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert!(err.to_string().contains("format version"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
