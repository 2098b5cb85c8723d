//! Durable paged dataset store: file manager + buffer pool.
//!
//! Tenant datasets start life in memory (synthesized by [`crate::synth`])
//! but a real deployment cannot afford to re-synthesize every tenant at
//! boot, nor to hold every tenant resident. This module provides the
//! storage layer underneath [`crate::Dataset`]:
//!
//! * [`page`] — the fixed-size page format. Every page carries a CRC32
//!   over *all* bytes after the checksum field, so any single-bit flip
//!   anywhere in the page — header, payload or padding — is detected at
//!   read time.
//! * [`framed`] — the one durable-file primitive for everything that is
//!   not a page: the CRC-framed append-only log (frame, tail classes,
//!   writer failure discipline) and the checksummed atomic-replace file.
//!   The service WAL and snapshot in `apex-serve` are built on it too.
//! * [`FileManager`] — raw page I/O over a `pages.dat` file plus the
//!   atomic-replace manifest (`manifest.bin`) carrying a format version,
//!   dataset epoch, page/row counts and the encoded schema. The manifest
//!   is the commit point: pages beyond its coverage (e.g. a torn final
//!   append) are never served.
//! * [`BufferPool`] — fixed-capacity frame cache with pin counts, clock
//!   eviction, dirty-page write-back and hit/miss/eviction counters.
//!   Pinned frames are never evicted; dirty frames are flushed (re-sealed
//!   with a fresh checksum) before their frame is reused.
//! * [`PagedRows`] — a dataset's row file: `ingest` packs validated rows
//!   into pages through the pool and commits a manifest; `open` verifies
//!   the manifest and serves rows lazily page-by-page.
//! * [`TranscriptLog`] — a framed log the service persists per-tenant
//!   query transcripts in, for audit replay; appends wait in memory for
//!   the next flush.
//! * [`MutationLog`] — a framed intent log for live row mutations, a
//!   mutation's one durable record. Append + fsync is the ack; both
//!   backings drive it through one `DatasetLog`. [`PagedRows`] folds
//!   acked records into fresh (copy-on-write) pages and commits them by
//!   bumping the manifest epoch, so replay-after-crash yields exactly the
//!   acked mutations; a resident [`crate::Dataset`] replays its log over
//!   its base when the log is attached.
//!
//! Lock order inside the pool is strictly `meta -> frame`; see
//! `buffer_pool.rs` for the discipline. The miss path (disk read) is
//! serialized under the pool's meta lock; the hit path only touches it
//! briefly, which is the case the pool optimizes for.

pub mod buffer_pool;
pub mod codec;
pub mod file_manager;
pub mod framed;
pub mod mutation_log;
pub mod page;
pub mod paged;
pub mod transcript_log;

pub use buffer_pool::{BufferPool, PoolStats};
pub use file_manager::{FileManager, Manifest, FORMAT_VERSION};
pub(crate) use mutation_log::DatasetLog;
pub use mutation_log::{MutationLog, MutationOp, MutationRecord, MUTATION_LOG_FILE};
pub use page::{crc32, PAGE_CAPACITY, PAGE_HEADER, PAGE_SIZE};
pub use paged::{widen_schema, MutationOutcome, PagedRows};
pub use transcript_log::TranscriptLog;

use crate::SchemaError;

/// Errors surfaced by the storage layer.
///
/// Corruption variants are deliberately specific: the fault-injection gate
/// asserts that flips and truncations map to a corruption error rather
/// than being silently served.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A page failed its checksum or carried the wrong page number.
    CorruptPage {
        /// Page index that failed verification.
        page_no: u32,
        /// What went wrong.
        detail: String,
    },
    /// The manifest is missing, malformed, or failed its checksum.
    CorruptManifest(String),
    /// `pages.dat` is shorter than the manifest says it must be.
    Truncated {
        /// Pages the manifest promises.
        expected_pages: u32,
        /// Bytes actually present.
        actual_bytes: u64,
    },
    /// The mutation log's valid prefix and the manifest's applied-count
    /// disagree. Fewer records than `applied` means acked history is
    /// missing — and a log restarted below `applied` would have its next
    /// acked records skipped as already applied.
    LogOutOfStep {
        /// Records the manifest folded into the pages.
        applied: u64,
        /// Records the log's valid prefix holds.
        logged: u64,
    },
    /// Every buffer-pool frame is pinned; nothing can be evicted.
    AllPinned,
    /// Row/record/schema (de)serialization failure.
    Codec(String),
    /// A mutation's rows do not fit the schema or a page: the caller's
    /// input, refused before anything is logged.
    Rejected(SchemaError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::CorruptPage { page_no, detail } => {
                write!(f, "corrupt page {page_no}: {detail}")
            }
            StoreError::CorruptManifest(m) => write!(f, "corrupt manifest: {m}"),
            StoreError::Truncated {
                expected_pages,
                actual_bytes,
            } => write!(
                f,
                "page file truncated: manifest promises {expected_pages} pages, \
                 file holds {actual_bytes} bytes"
            ),
            StoreError::LogOutOfStep { applied, logged } => write!(
                f,
                "mutation log out of step with the manifest: the manifest applied \
                 {applied} records, the log's valid prefix holds {logged}"
            ),
            StoreError::AllPinned => write!(f, "buffer pool exhausted: all frames pinned"),
            StoreError::Codec(m) => write!(f, "codec error: {m}"),
            StoreError::Rejected(e) => write!(f, "mutation rejected: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
