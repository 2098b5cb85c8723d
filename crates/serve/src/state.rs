//! Server-side registry: tenant datasets, their shared engines, the one
//! shared translator cache, live analyst sessions — and the durability
//! layer that makes the budget ledger survive restarts.
//!
//! One [`ServerState`] owns everything a request handler needs. Each
//! tenant dataset gets its own [`SharedEngine`] (its own privacy budget
//! `B`, transcript, and noise stream); all engines share **one**
//! LRU-bounded [`TranslatorCache`] through per-tenant *scopes*
//! ([`TranslatorCache::scoped`]), so `/v1/stats` can attribute hits and
//! misses per dataset while the storage — and the warm-up — is global.
//! Sharing is sound because cached artifacts are data-independent (see
//! `apex_mech::cache`).
//!
//! Sessions are budget slices ([`apex_core::EngineSession`]): a session
//! may spend at most its allowance, and all sessions of a tenant jointly
//! at most that tenant's `B`, no matter how requests interleave across
//! worker threads.
//!
//! ## Durability
//!
//! With persistence configured ([`ServerStateBuilder::build_recovered`]),
//! every budget-mutating event — session open, budget debit, denial,
//! session close — is appended to the WAL ([`crate::wal`]) **before the
//! client is acked**, and the WAL is periodically compacted into a
//! snapshot ([`crate::snapshot`]). Recovery replays WAL-over-snapshot:
//! a restart re-imposes spent budget on fresh engines
//! ([`SharedEngine::import_ledger`]) and re-opens live sessions
//! mid-slice.
//!
//! Submissions are **two-phase** ([`EngineSession::evaluate`] +
//! [`EngineSession::commit_with`]): the mechanism evaluates with *no*
//! gate or engine lock held, and the *ledger gate* (an outermost
//! `RwLock`, shared side) covers only the commit point — admission
//! re-check, WAL append, charge — so compaction (exclusive side) drains
//! in microseconds instead of waiting out the slowest in-flight query,
//! and a snapshot still can never split an event between itself and the
//! next WAL generation (which would double-count on replay). At the
//! commit point the append happens **before** the charge: a failed
//! append leaves both ledgers untouched (durable-or-nothing — in-memory
//! `spent` can never run ahead of what recovery will reconstruct), and a
//! crash between append and charge recovers a charge nobody was acked,
//! the safe direction.
//!
//! ## TTLs
//!
//! Sessions carry a last-activity tick from an injectable [`Clock`];
//! [`ServerState::reap_expired`] (driven by [`start_reaper`] in
//! production, or called directly in tests) closes sessions idle past
//! the TTL. In-flight submissions **pin** their session: the reaper
//! skips a pinned session however stale its tick, and the tick is
//! re-stamped when the submission completes — a query slower than the
//! TTL can never have its session reaped underneath it (an *admin*
//! expiry is still forceful; the in-flight commit then observes the
//! close and denies without charging). Closing releases the **unspent
//! remainder of the slice exactly once** back to the tenant's grant
//! pool (visible as `reclaimed` in `/v1/stats`), and the session id
//! keeps answering `410 Gone` — distinct from 404 — for the rest of the
//! server's life.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use apex_core::{
    ApexEngine, CommitError, EngineConfig, EngineError, EngineResponse, EngineSession,
    SharedEngine, TranslatorCache,
};
use apex_data::store::TranscriptLog;
use apex_data::{Dataset, PoolStats, StoreError};
use apex_query::{AccuracySpec, ExplorationQuery};

use crate::clock::{Clock, SystemClock};
use crate::snapshot::{self, MutationImage, SessionImage, Snapshot, TenantLedger};
use crate::wal::{self, WalRecord, WalTail, WalWriter};

/// Explicit poison recovery for the std locks guarding server state.
///
/// A panic while one of these locks is held (a handler bug, a simulated
/// crash from the schedule exerciser) poisons it; unwrapping the poison
/// would then turn **every later request on the shard** into a panic
/// cascade — one bad request taking down a whole shard's traffic.
///
/// Recovering the guard and continuing is safe here because the
/// durability discipline never trusts these critical sections to be
/// atomic in memory: the WAL append happens *before* the ledger charge,
/// every map mutation is a single `HashMap` insert/remove (no
/// two-field states a panic can tear), and a section that died between
/// append and charge merely leaves a durable record no ack references —
/// recovery counts it, the safe direction. The budget invariants
/// (spent ≤ B, append-before-ack) hold at every panic point, so the
/// data under the lock is always consistent enough to keep serving; the
/// schedule exerciser's crash-then-continue test proves it.
pub(crate) mod lockx {
    use std::sync::{
        Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
        WaitTimeoutResult,
    };
    use std::time::Duration;

    pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        l.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        l.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(g).unwrap_or_else(PoisonError::into_inner)
    }

    pub fn wait_timeout<'a, T>(
        cv: &Condvar,
        g: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        cv.wait_timeout(g, dur)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One tenant dataset: its engine plus its scope of the shared cache.
#[derive(Debug)]
pub struct Tenant {
    /// Thread-safe engine over the tenant's dataset.
    pub engine: SharedEngine,
    /// This tenant's scope of the shared translator cache (for
    /// per-dataset stats; storage is shared with every other tenant).
    pub cache: TranslatorCache,
    /// Unspent allowance released by closed/expired sessions — each
    /// slice's remainder counted exactly once.
    reclaimed: Mutex<f64>,
    /// Durable per-tenant query transcript for audit replay (see
    /// docs/STORAGE.md). Best-effort: the WAL is the source of truth
    /// for *charges*; this log records what was asked and answered.
    transcript: Option<Mutex<TranscriptLog>>,
    /// Transcript appends dropped on storage errors (telemetry).
    transcript_dropped: AtomicU64,
}

impl Tenant {
    /// Total unspent allowance returned by closed/expired sessions.
    pub fn reclaimed(&self) -> f64 {
        *lockx::lock(&self.reclaimed)
    }

    /// Runs `op` on the audit transcript (no-op when the tenant has no
    /// transcript log), `adding` records. Best-effort: a failing
    /// transcript store must not take down query serving, so an error
    /// only counts every record it cost as dropped.
    fn with_transcript(
        &self,
        adding: u64,
        op: impl FnOnce(&mut TranscriptLog) -> Result<(), StoreError>,
    ) {
        let Some(log) = &self.transcript else {
            return;
        };
        let mut log = lockx::lock(log);
        let expected = log.record_count() + adding;
        if op(&mut log).is_err() {
            self.transcript_dropped
                .fetch_add(expected - log.record_count(), Ordering::Relaxed);
        }
    }

    /// Records one submission outcome in the audit transcript: staged in
    /// memory, no syscall on the query path.
    fn record_transcript(&self, session: u64, response: &EngineResponse) {
        let line = match response {
            EngineResponse::Answered(a) => format!(
                "session={session} mechanism={} epsilon={:.9} epsilon_upper={:.9}",
                a.mechanism, a.epsilon, a.epsilon_upper
            ),
            EngineResponse::Denied => format!("session={session} denied"),
        };
        self.with_transcript(1, |log| log.append(line.as_bytes()));
    }

    /// Committed + pending transcript records (0 without a log).
    pub fn transcript_records(&self) -> u64 {
        self.transcript
            .as_ref()
            .map(|l| lockx::lock(l).record_count())
            .unwrap_or(0)
    }

    /// Appends dropped on transcript storage errors.
    pub fn transcript_dropped(&self) -> u64 {
        self.transcript_dropped.load(Ordering::Relaxed)
    }

    /// Buffer-pool counters of this tenant's dataset (None = resident).
    pub fn store_stats(&self) -> Option<PoolStats> {
        self.engine.with_engine(|e| e.dataset_pool_stats())
    }

    /// Counters of the histograms this tenant's dataset maintains.
    pub fn view_stats(&self) -> apex_data::ViewStats {
        self.engine.with_engine(|e| e.dataset_view_stats())
    }

    /// Storage epoch of this tenant's dataset (None = resident).
    pub fn dataset_epoch(&self) -> Option<u64> {
        self.engine.with_engine(|e| e.dataset_epoch())
    }
}

/// One live analyst session.
#[derive(Debug)]
pub struct SessionEntry {
    /// Name of the dataset the session is bound to.
    pub dataset: String,
    /// The budget-sliced engine view the session submits through.
    pub session: EngineSession,
    /// Clock tick of the last submission (TTL idleness is measured from
    /// here; budget probes deliberately do not keep a session alive).
    /// `Arc` so an [`InFlightGuard`] can re-stamp it at completion
    /// without re-resolving the (possibly already reaped) map entry.
    last_active: Arc<AtomicU64>,
    /// Number of submissions currently in flight. While nonzero the
    /// reaper will not expire the session — `last_active` is stamped on
    /// *entry*, so without the pin a query slower than the TTL would
    /// have its session closed underneath it.
    in_flight: Arc<AtomicU64>,
}

/// Pins one in-flight submission (see [`SessionEntry::in_flight`]).
/// However the submission exits — answer, denial, error, panic — the
/// drop re-stamps the idle clock *then* releases the pin, in that
/// order, so the reaper can never observe an unpinned session with a
/// stale tick from before the query ran.
#[derive(Debug)]
struct InFlightGuard {
    clock: Arc<dyn Clock>,
    last_active: Arc<AtomicU64>,
    in_flight: Arc<AtomicU64>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.last_active
            .store(self.clock.now_millis(), Ordering::SeqCst);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why a session id did not resolve to a live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session is live.
    Live,
    /// The session existed and was closed (TTL or admin): `410 Gone`.
    Expired,
    /// The id was never issued: `404`.
    Unknown,
}

/// What a submission through [`ServerState::submit`] produced.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The engine responded (answered or denied).
    Response(EngineResponse),
    /// The session was closed (possibly racing the reaper): `410`.
    Gone,
    /// No such session was ever issued: `404`.
    NoSuchSession,
}

/// The result of the evaluate half of a two-phase submission: either
/// already resolved (no such session / gone) or a pending charge that
/// [`ServerState::submit_commit`] must finish. `pub(crate)` — only
/// [`ServerState::submit`] and the schedule exerciser compose phases.
#[derive(Debug)]
pub(crate) enum SubmitPhase {
    Done(SubmitOutcome),
    Pending(SubmitInFlight),
}

/// A submission held between its evaluate and commit phases: the pinned
/// session, its dataset, and the uncharged [`apex_core::PendingCharge`].
/// Dropping it abandons the submission — the pin releases and nothing
/// is charged.
#[derive(Debug)]
pub(crate) struct SubmitInFlight {
    id: u64,
    session: EngineSession,
    dataset: String,
    pin: InFlightGuard,
    pending: apex_core::PendingCharge,
}

impl SubmitInFlight {
    /// The worst-case loss the commit phase may charge (`None` when the
    /// evaluate phase already denied). The exerciser records this before
    /// driving the commit, to bound recovered-vs-acked spend across a
    /// crash injected mid-commit.
    #[cfg(any(test, feature = "sched"))]
    pub(crate) fn epsilon_upper(&self) -> Option<f64> {
        self.pending.epsilon_upper()
    }
}

/// A submission failure.
#[derive(Debug)]
pub enum SubmitError {
    /// The engine rejected the query (malformed workload, …): `400`.
    Engine(EngineError),
    /// The write-ahead append failed at the commit point — the charge
    /// was **neither acked nor applied**: the append runs before the
    /// ledger mutation, so a refused record leaves memory and disk
    /// agreeing that nothing happened (in-memory `spent` can never run
    /// ahead of what recovery reconstructs): `500`.
    Wal(std::io::Error),
    /// A mutation batch too large to frame as one WAL record — refused
    /// before anything was applied: `413`.
    BatchTooLarge {
        /// Encoded record-payload size of the refused batch.
        bytes: usize,
        /// The WAL's per-record payload bound.
        limit: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Engine(e) => write!(f, "{e}"),
            SubmitError::Wal(e) => write!(f, "write-ahead log append failed: {e}"),
            SubmitError::BatchTooLarge { bytes, limit } => write!(
                f,
                "mutation batch encodes to {bytes} bytes, above the {limit}-byte WAL record bound"
            ),
        }
    }
}

/// What a row mutation through [`ServerState::mutate_rows`] produced.
#[derive(Debug)]
pub enum MutateOutcome {
    /// The batch applied (and, with persistence, was durably logged);
    /// the delta carries the new dataset epoch for the response.
    Applied(apex_data::RowDelta),
    /// No tenant of that name: `404`.
    NoSuchDataset,
}

/// Admin-plane view of one session.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Session id.
    pub id: u64,
    /// Bound dataset.
    pub dataset: String,
    /// Budget slice.
    pub allowance: f64,
    /// Loss charged so far.
    pub spent: f64,
    /// Milliseconds since the last submission.
    pub idle_millis: u64,
}

/// Durability configuration for [`ServerStateBuilder::build_recovered`].
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// State directory (created if missing): `snapshot.bin` +
    /// `wal-<GEN>.log`.
    pub dir: PathBuf,
    /// Compact (snapshot + WAL rotation) after this many appended
    /// records.
    pub snapshot_every: u64,
    /// fsync every append before acking (production truth; tests may
    /// trade durability for speed).
    pub sync: bool,
    /// Consent to truncate a **corrupt** (checksum-failing, not merely
    /// torn) WAL tail at the last valid record instead of refusing to
    /// start. Torn tails — the normal crash artifact — are always
    /// truncated and replayed up to the last valid record.
    pub truncate_corrupt: bool,
}

impl PersistOptions {
    /// Defaults: compact every 1024 records, fsync on, refuse corrupt
    /// tails.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 1024,
            sync: true,
            truncate_corrupt: false,
        }
    }
}

/// Why recovery refused to bring the state up.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// The snapshot is damaged — nothing to truncate back to.
    CorruptSnapshot(String),
    /// A WAL *before the newest generation* is damaged: real corruption,
    /// never a torn write (only the newest WAL can be mid-append).
    CorruptWalMidLog {
        /// The damaged generation.
        gen: u64,
    },
    /// The newest WAL's tail fails its checksum (bit rot, not a torn
    /// write) and `truncate_corrupt` consent was not given.
    CorruptWalTail {
        /// The damaged generation.
        gen: u64,
        /// Offset of the last valid record — what truncation would keep.
        valid_len: u64,
    },
    /// Another live process holds the state directory. Two writers on
    /// one WAL would interleave torn frames and jointly overspend `B`.
    DirLocked {
        /// The contested directory.
        dir: PathBuf,
        /// Pid recorded in the lock file, when readable.
        holder: Option<u32>,
    },
    /// The store references a tenant the builder did not register.
    UnknownTenant(String),
    /// A WAL record references a session the store never opened.
    UnknownSession(u64),
    /// Replayed spend does not fit the tenant's budget — the store
    /// cannot be trusted.
    LedgerOverflow {
        /// The offending tenant.
        tenant: String,
        /// The error from [`SharedEngine::import_ledger`].
        source: EngineError,
    },
    /// A journaled row mutation failed to re-apply on recovery — the
    /// rebuilt dataset would diverge from the data every acked answer
    /// was computed against.
    MutationReplay {
        /// The offending tenant.
        tenant: String,
        /// The error from the replayed mutation.
        source: EngineError,
    },
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "state dir I/O: {e}"),
            RecoverError::CorruptSnapshot(msg) => write!(f, "{msg}"),
            RecoverError::CorruptWalMidLog { gen } => {
                write!(f, "WAL generation {gen} is corrupt before the newest tail")
            }
            RecoverError::CorruptWalTail { gen, valid_len } => write!(
                f,
                "WAL generation {gen} has a corrupt (checksum-failing) tail; refusing to start — \
                 re-run with corrupt-tail truncation consent to cut it at byte {valid_len}"
            ),
            RecoverError::DirLocked { dir, holder } => write!(
                f,
                "state dir {} is held by another live server{}; two writers on one WAL \
                 would jointly overspend B — stop the other instance first",
                dir.display(),
                holder
                    .map(|pid| format!(" (pid {pid})"))
                    .unwrap_or_default()
            ),
            RecoverError::UnknownTenant(name) => write!(
                f,
                "persisted state references dataset \"{name}\" which is not registered"
            ),
            RecoverError::UnknownSession(id) => {
                write!(f, "WAL references session {id} which was never opened")
            }
            RecoverError::LedgerOverflow { tenant, source } => {
                write!(f, "recovered ledger for \"{tenant}\" is invalid: {source}")
            }
            RecoverError::MutationReplay { tenant, source } => {
                write!(
                    f,
                    "journaled mutation for \"{tenant}\" failed to re-apply: {source}"
                )
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// What recovery did, for the operator's log line.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL records replayed over the snapshot.
    pub replayed: usize,
    /// `Some(bytes_kept)` when a damaged tail was truncated.
    pub truncated: Option<u64>,
    /// Live sessions restored.
    pub sessions: usize,
    /// Recovered `(tenant, spent)` pairs.
    pub tenants: Vec<(String, f64)>,
}

#[derive(Debug)]
struct PersistInner {
    writer: WalWriter,
    gen: u64,
    records_since_snapshot: u64,
    /// Monotonic count of durable appends (across WAL rotations) — the
    /// sequence the group-commit gate tracks durability against.
    append_seq: u64,
}

/// The group-commit gate: records are made durable in *groups*, each
/// group paying one `sync_data` call that covers every member's
/// already-appended record. The first uncovered thread becomes the
/// group's leader and *gathers*: it waits while some writer that could
/// still join has not — `members < present − evaluating`, re-checked
/// whenever a writer joins **or leaves** (a 404, a denial, an evaluate
/// error, a parked connection) — then reads the append high-water mark
/// and syncs once. Joiners just wait for `synced` to
/// pass their seq — the same durability latency they would have spent
/// inside their own `sync_data`, minus the syscall. On a host where
/// fsync cost is dominated by journal-commit CPU rather than device
/// wait, collapsing k concurrent fsyncs into one is what lets
/// independent shard WALs actually scale: every skipped call returns
/// its CPU slice to the other shards. Without gathering, two lockstep
/// writers always miss each other (each append lands just after the
/// other's sync began) and every record still pays a full fsync.
///
/// Who "could still join" is observed, not configured: a shard worker
/// is a **present writer** from the moment it holds a request until it
/// is about to block for input ([`ServerState::writer_present`]),
/// except while it is inside the lock-free evaluate phase — which can
/// run for milliseconds and whose commit the leader must not sit out.
/// A caller with no worker around it (the schedule exerciser, a bench,
/// a test) is never present, so it leads groups of one and syncs at
/// once.
#[derive(Debug, Default)]
struct SyncGate {
    progress: Mutex<SyncProgress>,
    wakeup: Condvar,
}

#[derive(Debug, Default)]
struct SyncProgress {
    /// Highest `append_seq` known durable.
    synced: u64,
    /// Current group-commit phase.
    phase: SyncPhase,
    /// Writers that have joined the gathering group (leader included).
    members: u64,
    /// Shard workers currently holding a request.
    present: u64,
    /// Callers inside the evaluate phase. Counted apart from `present`
    /// (not subtracted from it) because a direct caller evaluates
    /// without ever having been present.
    evaluating: u64,
    /// Completed `sync_data` calls.
    syncs: u64,
    /// Groups whose leader waited for a peer at least once.
    gathers: u64,
    /// Gathers the backstop timer ended, not a peer joining or leaving.
    gather_timeouts: u64,
    /// Gate tests assert counters, never wall clock: they lift the
    /// backstop so a descheduled test thread cannot turn a gather into
    /// a timeout.
    #[cfg(test)]
    backstop_override: Option<Duration>,
}

impl SyncProgress {
    /// Writers a gathering leader may still expect to join.
    fn joinable(&self) -> u64 {
        self.present.saturating_sub(self.evaluating)
    }

    fn backstop(&self) -> Duration {
        #[cfg(test)]
        if let Some(d) = self.backstop_override {
            return d;
        }
        SYNC_GATHER_TIMEOUT
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum SyncPhase {
    /// No group in flight; the next uncovered writer leads one.
    #[default]
    Idle,
    /// A leader is waiting for peers before issuing the group's sync.
    Gathering,
    /// The group's `sync_data` is in flight.
    Syncing,
}

impl SyncGate {
    /// Wakes a gathering leader that has nobody left to wait for.
    fn wake_if_gathered(&self, prog: &SyncProgress) {
        if prog.phase == SyncPhase::Gathering && prog.members >= prog.joinable() {
            self.wakeup.notify_all();
        }
    }
}

/// One unit of `SyncProgress::present` or `::evaluating`, returned on
/// drop — every exit, unwinding included, so a count cannot leak (a
/// leaked `present` would tax every later commit on the shard the full
/// backstop, forever, with nothing failing).
#[derive(Debug)]
pub(crate) struct GateCount<'a> {
    gate: Option<&'a SyncGate>,
    count: fn(&mut SyncProgress) -> &mut u64,
}

impl<'a> GateCount<'a> {
    /// Taking a count never ends a gather: an arriving writer is one
    /// more to wait for, and a leader already waiting for a peer waits
    /// its evaluate out too — on the path that pairs commits (a
    /// translator-cache hit) it lasts microseconds and ends in that
    /// peer's join. Only a leader that *finds* the peer evaluating
    /// does not wait for it.
    fn take(gate: Option<&'a SyncGate>, count: fn(&mut SyncProgress) -> &mut u64) -> Self {
        if let Some(gate) = gate {
            *count(&mut lockx::lock(&gate.progress)) += 1;
        }
        Self { gate, count }
    }
}

impl Drop for GateCount<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            let mut prog = lockx::lock(&gate.progress);
            *(self.count)(&mut prog) -= 1;
            gate.wake_if_gathered(&prog);
        }
    }
}

/// A shard WAL's group-commit counters, served per shard in
/// `/v1/stats` (docs/SERVICE.md, "Group commit").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended that an ack waits on (denials are ordered but
    /// never synced, and are not counted). Monotonic across rotations.
    pub durable_records: u64,
    /// Highest of those a completed sync covered; equals
    /// `durable_records` whenever no commit is in flight.
    pub covered: u64,
    /// Completed `sync_data` calls: `durable_records / syncs` is the
    /// records-per-sync the gate achieved.
    pub syncs: u64,
    /// Groups whose leader waited for a peer.
    pub gathers: u64,
    /// Gathers ended by the backstop timer.
    pub gather_timeouts: u64,
    /// Workers holding a request right now; zero on an idle shard.
    pub present: u64,
}

/// The backstop on a gather: how long a leader waits for a present
/// peer that neither joins nor leaves — in practice one blocked behind
/// the leader's own engine lock (same tenant), which cannot append
/// until the leader's commit returns, or one that went from parsing
/// into a translator-cache miss while the leader waited.
const SYNC_GATHER_TIMEOUT: Duration = Duration::from_micros(200);

/// Exclusive ownership of a state directory: a `lock` file created with
/// `O_EXCL` holding this process's pid. Two servers appending to one WAL
/// would interleave torn frames, prune each other's generations, and
/// jointly spend `2B` — so the second opener must refuse. A lock left by
/// a *dead* pid (hard crash — exactly the case recovery exists for) is
/// detected via `/proc/<pid>` and stolen; where liveness cannot be
/// checked, the conservative answer is to refuse and tell the operator.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

/// Skips [`DirLock::acquire`]'s 20 ms settle-and-verify window. The
/// window guards against a *second process* stealing a stale lock it
/// observed before we re-created it; the schedule exerciser opens
/// thousands of brand-new single-process directories per gate run, for
/// which the window is 40 ms/run of pure sleep guarding a race no
/// second process exists to lose.
#[cfg(any(test, feature = "sched"))]
pub(crate) fn set_dirlock_settle_skip(on: bool) {
    DIRLOCK_SETTLE_SKIP.store(on, Ordering::Relaxed);
}

#[cfg(any(test, feature = "sched"))]
static DIRLOCK_SETTLE_SKIP: AtomicBool = AtomicBool::new(false);

impl DirLock {
    fn settle() {
        #[cfg(any(test, feature = "sched"))]
        if DIRLOCK_SETTLE_SKIP.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    fn acquire(dir: &std::path::Path) -> Result<Self, RecoverError> {
        let path = dir.join("lock");
        for _ in 0..3 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    drop(f);
                    // Settle, then verify. A racing starter acting on a
                    // *stale* observation may briefly rename our fresh
                    // lock aside; the content check below makes it
                    // restore (never destroy) a live lock, and this
                    // re-read catches the residual window. Any
                    // ambiguity resolves fail-closed: a contender that
                    // finds its own pid under someone else's tenure
                    // refuses rather than double-owning.
                    Self::settle();
                    match std::fs::read_to_string(&path) {
                        Ok(s) if s.trim() == std::process::id().to_string() => {
                            return Ok(Self { path });
                        }
                        _ => continue, // lost a steal race; re-contend
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match holder {
                        // Our own pid: another ServerState in THIS
                        // process holds the dir — the most direct
                        // two-writers hazard there is. Refuse.
                        Some(pid) if pid == std::process::id() => false,
                        Some(pid) if std::path::Path::new("/proc").is_dir() => {
                            !std::path::Path::new(&format!("/proc/{pid}")).exists()
                        }
                        // Unparseable pid: a damaged lock from a dead
                        // writer (the write is a single tiny buffer).
                        None => true,
                        // Liveness unknowable on this platform: refuse.
                        Some(_) => false,
                    };
                    if !stale {
                        return Err(RecoverError::DirLocked {
                            dir: dir.to_path_buf(),
                            holder,
                        });
                    }
                    // Steal by atomic rename into a name private to this
                    // process, then verify the moved file is the stale
                    // lock we actually observed before destroying it. A
                    // racing winner may already have replaced the stale
                    // lock with its own — renaming blindly and deleting
                    // would kill a live lock; instead such a mis-steal
                    // is detected by content and restored.
                    let aside = dir.join(format!("lock.stale.{}", std::process::id()));
                    if std::fs::rename(&path, &aside).is_ok() {
                        let moved = std::fs::read_to_string(&aside)
                            .ok()
                            .and_then(|s| s.trim().parse::<u32>().ok());
                        if moved == holder {
                            let _ = std::fs::remove_file(&aside);
                        } else {
                            // Not the corpse we renamed for: put the
                            // live lock back and fall through to
                            // re-contend (its holder wins next round).
                            let _ = std::fs::rename(&aside, &path);
                        }
                    }
                    // Re-contend; a live winner's pid shows next round.
                }
                Err(e) => return Err(RecoverError::Io(e)),
            }
        }
        Err(RecoverError::DirLocked {
            dir: dir.to_path_buf(),
            holder: None,
        })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[derive(Debug)]
struct Persist {
    dir: PathBuf,
    snapshot_every: u64,
    sync: bool,
    /// Held for the lifetime of the state; dropping it releases the
    /// directory.
    _lock: DirLock,
    inner: Mutex<PersistInner>,
    sync_gate: SyncGate,
    /// Fault injection for tests and the schedule exerciser: the next N
    /// appends fail with an I/O error, exercising the
    /// durable-or-nothing commit contract.
    #[cfg(any(test, feature = "sched"))]
    fail_appends: AtomicU64,
}

/// Everything the request handlers share.
#[derive(Debug)]
pub struct ServerState {
    tenants: Vec<(String, Tenant)>,
    cache: TranslatorCache,
    sessions: RwLock<HashMap<u64, SessionEntry>>,
    /// Ids are handed out sequentially from here, which doubles as the
    /// tombstone predicate: any id above [`ServerState::session_id_base`]
    /// and below this watermark that is not in the live map once existed
    /// and is now gone (`410`, not `404`) — no per-session tombstone
    /// storage, bounded for the life of the deployment, and it survives
    /// restarts because the watermark is persisted.
    next_session: AtomicU64,
    /// Offset under every id this state allocates (ids run from
    /// `base + 1`). Shard sets encode the owning shard in the high bits
    /// (`shard << 40`), so any session id names its shard and the
    /// per-shard sequences can never collide.
    session_id_base: u64,
    clock: Arc<dyn Clock>,
    ttl_millis: Option<u64>,
    admin_token: Option<String>,
    persist: Option<Persist>,
    /// The ledger gate: shared by every charge-then-append pair,
    /// exclusive during compaction — a snapshot can never observe a
    /// charge whose WAL record would land in the next generation.
    ledger_gate: RwLock<()>,
    /// Applied-mutation journal for **resident** tenants: the durable
    /// copy compaction folds into every snapshot (a paged tenant's
    /// store logs its own mutations). Apply order == epoch order,
    /// enforced by `mutate_serial`.
    mutation_journal: Mutex<Vec<MutationImage>>,
    /// Serializes concurrent mutations so WAL order equals epoch order
    /// — recovery replays records in file order and trusts
    /// `epoch_after` to be monotonic per tenant.
    mutate_serial: Mutex<()>,
}

impl ServerState {
    /// Starts building a state whose tenants share one translator cache
    /// bounded to `cache_cap` entries.
    pub fn builder(cache_cap: usize) -> ServerStateBuilder {
        Self::builder_with_cache(TranslatorCache::with_capacity(cache_cap))
    }

    /// [`ServerState::builder`] over an existing translator cache handle.
    /// Shard sets hand one root cache to every shard's builder, so
    /// cross-tenant artifact sharing survives sharding (the cache is
    /// data-independent; only the stats scopes are per tenant).
    pub fn builder_with_cache(cache: TranslatorCache) -> ServerStateBuilder {
        ServerStateBuilder {
            cache,
            tenants: Vec::new(),
            clock: Arc::new(SystemClock::new()),
            ttl: None,
            admin_token: None,
            session_id_base: 0,
        }
    }

    /// The offset under every session id this state allocates (0 for an
    /// unsharded state, `shard << 40` inside a shard set).
    pub fn session_id_base(&self) -> u64 {
        self.session_id_base
    }

    /// The tenant registered under `name`.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All tenants, in registration order.
    pub fn tenants(&self) -> &[(String, Tenant)] {
        &self.tenants
    }

    /// The shared cache's root handle (global stats, capacity, size).
    pub fn cache(&self) -> &TranslatorCache {
        &self.cache
    }

    /// The session TTL in milliseconds, when one is configured.
    pub fn ttl_millis(&self) -> Option<u64> {
        self.ttl_millis
    }

    /// The configured admin bearer token, when one is set.
    pub fn admin_token(&self) -> Option<&str> {
        self.admin_token.as_deref()
    }

    /// The clock sessions age against.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Opens a session on `dataset` with the given allowance; returns
    /// the session id, `Ok(None)` when the dataset does not exist. With
    /// persistence, the open is WAL-logged before the id is returned.
    ///
    /// # Errors
    /// The WAL append failing — the session is rolled back, nothing was
    /// acked.
    pub fn create_session(
        &self,
        dataset: &str,
        allowance: f64,
    ) -> Result<Option<u64>, std::io::Error> {
        let Some(tenant) = self.tenant(dataset) else {
            return Ok(None);
        };
        let _gate = lockx::read(&self.ledger_gate);
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        apex_core::sched_point!("state.open.enter");
        // Log BEFORE the session becomes visible in the live map: ids
        // are sequential, so a client guessing the next id could
        // otherwise race a Debit append ahead of the Open append (both
        // only hold the shared gate) and leave a WAL recovery must
        // refuse. Until the insert below, submits against `id` get 404
        // — nothing can reference the session before its Open record is
        // durable. A failed append allocates an id that never opens;
        // that is fine (status-wise it reads as a long-gone session).
        self.log(WalRecord::Open {
            session: id,
            dataset: dataset.to_string(),
            allowance,
        })?;
        apex_core::sched_point!("state.open.logged");
        let entry = SessionEntry {
            dataset: dataset.to_string(),
            session: tenant.engine.session(allowance),
            last_active: Arc::new(AtomicU64::new(self.clock.now_millis())),
            in_flight: Arc::new(AtomicU64::new(0)),
        };
        lockx::write(&self.sessions).insert(id, entry);
        drop(_gate);
        apex_core::sched_point!("state.open.inserted");
        self.maybe_compact();
        Ok(Some(id))
    }

    /// Submits a query through session `id`, two-phase: resolves and
    /// **pins** the session (the reaper skips pinned sessions), runs the
    /// evaluate phase with *no* ledger gate or engine lock held — slow
    /// translations and mechanism runs proceed concurrently with other
    /// sessions and with compaction — then commits under the shared side
    /// of the ledger gate, where the WAL append and the charge form one
    /// atomic step (append first: a refused append charges nothing). The
    /// router must not ack an unlogged charge, and with this ordering it
    /// cannot: the response only exists if its record was appended.
    ///
    /// # Errors
    /// [`SubmitError::Engine`] for malformed queries or mechanism
    /// faults, [`SubmitError::Wal`] when the write-ahead append failed
    /// (nothing was charged).
    pub fn submit(
        &self,
        id: u64,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<SubmitOutcome, SubmitError> {
        match self.submit_evaluate(id, query, accuracy)? {
            SubmitPhase::Done(outcome) => Ok(outcome),
            SubmitPhase::Pending(flight) => self.submit_commit(flight),
        }
    }

    /// The evaluate half of [`ServerState::submit`]: pin + speculative
    /// mechanism run, no gate held. Split out so the schedule exerciser
    /// can interleave other operations between a submission's two
    /// phases; production code always goes through `submit`.
    pub(crate) fn submit_evaluate(
        &self,
        id: u64,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<SubmitPhase, SubmitError> {
        let Some((session, dataset, pin)) = self.pin_session(id) else {
            return Ok(SubmitPhase::Done(match self.session_status(id) {
                SessionStatus::Expired => SubmitOutcome::Gone,
                _ => SubmitOutcome::NoSuchSession,
            }));
        };
        apex_core::sched_point!("state.submit.pinned");
        // EVALUATE: data-independent speculation, no gate held — and
        // for its duration this caller is not a writer a group-commit
        // leader should wait for.
        let evaluating = GateCount::take(self.sync_gate(), |p| &mut p.evaluating);
        let evaluated = session.evaluate(query, accuracy);
        drop(evaluating);
        let pending = match evaluated {
            Ok(p) => p,
            Err(EngineError::SessionClosed) => return Ok(SubmitPhase::Done(SubmitOutcome::Gone)),
            Err(e) => return Err(SubmitError::Engine(e)),
        };
        apex_core::sched_point!("state.submit.evaluated");
        Ok(SubmitPhase::Pending(SubmitInFlight {
            id,
            session,
            dataset,
            pin,
            pending,
        }))
    }

    /// The commit half of [`ServerState::submit`].
    pub(crate) fn submit_commit(
        &self,
        flight: SubmitInFlight,
    ) -> Result<SubmitOutcome, SubmitError> {
        let SubmitInFlight {
            id,
            session,
            dataset,
            pin,
            pending,
        } = flight;
        // COMMIT: the shared side of the ledger gate covers exactly the
        // re-check + append + charge, so compaction (exclusive side)
        // cannot snapshot a charge while pushing its WAL record into the
        // next generation — and never waits on an in-flight evaluate.
        let _gate = lockx::read(&self.ledger_gate);
        apex_core::sched_point!("state.submit.commit_gate");
        let response = match session.commit_with(pending, |response| {
            self.log(match response {
                EngineResponse::Answered(a) => WalRecord::Debit {
                    session: id,
                    epsilon: a.epsilon,
                },
                EngineResponse::Denied => WalRecord::Deny { session: id },
            })
        }) {
            Ok(r) => r,
            Err(CommitError::Engine(EngineError::SessionClosed)) => return Ok(SubmitOutcome::Gone),
            Err(CommitError::Engine(e)) => return Err(SubmitError::Engine(e)),
            Err(CommitError::Log(e)) => return Err(SubmitError::Wal(e)),
        };
        drop(_gate);
        drop(pin);
        apex_core::sched_point!("state.submit.done");
        // Audit transcript, outside the gate: append-only telemetry, the
        // WAL record above is the durability-critical one.
        if let Some(tenant) = self.tenant(&dataset) {
            tenant.record_transcript(id, &response);
        }
        self.maybe_compact();
        Ok(SubmitOutcome::Response(response))
    }

    /// Applies a row mutation (insert or delete batch) to `dataset`'s
    /// engine, WAL-logging it **before the ack**. The engine bumps the
    /// dataset epoch, incrementally extends its compiled artifacts, and
    /// from that instant refuses to commit any in-flight query that
    /// evaluated against the old epoch ([`EngineError::StaleEpoch`]) —
    /// readers racing this call either charge against the pre-mutation
    /// data (their commit beat the apply) or are told to re-evaluate.
    ///
    /// Durability: a paged tenant's store commits the batch durably
    /// itself (mutation log + copy-on-write pages) before this method
    /// WAL-logs it, so the crash window between apply and append loses
    /// nothing — recovery skips the missing record by epoch. A resident
    /// tenant's only durable copy is the WAL record plus the snapshot
    /// journal it compacts into; the window loses an apply nobody was
    /// acked. A *failed* append on a resident tenant leaves the live
    /// dataset ahead of what a restart rebuilds — the 500 tells the
    /// caller the mutation is not durable.
    ///
    /// # Errors
    /// [`SubmitError::Engine`] for schema violations or empty batches
    /// (nothing applied), [`SubmitError::BatchTooLarge`] for a batch
    /// whose WAL record cannot be framed (nothing applied),
    /// [`SubmitError::Wal`] when the append failed after the apply.
    pub fn mutate_rows(
        &self,
        dataset: &str,
        insert: bool,
        rows: &[Vec<apex_data::Value>],
    ) -> Result<MutateOutcome, SubmitError> {
        let Some(tenant) = self.tenant(dataset) else {
            return Ok(MutateOutcome::NoSuchDataset);
        };
        // Size the WAL record before touching anything: a batch whose
        // record cannot be framed must be refused pre-apply, not after
        // the engine already committed it. Measured, not encoded — the
        // rows are client-sized, and a row wider than the codec's 16-bit
        // arity field is over the cap long before it could be encoded.
        let (bytes, limit) = (
            WalRecord::mutate_payload_len(dataset, rows),
            wal::WAL_FORMAT.max_payload,
        );
        if bytes > limit {
            return Err(SubmitError::BatchTooLarge { bytes, limit });
        }
        // Shared side of the ledger gate: like a charge, the mutation's
        // WAL record must land in the generation whose snapshot covers
        // its effect — compaction (exclusive side) can never snapshot
        // the new epoch while pushing the record into the next
        // generation.
        let _gate = lockx::read(&self.ledger_gate);
        let _serial = lockx::lock(&self.mutate_serial);
        apex_core::sched_point!("state.mutate.enter");
        let delta = if insert {
            tenant.engine.insert_rows(rows)
        } else {
            tenant.engine.delete_rows(rows)
        }
        .map_err(SubmitError::Engine)?;
        apex_core::sched_point!("state.mutate.applied");
        let resident = tenant.engine.with_engine(|e| e.dataset_epoch().is_none());
        self.log(WalRecord::Mutate {
            dataset: dataset.to_string(),
            insert,
            epoch_after: delta.epoch,
            rows: rows.to_vec(),
        })
        .map_err(SubmitError::Wal)?;
        if resident && self.persist.is_some() {
            lockx::lock(&self.mutation_journal).push(MutationImage {
                dataset: dataset.to_string(),
                insert,
                epoch_after: delta.epoch,
                rows: rows.to_vec(),
            });
        }
        apex_core::sched_point!("state.mutate.logged");
        drop(_serial);
        drop(_gate);
        self.maybe_compact();
        Ok(MutateOutcome::Applied(delta))
    }

    /// Resolves a live session and pins it in-flight: stamps the
    /// activity tick on entry, and the returned guard re-stamps it and
    /// releases the pin when the submission completes. `None` for ids
    /// that are not live.
    fn pin_session(&self, id: u64) -> Option<(EngineSession, String, InFlightGuard)> {
        let sessions = lockx::read(&self.sessions);
        let entry = sessions.get(&id)?;
        entry.in_flight.fetch_add(1, Ordering::SeqCst);
        entry
            .last_active
            .store(self.clock.now_millis(), Ordering::SeqCst);
        Some((
            entry.session.clone(),
            entry.dataset.clone(),
            InFlightGuard {
                clock: self.clock.clone(),
                last_active: entry.last_active.clone(),
                in_flight: entry.in_flight.clone(),
            },
        ))
    }

    /// Whether `id` is live, expired (gone), or never issued.
    pub fn session_status(&self, id: u64) -> SessionStatus {
        if lockx::read(&self.sessions).contains_key(&id) {
            SessionStatus::Live
        } else if id > self.session_id_base && id < self.next_session.load(Ordering::Relaxed) {
            // Allocation is sequential from the base, so every id in
            // (base, watermark) was issued once; not live means gone.
            // Ids under a *different* base belong to another shard and
            // read as unknown here.
            SessionStatus::Expired
        } else {
            SessionStatus::Unknown
        }
    }

    /// Runs `f` with the session, or returns `None` for unknown ids.
    pub fn with_session<T>(&self, id: u64, f: impl FnOnce(&SessionEntry) -> T) -> Option<T> {
        lockx::read(&self.sessions).get(&id).map(f)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        lockx::read(&self.sessions).len()
    }

    /// Number of live sessions bound to `dataset`.
    pub fn session_count_for(&self, dataset: &str) -> usize {
        lockx::read(&self.sessions)
            .values()
            .filter(|s| s.dataset == dataset)
            .count()
    }

    /// Number of sessions that once existed and are now gone (issued
    /// ids minus live ones — derived, not stored).
    pub fn expired_count(&self) -> usize {
        let issued = self
            .next_session
            .load(Ordering::Relaxed)
            .saturating_sub(self.session_id_base + 1) as usize;
        issued.saturating_sub(self.session_count())
    }

    /// Admin-plane listing of live sessions, ascending by id.
    pub fn list_sessions(&self) -> Vec<SessionInfo> {
        let now = self.clock.now_millis();
        let mut out: Vec<SessionInfo> = lockx::read(&self.sessions)
            .iter()
            .map(|(&id, e)| SessionInfo {
                id,
                dataset: e.dataset.clone(),
                allowance: e.session.allowance(),
                spent: e.session.spent(),
                idle_millis: now.saturating_sub(e.last_active.load(Ordering::Relaxed)),
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Closes session `id` (admin or reaper): removes it from the live
    /// table (which makes it `410` — see [`ServerState::session_status`]),
    /// releases the unspent remainder of its slice **exactly once** into
    /// the tenant's reclaimed pool, and WAL-logs the close. `Ok(None)`
    /// when the session is not live (unknown or already expired).
    ///
    /// # Errors
    /// The WAL append failing (the close itself already happened; it
    /// will be folded into the next snapshot).
    pub fn expire_session(&self, id: u64) -> Result<Option<f64>, std::io::Error> {
        self.expire_session_if(id, |_| true)
    }

    /// [`ServerState::expire_session`] gated by `still_expired`, checked
    /// under the sessions **write** lock immediately before removal.
    /// This closes the reaper's scan-to-removal race: a submission that
    /// pins the session (or re-stamps its tick) after the reaper's
    /// candidate scan is observed here, and the removal is abandoned —
    /// pinning takes effect under the read lock, which cannot overlap
    /// this write-locked re-check.
    fn expire_session_if(
        &self,
        id: u64,
        still_expired: impl FnOnce(&SessionEntry) -> bool,
    ) -> Result<Option<f64>, std::io::Error> {
        let _gate = lockx::read(&self.ledger_gate);
        let entry = {
            let mut sessions = lockx::write(&self.sessions);
            match sessions.get(&id) {
                Some(entry) if still_expired(entry) => {
                    apex_core::sched_point!("state.expire.removing");
                    sessions.remove(&id).expect("checked above")
                }
                _ => return Ok(None),
            }
        };
        apex_core::sched_point!("state.expire.removed");
        // Exactly-once by construction: only the thread that removed the
        // entry reaches this close, and close() itself is idempotent.
        let released = entry.session.close().unwrap_or(0.0);
        if let Some(tenant) = self.tenant(&entry.dataset) {
            *lockx::lock(&tenant.reclaimed) += released;
        }
        apex_core::sched_point!("state.expire.closed");
        self.log(WalRecord::Close {
            session: id,
            released,
        })?;
        apex_core::sched_point!("state.expire.logged");
        drop(_gate);
        self.maybe_compact();
        Ok(Some(released))
    }

    /// Expires every session idle past the TTL (no-op without one).
    /// Sessions with a submission in flight are **never** reaped,
    /// however stale their tick — the pin is checked before idleness,
    /// and completion re-stamps the tick before unpinning, so a query
    /// slower than the TTL keeps its session alive throughout. Returns
    /// the `(id, released)` pairs.
    ///
    /// # Errors
    /// The first WAL append failure (later sessions stay live for the
    /// next sweep).
    pub fn reap_expired(&self) -> Result<Vec<(u64, f64)>, std::io::Error> {
        let Some(ttl) = self.ttl_millis else {
            return Ok(Vec::new());
        };
        let now = self.clock.now_millis();
        let idle: Vec<u64> = lockx::read(&self.sessions)
            .iter()
            .filter(|(_, e)| {
                e.in_flight.load(Ordering::SeqCst) == 0
                    && now.saturating_sub(e.last_active.load(Ordering::SeqCst)) > ttl
            })
            .map(|(&id, _)| id)
            .collect();
        apex_core::sched_point!("state.reap.scanned");
        let mut reaped = Vec::new();
        for id in idle {
            // Re-verify pin + staleness under the write lock at the
            // removal point: a submission may have pinned (or finished
            // and re-stamped) this session since the scan above, and a
            // live query must never lose its session to the reaper.
            let released = self.expire_session_if(id, |e| {
                e.in_flight.load(Ordering::SeqCst) == 0
                    && now.saturating_sub(e.last_active.load(Ordering::SeqCst)) > ttl
            })?;
            if let Some(released) = released {
                reaped.push((id, released));
            }
        }
        Ok(reaped)
    }

    /// Appends one WAL record (no-op without persistence). Denials need
    /// *ordering* but not *durability*: they charge nothing, so losing
    /// the tail of them in a crash changes no recovered state, and a
    /// deny-heavy workload — the steady state of an exhausted tenant —
    /// must not pay a durability fsync per 409.
    fn log(&self, record: WalRecord) -> Result<(), std::io::Error> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        apex_core::sched_point!("state.log.enter");
        #[cfg(any(test, feature = "sched"))]
        if p.fail_appends
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(std::io::Error::other("injected WAL append fault"));
        }
        // Append under the writer lock, fsync after releasing it (see
        // `SyncGate`): a sibling handler can append the next record
        // while this one's sync is in flight, and a completed sync
        // covers every record appended before it started. With the
        // fsync inside the lock, every record costs a full journal
        // commit plus a scheduler wakeup, back to back.
        let (seq, sync_me) = {
            let mut inner = lockx::lock(&p.inner);
            // A denial's sync handle is dropped: the record is ordered
            // in the file but never fsynced and never enters the sync
            // gate; the next durable append's fsync carries it to disk.
            let sync_me = inner
                .writer
                .append_deferred(&record)?
                .filter(|_| !matches!(record, WalRecord::Deny { .. }));
            inner.records_since_snapshot += 1;
            if sync_me.is_some() {
                inner.append_seq += 1;
            }
            (inner.append_seq, sync_me)
        };
        apex_core::sched_point!("state.log.appended");
        let Some(file) = sync_me else {
            return Ok(()); // a denial, or a writer that never syncs
        };
        // Group commit (see `SyncGate`). Loop invariant: on every pass,
        // either this record is already durable (return), or a group is
        // gathering (join it), or a sync is in flight (wait for its
        // result), or this thread leads a new group. A leader that
        // straddled a WAL rotation syncs the old generation's file —
        // harmless, the snapshot that rotated it already covers those
        // records (and the exclusive ledger gate keeps a rotation from
        // racing an in-flight append-and-sync).
        let gate = &p.sync_gate;
        let mut prog = lockx::lock(&gate.progress);
        let mut joined = false;
        loop {
            if prog.synced >= seq {
                return Ok(());
            }
            match prog.phase {
                SyncPhase::Idle => {
                    prog.phase = SyncPhase::Gathering;
                    prog.members = 1;
                    break;
                }
                SyncPhase::Gathering => {
                    if !joined {
                        joined = true;
                        prog.members += 1;
                        gate.wake_if_gathered(&prog);
                    }
                    prog = lockx::wait(&gate.wakeup, prog);
                }
                SyncPhase::Syncing => {
                    prog = lockx::wait(&gate.wakeup, prog);
                }
            }
        }
        // This thread leads the group: wait while a present writer has
        // yet to append and join — each join and each writer leaving
        // re-checks — then sync once for everyone. The timer only ends
        // a gather whose peer does neither.
        if prog.members < prog.joinable() {
            prog.gathers += 1;
            let deadline = std::time::Instant::now() + prog.backstop();
            while prog.members < prog.joinable() {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    prog.gather_timeouts += 1;
                    break;
                }
                prog = lockx::wait_timeout(&gate.wakeup, prog, left).0;
            }
        }
        prog.phase = SyncPhase::Syncing;
        drop(prog);
        // Everything appended up to here — read under the writer lock —
        // is on file before `sync_data` begins, so it is durable when
        // the call returns.
        let target = lockx::lock(&p.inner).append_seq;
        let result = file.sync_data();
        let mut prog = lockx::lock(&gate.progress);
        prog.phase = SyncPhase::Idle;
        prog.members = 0;
        match result {
            Ok(()) => {
                prog.synced = prog.synced.max(target);
                prog.syncs += 1;
                drop(prog);
                gate.wakeup.notify_all();
                Ok(())
            }
            Err(e) => {
                // No rollback is possible out here (later appends may
                // already sit behind this record), so fail closed: the
                // writer refuses everything from now on, and this
                // request errors instead of acking. If the record still
                // reaches disk via a later commit, recovery over-counts
                // spend relative to acks — the safe direction. Waiters
                // are woken un-advanced; each retries the sync itself
                // and reports its own failure.
                drop(prog);
                gate.wakeup.notify_all();
                lockx::lock(&p.inner).writer.poison();
                Err(e)
            }
        }
    }

    /// Marks the calling shard worker a **present writer** — one the
    /// group-commit leader waits for — until the guard drops. Taken when
    /// the worker picks a request up, dropped before it blocks for
    /// input. Inert without persistence.
    pub(crate) fn writer_present(&self) -> GateCount<'_> {
        GateCount::take(self.sync_gate(), |p| &mut p.present)
    }

    fn sync_gate(&self) -> Option<&SyncGate> {
        self.persist.as_ref().map(|p| &p.sync_gate)
    }

    /// This state's group-commit counters; `None` without persistence.
    pub fn wal_stats(&self) -> Option<WalStats> {
        let p = self.persist.as_ref()?;
        let durable_records = lockx::lock(&p.inner).append_seq;
        let prog = lockx::lock(&p.sync_gate.progress);
        Some(WalStats {
            durable_records,
            covered: prog.synced,
            syncs: prog.syncs,
            gathers: prog.gathers,
            gather_timeouts: prog.gather_timeouts,
            present: prog.present,
        })
    }

    /// Compacts when the WAL has grown past the configured threshold.
    fn maybe_compact(&self) {
        let Some(p) = &self.persist else { return };
        let due = {
            let inner = lockx::lock(&p.inner);
            inner.records_since_snapshot >= p.snapshot_every
        };
        if due {
            // A failed compaction is not fatal: the WAL keeps growing
            // and the next threshold crossing retries.
            let _ = self.compact();
        }
    }

    /// Folds the current ledger + session table into a snapshot and
    /// rotates to a fresh WAL generation. Runs under the exclusive side
    /// of the ledger gate — no charge can straddle the cut.
    ///
    /// # Errors
    /// Snapshot write or WAL rotation I/O failures.
    pub fn compact(&self) -> Result<(), std::io::Error> {
        // Piggyback the audit-transcript flush on the compaction cadence
        // (and on the explicit admin compact): best-effort, see
        // [`ServerState::flush_transcripts`].
        self.flush_transcripts();
        let Some(p) = &self.persist else {
            return Ok(());
        };
        let _gate = lockx::write(&self.ledger_gate);
        let mut inner = lockx::lock(&p.inner);
        apex_core::sched_point!("state.compact.enter");
        // Open the next generation BEFORE committing the snapshot that
        // covers the current one. The snapshot rename is the commit
        // point: once it claims `covered_gen = G`, no acked record may
        // ever land in `wal-G.log` again — so the `G+1` writer must
        // already be in hand. Failing here leaves the old snapshot + old
        // writer fully intact (a stray empty `wal-(G+1).log` is harmless:
        // recovery replays it as empty). The reverse order would, on a
        // failed open, keep appending acked debits to a generation the
        // just-committed snapshot tells recovery to ignore.
        let new_gen = inner.gen + 1;
        let new_path = snapshot::wal_path(&p.dir, new_gen);
        let writer = WalWriter::open(&new_path, p.sync)?;
        apex_core::sched_point!("state.compact.new_gen");
        let image = self.snapshot_image(inner.gen);
        if let Err(e) = snapshot::write_snapshot(&p.dir, &image) {
            // Nothing was appended to the new generation yet; remove the
            // stray so the directory stays exactly as before the attempt
            // (recovery also tolerates trailing empty generations).
            drop(writer);
            let _ = std::fs::remove_file(&new_path);
            return Err(e);
        }
        apex_core::sched_point!("state.compact.snapshotted");
        inner.writer = writer;
        inner.gen = new_gen;
        inner.records_since_snapshot = 0;
        drop(inner);
        drop(_gate);
        snapshot::prune_wals(&p.dir, new_gen - 1);
        apex_core::sched_point!("state.compact.done");
        Ok(())
    }

    /// Makes the next `n` WAL appends fail with an injected I/O error
    /// (no-op without persistence) — the fault half of the
    /// durable-or-nothing commit tests and the exerciser's `WalFault`
    /// operation.
    #[cfg(any(test, feature = "sched"))]
    pub(crate) fn inject_wal_faults(&self, n: u64) {
        if let Some(p) = &self.persist {
            p.fail_appends.store(n, Ordering::SeqCst);
        }
    }

    /// Commits every tenant's audit transcript to disk (one write of the
    /// staged records + fsync). Best-effort, like every transcript
    /// operation. Called on every compaction and at shutdown.
    pub fn flush_transcripts(&self) {
        for (_, tenant) in &self.tenants {
            tenant.with_transcript(0, TranscriptLog::flush);
        }
    }

    /// The current state as a snapshot covering WAL generations
    /// `≤ covered_gen`.
    fn snapshot_image(&self, covered_gen: u64) -> Snapshot {
        let sessions = lockx::read(&self.sessions);
        Snapshot {
            covered_gen,
            next_session: self.next_session.load(Ordering::Relaxed),
            tenants: self
                .tenants
                .iter()
                .map(|(name, t)| TenantLedger {
                    name: name.clone(),
                    spent: t.engine.export_ledger().spent,
                    reclaimed: t.reclaimed(),
                })
                .collect(),
            sessions: sessions
                .iter()
                .map(|(&id, e)| SessionImage {
                    id,
                    dataset: e.dataset.clone(),
                    allowance: e.session.allowance(),
                    spent: e.session.spent(),
                })
                .collect(),
            // Coherent with the engines: compaction holds the ledger
            // gate exclusively, and every journal push happens under
            // its shared side.
            mutations: lockx::lock(&self.mutation_journal).clone(),
        }
    }
}

/// Builder for [`ServerState`] — register tenants, then
/// [`ServerStateBuilder::build`] (in-memory) or
/// [`ServerStateBuilder::build_recovered`] (durable).
#[derive(Debug)]
pub struct ServerStateBuilder {
    cache: TranslatorCache,
    tenants: Vec<(String, Tenant)>,
    clock: Arc<dyn Clock>,
    ttl: Option<Duration>,
    admin_token: Option<String>,
    session_id_base: u64,
}

impl ServerStateBuilder {
    /// Registers `data` as tenant `name`: a fresh engine with its own
    /// budget/mode/seed from `config`, drawing on the shared cache
    /// through its own stats scope. Re-registering a name replaces the
    /// previous tenant.
    pub fn dataset(mut self, name: &str, data: Dataset, config: EngineConfig) -> Self {
        let scope = self.cache.scoped();
        let engine = SharedEngine::new(ApexEngine::with_translator_cache(
            data,
            config,
            scope.clone(),
        ));
        let tenant = Tenant {
            engine,
            cache: scope,
            reclaimed: Mutex::new(0.0),
            transcript: None,
            transcript_dropped: AtomicU64::new(0),
        };
        self.tenants.retain(|(n, _)| n != name);
        self.tenants.push((name.to_string(), tenant));
        self
    }

    /// Attaches a durable audit transcript (`<root>/<tenant>/`) to every
    /// tenant registered **so far**, opening existing logs where present.
    /// Call after the last [`ServerStateBuilder::dataset`].
    ///
    /// # Errors
    /// Corrupt (or other-format) transcript logs, or I/O failures opening
    /// them.
    pub fn transcripts_under(mut self, root: &std::path::Path) -> Result<Self, StoreError> {
        for (name, tenant) in &mut self.tenants {
            let log = TranscriptLog::open(&root.join(name.as_str()))?;
            tenant.transcript = Some(Mutex::new(log));
        }
        Ok(self)
    }

    /// Injects the clock sessions age against (tests use
    /// [`crate::clock::ManualClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the idle TTL after which the reaper expires sessions.
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Requires `Authorization: Bearer <token>` on every `/v1/admin/*`
    /// endpoint.
    pub fn admin_token(mut self, token: &str) -> Self {
        self.admin_token = Some(token.to_string());
        self
    }

    /// Offsets every session id: allocation starts at `base + 1` and the
    /// tombstone watermark covers `(base, next)`. Shard sets pass
    /// `shard << 40` so ids are globally unique and name their shard.
    /// Must be stable across restarts of the same state directory.
    pub fn session_id_base(mut self, base: u64) -> Self {
        self.session_id_base = base;
        self
    }

    /// Finishes an **in-memory** registry (no persistence).
    pub fn build(self) -> ServerState {
        ServerState {
            tenants: self.tenants,
            cache: self.cache,
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(self.session_id_base + 1),
            session_id_base: self.session_id_base,
            clock: self.clock,
            ttl_millis: self
                .ttl
                .map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
            admin_token: self.admin_token,
            persist: None,
            ledger_gate: RwLock::new(()),
            mutation_journal: Mutex::new(Vec::new()),
            mutate_serial: Mutex::new(()),
        }
    }

    /// Finishes a **durable** registry: recovers WAL-over-snapshot from
    /// `opts.dir` (creating it when empty), re-imposes spent budget on
    /// every engine, re-opens live sessions mid-slice, then compacts so
    /// the directory starts the new run from a fresh snapshot + empty
    /// WAL generation.
    ///
    /// # Errors
    /// See [`RecoverError`] — notably, a checksum-corrupt WAL tail
    /// refuses to start without `opts.truncate_corrupt`, and recovered
    /// spend beyond any tenant's `B` always refuses (a store that
    /// over-spends is corrupt; clamping would forge budget headroom).
    pub fn build_recovered(
        self,
        opts: PersistOptions,
    ) -> Result<(ServerState, RecoveryReport), RecoverError> {
        std::fs::create_dir_all(&opts.dir)?;
        // Claim the directory first: recovery itself mutates it
        // (truncation, compaction), so even the read side needs the
        // exclusivity. Released on drop — including every error return
        // below, so a refused recovery can be retried.
        let lock = DirLock::acquire(&opts.dir)?;
        let mut report = RecoveryReport::default();

        // 1. The snapshot (damage here is always fatal).
        let snap = snapshot::read_snapshot(&opts.dir)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    RecoverError::CorruptSnapshot(e.to_string())
                } else {
                    RecoverError::Io(e)
                }
            })?
            .unwrap_or_default();

        // 2. WAL generations beyond the snapshot's coverage. Tail
        // damage is only a *crash artifact* in the generation that was
        // actively written — the last one holding anything. Generations
        // after it that are completely empty (magic only) are strays
        // from a rotation that failed between opening the next file and
        // committing its snapshot; they must not promote earlier tail
        // damage into an unrecoverable "mid-log" refusal.
        let gens: Vec<u64> = snapshot::list_wal_gens(&opts.dir)?
            .into_iter()
            .filter(|&g| g > snap.covered_gen)
            .collect();
        let mut read: Vec<(u64, Vec<WalRecord>, WalTail)> = Vec::with_capacity(gens.len());
        for &gen in &gens {
            let (recs, tail) = wal::read_wal(&snapshot::wal_path(&opts.dir, gen))?;
            read.push((gen, recs, tail));
        }
        let last_active = read
            .iter()
            .rposition(|(_, recs, tail)| !recs.is_empty() || *tail != WalTail::Clean);
        let mut records = Vec::new();
        for (i, (gen, recs, tail)) in read.into_iter().enumerate() {
            let newest = Some(i) == last_active;
            let path = snapshot::wal_path(&opts.dir, gen);
            match tail {
                WalTail::Clean => {}
                _ if !newest => return Err(RecoverError::CorruptWalMidLog { gen }),
                WalTail::Torn { valid_len } => {
                    // The expected crash artifact: cut it, keep going.
                    wal::truncate_wal(&path, valid_len)?;
                    report.truncated = Some(valid_len);
                }
                WalTail::Corrupt { valid_len } => {
                    if !opts.truncate_corrupt {
                        return Err(RecoverError::CorruptWalTail { gen, valid_len });
                    }
                    wal::truncate_wal(&path, valid_len)?;
                    report.truncated = Some(valid_len);
                }
            }
            records.extend(recs);
        }
        report.replayed = records.len();

        // 3. Fold WAL over snapshot into a consistent image.
        let registered: HashSet<&str> = self.tenants.iter().map(|(n, _)| n.as_str()).collect();
        let mut tenant_spent: HashMap<String, f64> = HashMap::new();
        let mut tenant_reclaimed: HashMap<String, f64> = HashMap::new();
        for t in &snap.tenants {
            if !registered.contains(t.name.as_str()) {
                return Err(RecoverError::UnknownTenant(t.name.clone()));
            }
            tenant_spent.insert(t.name.clone(), t.spent);
            tenant_reclaimed.insert(t.name.clone(), t.reclaimed);
        }
        let mut live: HashMap<u64, SessionImage> = HashMap::new();
        let mut dataset_of: HashMap<u64, String> = HashMap::new();
        for s in &snap.sessions {
            if !registered.contains(s.dataset.as_str()) {
                return Err(RecoverError::UnknownTenant(s.dataset.clone()));
            }
            dataset_of.insert(s.id, s.dataset.clone());
            live.insert(s.id, s.clone());
        }
        let mut next_session = snap.next_session.max(self.session_id_base + 1);
        let mut mutations: Vec<MutationImage> = Vec::with_capacity(snap.mutations.len());
        for m in &snap.mutations {
            if !registered.contains(m.dataset.as_str()) {
                return Err(RecoverError::UnknownTenant(m.dataset.clone()));
            }
            mutations.push(m.clone());
        }

        for record in records {
            match record {
                WalRecord::Open {
                    session,
                    dataset,
                    allowance,
                } => {
                    if !registered.contains(dataset.as_str()) {
                        return Err(RecoverError::UnknownTenant(dataset));
                    }
                    dataset_of.insert(session, dataset.clone());
                    live.insert(
                        session,
                        SessionImage {
                            id: session,
                            dataset,
                            allowance,
                            spent: 0.0,
                        },
                    );
                    next_session = next_session.max(session + 1);
                }
                WalRecord::Debit { session, epsilon } => {
                    // The debit may be ordered after the session's close
                    // (two racing appenders inside one generation); the
                    // tenant attribution still holds via `dataset_of`.
                    let Some(dataset) = dataset_of.get(&session) else {
                        return Err(RecoverError::UnknownSession(session));
                    };
                    *tenant_spent.entry(dataset.clone()).or_insert(0.0) += epsilon;
                    if let Some(img) = live.get_mut(&session) {
                        img.spent += epsilon;
                    }
                }
                WalRecord::Deny { session } => {
                    if !dataset_of.contains_key(&session) {
                        return Err(RecoverError::UnknownSession(session));
                    }
                }
                WalRecord::Close { session, released } => {
                    let Some(dataset) = dataset_of.get(&session) else {
                        return Err(RecoverError::UnknownSession(session));
                    };
                    live.remove(&session);
                    *tenant_reclaimed.entry(dataset.clone()).or_insert(0.0) += released;
                }
                WalRecord::Mutate {
                    dataset,
                    insert,
                    epoch_after,
                    rows,
                } => {
                    if !registered.contains(dataset.as_str()) {
                        return Err(RecoverError::UnknownTenant(dataset));
                    }
                    mutations.push(MutationImage {
                        dataset,
                        insert,
                        epoch_after,
                        rows,
                    });
                }
            }
        }

        // 3½. Replay row mutations, oldest first (snapshot journal, then
        // WAL records — disjoint by construction: the journal covers
        // exactly the folded generations). The epoch gate makes replay
        // idempotent: a paged store that already committed a record (it
        // is the durable copy; the apply ran before the WAL append)
        // reports an epoch at or past `epoch_after` and the record is
        // skipped, while a resident tenant starts from its
        // builder-supplied base at epoch 0, so every record applies —
        // in order, through the same deterministic mutation path the
        // live call took, reproducing the exact pre-crash rows and
        // epoch.
        let mut journal: Vec<MutationImage> = Vec::new();
        for m in mutations {
            let tenant = self
                .tenants
                .iter()
                .find(|(n, _)| *n == m.dataset)
                .map(|(_, t)| t)
                .expect("validated above");
            if m.epoch_after > tenant.engine.epoch() {
                let result = if m.insert {
                    tenant.engine.insert_rows(&m.rows)
                } else {
                    tenant.engine.delete_rows(&m.rows)
                };
                result.map_err(|source| RecoverError::MutationReplay {
                    tenant: m.dataset.clone(),
                    source,
                })?;
            }
            if tenant.engine.with_engine(|e| e.dataset_epoch().is_none()) {
                journal.push(m);
            }
        }

        // 4. Re-impose the ledgers on the fresh engines.
        for (name, tenant) in &self.tenants {
            let spent = tenant_spent.get(name).copied().unwrap_or(0.0);
            tenant
                .engine
                .import_ledger(spent)
                .map_err(|source| RecoverError::LedgerOverflow {
                    tenant: name.clone(),
                    source,
                })?;
            *lockx::lock(&tenant.reclaimed) = tenant_reclaimed.get(name).copied().unwrap_or(0.0);
            report.tenants.push((name.clone(), spent));
        }

        // 5. Re-open live sessions mid-slice, activity reset to now.
        let now = self.clock.now_millis();
        let mut sessions = HashMap::with_capacity(live.len());
        for (id, img) in live {
            let tenant = self
                .tenants
                .iter()
                .find(|(n, _)| *n == img.dataset)
                .map(|(_, t)| t)
                .expect("validated above");
            sessions.insert(
                id,
                SessionEntry {
                    dataset: img.dataset,
                    session: tenant.engine.session_with_spent(img.allowance, img.spent),
                    last_active: Arc::new(AtomicU64::new(now)),
                    in_flight: Arc::new(AtomicU64::new(0)),
                },
            );
        }
        report.sessions = sessions.len();

        // 6. Open the next WAL generation and assemble the state.
        let all_gens = snapshot::list_wal_gens(&opts.dir)?;
        let new_gen = all_gens
            .last()
            .copied()
            .unwrap_or(snap.covered_gen)
            .max(snap.covered_gen)
            + 1;
        let writer = WalWriter::open(&snapshot::wal_path(&opts.dir, new_gen), opts.sync)?;
        let state = ServerState {
            tenants: self.tenants,
            cache: self.cache,
            sessions: RwLock::new(sessions),
            next_session: AtomicU64::new(next_session),
            session_id_base: self.session_id_base,
            clock: self.clock,
            ttl_millis: self
                .ttl
                .map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
            admin_token: self.admin_token,
            persist: Some(Persist {
                dir: opts.dir,
                snapshot_every: opts.snapshot_every.max(1),
                sync: opts.sync,
                _lock: lock,
                inner: Mutex::new(PersistInner {
                    writer,
                    gen: new_gen,
                    records_since_snapshot: 0,
                    append_seq: 0,
                }),
                sync_gate: SyncGate::default(),
                #[cfg(any(test, feature = "sched"))]
                fail_appends: AtomicU64::new(0),
            }),
            ledger_gate: RwLock::new(()),
            mutation_journal: Mutex::new(journal),
            mutate_serial: Mutex::new(()),
        };
        // 7. Fold everything just replayed into a fresh snapshot, so the
        // next crash replays from here, not from the beginning of time.
        state.compact()?;
        Ok((state, report))
    }
}

/// Handle for the background TTL reaper thread.
#[derive(Debug)]
pub struct ReaperHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReaperHandle {
    /// Asks the reaper to exit and waits for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// Spawns the TTL reaper: every `interval` it expires sessions idle past
/// the state's TTL. Useless (but harmless) without a configured TTL.
pub fn start_reaper(state: Arc<ServerState>, interval: Duration) -> ReaperHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let thread = std::thread::spawn(move || loop {
        std::thread::park_timeout(interval);
        if flag.load(Ordering::SeqCst) {
            return;
        }
        // I/O trouble is retried next tick; sessions stay live until
        // their close is durably logged.
        let _ = state.reap_expired();
    });
    ReaperHandle {
        stop,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use apex_data::{Attribute, Domain, Predicate, Schema, Value};
    use apex_query::ExplorationQuery;

    fn tiny_dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 7 },
        )])
        .unwrap();
        let mut d = Dataset::empty(schema);
        for i in 0..8_i64 {
            d.push(vec![Value::Int(i)]).unwrap();
        }
        d
    }

    fn histogram() -> ExplorationQuery {
        ExplorationQuery::wcq((0..8).map(|i| Predicate::eq("v", i as i64)).collect())
    }

    use crate::testutil::temp_dir;

    #[test]
    fn tenants_share_one_cache_with_per_tenant_scopes() {
        let state = ServerState::builder(32)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .dataset("b", tiny_dataset(), EngineConfig::default())
            .build();
        assert_eq!(state.tenants().len(), 2);
        let q = apex_query::ExplorationQuery::wcq(
            (0..8)
                .map(|i| apex_data::Predicate::eq("v", i as i64))
                .collect(),
        );
        let acc = apex_query::AccuracySpec::new(5.0, 0.01).unwrap();
        state.tenant("a").unwrap().engine.submit(&q, &acc).unwrap();
        state.tenant("b").unwrap().engine.submit(&q, &acc).unwrap();
        // Tenant b's identical structure is warmed by tenant a: global
        // stats see both scopes, b's own scope shows hits but no build.
        let global = state.cache().stats();
        assert!(global.hits > 0 && global.misses > 0);
        let b_local = state.tenant("b").unwrap().cache.local_stats();
        assert_eq!(b_local.misses, 0, "{b_local:?}");
        assert!(b_local.hits > 0);
    }

    #[test]
    fn sessions_register_and_resolve() {
        let state = ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .build();
        assert_eq!(state.create_session("nope", 0.5).unwrap(), None);
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        assert_eq!(state.session_count(), 1);
        assert_eq!(state.session_count_for("a"), 1);
        assert_eq!(state.session_count_for("b"), 0);
        let allowance = state.with_session(id, |s| s.session.allowance()).unwrap();
        assert_eq!(allowance, 0.5);
        assert!(state.with_session(id + 1, |_| ()).is_none());
        assert_eq!(state.session_status(id), SessionStatus::Live);
        assert_eq!(state.session_status(id + 1), SessionStatus::Unknown);
    }

    #[test]
    fn expiry_tombstones_and_reclaims_exactly_once() {
        let clock = ManualClock::new();
        let state = ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(100))
            .build();
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        match state.submit(id, &histogram(), &acc).unwrap() {
            SubmitOutcome::Response(r) => assert!(!r.is_denied()),
            other => panic!("expected an answer, got {other:?}"),
        }
        let spent = state.with_session(id, |s| s.session.spent()).unwrap();
        assert!(spent > 0.0);

        // Not yet idle long enough: the reaper leaves it alone.
        clock.advance(100);
        assert!(state.reap_expired().unwrap().is_empty());
        // One more tick pushes it past the TTL.
        clock.advance(1);
        let reaped = state.reap_expired().unwrap();
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].0, id);
        assert!((reaped[0].1 - (0.5 - spent)).abs() < 1e-12);
        assert_eq!(state.session_status(id), SessionStatus::Expired);
        assert_eq!(state.session_count(), 0);
        assert_eq!(state.expired_count(), 1);
        let reclaimed = state.tenant("a").unwrap().reclaimed();
        assert!((reclaimed - (0.5 - spent)).abs() < 1e-12);

        // Second reap and a direct re-expire both release nothing more.
        assert!(state.reap_expired().unwrap().is_empty());
        assert_eq!(state.expire_session(id).unwrap(), None);
        assert_eq!(state.tenant("a").unwrap().reclaimed(), reclaimed);
        // Submitting to the corpse reports Gone, not NoSuchSession.
        assert!(matches!(
            state.submit(id, &histogram(), &acc).unwrap(),
            SubmitOutcome::Gone
        ));
    }

    #[test]
    fn submissions_refresh_the_idle_clock() {
        let clock = ManualClock::new();
        let state = ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(50))
            .build();
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        for _ in 0..4 {
            clock.advance(40); // would expire without the refresh below
            let _ = state.submit(id, &histogram(), &acc).unwrap();
            assert!(state.reap_expired().unwrap().is_empty());
        }
        clock.advance(51);
        assert_eq!(state.reap_expired().unwrap().len(), 1);
    }

    #[test]
    fn in_flight_sessions_are_never_reaped() {
        let clock = ManualClock::new();
        let state = ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(100))
            .build();
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        // Pin the session exactly as submit does for its in-flight span.
        let (_session, _dataset, pin) = state.pin_session(id).expect("session is live");
        // Way past the TTL: an unpinned session would be reaped, the
        // pinned one must survive (the mid-flight-expiry bug).
        clock.advance(1_000);
        assert!(
            state.reap_expired().unwrap().is_empty(),
            "a session with a query in flight must never be reaped"
        );
        assert_eq!(state.session_status(id), SessionStatus::Live);
        // Completion re-stamps the idle clock before unpinning…
        drop(pin);
        assert!(
            state.reap_expired().unwrap().is_empty(),
            "the completion re-stamp must reset idleness"
        );
        // …and only genuine idleness after completion expires it.
        clock.advance(101);
        assert_eq!(state.reap_expired().unwrap().len(), 1);
        assert_eq!(state.session_status(id), SessionStatus::Expired);
    }

    #[test]
    fn failed_wal_append_charges_nothing_and_recovery_agrees() {
        let dir = temp_dir("walfault");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            ..PersistOptions::new(&dir)
        };
        let spent_final = {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            let id = state.create_session("a", 0.9).unwrap().unwrap();
            state.submit(id, &histogram(), &acc).unwrap();
            let spent = state.tenant("a").unwrap().engine.spent();
            let answered = state.tenant("a").unwrap().engine.export_ledger().answered;
            assert!(spent > 0.0);

            // Injected append failure at the commit point: the charge
            // must be durable-or-nothing — neither the engine ledger,
            // nor the slice, nor the transcript may move.
            state.inject_wal_faults(1);
            match state.submit(id, &histogram(), &acc) {
                Err(SubmitError::Wal(_)) => {}
                other => panic!("injected fault must surface as a WAL error, got {other:?}"),
            }
            let tenant = state.tenant("a").unwrap();
            assert_eq!(
                tenant.engine.spent(),
                spent,
                "engine charged on a failed append"
            );
            assert_eq!(
                state.with_session(id, |s| s.session.spent()).unwrap(),
                spent,
                "slice charged on a failed append"
            );
            assert_eq!(tenant.engine.export_ledger().answered, answered);

            // The writer healed: the session keeps answering.
            match state.submit(id, &histogram(), &acc).unwrap() {
                SubmitOutcome::Response(r) => assert!(!r.is_denied()),
                other => panic!("unexpected: {other:?}"),
            }
            state.tenant("a").unwrap().engine.spent()
            // Dropped without compaction: recovery replays the WAL.
        };

        // On restart the recovered ledger equals the in-memory one
        // exactly — before the fix, a failed append left in-memory spent
        // above durable spent, silently refilling B across a restart.
        let (state, _) = mk().build_recovered(opts()).unwrap();
        let recovered = state.tenant("a").unwrap().engine.spent();
        assert!(
            (recovered - spent_final).abs() < 1e-9,
            "recovered {recovered} diverged from acked {spent_final}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_locks_recover_and_the_shard_keeps_serving() {
        // A handler panicking while holding any of the std locks
        // poisons it. Before the `lockx` recovery every later request
        // on the shard re-panicked on the poison — one bad request
        // cascading into a dead shard. Poison every lock a request
        // path takes, then prove the full surface keeps serving.
        apex_core::sched::silence_simulated_crashes();
        let clock = ManualClock::new();
        let state = ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(100))
            .build();
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let id = state.create_session("a", 1.0).unwrap().unwrap();

        // Each closure grabs its lock and dies holding it.
        let poison = |f: &(dyn Fn() + Sync)| {
            std::thread::scope(|s| {
                let _ = s.spawn(f).join();
            });
        };
        poison(&|| {
            let _g = state.sessions.write().unwrap();
            std::panic::panic_any(apex_core::sched::SimulatedCrash);
        });
        poison(&|| {
            let _g = state.ledger_gate.write().unwrap();
            std::panic::panic_any(apex_core::sched::SimulatedCrash);
        });
        poison(&|| {
            let _g = state.tenant("a").unwrap().reclaimed.lock().unwrap();
            std::panic::panic_any(apex_core::sched::SimulatedCrash);
        });
        assert!(state.sessions.is_poisoned(), "setup: write poison failed");
        assert!(state.ledger_gate.is_poisoned());

        // Every request path crosses at least one poisoned lock now.
        match state.submit(id, &histogram(), &acc).unwrap() {
            SubmitOutcome::Response(r) => assert!(!r.is_denied()),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(state.list_sessions().len(), 1);
        assert!(matches!(state.session_status(id), SessionStatus::Live));
        let id2 = state.create_session("a", 0.5).unwrap().unwrap();
        assert_eq!(state.tenant("a").unwrap().reclaimed(), 0.0);
        assert!(state.expire_session(id2).unwrap().is_some());
        assert!(state.tenant("a").unwrap().reclaimed() > 0.0);
        clock.advance(101);
        assert_eq!(state.reap_expired().unwrap().len(), 1);
        assert!(matches!(state.session_status(id), SessionStatus::Expired));
    }

    #[test]
    fn state_recovers_wal_over_snapshot_across_restarts() {
        let dir = temp_dir("recover");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let builder =
            || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());

        let (spent_before, id) = {
            let (state, report) = builder()
                .build_recovered(PersistOptions {
                    sync: false,
                    ..PersistOptions::new(&dir)
                })
                .unwrap();
            assert_eq!(report.replayed, 0);
            let id = state.create_session("a", 0.5).unwrap().unwrap();
            for _ in 0..3 {
                state.submit(id, &histogram(), &acc).unwrap();
            }
            (state.tenant("a").unwrap().engine.spent(), id)
            // Dropped without compaction: recovery must come from the WAL.
        };
        assert!(spent_before > 0.0);

        let (state, report) = builder()
            .build_recovered(PersistOptions {
                sync: false,
                ..PersistOptions::new(&dir)
            })
            .unwrap();
        assert_eq!(report.replayed, 4, "open + three submissions");
        assert_eq!(report.sessions, 1);
        let spent_after = state.tenant("a").unwrap().engine.spent();
        assert!((spent_after - spent_before).abs() < 1e-9);
        // The restored session resumes mid-slice with its old spend.
        let session_spent = state.with_session(id, |s| s.session.spent()).unwrap();
        assert!((session_spent - spent_before).abs() < 1e-9);
        // Fresh ids never collide with recovered ones.
        let new_id = state.create_session("a", 0.1).unwrap().unwrap();
        assert!(new_id > id);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutations_on_resident_tenants_recover_across_restart_and_compaction() {
        let dir = temp_dir("mutrec");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            snapshot_every: 2, // force the journal through a snapshot
            ..PersistOptions::new(&dir)
        };

        let (epoch, applied, rows, spent) = {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            match state
                .mutate_rows("a", true, &[vec![Value::Int(3)], vec![Value::Int(5)]])
                .unwrap()
            {
                MutateOutcome::Applied(d) => {
                    assert_eq!(d.inserted.len(), 2);
                    assert_eq!(d.epoch, 1);
                }
                other => panic!("expected Applied, got {other:?}"),
            }
            // One real match, one silent no-op: the epoch still bumps,
            // so replay must reproduce the no-op too.
            match state
                .mutate_rows("a", false, &[vec![Value::Int(6)], vec![Value::Int(6)]])
                .unwrap()
            {
                MutateOutcome::Applied(d) => {
                    assert_eq!(d.deleted.len(), 1);
                    assert_eq!(d.epoch, 2);
                }
                other => panic!("expected Applied, got {other:?}"),
            }
            // Interleave queries so compaction runs with the journal live.
            let id = state.create_session("a", 0.9).unwrap().unwrap();
            for _ in 0..6 {
                state.submit(id, &histogram(), &acc).unwrap();
            }
            let t = state.tenant("a").unwrap();
            (
                t.engine.epoch(),
                t.engine.mutations_applied(),
                t.engine.with_engine(|e| e.dataset_scan_rows()),
                t.engine.spent(),
            )
        };
        assert_eq!((epoch, applied), (2, 2));
        assert_eq!(rows, 8 + 2 - 1);

        let (state, _) = mk().build_recovered(opts()).unwrap();
        let t = state.tenant("a").unwrap();
        assert_eq!(t.engine.epoch(), epoch, "replayed epoch diverged");
        assert_eq!(t.engine.mutations_applied(), applied);
        assert_eq!(t.engine.with_engine(|e| e.dataset_scan_rows()), rows);
        assert!((t.engine.spent() - spent).abs() < 1e-9);
        // Mutating an unknown tenant reports, never errors.
        assert!(matches!(
            state.mutate_rows("ghost", true, &[vec![Value::Int(1)]]),
            Ok(MutateOutcome::NoSuchDataset)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_mutation_append_surfaces_and_the_writer_heals() {
        let dir = temp_dir("mutfault");
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            ..PersistOptions::new(&dir)
        };
        let (state, _) = mk().build_recovered(opts()).unwrap();

        // Apply-then-log: the injected append failure surfaces as a WAL
        // error (the client sees 500, no ack), with the live engine one
        // epoch ahead of disk until restart — the documented window.
        state.inject_wal_faults(1);
        match state.mutate_rows("a", true, &[vec![Value::Int(1)]]) {
            Err(SubmitError::Wal(_)) => {}
            other => panic!("injected fault must surface as a WAL error, got {other:?}"),
        }
        assert_eq!(state.tenant("a").unwrap().engine.epoch(), 1);

        // The writer healed: the next mutation is acked and durable.
        match state
            .mutate_rows("a", true, &[vec![Value::Int(2)]])
            .unwrap()
        {
            MutateOutcome::Applied(d) => assert_eq!(d.epoch, 2),
            other => panic!("expected Applied, got {other:?}"),
        }
        drop(state);

        // Recovery replays only acked mutations; the un-acked epoch-1
        // batch is gone, and the acked epoch-2 batch (journaled with its
        // pre-crash epoch) re-applies through the epoch gate.
        let (state, _) = mk().build_recovered(opts()).unwrap();
        let t = state.tenant("a").unwrap();
        assert_eq!(t.engine.mutations_applied(), 1, "only the acked batch");
        assert_eq!(t.engine.with_engine(|e| e.dataset_scan_rows()), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_the_wal_and_recovery_agrees() {
        let dir = temp_dir("compact");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            snapshot_every: 3, // compact aggressively
            ..PersistOptions::new(&dir)
        };

        let spent_before = {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            let id = state.create_session("a", 0.9).unwrap().unwrap();
            for _ in 0..8 {
                state.submit(id, &histogram(), &acc).unwrap();
            }
            state.expire_session(id).unwrap().unwrap();
            state.tenant("a").unwrap().engine.spent()
        };
        // Several compactions ran; only recent generations remain.
        let gens = snapshot::list_wal_gens(&dir).unwrap();
        assert!(
            gens.len() <= 2,
            "pruning must bound the WAL chain: {gens:?}"
        );

        let (state, _) = mk().build_recovered(opts()).unwrap();
        assert!((state.tenant("a").unwrap().engine.spent() - spent_before).abs() < 1e-9);
        assert_eq!(state.session_count(), 0);
        assert_eq!(state.expired_count(), 1, "tombstones survive restarts");
        assert!(state.tenant("a").unwrap().reclaimed() > 0.0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_dir_refuses_a_second_live_writer() {
        let dir = temp_dir("lock");
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            ..PersistOptions::new(&dir)
        };
        let (state, _) = mk().build_recovered(opts()).unwrap();
        // A second writer on the same dir (same process is the most
        // direct double-writer hazard) must refuse while the first
        // lives.
        match mk().build_recovered(opts()) {
            Err(RecoverError::DirLocked { holder, .. }) => {
                assert_eq!(holder, Some(std::process::id()));
            }
            other => panic!("second writer must refuse, got {other:?}"),
        }
        drop(state);
        // Released on drop: recovery proceeds again…
        let (state, _) = mk().build_recovered(opts()).unwrap();
        drop(state);
        // …and a stale lock from a dead writer is stolen, because a
        // hard crash is exactly the case recovery exists for.
        std::fs::write(dir.join("lock"), "999999999").unwrap();
        let _ = mk()
            .build_recovered(opts())
            .expect("stale lock must be stolen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rotation_never_strands_acked_records() {
        // Regression: compaction must open the next WAL generation
        // BEFORE committing the snapshot that covers the current one.
        // With the reverse order, a failed open after a committed
        // snapshot would leave later acked appends in a generation
        // recovery is told to ignore — silently refilling B.
        let dir = temp_dir("rotfail");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            ..PersistOptions::new(&dir)
        };
        let (spent_live, blocked_gen) = {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            let cur = *snapshot::list_wal_gens(&dir).unwrap().last().unwrap();
            // Plant a directory where the next generation would go, so
            // rotation's WalWriter::open must fail.
            std::fs::create_dir(snapshot::wal_path(&dir, cur + 1)).unwrap();
            let id = state.create_session("a", 0.9).unwrap().unwrap();
            state.submit(id, &histogram(), &acc).unwrap();
            assert!(state.compact().is_err(), "blocked rotation must error");
            // Appends after the failed compaction are still acked…
            state.submit(id, &histogram(), &acc).unwrap();
            (state.tenant("a").unwrap().engine.spent(), cur + 1)
        };
        assert!(spent_live > 0.0);
        // …and must all be recoverable once the blockage clears.
        std::fs::remove_dir(snapshot::wal_path(&dir, blocked_gen)).unwrap();
        let (state, _) = mk().build_recovered(opts()).unwrap();
        let recovered = state.tenant("a").unwrap().engine.spent();
        assert!(
            (recovered - spent_live).abs() < 1e-9,
            "acked records stranded by a failed rotation: {recovered} vs {spent_live}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_behind_a_stray_empty_generation_still_recovers() {
        // Regression: a rotation that failed after opening wal-(G+1)
        // but before committing its snapshot leaves an empty stray
        // generation. A later crash mid-append into G must still read
        // as a truncatable torn tail, not an unrecoverable "mid-log"
        // corruption (G is the last generation holding anything).
        let dir = temp_dir("stray");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            ..PersistOptions::new(&dir)
        };
        let spent_live = {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            let id = state.create_session("a", 0.9).unwrap().unwrap();
            state.submit(id, &histogram(), &acc).unwrap();
            state.tenant("a").unwrap().engine.spent()
        };
        let gen = *snapshot::list_wal_gens(&dir).unwrap().last().unwrap();
        // The stray: a magic-only next generation.
        std::fs::write(snapshot::wal_path(&dir, gen + 1), wal::WAL_FORMAT.magic).unwrap();
        // The crash artifact: half a frame on the active generation.
        let path = snapshot::wal_path(&dir, gen);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();

        let (state, report) = mk().build_recovered(opts()).unwrap();
        assert!(report.truncated.is_some(), "the torn tail was cut");
        assert!(
            (state.tenant("a").unwrap().engine.spent() - spent_live).abs() < 1e-9,
            "every acked record behind the stray must replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_refuses_corruption_but_truncates_torn_tails() {
        let dir = temp_dir("tails");
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        let opts = || PersistOptions {
            sync: false,
            ..PersistOptions::new(&dir)
        };
        {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            let id = state.create_session("a", 0.5).unwrap().unwrap();
            state.submit(id, &histogram(), &acc).unwrap();
        }
        let gen = *snapshot::list_wal_gens(&dir).unwrap().last().unwrap();
        let path = snapshot::wal_path(&dir, gen);

        // Torn tail (half a record): recovered silently, with a report.
        let clean = std::fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&clean[8..15]);
        std::fs::write(&path, &torn).unwrap();
        let (state, report) = mk().build_recovered(opts()).unwrap();
        assert_eq!(report.truncated, Some(clean.len() as u64));
        let spent = state.tenant("a").unwrap().engine.spent();
        drop(state);

        // Corrupt tail (bit flip in the last record): refused by
        // default…
        let gen = *snapshot::list_wal_gens(&dir).unwrap().last().unwrap();
        let path = snapshot::wal_path(&dir, gen);
        {
            let (state, _) = mk().build_recovered(opts()).unwrap();
            let id = state.create_session("a", 0.1).unwrap().unwrap();
            let _ = state.submit(id, &histogram(), &acc);
            drop(state);
            let _ = path; // the new generation is the one to damage
        }
        let gen = *snapshot::list_wal_gens(&dir).unwrap().last().unwrap();
        let path = snapshot::wal_path(&dir, gen);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match mk().build_recovered(opts()) {
            Err(RecoverError::CorruptWalTail { .. }) => {}
            other => panic!("corrupt tail must refuse by default, got {other:?}"),
        }
        // …and truncated at the last valid record with explicit consent.
        let (state, report) = mk()
            .build_recovered(PersistOptions {
                truncate_corrupt: true,
                ..opts()
            })
            .unwrap();
        assert!(report.truncated.is_some());
        // The damaged record was dropped, never partially replayed: the
        // engine's ledger still matches a valid prefix (≤ the pre-damage
        // spend, and exactly the spend of the surviving records).
        assert!(state.tenant("a").unwrap().engine.spent() <= spent + 1e-9);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_refuses_overspent_and_unknown_state() {
        let dir = temp_dir("refuse");
        std::fs::create_dir_all(&dir).unwrap();
        // A hand-written snapshot claiming more spend than B = 1.
        let snap = Snapshot {
            covered_gen: 0,
            next_session: 5,
            tenants: vec![TenantLedger {
                name: "a".into(),
                spent: 42.0,
                reclaimed: 0.0,
            }],
            sessions: vec![],
            mutations: vec![],
        };
        snapshot::write_snapshot(&dir, &snap).unwrap();
        let mk = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());
        match mk().build_recovered(PersistOptions::new(&dir)) {
            Err(RecoverError::LedgerOverflow { tenant, .. }) => assert_eq!(tenant, "a"),
            other => panic!("overspent store must refuse, got {other:?}"),
        }
        // A snapshot naming an unregistered tenant refuses too.
        let snap = Snapshot {
            tenants: vec![TenantLedger {
                name: "ghost".into(),
                spent: 0.1,
                reclaimed: 0.0,
            }],
            ..Default::default()
        };
        snapshot::write_snapshot(&dir, &snap).unwrap();
        match mk().build_recovered(PersistOptions::new(&dir)) {
            Err(RecoverError::UnknownTenant(name)) => assert_eq!(name, "ghost"),
            other => panic!("unknown tenant must refuse, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- The group-commit gate. These assert the gate's counters,
    // never wall clock: the backstop is lifted, so a gather that only
    // the timer could end hangs the test instead of passing it. ----

    /// A durable two-tenant state ("a" and "b" commit under different
    /// engine locks, as two workers' requests usually do).
    fn gate_state(tag: &str) -> (ServerState, PathBuf) {
        let dir = temp_dir(tag);
        let (state, _) = ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .dataset("b", tiny_dataset(), EngineConfig::default())
            .build_recovered(PersistOptions::new(&dir))
            .unwrap();
        let gate = state.sync_gate().unwrap();
        lockx::lock(&gate.progress).backstop_override = Some(Duration::from_secs(60));
        (state, dir)
    }

    fn wal(state: &ServerState) -> WalStats {
        state.wal_stats().unwrap()
    }

    /// Opens a session from a second present worker and returns once
    /// that worker leads a group and is gathering.
    fn gathering_worker<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        state: &'s ServerState,
    ) -> std::thread::ScopedJoinHandle<'s, ()> {
        let before = wal(state).gathers;
        let handle = scope.spawn(move || {
            let _present = state.writer_present();
            state.create_session("b", 0.01).unwrap().unwrap();
        });
        while wal(state).gathers == before {
            std::thread::yield_now();
        }
        handle
    }

    #[test]
    fn sync_gate_solo_writer_never_gathers() {
        let (state, dir) = gate_state("gate-solo");
        // Two workers on the shard; the second holds no request.
        let _present = state.writer_present();
        drop(state.writer_present());
        for _ in 0..3 {
            state.create_session("b", 0.01).unwrap().unwrap();
        }
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        state.submit(id, &histogram(), &acc).unwrap();
        assert_eq!(
            wal(&state),
            WalStats {
                durable_records: 5,
                covered: 5,
                syncs: 5,
                present: 1,
                ..WalStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_gate_pairs_two_present_writers_under_one_sync() {
        let (state, dir) = gate_state("gate-pair");
        // Worker A holds a request but has not reached `log` yet.
        let a = state.writer_present();
        std::thread::scope(|scope| {
            let b = gathering_worker(scope, &state);
            assert_eq!(wal(&state).syncs, 0, "B must wait for A");
            state.create_session("a", 0.01).unwrap().unwrap();
            b.join().unwrap();
        });
        drop(a);
        assert_eq!(
            wal(&state),
            WalStats {
                durable_records: 2,
                covered: 2,
                syncs: 1,
                gathers: 1,
                ..WalStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_gate_leaver_releases_a_gathering_leader() {
        let (state, dir) = gate_state("gate-leaver");
        let a = state.writer_present();
        std::thread::scope(|scope| {
            let b = gathering_worker(scope, &state);
            // A's request returns early — a 404 that never reaches
            // `log` — and B keeps waiting while A still holds it…
            let acc = AccuracySpec::new(25.0, 0.05).unwrap();
            assert!(matches!(
                state.submit(999, &histogram(), &acc).unwrap(),
                SubmitOutcome::NoSuchSession
            ));
            assert_eq!(wal(&state).syncs, 0);
            // …until A goes back to wait for input.
            drop(a);
            b.join().unwrap();
        });
        assert_eq!(
            wal(&state),
            WalStats {
                durable_records: 1,
                covered: 1,
                syncs: 1,
                gathers: 1,
                ..WalStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Blocks its thread at one yield point until told to go on, or
    /// panics there.
    struct AtPoint {
        point: &'static str,
        reached: std::sync::mpsc::Sender<()>,
        resume: Option<std::sync::mpsc::Receiver<()>>,
    }

    impl apex_core::sched::SchedHook for AtPoint {
        fn reach(&self, point: &'static str) {
            if point == self.point {
                self.reached.send(()).unwrap();
                match &self.resume {
                    Some(resume) => resume.recv().unwrap(),
                    None => std::panic::panic_any(apex_core::sched::SimulatedCrash),
                }
            }
        }
    }

    #[test]
    fn sync_gate_does_not_wait_for_a_writer_inside_evaluate() {
        let (state, dir) = gate_state("gate-evaluating");
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let (reached_tx, reached) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let state = &state;
            let a = scope.spawn(move || {
                let _present = state.writer_present();
                let _hook = apex_core::sched::hook_scope(std::rc::Rc::new(AtPoint {
                    point: "session.evaluate.enter",
                    reached: reached_tx,
                    resume: Some(resume_rx),
                }));
                let acc = AccuracySpec::new(25.0, 0.05).unwrap();
                state.submit(id, &histogram(), &acc).unwrap();
            });
            // A is suspended inside evaluate: present, but B's commit
            // syncs at once.
            reached.recv().unwrap();
            let present = state.writer_present();
            assert_eq!(wal(state).present, 2);
            state.create_session("b", 0.01).unwrap().unwrap();
            assert_eq!((wal(state).syncs, wal(state).gathers), (2, 0));
            drop(present);
            resume.send(()).unwrap();
            a.join().unwrap();
        });
        assert_eq!(
            wal(&state),
            WalStats {
                durable_records: 3,
                covered: 3,
                syncs: 3,
                ..WalStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_gate_leader_waits_a_peers_evaluate_out_and_pairs() {
        let (state, dir) = gate_state("gate-evaluate-pair");
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let (reached_tx, reached) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        let (go, go_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let state = &state;
            // Worker A holds a request it has yet to evaluate.
            let a = scope.spawn(move || {
                let _present = state.writer_present();
                reached_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                let _hook = apex_core::sched::hook_scope(std::rc::Rc::new(AtPoint {
                    point: "session.evaluate.enter",
                    reached: reached_tx,
                    resume: Some(resume_rx),
                }));
                let acc = AccuracySpec::new(25.0, 0.05).unwrap();
                state.submit(id, &histogram(), &acc).unwrap();
            });
            reached.recv().unwrap();
            let b = gathering_worker(scope, state);
            // A moving into evaluate does not end B's gather…
            go.send(()).unwrap();
            reached.recv().unwrap();
            assert_eq!(wal(state).syncs, 1, "B must still be waiting for A");
            // …A's commit joining it does.
            resume.send(()).unwrap();
            a.join().unwrap();
            b.join().unwrap();
        });
        assert_eq!(
            wal(&state),
            WalStats {
                durable_records: 3,
                covered: 3,
                syncs: 2,
                gathers: 1,
                ..WalStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_gate_counts_survive_a_panic_inside_evaluate() {
        let (state, dir) = gate_state("gate-panic");
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let (reached, _rx) = std::sync::mpsc::channel();
        // What a shard worker does around `router::route`.
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _present = state.writer_present();
            let _hook = apex_core::sched::hook_scope(std::rc::Rc::new(AtPoint {
                point: "session.evaluate.enter",
                reached,
                resume: None,
            }));
            let acc = AccuracySpec::new(25.0, 0.05).unwrap();
            let _ = state.submit(id, &histogram(), &acc);
        }));
        assert!(crashed.is_err());
        let prog = lockx::lock(&state.sync_gate().unwrap().progress);
        assert_eq!((prog.present, prog.evaluating), (0, 0));
        drop(prog);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_gate_direct_caller_never_gathers() {
        // No worker around the calls — the exerciser, the benchmark
        // ladder, `tests/service.rs`: nobody is ever present, and the
        // caller's own evaluate must not wrap the count below zero.
        let (state, dir) = gate_state("gate-direct");
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        let acc = AccuracySpec::new(25.0, 0.05).unwrap();
        state.submit(id, &histogram(), &acc).unwrap();
        state.expire_session(id).unwrap();
        assert_eq!(
            wal(&state),
            WalStats {
                durable_records: 3,
                covered: 3,
                syncs: 3,
                ..WalStats::default()
            }
        );
        let prog = lockx::lock(&state.sync_gate().unwrap().progress);
        assert_eq!(prog.evaluating, 0);
        drop(prog);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
