//! Durable state: the state-directory lock, and recovery — the WAL
//! generations past the snapshot folded over it
//! ([`Snapshot::apply`](snapshot::Snapshot::apply)), then re-imposed on
//! fresh engines whose datasets have replayed their own mutation logs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
#[cfg(any(test, feature = "sched"))]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use apex_core::EngineError;

use super::{Persist, ServerState, ServerStateBuilder, SessionEntry};
use crate::lockx;
use crate::snapshot;
use crate::wal::{self, SharedWal, WalTail, WalWriter};

/// Durability configuration for [`ServerStateBuilder::build_recovered`].
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// State directory (created if missing): `snapshot.bin`,
    /// `wal-<GEN>.log`, and each resident tenant's mutation log under
    /// `rows/<tenant>/`.
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
        /// The error from
        /// [`SharedEngine::import_ledger`](apex_core::SharedEngine::import_ledger).
        source: EngineError,
    },
    /// A WAL holds a row-mutation record (the frozen tag 5), which only
    /// a format that logged mutations in the WAL wrote: re-applying it
    /// could double a mutation the dataset's own log holds, dropping it
    /// could lose one. Names the record's dataset.
    WalMutation(String),
    /// A tenant has spent budget on a shard the current ring no longer
    /// routes it to: the state dir was written under another shard
    /// count. Its new owner would charge a fresh ledger, and the tenant
    /// could spend `B` again — stop, and restart with the shard count the
    /// dir was written with.
    MovedSpend {
        /// The moved tenant.
        tenant: String,
        /// The shard whose ledger holds the spend.
        shard: usize,
        /// The shard the current ring routes the tenant to.
        owner: usize,
        /// The ε the stranded ledger has charged.
        spent: f64,
    },
    /// A tenant's logged row mutations failed to re-apply on recovery —
    /// the rebuilt dataset would diverge from the data every acked answer
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
            RecoverError::WalMutation(name) => {
                write!(f, "WAL holds a tag-5 mutation record for \"{name}\"")
            }
            RecoverError::MovedSpend {
                tenant,
                shard,
                owner,
                spent,
            } => write!(
                f,
                "tenant \"{tenant}\" has spent {spent} on shard {shard}, but this shard count \
                 routes it to shard {owner}, which would charge a fresh ledger and let it spend \
                 B again — restart with the shard count the state dir was written with"
            ),
            RecoverError::MutationReplay { tenant, source } => {
                write!(f, "mutation log of \"{tenant}\" failed to replay: {source}")
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

/// Exclusive ownership of a state directory: a `lock` file created with
/// `O_EXCL` holding this process's pid. Two servers appending to one WAL
/// would interleave torn frames, prune each other's generations, and
/// jointly spend `2B` — so the second opener must refuse. A lock left by
/// a *dead* pid (hard crash — exactly the case recovery exists for) is
/// detected via `/proc/<pid>` and stolen; where liveness cannot be
/// checked, the conservative answer is to refuse and tell the operator.
#[derive(Debug)]
pub(super) struct DirLock {
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

impl ServerStateBuilder {
    /// Finishes a **durable** registry: recovers WAL-over-snapshot from
    /// `opts.dir` (creating it when empty), gives every tenant its
    /// dataset's mutation log (replaying a resident tenant's), re-imposes
    /// spent budget on every engine, re-opens live sessions mid-slice,
    /// then compacts so
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
        let mut snap = snapshot::read_snapshot(&opts.dir)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    RecoverError::CorruptSnapshot(e.to_string())
                } else {
                    RecoverError::Io(e)
                }
            })?
            .unwrap_or_default();

        // 2. Fold every WAL record past the snapshot into it, in file
        // order.
        let records = read_wal_gens(&opts, snap.covered_gen, &mut report)?;
        report.replayed = records.len();
        let mut closed = HashMap::new();
        for record in records {
            snap.apply(record, &mut closed).map_err(|e| match e {
                snapshot::FoldError::UnknownSession(id) => RecoverError::UnknownSession(id),
                snapshot::FoldError::Mutation(name) => RecoverError::WalMutation(name),
            })?;
        }

        // 3. Everything the image names must be registered.
        let mut state = self.build();
        let named =
            (snap.tenants.iter().map(|t| &t.name)).chain(snap.sessions.iter().map(|s| &s.dataset));
        if let Some(name) = named.into_iter().find(|n| state.tenant(n).is_none()) {
            return Err(RecoverError::UnknownTenant(name.clone()));
        }

        // 4. Give every tenant its dataset's own mutation log: a resident
        // tenant replays the mutations acked before the restart over its
        // builder-supplied base (a paged one replayed its store's log when
        // it was opened). A never-mutated tenant's log does not exist, and
        // reading it creates nothing.
        for (name, tenant) in &state.tenants {
            let dir = opts.dir.join("rows").join(name);
            let replayed = tenant.engine.attach_mutation_log(&dir);
            replayed.map_err(|source| RecoverError::MutationReplay {
                tenant: name.clone(),
                source,
            })?;
        }

        // 5. Re-impose the ledgers on the fresh engines.
        for (name, tenant) in &state.tenants {
            let ledger = snap.tenants.iter().find(|t| t.name == *name);
            let spent = ledger.map_or(0.0, |t| t.spent);
            tenant
                .engine
                .import_ledger(spent)
                .map_err(|source| RecoverError::LedgerOverflow {
                    tenant: name.clone(),
                    source,
                })?;
            *lockx::lock(&tenant.reclaimed) = ledger.map_or(0.0, |t| t.reclaimed);
            report.tenants.push((name.clone(), spent));
        }

        // 6. Re-open live sessions mid-slice, activity reset to now.
        let now = state.clock.now_millis();
        let mut live = HashMap::with_capacity(snap.sessions.len());
        for img in snap.sessions {
            let engine = &state.tenant(&img.dataset).expect("checked above").engine;
            let session = engine.session_with_spent(img.allowance, img.spent);
            live.insert(img.id, SessionEntry::new(img.dataset, session, now));
        }
        report.sessions = live.len();
        state.sessions = RwLock::new(live);

        // 7. Open the next WAL generation and make the state durable.
        let all_gens = snapshot::list_wal_gens(&opts.dir)?;
        let covered_gen = snap.covered_gen;
        let new_gen = all_gens.last().map_or(covered_gen, |&g| g.max(covered_gen)) + 1;
        let writer = WalWriter::open(&snapshot::wal_path(&opts.dir, new_gen), opts.sync)?;
        state.next_session = AtomicU64::new(snap.next_session.max(state.session_id_base + 1));
        state.persist = Some(Persist {
            dir: opts.dir,
            snapshot_every: opts.snapshot_every.max(1),
            sync: opts.sync,
            _lock: lock,
            wal: SharedWal::new(writer, new_gen),
            #[cfg(any(test, feature = "sched"))]
            fail_appends: AtomicU64::new(0),
        });
        // 8. Fold everything just replayed into a fresh snapshot, so the
        // next crash replays from here, not from the beginning of time.
        state.compact()?;
        Ok((state, report))
    }
}

/// The records of every WAL generation past `covered_gen`, in order,
/// with damaged tails truncated or refused. Tail damage is only a
/// *crash artifact* in the generation that was actively written — the
/// last one holding anything. Generations after it that are completely
/// empty (magic only) are strays from a rotation that failed between
/// opening the next file and committing its snapshot; they must not
/// promote earlier tail damage into an unrecoverable "mid-log" refusal.
fn read_wal_gens(
    opts: &PersistOptions,
    covered_gen: u64,
    report: &mut RecoveryReport,
) -> Result<Vec<wal::WalRecord>, RecoverError> {
    let mut read = Vec::new();
    for gen in snapshot::list_wal_gens(&opts.dir)? {
        if gen > covered_gen {
            let (recs, tail) = wal::read_wal(&snapshot::wal_path(&opts.dir, gen))?;
            read.push((gen, recs, tail));
        }
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
    Ok(records)
}
