//! The session table: opening, resolving and pinning sessions, their
//! idle TTLs, closing them (admin or reaper), and the reaper thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use apex_core::EngineSession;

use super::ServerState;
use crate::clock::Clock;
use crate::lockx;
use crate::snapshot::SessionImage;
use crate::wal::WalRecord;

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

impl SessionEntry {
    /// A session on `dataset`, last active at `now`, with nothing in
    /// flight.
    pub(super) fn new(dataset: String, session: EngineSession, now: u64) -> Self {
        Self {
            dataset,
            session,
            last_active: Arc::new(AtomicU64::new(now)),
            in_flight: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The session as a snapshot persists it.
    pub(super) fn image(&self, id: u64) -> SessionImage {
        SessionImage {
            id,
            dataset: self.dataset.clone(),
            allowance: self.session.allowance(),
            spent: self.session.spent(),
        }
    }

    /// Not pinned, and idle for more than `ttl` at `now`.
    fn reapable(&self, now: u64, ttl: u64) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
            && now.saturating_sub(self.last_active.load(Ordering::SeqCst)) > ttl
    }
}

/// Pins one in-flight submission (see [`SessionEntry::in_flight`]).
/// However the submission exits — answer, denial, error, panic — the
/// drop re-stamps the idle clock *then* releases the pin, in that
/// order, so the reaper can never observe an unpinned session with a
/// stale tick from before the query ran.
#[derive(Debug)]
pub(super) struct InFlightGuard {
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

/// Admin-plane view of one session: its persisted image, plus how long
/// it has been idle.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Id, bound dataset, budget slice and loss charged so far.
    pub session: SessionImage,
    /// Milliseconds since the last submission.
    pub idle_millis: u64,
}

impl ServerState {
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
        let entry = SessionEntry::new(
            dataset.to_string(),
            tenant.engine.session(allowance),
            self.clock.now_millis(),
        );
        lockx::write(&self.sessions).insert(id, entry);
        drop(_gate);
        apex_core::sched_point!("state.open.inserted");
        self.maybe_compact();
        Ok(Some(id))
    }

    /// Resolves a live session and pins it in-flight: stamps the
    /// activity tick on entry, and the returned guard re-stamps it and
    /// releases the pin when the submission completes. `None` for ids
    /// that are not live.
    pub(super) fn pin_session(&self, id: u64) -> Option<(EngineSession, String, InFlightGuard)> {
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
                session: e.image(id),
                idle_millis: now.saturating_sub(e.last_active.load(Ordering::Relaxed)),
            })
            .collect();
        out.sort_by_key(|s| s.session.id);
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
            .filter(|(_, e)| e.reapable(now, ttl))
            .map(|(&id, _)| id)
            .collect();
        apex_core::sched_point!("state.reap.scanned");
        let mut reaped = Vec::new();
        for id in idle {
            // Re-verify pin + staleness under the write lock at the
            // removal point: a submission may have pinned (or finished
            // and re-stamped) this session since the scan above, and a
            // live query must never lose its session to the reaper.
            if let Some(released) = self.expire_session_if(id, |e| e.reapable(now, ttl))? {
                reaped.push((id, released));
            }
        }
        Ok(reaped)
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
