//! Admission, charge and durability ordering: the two-phase submission,
//! the WAL append and sync every budget-mutating event makes before its
//! ack, and the compaction that folds the WAL into a snapshot.

use std::sync::atomic::Ordering;

use apex_core::{CommitError, EngineError, EngineResponse, EngineSession};
use apex_query::{AccuracySpec, ExplorationQuery};

use super::sessions::InFlightGuard;
use super::ServerState;
use crate::lockx;
use crate::snapshot::{self, Snapshot, TenantLedger};
use crate::wal::{GateCount, SharedWal, Staged, WalRecord, WalStats, WalWriter};

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
    /// agreeing that nothing happened. Or the covering sync failed after
    /// the charge: never acked, the writer poisoned, and in-memory
    /// `spent` over-counts by at most that charge — the safe direction:
    /// `500`.
    Wal(std::io::Error),
    /// A mutation batch whose rows encode to more than 64 KiB — refused
    /// before anything was logged or applied: `413`.
    BatchTooLarge {
        /// Encoded size of the refused batch's rows.
        bytes: usize,
        /// The per-batch bound.
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
                "mutation batch encodes to {bytes} bytes, above the {limit}-byte batch bound"
            ),
        }
    }
}

impl ServerState {
    /// Submits a query through session `id`, two-phase: resolves and
    /// **pins** the session (the reaper skips pinned sessions), runs the
    /// evaluate phase with *no* ledger gate or engine lock held — slow
    /// translations and mechanism runs proceed concurrently with other
    /// sessions and with compaction — then commits under the shared side
    /// of the ledger gate, where the WAL append and the charge form one
    /// atomic step (append first: a refused append charges nothing), and
    /// waits there, with the engine lock released, for the sync covering
    /// the record. The router must not ack an unsynced charge, and with
    /// this ordering it cannot: the response only exists once its record
    /// is durable.
    ///
    /// # Errors
    /// [`SubmitError::Engine`] for malformed queries or mechanism
    /// faults, [`SubmitError::Wal`] when the write-ahead append failed
    /// (nothing was charged) or its covering sync did (charged, never
    /// acked).
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
                super::SessionStatus::Expired => SubmitOutcome::Gone,
                _ => SubmitOutcome::NoSuchSession,
            }));
        };
        apex_core::sched_point!("state.submit.pinned");
        // EVALUATE: data-independent speculation, no gate held — and
        // for its duration this caller is not a writer a group-commit
        // leader should wait for.
        let evaluating = GateCount::evaluating(self.wal());
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
        // COMMIT: the shared side of the ledger gate covers the re-check
        // + append + charge and the covering sync, so compaction
        // (exclusive side) cannot snapshot a charge while pushing its WAL
        // record into the next generation — and never waits on an
        // in-flight evaluate.
        let _gate = lockx::read(&self.ledger_gate);
        apex_core::sched_point!("state.submit.commit_gate");
        let id = flight.id;
        let mut staged = None;
        let response = match flight.session.commit_with(flight.pending, |response| {
            staged = self.stage(match response {
                EngineResponse::Answered(a) => WalRecord::Debit {
                    session: id,
                    epsilon: a.epsilon,
                },
                EngineResponse::Denied => WalRecord::Deny { session: id },
            })?;
            Ok(())
        }) {
            Ok(r) => r,
            Err(CommitError::Engine(EngineError::SessionClosed)) => return Ok(SubmitOutcome::Gone),
            Err(CommitError::Engine(e)) => return Err(SubmitError::Engine(e)),
            Err(CommitError::Log(e)) => return Err(SubmitError::Wal(e)),
        };
        // Charged, with the session and engine locks released: a commit
        // on the same tenant can append now and share this record's
        // sync. A failed sync poisons the writer and errors without an
        // ack; the charge stays — an over-count, the safe direction.
        apex_core::sched_point!("state.submit.staged");
        if let (Some(staged), Some(wal)) = (staged, self.wal()) {
            wal.await_durable(staged).map_err(SubmitError::Wal)?;
        }
        drop(_gate);
        drop(flight.pin);
        apex_core::sched_point!("state.submit.done");
        // Audit transcript, outside the gate: append-only telemetry, the
        // WAL record above is the durability-critical one.
        if let Some(tenant) = self.tenant(&flight.dataset) {
            tenant.record_transcript(id, &response);
        }
        self.maybe_compact();
        Ok(SubmitOutcome::Response(response))
    }

    /// Appends one WAL record and waits until it is durable (ordered,
    /// for a denial — see [`crate::wal::SharedWal::append`]); a no-op
    /// without persistence.
    pub(super) fn log(&self, record: WalRecord) -> Result<(), std::io::Error> {
        self.writable_wal()?
            .map_or(Ok(()), |wal| wal.append(&record))
    }

    /// Appends one WAL record without waiting for its sync (see
    /// [`crate::wal::SharedWal::stage`]); `None` without persistence.
    fn stage(&self, record: WalRecord) -> Result<Option<Staged>, std::io::Error> {
        self.writable_wal()?
            .map_or(Ok(None), |wal| wal.stage(&record))
    }

    /// The WAL, unless an injected append fault fires first; `None`
    /// without persistence.
    fn writable_wal(&self) -> Result<Option<&SharedWal>, std::io::Error> {
        let Some(p) = &self.persist else {
            return Ok(None);
        };
        apex_core::sched_point!("state.log.enter");
        #[cfg(any(test, feature = "sched"))]
        if p.fail_appends
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(std::io::Error::other("injected WAL append fault"));
        }
        Ok(Some(&p.wal))
    }

    /// Marks the calling shard worker a present writer until the guard
    /// drops (see [`GateCount::present`]). Inert without persistence.
    pub(crate) fn writer_present(&self) -> GateCount<'_> {
        GateCount::present(self.wal())
    }

    /// This state's group-commit counters; `None` without persistence.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal().map(|w| w.stats())
    }

    /// Compacts when the WAL has grown past the configured threshold.
    pub(super) fn maybe_compact(&self) {
        let Some(p) = &self.persist else { return };
        if p.wal.due(p.snapshot_every) {
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
        let new_gen = p.wal.rotate(|gen| {
            apex_core::sched_point!("state.compact.enter");
            // Open the next generation BEFORE committing the snapshot
            // that covers the current one. The snapshot rename is the
            // commit point: once it claims `covered_gen = G`, no acked
            // record may ever land in `wal-G.log` again — so the `G+1`
            // writer must already be in hand. Failing here leaves the
            // old snapshot + old writer fully intact (a stray empty
            // `wal-(G+1).log` is harmless: recovery replays it as
            // empty). The reverse order would, on a failed open, keep
            // appending acked debits to a generation the just-committed
            // snapshot tells recovery to ignore.
            let new_path = snapshot::wal_path(&p.dir, gen + 1);
            let writer = WalWriter::open(&new_path, p.sync)?;
            apex_core::sched_point!("state.compact.new_gen");
            if let Err(e) = snapshot::write_snapshot(&p.dir, &self.snapshot_image(gen)) {
                // Nothing was appended to the new generation yet; remove
                // the stray so the directory stays exactly as before the
                // attempt (recovery also tolerates trailing empty
                // generations).
                drop(writer);
                let _ = std::fs::remove_file(&new_path);
                return Err(e);
            }
            apex_core::sched_point!("state.compact.snapshotted");
            Ok(writer)
        })?;
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

    /// Makes the next `n` covering syncs fail after their records were
    /// written (no-op without persistence): a commit then errors after
    /// its charge, and the writer is poisoned. No exerciser operation
    /// arms it: the exerciser's WAL never syncs.
    #[cfg(test)]
    pub(crate) fn inject_sync_faults(&self, n: u64) {
        if let Some(p) = &self.persist {
            p.wal.fail_syncs.store(n, Ordering::SeqCst);
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
            sessions: sessions.iter().map(|(&id, e)| e.image(id)).collect(),
        }
    }
}
