//! A thread-safe engine handle for concurrent analysts.
//!
//! The privacy budget is a *shared* resource: when several analyst
//! sessions explore the same dataset, their combined loss must stay under
//! `B` (sequential composition holds regardless of interleaving). This
//! wrapper guards the ledger with a [`parking_lot::Mutex`], but the lock
//! no longer spans mechanism runs: submissions are two-phase
//! ([`SharedEngine::evaluate`] runs lock-free against an
//! [`crate::EvalContext`] extracted under a brief lock;
//! [`SharedEngine::commit`] takes the lock only to re-validate the worst
//! case against the current ledger and charge). Concurrent analysts
//! still cannot jointly overshoot `B` — a commit that loses the budget
//! race is denied and charges nothing — while slow translations and
//! mechanism runs proceed in parallel.

use std::sync::Arc;

use apex_mech::CacheStats;
use apex_query::{AccuracySpec, ExplorationQuery};
use parking_lot::Mutex;

use crate::engine::{CommitError, EvalContext, PendingCharge};
use crate::{ApexEngine, EngineError, EngineResponse};

/// A cloneable, thread-safe handle to one [`ApexEngine`].
#[derive(Debug, Clone)]
pub struct SharedEngine {
    inner: Arc<Mutex<ApexEngine>>,
}

impl SharedEngine {
    /// Wraps an engine for shared use.
    pub fn new(engine: ApexEngine) -> Self {
        Self {
            inner: Arc::new(Mutex::new(engine)),
        }
    }

    /// Submits a query: a lock-free [`SharedEngine::evaluate`] followed
    /// by an atomic [`SharedEngine::commit`]. The commit re-checks the
    /// worst case against the then-current ledger, so concurrent
    /// analysts cannot jointly overshoot `B` — the loser of a budget
    /// race is denied at the commit point and charged nothing.
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::submit`].
    pub fn submit(
        &self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<EngineResponse, EngineError> {
        let pending = self.evaluate(query, accuracy)?;
        self.commit(pending)
    }

    /// The evaluate phase, lock-free: the engine lock is held only for
    /// the `O(1)` [`ApexEngine::evaluation_context`] extraction; the
    /// translation and mechanism run proceed unlocked, so any number of
    /// analysts (and the ledger itself) stay unblocked behind a slow
    /// query. No budget is charged.
    ///
    /// # Errors
    /// Same contract as [`crate::EvalContext::evaluate`].
    pub fn evaluate(
        &self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<PendingCharge, EngineError> {
        let ctx: EvalContext = self.inner.lock().evaluation_context();
        ctx.evaluate(query, accuracy, f64::INFINITY)
    }

    /// The commit phase, atomic under the engine lock — see
    /// [`ApexEngine::commit`].
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::commit`].
    pub fn commit(&self, pending: PendingCharge) -> Result<EngineResponse, EngineError> {
        self.inner.lock().commit(pending)
    }

    /// Inserts rows into the live dataset under the engine lock, bumping
    /// its epoch — see [`ApexEngine::insert_rows`]. Concurrent evaluates
    /// already in flight will have their commits refused as epoch-stale.
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::insert_rows`].
    pub fn insert_rows(
        &self,
        rows: &[Vec<apex_data::Value>],
    ) -> Result<apex_data::RowDelta, EngineError> {
        self.inner.lock().insert_rows(rows)
    }

    /// Deletes rows from the live dataset under the engine lock, bumping
    /// its epoch — see [`ApexEngine::delete_rows`].
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::delete_rows`].
    pub fn delete_rows(
        &self,
        rows: &[Vec<apex_data::Value>],
    ) -> Result<apex_data::RowDelta, EngineError> {
        self.inner.lock().delete_rows(rows)
    }

    /// Gives the dataset its durable mutation log — see
    /// [`ApexEngine::attach_mutation_log`].
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::attach_mutation_log`].
    pub fn attach_mutation_log(&self, dir: &std::path::Path) -> Result<(), EngineError> {
        self.inner.lock().attach_mutation_log(dir)
    }

    /// The dataset's live-mutation epoch — see [`ApexEngine::epoch`].
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch()
    }

    /// Mutations applied to the dataset — see
    /// [`ApexEngine::mutations_applied`].
    pub fn mutations_applied(&self) -> u64 {
        self.inner.lock().mutations_applied()
    }

    /// Actual privacy loss spent so far.
    pub fn spent(&self) -> f64 {
        self.inner.lock().spent()
    }

    /// Remaining budget.
    pub fn remaining(&self) -> f64 {
        self.inner.lock().remaining()
    }

    /// Total budget `B`.
    pub fn budget(&self) -> f64 {
        self.inner.lock().budget()
    }

    /// Runs `f` with the locked engine (e.g. to inspect the transcript).
    pub fn with_engine<T>(&self, f: impl FnOnce(&ApexEngine) -> T) -> T {
        f(&self.inner.lock())
    }

    /// Hit/miss/eviction counters of the engine's translator cache,
    /// aggregated over every scope of the underlying storage (see
    /// [`crate::TranslatorCache::stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.lock().translator_cache().stats()
    }

    /// The translator-cache counters attributable to *this engine's*
    /// lookups (its scope of a possibly shared cache — see
    /// [`crate::TranslatorCache::local_stats`]).
    pub fn local_cache_stats(&self) -> CacheStats {
        self.inner.lock().translator_cache().local_stats()
    }

    /// Opens an analyst **session** holding a slice of the budget: the
    /// session may spend at most `allowance`, and all sessions jointly may
    /// spend at most the engine's `B` (slices may oversubscribe `B`; the
    /// engine-wide bound always wins). Admission checks both bounds
    /// atomically — the whole admit–run–charge sequence runs under the
    /// engine lock with the session lock held, so concurrent submissions
    /// through any mix of sessions can overshoot neither their slices nor
    /// `B`.
    ///
    /// `allowance` is clamped to `≥ 0`; a zero-allowance session is valid
    /// and denies everything (useful for read-only budget observers).
    pub fn session(&self, allowance: f64) -> EngineSession {
        self.session_with_spent(allowance, 0.0)
    }

    /// Re-opens a session restored from persistence: same slice semantics
    /// as [`SharedEngine::session`], but with `spent` already charged to
    /// it (the WAL replayed its pre-restart debits). `spent` is clamped
    /// to `[0, allowance]` — the engine-wide restored spend is validated
    /// separately by [`ApexEngine::import_ledger`], a slice is only a cap.
    pub fn session_with_spent(&self, allowance: f64, spent: f64) -> EngineSession {
        let allowance = allowance.max(0.0);
        EngineSession {
            engine: self.clone(),
            allowance,
            slice: Arc::new(Mutex::new(Slice {
                spent: spent.clamp(0.0, allowance),
                closed: false,
            })),
        }
    }

    /// Arms the charge-before-log canary on the wrapped engine — see
    /// [`ApexEngine::set_bug_charge_before_log`]. Exerciser self-tests
    /// only.
    #[cfg(any(test, feature = "sched"))]
    pub fn set_bug_charge_before_log(&self, on: bool) {
        self.inner.lock().set_bug_charge_before_log(on);
    }

    /// Re-imposes a persisted spend on this engine — see
    /// [`ApexEngine::import_ledger`].
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::import_ledger`].
    pub fn import_ledger(&self, spent: f64) -> Result<(), EngineError> {
        self.inner.lock().import_ledger(spent)
    }

    /// Exports the budget ledger — see [`ApexEngine::export_ledger`].
    pub fn export_ledger(&self) -> crate::engine::LedgerExport {
        self.inner.lock().export_ledger()
    }
}

/// The mutable half of a session: its charged loss and lifecycle state.
#[derive(Debug)]
struct Slice {
    spent: f64,
    closed: bool,
}

/// One analyst's budget-sliced view of a [`SharedEngine`] — what a
/// multi-tenant service hands out per `POST /v1/sessions`.
///
/// Cloning shares the slice (clones draw from the same allowance), which
/// lets one session be served from several worker threads. Lock order is
/// session → engine, taken in [`EngineSession::submit`] only, so sessions
/// cannot deadlock against each other or the engine.
#[derive(Debug, Clone)]
pub struct EngineSession {
    engine: SharedEngine,
    allowance: f64,
    slice: Arc<Mutex<Slice>>,
}

impl EngineSession {
    /// Submits a query, admitting it only if its worst-case loss fits
    /// under both the session's remaining allowance and the engine's
    /// remaining budget. Denial (by either bound) charges nothing.
    /// Implemented as [`EngineSession::evaluate`] +
    /// [`EngineSession::commit`]: the mechanism runs with no lock held,
    /// and both bounds are re-validated atomically at the commit point.
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::submit`], plus
    /// [`EngineError::SessionClosed`] once the session was closed — a
    /// closed session is *gone*, not merely out of budget.
    pub fn submit(
        &self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<EngineResponse, EngineError> {
        let pending = self.evaluate(query, accuracy)?;
        self.commit(pending)
    }

    /// The evaluate phase: chooses and runs the mechanism under
    /// `min(slice remaining, engine remaining)` as observed now, holding
    /// no lock during the run and charging nothing. The returned
    /// [`PendingCharge`] must go through [`EngineSession::commit`] (or
    /// be dropped, which also charges nothing).
    ///
    /// # Errors
    /// Same contract as [`crate::EvalContext::evaluate`], plus
    /// [`EngineError::SessionClosed`].
    pub fn evaluate(
        &self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<PendingCharge, EngineError> {
        crate::sched_point!("session.evaluate.enter");
        let cap = {
            let slice = self.slice.lock();
            if slice.closed {
                return Err(EngineError::SessionClosed);
            }
            (self.allowance - slice.spent).max(0.0)
        };
        let ctx: EvalContext = self.engine.inner.lock().evaluation_context();
        ctx.evaluate(query, accuracy, cap)
    }

    /// The commit phase: under the session→engine locks, re-checks the
    /// pending worst case against **both** current bounds (slice and
    /// engine `B`), then charges the actual loss to both ledgers. A
    /// failed re-check — another session moved either ledger between
    /// evaluate and commit — denies and charges nothing.
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::commit`], plus
    /// [`EngineError::SessionClosed`] when the session was closed
    /// underneath the pending charge (the speculative result is
    /// discarded; nothing is charged).
    pub fn commit(&self, pending: PendingCharge) -> Result<EngineResponse, EngineError> {
        self.commit_with::<std::convert::Infallible>(pending, |_| Ok(()))
            .map_err(|e| match e {
                CommitError::Engine(e) => e,
                CommitError::Log(never) => match never {},
            })
    }

    /// [`EngineSession::commit`] with a durability hook: `log` runs at
    /// the commit point — after the decision, before any ledger
    /// mutation, with the session→engine locks held — so a persistence
    /// layer can append its write-ahead record atomically with the
    /// charge. If `log` fails, **nothing is charged** on either ledger:
    /// the charge is durable-or-nothing, no refund path needed.
    ///
    /// # Errors
    /// See [`CommitError`]; every error leaves both ledgers untouched.
    pub fn commit_with<E>(
        &self,
        pending: PendingCharge,
        log: impl FnOnce(&EngineResponse) -> Result<(), E>,
    ) -> Result<EngineResponse, CommitError<E>> {
        crate::sched_point!("session.commit.enter");
        let mut slice = self.slice.lock();
        if slice.closed {
            return Err(CommitError::Engine(EngineError::SessionClosed));
        }
        let mut engine = self.engine.inner.lock();
        let cap = (self.allowance - slice.spent).max(0.0);
        let response = engine.commit_with(pending, cap, log)?;
        if let EngineResponse::Answered(a) = &response {
            slice.spent += a.epsilon;
        }
        crate::sched_point!("session.commit.done");
        Ok(response)
    }

    /// Closes the session (TTL expiry or an admin ending it): further
    /// submissions fail with [`EngineError::SessionClosed`], and the
    /// **unspent remainder of the slice is returned exactly once** —
    /// `Some(allowance − spent)` on the first call, `None` ever after,
    /// however many reapers and admins race. The caller hands that
    /// remainder back to whatever granted the slice.
    pub fn close(&self) -> Option<f64> {
        crate::sched_point!("session.close.enter");
        let mut slice = self.slice.lock();
        if slice.closed {
            return None;
        }
        slice.closed = true;
        crate::sched_point!("session.close.closing");
        Some((self.allowance - slice.spent).max(0.0))
    }

    /// Whether the session has been closed.
    pub fn is_closed(&self) -> bool {
        self.slice.lock().closed
    }

    /// The slice of the budget this session was opened with.
    pub fn allowance(&self) -> f64 {
        self.allowance
    }

    /// Actual privacy loss charged to this session so far.
    pub fn spent(&self) -> f64 {
        self.slice.lock().spent
    }

    /// Remaining session allowance (the engine-wide budget may be the
    /// tighter bound — see [`EngineSession::engine`]).
    pub fn remaining(&self) -> f64 {
        (self.allowance - self.slice.lock().spent).max(0.0)
    }

    /// The shared engine this session draws from.
    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, Mode};
    use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};

    fn make_engine(budget: f64) -> ApexEngine {
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 9 },
        )])
        .unwrap();
        let mut d = Dataset::empty(schema);
        for i in 0..10_i64 {
            for _ in 0..10 {
                d.push(vec![Value::Int(i)]).unwrap();
            }
        }
        ApexEngine::new(
            d,
            EngineConfig {
                budget,
                mode: Mode::Pessimistic,
                seed: 3,
            },
        )
    }

    fn query() -> ExplorationQuery {
        ExplorationQuery::wcq((0..10).map(|i| Predicate::eq("v", i as i64)).collect())
    }

    #[test]
    fn concurrent_analysts_never_overshoot_the_budget() {
        let shared = SharedEngine::new(make_engine(0.5));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = shared.clone();
                let q = query();
                s.spawn(move || {
                    for _ in 0..10 {
                        let _ = h.submit(&q, &acc).unwrap();
                    }
                });
            }
        });
        assert!(shared.spent() <= 0.5 + 1e-9, "spent {}", shared.spent());
        shared.with_engine(|e| {
            assert!(e.transcript().is_valid(0.5));
            assert_eq!(e.transcript().len(), 80);
        });
    }

    #[test]
    fn sessions_respect_their_slice_and_the_engine_budget() {
        let shared = SharedEngine::new(make_engine(1.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        // A tight slice: the session denies long before the engine would.
        let small = shared.session(1e-6);
        assert!(small.submit(&query(), &acc).unwrap().is_denied());
        assert_eq!(small.spent(), 0.0);
        assert_eq!(shared.spent(), 0.0);

        // A generous slice spends through to the engine bound.
        let big = shared.session(10.0);
        let mut answered = 0;
        for _ in 0..40 {
            if !big.submit(&query(), &acc).unwrap().is_denied() {
                answered += 1;
            }
        }
        assert!(answered > 0);
        assert!(big.spent() <= big.allowance() + 1e-9);
        assert!(shared.spent() <= 1.0 + 1e-9, "spent {}", shared.spent());
        assert!((big.spent() - shared.spent()).abs() < 1e-12);
        assert!((big.remaining() - (10.0 - big.spent())).abs() < 1e-9);
    }

    #[test]
    fn concurrent_sessions_never_jointly_overshoot() {
        let shared = SharedEngine::new(make_engine(0.4));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        // Slices oversubscribe B on purpose: 8 × 0.2 = 1.6 > 0.4. The
        // engine-wide bound must still hold.
        let sessions: Vec<EngineSession> = (0..8).map(|_| shared.session(0.2)).collect();
        std::thread::scope(|s| {
            for sess in &sessions {
                let q = query();
                s.spawn(move || {
                    for _ in 0..6 {
                        let _ = sess.submit(&q, &acc).unwrap();
                    }
                });
            }
        });
        let total: f64 = sessions.iter().map(|s| s.spent()).sum();
        assert!(shared.spent() <= 0.4 + 1e-9, "spent {}", shared.spent());
        assert!((total - shared.spent()).abs() < 1e-9);
        for sess in &sessions {
            assert!(sess.spent() <= sess.allowance() + 1e-9);
        }
        shared.with_engine(|e| assert!(e.transcript().is_valid(0.4)));
    }

    #[test]
    fn close_releases_the_unspent_slice_exactly_once() {
        let shared = SharedEngine::new(make_engine(1.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let sess = shared.session(0.5);
        sess.submit(&query(), &acc).unwrap();
        let spent = sess.spent();
        assert!(spent > 0.0);

        // Many racing closers: exactly one wins the remainder.
        let releases: Vec<Option<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| sess.close())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let won: Vec<f64> = releases.into_iter().flatten().collect();
        assert_eq!(won.len(), 1, "close must release exactly once");
        assert!((won[0] - (0.5 - spent)).abs() < 1e-12);

        // The corpse denies with SessionClosed, not a budget denial.
        assert!(sess.is_closed());
        assert!(matches!(
            sess.submit(&query(), &acc),
            Err(EngineError::SessionClosed)
        ));
        // The engine itself is unaffected and still serves new sessions.
        assert!(shared.session(0.3).submit(&query(), &acc).is_ok());
    }

    #[test]
    fn restored_sessions_resume_mid_slice() {
        let shared = SharedEngine::new(make_engine(1.0));
        shared.import_ledger(0.25).unwrap();
        assert_eq!(shared.spent(), 0.25);
        let sess = shared.session_with_spent(0.3, 0.25);
        assert_eq!(sess.spent(), 0.25);
        assert!((sess.remaining() - 0.05).abs() < 1e-12);
        // Spend beyond the allowance clamps (the slice is only a cap).
        let over = shared.session_with_spent(0.3, 0.9);
        assert_eq!(over.spent(), 0.3);
        assert_eq!(over.remaining(), 0.0);
    }

    #[test]
    fn session_commit_rechecks_the_slice_bound() {
        let shared = SharedEngine::new(make_engine(10.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        // Learn the deterministic worst case through a throwaway probe
        // (evaluation charges nothing, so the engine stays pristine).
        let upper = shared
            .session(10.0)
            .evaluate(&query(), &acc)
            .unwrap()
            .epsilon_upper()
            .unwrap();
        assert_eq!(shared.spent(), 0.0);

        // A slice that fits exactly one worst case: both evaluates pass
        // (each sees the untouched slice), only one commit can win.
        let sess = shared.session(upper * 1.5);
        let p1 = sess.evaluate(&query(), &acc).unwrap();
        let p2 = sess.evaluate(&query(), &acc).unwrap();
        assert!(!sess.commit(p1).unwrap().is_denied());
        assert!(
            sess.commit(p2).unwrap().is_denied(),
            "the slice bound must be re-validated at the commit point"
        );
        assert!(sess.spent() <= sess.allowance() + 1e-9);
        assert!((sess.spent() - shared.spent()).abs() < 1e-12);
    }

    #[test]
    fn closing_between_evaluate_and_commit_discards_the_charge() {
        let shared = SharedEngine::new(make_engine(1.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let sess = shared.session(0.5);
        let pending = sess.evaluate(&query(), &acc).unwrap();
        assert!(pending.epsilon_upper().is_some());
        // A reaper/admin closes the session mid-flight…
        assert!(sess.close().is_some());
        // …so the commit observes the corpse and discards the result.
        assert!(matches!(
            sess.commit(pending),
            Err(EngineError::SessionClosed)
        ));
        assert_eq!(sess.spent(), 0.0);
        assert_eq!(shared.spent(), 0.0, "a discarded charge spends nothing");
    }

    #[test]
    fn mutation_between_evaluate_and_commit_is_refused_as_stale() {
        let shared = SharedEngine::new(make_engine(10.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let sess = shared.session(5.0);
        let pending = sess.evaluate(&query(), &acc).unwrap();
        // A live mutation lands between the session's evaluate and its
        // commit: the speculative answer is over superseded rows.
        let delta = shared.insert_rows(&[vec![Value::Int(4)]]).unwrap();
        assert_eq!(delta.epoch, shared.epoch());
        assert!(matches!(
            sess.commit(pending),
            Err(EngineError::StaleEpoch { pending: 0, .. })
        ));
        assert_eq!(sess.spent(), 0.0);
        assert_eq!(shared.spent(), 0.0, "a stale commit charges nothing");
        // Re-evaluating after the mutation works.
        let fresh = sess.evaluate(&query(), &acc).unwrap();
        assert!(!sess.commit(fresh).unwrap().is_denied());
        assert_eq!(shared.mutations_applied(), 1);
    }

    #[test]
    fn shared_engine_two_phase_matches_submit_semantics() {
        let shared = SharedEngine::new(make_engine(2.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let pending = shared.evaluate(&query(), &acc).unwrap();
        assert_eq!(shared.spent(), 0.0);
        let r = shared.commit(pending).unwrap();
        let a = r.answered().expect("budget is ample");
        assert!((shared.spent() - a.epsilon).abs() < 1e-12);
        shared.with_engine(|e| assert_eq!(e.transcript().answered(), 1));
    }

    #[test]
    fn cache_stats_are_visible_through_the_handle() {
        let shared = SharedEngine::new(make_engine(10.0));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        shared.submit(&query(), &acc).unwrap();
        shared.submit(&query(), &acc).unwrap();
        let stats = shared.cache_stats();
        assert!(stats.misses >= 1);
        assert!(stats.hits >= 1);
        // This engine owns its cache, so its scope saw every lookup.
        assert_eq!(shared.local_cache_stats(), stats);
    }

    #[test]
    fn handle_reports_budget_state() {
        let shared = SharedEngine::new(make_engine(2.0));
        assert_eq!(shared.budget(), 2.0);
        assert_eq!(shared.spent(), 0.0);
        assert_eq!(shared.remaining(), 2.0);
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        shared.submit(&query(), &acc).unwrap();
        assert!(shared.spent() > 0.0);
        assert!((shared.remaining() + shared.spent() - 2.0).abs() < 1e-12);
    }
}
