//! The APEx engine loop (Algorithm 1), split into a data-independent
//! **evaluate** phase and an atomic **commit** phase.
//!
//! `submit` used to be one monolithic admit–run–charge sequence, which
//! forced every concurrent caller (and everything serialized behind the
//! ledger, like WAL compaction in `apex-serve`) to wait out the slowest
//! mechanism run. The two-phase shape is the optimistic
//! speculate-then-commit execution model (cf. the HTM survey in
//! PAPERS.md): [`ApexEngine::evaluate`] prepares the query, chooses the
//! mechanism, and runs it **without touching the budget**, yielding a
//! [`PendingCharge`]; [`ApexEngine::commit`] re-validates the worst-case
//! loss against the *then-current* ledger and either charges the actual
//! loss atomically or denies and discards the speculative result,
//! charging nothing. The admission decision stays a function of the
//! query, the accuracy, and the remaining budget only — never the data —
//! exactly as Case 3 of the Theorem 6.2 proof requires; re-checking it
//! at the commit point preserves the discipline under concurrency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use apex_data::Dataset;
use apex_mech::TranslatorCache;
use apex_query::{AccuracySpec, ExplorationQuery, QueryAnswer};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::memo::{CompileMemo, CompileStats};
use crate::transcript::{QueryRecord, Transcript, TranscriptEntry};
use crate::translator::choose_mechanism;
use crate::EngineError;

/// How APEx picks among mechanisms whose privacy loss is data dependent
/// (Algorithm 1, Lines 8/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Pick the least worst-case loss `εᵘ`. Never gambles.
    Pessimistic,
    /// Pick the least best-case loss `εˡ`, betting that data-dependent
    /// mechanisms (ICQ-MPM) stop early. The paper's evaluation runs this
    /// mode, so it is the default.
    #[default]
    Optimistic,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The data owner's total privacy budget `B`.
    pub budget: f64,
    /// Mechanism selection mode.
    pub mode: Mode,
    /// Seed for the engine's noise RNG. Fixed seeds make whole
    /// explorations reproducible; production deployments should seed from
    /// OS entropy.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            budget: 1.0,
            mode: Mode::default(),
            seed: 0xA9E5_0001,
        }
    }
}

/// A successful answer.
#[derive(Debug, Clone)]
pub struct Answered {
    /// The noisy answer `ω`.
    pub answer: QueryAnswer,
    /// Actual privacy loss charged.
    pub epsilon: f64,
    /// Worst-case loss the analyzer admitted.
    pub epsilon_upper: f64,
    /// Name of the mechanism that ran.
    pub mechanism: &'static str,
}

/// A point-in-time export of the engine's budget ledger — what a
/// persistence layer snapshots and what recovery re-imposes via
/// [`ApexEngine::import_ledger`]. Deliberately *not* the transcript:
/// noisy answers already left the building, only the accounting must
/// survive a restart (forgetting spent budget is the one failure a DP
/// engine can never afford).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerExport {
    /// The owner's total budget `B`.
    pub budget: f64,
    /// Actual privacy loss spent so far.
    pub spent: f64,
    /// Answered interactions recorded in the transcript.
    pub answered: usize,
    /// Denied interactions recorded in the transcript.
    pub denied: usize,
}

/// The speculative half of a two-phase submission: everything
/// [`ApexEngine::evaluate`] computed **without touching the ledger** —
/// the chosen mechanism's output and the worst-case loss the analyzer
/// translated for it. A `PendingCharge` holds no budget: until
/// [`ApexEngine::commit`] re-validates it against the then-current
/// ledger it is a result that may still be denied and discarded.
/// Dropping it charges nothing and leaves no transcript trace.
#[derive(Debug)]
pub struct PendingCharge {
    /// Identity of the engine whose [`EvalContext`] produced this
    /// pending charge. Commit refuses a pending evaluated elsewhere
    /// ([`EngineError::ForeignPendingCharge`]): the answer was computed
    /// over *that* engine's data, so charging any other ledger would
    /// leak one tenant's data while debiting another's budget.
    engine_id: u64,
    /// Dataset epoch snapshotted when the producing [`EvalContext`] was
    /// extracted. Commit refuses the charge when the engine's dataset has
    /// since moved to a different epoch
    /// ([`EngineError::StaleEpoch`]): the speculative answer was computed
    /// over rows that a committed mutation has already superseded.
    epoch: u64,
    record: QueryRecord,
    outcome: Option<PendingAnswer>,
}

impl PendingCharge {
    /// The worst-case loss commit will re-check, or `None` when
    /// evaluation already denied (no mechanism fit the budget observed
    /// at evaluate time; commit records the denial).
    pub fn epsilon_upper(&self) -> Option<f64> {
        self.outcome.as_ref().map(|p| p.epsilon_upper)
    }

    /// The dataset epoch this charge was evaluated against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The actual loss commit would charge, or `None` for
    /// evaluate-denials.
    pub fn epsilon(&self) -> Option<f64> {
        self.outcome.as_ref().map(|p| p.epsilon)
    }
}

#[derive(Debug)]
struct PendingAnswer {
    answer: QueryAnswer,
    epsilon: f64,
    epsilon_upper: f64,
    mechanism: &'static str,
}

/// Why a commit charged nothing and discarded the pending result.
/// (A *denial* is not an error — a commit that loses the budget race
/// returns [`EngineResponse::Denied`], not this.)
#[derive(Debug)]
pub enum CommitError<E> {
    /// An engine fault: the session was closed underneath the pending
    /// charge ([`EngineError::SessionClosed`]) or the mechanism reported
    /// more loss than it declared
    /// ([`EngineError::LossAboveWorstCase`]).
    Engine(EngineError),
    /// The caller's durability hook refused (e.g. a write-ahead append
    /// failed). The decision was rolled back before any ledger or
    /// transcript mutation — nothing needs refunding.
    Log(E),
}

/// A self-contained snapshot of everything the data-independent
/// *evaluate* phase needs, extracted from an engine in `O(1)` (see
/// [`ApexEngine::evaluation_context`]). It owns an `Arc` of the dataset,
/// a forked noise-RNG stream, and handles to the engine's compile memo
/// and the shared translator cache, so the (possibly slow) translation
/// and mechanism run proceed with **no engine lock held** — the seam
/// `SharedEngine` and `EngineSession` build their lock-free evaluate on.
#[derive(Debug)]
pub struct EvalContext {
    engine_id: u64,
    data: Arc<Dataset>,
    /// Dataset epoch at extraction — stamped into the [`PendingCharge`]
    /// so commit can refuse answers computed over a superseded row set.
    epoch: u64,
    memo: CompileMemo,
    cache: TranslatorCache,
    mode: Mode,
    remaining: f64,
    rng: StdRng,
}

impl EvalContext {
    /// The engine's remaining budget at the instant the context was
    /// extracted (the bound the evaluate-phase admission filter uses;
    /// commit re-checks against the live ledger).
    pub fn remaining(&self) -> f64 {
        self.remaining
    }

    /// Runs the evaluate phase: prepare the query (through the compile
    /// memo, so a workload seen before is not recompiled), translate every
    /// applicable mechanism, keep those whose worst case fits under
    /// `min(remaining-at-extraction, cap)`, choose by mode, and run the
    /// winner. **No budget is charged** — the caller must [`commit`]
    /// (or drop) the returned [`PendingCharge`].
    ///
    /// [`commit`]: ApexEngine::commit
    ///
    /// # Errors
    /// Malformed queries, mechanism faults, and a mechanism reporting a
    /// loss above its declared worst case
    /// ([`EngineError::LossAboveWorstCase`]). A query no mechanism fits
    /// is **not** an error: the pending charge carries the denial.
    pub fn evaluate(
        mut self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
        cap: f64,
    ) -> Result<PendingCharge, EngineError> {
        crate::sched_point!("engine.evaluate.enter");
        let prepared = self.memo.prepare(self.data.schema_arc(), query)?;
        let record = QueryRecord {
            kind: prepared.kind().name(),
            workload_size: prepared.n_queries(),
            alpha: accuracy.alpha(),
            beta: accuracy.beta(),
        };

        // Lines 4–10: translate all applicable mechanisms, keep those
        // whose worst case fits, choose by mode. The decision depends
        // only on the query, the accuracy, and the remaining budget —
        // never the data (Case 3 of the Theorem 6.2 proof).
        let choice = choose_mechanism(
            &prepared,
            accuracy,
            self.remaining.min(cap),
            self.mode,
            &self.cache,
        )?;

        let Some(choice) = choice else {
            // Line 16: nothing fits — commit will record the denial.
            return Ok(PendingCharge {
                engine_id: self.engine_id,
                epoch: self.epoch,
                record,
                outcome: None,
            });
        };

        // Line 11: run the mechanism (speculatively — the charge waits
        // for commit).
        let out = choice
            .mechanism
            .run(&prepared, accuracy, &self.data, &mut self.rng)?;
        if out.epsilon.is_nan() || out.epsilon > choice.translation.upper * (1.0 + 1e-9) {
            // Hard check (was a debug_assert, which vanishes in release
            // builds): a mechanism overshooting its declared worst case
            // would silently breach the admission bound. Refuse.
            return Err(EngineError::LossAboveWorstCase {
                epsilon: out.epsilon,
                upper: choice.translation.upper,
            });
        }
        Ok(PendingCharge {
            engine_id: self.engine_id,
            epoch: self.epoch,
            record,
            outcome: Some(PendingAnswer {
                answer: out.answer,
                epsilon: out.epsilon,
                epsilon_upper: choice.translation.upper,
                mechanism: choice.mechanism.name(),
            }),
        })
    }
}

/// The engine's response to a submission.
#[derive(Debug, Clone)]
pub enum EngineResponse {
    /// The query was answered.
    Answered(Answered),
    /// `'Query Denied'` — no mechanism fits the remaining budget. The
    /// budget is left unchanged and further (cheaper) queries may still
    /// succeed.
    Denied,
}

impl EngineResponse {
    /// The answer, if the query was answered.
    pub fn answered(&self) -> Option<&Answered> {
        match self {
            EngineResponse::Answered(a) => Some(a),
            EngineResponse::Denied => None,
        }
    }

    /// Whether the query was denied.
    pub fn is_denied(&self) -> bool {
        matches!(self, EngineResponse::Denied)
    }
}

/// The APEx privacy engine: owns the sensitive dataset, enforces the
/// privacy budget, and answers adaptively chosen queries.
/// Source of process-unique engine identities (see
/// [`PendingCharge::engine_id`]).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
pub struct ApexEngine {
    /// Process-unique identity, stamped into every [`PendingCharge`]
    /// this engine evaluates so commits cannot cross engines.
    id: u64,
    /// `Arc` so [`ApexEngine::evaluation_context`] can hand the dataset
    /// to a lock-free evaluate phase without cloning the rows.
    data: Arc<Dataset>,
    budget: f64,
    mode: Mode,
    spent: f64,
    transcript: Transcript,
    rng: StdRng,
    /// Memoizes data-independent strategy-mechanism artifacts
    /// (pseudoinverse + Monte-Carlo translator) across submissions, so
    /// repeated exploration over the same domain partition skips the
    /// `O(n³)` QR and the MC resampling. Reuse is exact — caching cannot
    /// change any decision.
    cache: TranslatorCache,
    /// This engine's compiled workloads (see [`crate::memo`]).
    memo: CompileMemo,
    /// Test-only canary: deliberately charge the ledger *before* the
    /// durability hook runs — the exact ordering bug the schedule
    /// exerciser exists to catch. Proves the harness can see the bug
    /// class it guards against (an exerciser that passes with this flag
    /// set is broken). Never set outside the exerciser's canary test.
    #[cfg(any(test, feature = "sched"))]
    bug_charge_before_log: bool,
}

impl ApexEngine {
    /// Creates an engine over `data` with the given configuration.
    ///
    /// # Panics
    /// Panics if the budget is not positive and finite (an engine that
    /// can never answer anything is a configuration bug worth failing
    /// loudly on).
    pub fn new(data: Dataset, config: EngineConfig) -> Self {
        Self::with_translator_cache(data, config, TranslatorCache::new())
    }

    /// Creates an engine over `data` that shares `cache` with other
    /// holders of the handle — the multi-tenant shape: several engines
    /// (one per tenant dataset) reuse one bounded pool of prepared
    /// translators. Sound because cached artifacts are data-independent
    /// (they derive from public workload structure only), so sharing them
    /// across datasets leaks nothing and changes no decision.
    ///
    /// # Panics
    /// Panics if the budget is not positive and finite (an engine that
    /// can never answer anything is a configuration bug worth failing
    /// loudly on).
    pub fn with_translator_cache(
        data: Dataset,
        config: EngineConfig,
        cache: TranslatorCache,
    ) -> Self {
        assert!(
            config.budget.is_finite() && config.budget > 0.0,
            "privacy budget must be positive and finite, got {}",
            config.budget
        );
        Self {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            data: Arc::new(data),
            budget: config.budget,
            mode: config.mode,
            spent: 0.0,
            transcript: Transcript::new(),
            rng: StdRng::seed_from_u64(config.seed),
            cache,
            memo: CompileMemo::default(),
            #[cfg(any(test, feature = "sched"))]
            bug_charge_before_log: false,
        }
    }

    /// Arms the charge-before-log canary (see the field doc). Exerciser
    /// self-tests only.
    #[cfg(any(test, feature = "sched"))]
    pub fn set_bug_charge_before_log(&mut self, on: bool) {
        self.bug_charge_before_log = on;
    }

    /// The engine's translator cache (inspect its stats to
    /// observe warm-up behavior across a session).
    pub fn translator_cache(&self) -> &TranslatorCache {
        &self.cache
    }

    /// Counters and sizes of the engine's compile memo. Telemetry only:
    /// they follow the query history and the public schema.
    pub fn compile_stats(&self) -> CompileStats {
        self.memo.stats()
    }

    /// The owner-specified total budget `B`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Actual privacy loss spent so far `B_i`.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Remaining budget `B − B_i`.
    pub fn remaining(&self) -> f64 {
        (self.budget - self.spent).max(0.0)
    }

    /// The selection mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The transcript of all interactions so far.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// The public schema of the dataset (safe to expose; Section 3
    /// assumes schema and domains are public).
    pub fn schema(&self) -> &apex_data::Schema {
        self.data.schema()
    }

    /// Buffer-pool counters of the dataset when it is backed by the
    /// durable store (`None` for resident datasets). Operational
    /// telemetry only — exposes nothing about tuple values.
    pub fn dataset_pool_stats(&self) -> Option<apex_data::PoolStats> {
        self.data.pool_stats()
    }

    /// Counters of the dataset's maintained histograms (`apex_data::views`;
    /// all zero for a paged dataset, which keeps none). Telemetry only:
    /// they follow the query history, never tuple values.
    pub fn dataset_view_stats(&self) -> apex_data::ViewStats {
        self.data.view_stats()
    }

    /// Compares every maintained histogram with a rescan, bit for bit
    /// (`apex_data::Dataset::audit_views`): views checked, or the first
    /// divergence. For the schedule exerciser and the service self-test.
    pub fn audit_dataset_views(&self) -> Result<usize, String> {
        self.data.audit_views()
    }

    /// Storage generation of a paged dataset (`None` when resident).
    pub fn dataset_epoch(&self) -> Option<u64> {
        self.data.storage_epoch()
    }

    /// The dataset's live-mutation epoch — bumped by every committed
    /// [`ApexEngine::insert_rows`]/[`ApexEngine::delete_rows`] (for paged
    /// datasets this is the storage generation, so re-ingest bumps it
    /// too). Pending charges evaluated at an older epoch are refused at
    /// commit ([`EngineError::StaleEpoch`]).
    pub fn epoch(&self) -> u64 {
        self.data.epoch()
    }

    /// Mutation records applied to the dataset since construction (for
    /// paged datasets: since ingest, surviving reopen).
    pub fn mutations_applied(&self) -> u64 {
        self.data.mutations_applied()
    }

    /// Inserts rows into the live dataset, bumping its epoch, and folds
    /// them into the dataset's maintained histograms. Values may widen
    /// numeric domains (the schema grows and the histograms are dropped;
    /// workloads compile afresh against it). In-flight [`EvalContext`]s
    /// are safe: resident datasets are snapshotted by the `Arc` clone, and
    /// paged scans each observe one consistent storage epoch — either
    /// way, a commit whose evaluate raced this mutation is refused as
    /// epoch-stale, so the mutation is a serialization point, not a data
    /// race.
    ///
    /// # Errors
    /// [`EngineError::Mutation`] on validation failure (nothing applied)
    /// or a storage fault.
    pub fn insert_rows(
        &mut self,
        rows: &[Vec<apex_data::Value>],
    ) -> Result<apex_data::RowDelta, EngineError> {
        crate::sched_point!("engine.mutate.enter");
        let delta = Arc::make_mut(&mut self.data).insert_rows(rows)?;
        crate::sched_point!("engine.mutate.applied");
        Ok(delta)
    }

    /// Deletes rows from the live dataset (first matching occurrence per
    /// requested row; missing rows are silent no-ops), bumping its epoch.
    /// Same snapshot/staleness semantics as [`ApexEngine::insert_rows`].
    ///
    /// # Errors
    /// [`EngineError::Mutation`] on validation failure (nothing applied)
    /// or a storage fault.
    pub fn delete_rows(
        &mut self,
        rows: &[Vec<apex_data::Value>],
    ) -> Result<apex_data::RowDelta, EngineError> {
        crate::sched_point!("engine.mutate.enter");
        let delta = Arc::make_mut(&mut self.data).delete_rows(rows)?;
        crate::sched_point!("engine.mutate.applied");
        Ok(delta)
    }

    /// Gives a resident dataset its durable mutation log in `dir`,
    /// replaying the mutations already logged there; a paged dataset logs
    /// in its store and is left as it is. See
    /// [`apex_data::Dataset::attach_mutation_log`]. Call once, before
    /// serving.
    ///
    /// # Errors
    /// [`EngineError::Mutation`] when the log cannot be read or a logged
    /// mutation fails to re-apply.
    pub fn attach_mutation_log(&mut self, dir: &std::path::Path) -> Result<(), EngineError> {
        Ok(Arc::make_mut(&mut self.data).attach_mutation_log(dir)?)
    }

    /// Streams every dataset row once (through the buffer pool when the
    /// dataset is paged) and returns the count. A fail-stop integrity
    /// probe — corruption panics rather than under-counting — used by
    /// the service self-test's persistence leg.
    pub fn dataset_scan_rows(&self) -> u64 {
        let mut n = 0u64;
        self.data.for_each_row(|_| n += 1);
        n
    }

    /// Exports the budget ledger for persistence (see [`LedgerExport`]).
    pub fn export_ledger(&self) -> LedgerExport {
        LedgerExport {
            budget: self.budget,
            spent: self.spent,
            answered: self.transcript.answered(),
            denied: self.transcript.denied(),
        }
    }

    /// Re-imposes a persisted spend on a **fresh** engine — the recovery
    /// half of [`ApexEngine::export_ledger`]. The restored loss counts
    /// against `B` exactly as if it had been charged live; the transcript
    /// stays empty (pre-restart answers are not re-materialized — the
    /// ledger, not the history, is what privacy accounting must never
    /// forget).
    ///
    /// # Errors
    /// [`EngineError::InvalidLedgerImport`] when the engine has already
    /// answered or charged anything, or when `spent` is not in
    /// `[0, B]` (within a 1e-9·B float tolerance; a store claiming more
    /// spend than `B` is corrupt and must not be clamped into validity).
    pub fn import_ledger(&mut self, spent: f64) -> Result<(), EngineError> {
        let err = EngineError::InvalidLedgerImport {
            spent,
            budget: self.budget,
        };
        if self.spent != 0.0 || !self.transcript.is_empty() {
            return Err(err);
        }
        let tol = 1e-9 * self.budget.max(1.0);
        if !spent.is_finite() || spent < 0.0 || spent > self.budget + tol {
            return Err(err);
        }
        self.spent = spent.min(self.budget);
        Ok(())
    }

    /// Submits one query with its accuracy requirement — one iteration of
    /// Algorithm 1's loop. Implemented as [`ApexEngine::evaluate`]
    /// followed by [`ApexEngine::commit`], so every submission — including
    /// this single-threaded convenience path — exercises the two-phase
    /// protocol.
    ///
    /// # Errors
    /// Returns an error for malformed queries (unknown attributes, empty
    /// workloads, `k > L`). Budget exhaustion is **not** an error — it
    /// yields [`EngineResponse::Denied`].
    pub fn submit(
        &mut self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
    ) -> Result<EngineResponse, EngineError> {
        let pending = self.evaluate(query, accuracy, f64::INFINITY)?;
        self.commit(pending)
    }

    /// Extracts the [`EvalContext`] a lock-free evaluate phase runs
    /// against: an `Arc` of the dataset, the compile-memo and
    /// translator-cache handles, the mode, the remaining budget, and a
    /// **forked** noise-RNG stream (seeded from the engine RNG, so
    /// concurrent evaluates draw independent noise and the engine stream
    /// stays race-free). `O(1)` — callers holding a lock on the engine
    /// should extract and release before evaluating.
    pub fn evaluation_context(&mut self) -> EvalContext {
        EvalContext {
            engine_id: self.id,
            epoch: self.data.epoch(),
            data: self.data.clone(),
            memo: self.memo.clone(),
            cache: self.cache.clone(),
            mode: self.mode,
            remaining: self.remaining(),
            rng: StdRng::seed_from_u64(self.rng.next_u64()),
        }
    }

    /// The evaluate phase of a two-phase submission: prepares the query,
    /// chooses the mechanism under `min(remaining, cap)`, and runs it —
    /// **no budget mutation, no transcript entry**. Pair with
    /// [`ApexEngine::commit_with`].
    ///
    /// # Errors
    /// Same contract as [`EvalContext::evaluate`].
    pub fn evaluate(
        &mut self,
        query: &ExplorationQuery,
        accuracy: &AccuracySpec,
        cap: f64,
    ) -> Result<PendingCharge, EngineError> {
        self.evaluation_context().evaluate(query, accuracy, cap)
    }

    /// [`ApexEngine::commit_with`] with an infinite cap and no
    /// durability hook.
    ///
    /// # Errors
    /// Same contract as [`ApexEngine::commit_with`].
    pub fn commit(&mut self, pending: PendingCharge) -> Result<EngineResponse, EngineError> {
        self.commit_with::<std::convert::Infallible>(pending, f64::INFINITY, |_| Ok(()))
            .map_err(|e| match e {
                CommitError::Engine(e) => e,
                CommitError::Log(never) => match never {},
            })
    }

    /// The commit phase: atomically re-checks that the pending worst
    /// case still fits under `min(remaining, cap)` against the
    /// **current** ledger, then charges the actual loss and pushes the
    /// transcript entry. A failed re-check — the ledger moved between
    /// evaluate and commit — denies, discards the speculative result,
    /// and charges nothing. `cap` is how a session holding only a *slice*
    /// of the owner's budget commits: the engine-wide budget `B` still
    /// bounds the joint spend of every session, and the cap additionally
    /// bounds this charge.
    ///
    /// `log` is the durability hook: it runs after the commit decision is
    /// made but **before** any ledger or transcript mutation. If it fails,
    /// the commit is abandoned with nothing charged — this is how a
    /// persistence layer makes a charge durable-or-nothing (append the WAL
    /// record in `log`; a failed append leaves memory and disk agreeing
    /// that nothing happened).
    ///
    /// # Errors
    /// [`CommitError::Engine`] for engine faults — among them
    /// [`EngineError::LossAboveWorstCase`] when the pending charge reports
    /// more loss than its declared worst case — and [`CommitError::Log`]
    /// when the hook refused. Either way nothing was charged.
    pub fn commit_with<E>(
        &mut self,
        pending: PendingCharge,
        cap: f64,
        log: impl FnOnce(&EngineResponse) -> Result<(), E>,
    ) -> Result<EngineResponse, CommitError<E>> {
        crate::sched_point!("engine.commit.enter");
        let PendingCharge {
            engine_id,
            epoch,
            record,
            outcome,
        } = pending;
        if engine_id != self.id {
            // The speculative answer was computed over another engine's
            // data; charging this ledger for it would both mis-account
            // that engine's loss and leak its data through this
            // transcript. Refuse — nothing is charged anywhere.
            return Err(CommitError::Engine(EngineError::ForeignPendingCharge));
        }
        let current = self.data.epoch();
        if epoch != current {
            // A live mutation committed between evaluate and commit: the
            // speculative answer reflects a row set that no longer
            // exists. Releasing it would charge the ledger for a stale
            // view — refuse before any log or charge; the caller
            // re-evaluates against the current epoch.
            return Err(CommitError::Engine(EngineError::StaleEpoch {
                pending: epoch,
                current,
            }));
        }
        let Some(p) = outcome else {
            // Evaluate already denied; record it (Line 16).
            let response = EngineResponse::Denied;
            crate::sched_point!("engine.commit.pre_log");
            log(&response).map_err(CommitError::Log)?;
            crate::sched_point!("engine.commit.post_log");
            self.transcript
                .push(TranscriptEntry::Denied { query: record });
            return Ok(response);
        };
        if p.epsilon.is_nan() || p.epsilon > p.epsilon_upper * (1.0 + 1e-9) {
            // Evaluate refuses this at construction; re-checked here so
            // the charge point itself can never admit an overshooting
            // loss (NaN included), whatever handed it the pending.
            return Err(CommitError::Engine(EngineError::LossAboveWorstCase {
                epsilon: p.epsilon,
                upper: p.epsilon_upper,
            }));
        }
        // The commit-point re-validation: the admission predicate —
        // worst case within min(remaining, cap), a function of the
        // query, accuracy, and *current* ledger only, never the data —
        // must still hold. Losing the race denies and discards.
        if p.epsilon_upper > self.remaining().min(cap) {
            let response = EngineResponse::Denied;
            crate::sched_point!("engine.commit.pre_log");
            log(&response).map_err(CommitError::Log)?;
            crate::sched_point!("engine.commit.post_log");
            self.transcript
                .push(TranscriptEntry::Denied { query: record });
            return Ok(response);
        }
        let response = EngineResponse::Answered(Answered {
            answer: p.answer,
            epsilon: p.epsilon,
            epsilon_upper: p.epsilon_upper,
            mechanism: p.mechanism,
        });
        crate::sched_point!("engine.commit.pre_log");
        // The canary flips append-before-charge to charge-before-append;
        // with it set, a failed `log` strands a charge no durable record
        // backs — which the exerciser's live-spend invariant must catch.
        let charged_early = {
            #[cfg(any(test, feature = "sched"))]
            {
                if self.bug_charge_before_log {
                    self.spent += p.epsilon;
                    true
                } else {
                    false
                }
            }
            #[cfg(not(any(test, feature = "sched")))]
            {
                false
            }
        };
        log(&response).map_err(CommitError::Log)?;
        crate::sched_point!("engine.commit.post_log");
        if !charged_early {
            // Line 12: charge the *actual* loss — the commit point.
            self.spent += p.epsilon;
        }
        self.transcript.push(TranscriptEntry::Answered {
            query: record,
            mechanism: p.mechanism,
            epsilon: p.epsilon,
            epsilon_upper: p.epsilon_upper,
        });
        crate::sched_point!("engine.commit.done");
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::{Attribute, Domain, Predicate, Schema, Value};
    use apex_mech::PreparedQuery;
    use apex_query::CompiledWorkload;

    fn schema() -> Schema {
        Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 63 },
        )])
        .unwrap()
    }

    fn data() -> Dataset {
        let mut d = Dataset::empty(schema());
        for i in 0..64_i64 {
            for _ in 0..(i + 1) {
                d.push(vec![Value::Int(i)]).unwrap();
            }
        }
        d
    }

    fn histogram(bins: usize) -> ExplorationQuery {
        ExplorationQuery::wcq(
            (0..bins)
                .map(|i| {
                    Predicate::range("v", (64 * i / bins) as f64, (64 * (i + 1) / bins) as f64)
                })
                .collect(),
        )
    }

    fn engine(budget: f64) -> ApexEngine {
        ApexEngine::new(
            data(),
            EngineConfig {
                budget,
                mode: Mode::Pessimistic,
                seed: 1,
            },
        )
    }

    #[test]
    fn answers_within_budget() {
        let mut e = engine(10.0);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let r = e.submit(&histogram(8), &acc).unwrap();
        let a = r.answered().expect("should answer");
        assert!(a.epsilon > 0.0);
        assert!(e.spent() > 0.0);
        assert_eq!(e.transcript().answered(), 1);
    }

    #[test]
    fn denies_when_budget_too_small() {
        let mut e = engine(1e-6);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let r = e.submit(&histogram(8), &acc).unwrap();
        assert!(r.is_denied());
        assert_eq!(e.spent(), 0.0);
        assert_eq!(e.transcript().denied(), 1);
    }

    #[test]
    fn budget_is_never_exceeded_across_many_queries() {
        let mut e = engine(0.5);
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let mut denied = 0;
        for _ in 0..50 {
            if e.submit(&histogram(8), &acc).unwrap().is_denied() {
                denied += 1;
            }
        }
        assert!(e.spent() <= 0.5 + 1e-9, "spent {}", e.spent());
        assert!(denied > 0, "some queries must eventually be denied");
        assert!(e.transcript().is_valid(0.5));
    }

    #[test]
    fn denial_does_not_end_the_session() {
        // An expensive query is denied; a cheaper one afterwards succeeds.
        let mut e = engine(0.05);
        let expensive = AccuracySpec::new(2.0, 0.0005).unwrap();
        let cheap = AccuracySpec::new(200.0, 0.01).unwrap();
        assert!(e.submit(&histogram(8), &expensive).unwrap().is_denied());
        assert!(!e.submit(&histogram(8), &cheap).unwrap().is_denied());
    }

    #[test]
    fn malformed_query_is_an_error_not_a_denial() {
        let mut e = engine(1.0);
        let acc = AccuracySpec::new(10.0, 0.01).unwrap();
        let bad = ExplorationQuery::wcq(vec![Predicate::eq("nope", 1_i64)]);
        assert!(e.submit(&bad, &acc).is_err());
        // Errors leave no transcript trace and no budget change.
        assert_eq!(e.transcript().len(), 0);
        assert_eq!(e.spent(), 0.0);
    }

    #[test]
    fn optimistic_mode_can_underspend_the_worst_case() {
        // ICQ with counts far from the threshold: optimistic mode picks
        // MPM, which stops at the first poke.
        let icq = ExplorationQuery::icq(
            (0..8)
                .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
                .collect(),
            2000.0, // all bin counts are << 2000: trivially decidable
        );
        let acc = AccuracySpec::new(30.0, 0.0005).unwrap();
        let mut e = ApexEngine::new(
            data(),
            EngineConfig {
                budget: 10.0,
                mode: Mode::Optimistic,
                seed: 2,
            },
        );
        let r = e.submit(&icq, &acc).unwrap();
        let a = r.answered().unwrap();
        assert_eq!(a.mechanism, "MPM");
        assert!(
            a.epsilon < a.epsilon_upper,
            "actual {} should beat worst case {}",
            a.epsilon,
            a.epsilon_upper
        );
    }

    #[test]
    fn transcript_records_everything_in_order() {
        let mut e = engine(1.0);
        let acc = AccuracySpec::new(50.0, 0.01).unwrap();
        e.submit(&histogram(4), &acc).unwrap();
        e.submit(&histogram(4), &AccuracySpec::new(0.5, 0.0005).unwrap())
            .unwrap();
        let t = e.transcript();
        assert_eq!(t.len(), 2);
        assert!(!t.entries()[0].is_denied());
        assert!(t.entries()[1].is_denied());
        assert!(t.is_valid(1.0));
    }

    #[test]
    #[should_panic(expected = "privacy budget must be positive")]
    fn zero_budget_panics() {
        let _ = engine(0.0);
    }

    #[test]
    fn repeated_queries_hit_the_translator_cache() {
        let mut e = engine(100.0);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        // Prefix workload: SM is competitive, so its artifacts are built.
        let prefix = ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        );
        for _ in 0..4 {
            e.submit(&prefix, &acc).unwrap();
        }
        let stats = e.translator_cache().stats();
        // One build for the workload signature, hits for every later
        // translate/run touching it.
        assert_eq!(stats.misses, 1, "stats: {stats:?}");
        assert!(stats.hits >= 4, "stats: {stats:?}");
        assert_eq!(e.translator_cache().len(), 1);

        // A structurally different workload builds a second entry.
        e.submit(&histogram(8), &acc).unwrap();
        assert_eq!(e.translator_cache().len(), 2);
    }

    #[test]
    fn evaluate_charges_nothing_until_commit() {
        let mut e = engine(10.0);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let pending = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        assert!(pending.epsilon_upper().is_some(), "ample budget admits");
        assert_eq!(e.spent(), 0.0, "evaluation must not touch the ledger");
        assert_eq!(e.transcript().len(), 0);
        let r = e.commit(pending).unwrap();
        let a = r.answered().expect("still fits at commit");
        assert!((e.spent() - a.epsilon).abs() < 1e-12);
        assert_eq!(e.transcript().answered(), 1);
    }

    #[test]
    fn dropping_a_pending_charge_charges_nothing() {
        let mut e = engine(10.0);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let pending = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        drop(pending);
        assert_eq!(e.spent(), 0.0);
        assert!(e.transcript().is_empty(), "no trace without a commit");
        // The engine is unaffected: a later submit behaves normally.
        assert!(!e.submit(&histogram(8), &acc).unwrap().is_denied());
    }

    #[test]
    fn commit_rechecks_against_the_current_ledger() {
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        // Learn the (deterministic) worst case of this query…
        let upper = engine(100.0)
            .evaluate(&histogram(8), &acc, f64::INFINITY)
            .unwrap()
            .epsilon_upper()
            .unwrap();
        // …then size the budget to fit exactly one of them.
        let mut e = engine(upper * 1.5);
        let p1 = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        let p2 = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        assert!(p1.epsilon_upper().is_some());
        assert!(
            p2.epsilon_upper().is_some(),
            "both fit against the untouched ledger"
        );
        assert!(!e.commit(p1).unwrap().is_denied());
        // The ledger moved between p2's evaluate and its commit: the
        // re-check must deny and discard, charging nothing further.
        let spent_after_first = e.spent();
        assert!(e.commit(p2).unwrap().is_denied());
        assert_eq!(e.spent(), spent_after_first);
        assert_eq!(e.transcript().answered(), 1);
        assert_eq!(e.transcript().denied(), 1);
        assert!(e.transcript().is_valid(upper * 1.5));
    }

    #[test]
    fn commit_refuses_a_loss_above_the_declared_worst_case() {
        // The hard check that replaced the old (release-invisible)
        // debug_assert: a mechanism reporting more loss than it declared
        // must be refused at the charge point, spending nothing.
        let record = || QueryRecord {
            kind: "WCQ",
            workload_size: 1,
            alpha: 1.0,
            beta: 0.1,
        };
        let mut e = engine(10.0);
        let engine_id = e.id;
        let rogue = |epsilon: f64| PendingCharge {
            engine_id,
            epoch: 0,
            record: record(),
            outcome: Some(PendingAnswer {
                answer: QueryAnswer::Counts(vec![0.0]),
                epsilon,
                epsilon_upper: 0.1,
                mechanism: "LM",
            }),
        };
        match e.commit(rogue(0.5)) {
            Err(EngineError::LossAboveWorstCase { epsilon, upper }) => {
                assert_eq!(epsilon, 0.5);
                assert_eq!(upper, 0.1);
            }
            other => panic!("overshoot must refuse, got {other:?}"),
        }
        // NaN is an overshoot too (the comparison is NaN-hostile).
        assert!(matches!(
            e.commit(rogue(f64::NAN)),
            Err(EngineError::LossAboveWorstCase { .. })
        ));
        assert_eq!(e.spent(), 0.0, "a refused charge spends nothing");
        assert!(e.transcript().is_empty());
    }

    #[test]
    fn commit_refuses_a_pending_from_another_engine() {
        // The pending's answer was computed over engine A's data;
        // committing it on engine B would charge B's ledger for A's
        // data release. Provenance is stamped at evaluate time and
        // checked at the commit point.
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let mut a = engine(10.0);
        let mut b = engine(10.0);
        let pending = a.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        assert!(matches!(
            b.commit(pending),
            Err(EngineError::ForeignPendingCharge)
        ));
        assert_eq!(b.spent(), 0.0);
        assert!(b.transcript().is_empty());
        assert_eq!(
            a.spent(),
            0.0,
            "the foreign commit charged nothing anywhere"
        );
    }

    #[test]
    fn commit_refuses_an_epoch_stale_pending_charge() {
        // evaluate → mutate → commit: the speculative answer was computed
        // over the pre-mutation row set, so the commit must refuse and
        // charge nothing — the analyst re-evaluates at the new epoch.
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let mut e = engine(10.0);
        assert_eq!(e.epoch(), 0);
        let pending = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        assert_eq!(pending.epoch(), 0);
        let delta = e.insert_rows(&[vec![Value::Int(3)]]).unwrap();
        assert_eq!(delta.epoch, 1);
        assert_eq!(e.epoch(), 1);
        match e.commit(pending) {
            Err(EngineError::StaleEpoch { pending, current }) => {
                assert_eq!((pending, current), (0, 1));
            }
            other => panic!("stale commit must refuse, got {other:?}"),
        }
        assert_eq!(e.spent(), 0.0, "a refused stale charge spends nothing");
        assert!(e.transcript().is_empty());
        // Re-evaluating at the new epoch commits normally.
        let fresh = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        assert_eq!(fresh.epoch(), 1);
        assert!(!e.commit(fresh).unwrap().is_denied());
        // Deletions are epoch bumps too.
        let pending = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        e.delete_rows(&[vec![Value::Int(3)]]).unwrap();
        assert!(matches!(
            e.commit(pending),
            Err(EngineError::StaleEpoch { .. })
        ));
        assert_eq!(e.mutations_applied(), 2);
    }

    #[test]
    fn a_mutation_keeps_the_translator_cache_warm_and_the_epsilon_exact() {
        // Strategy artifacts derive from the compiled workload alone, so
        // a row mutation must not cost a rebuild — and the ε translated
        // from the shared artifact is the ε a fresh cache would give.
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let prefix = ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        );
        let upper = |e: &mut ApexEngine| {
            let r = e.submit(&prefix, &acc).unwrap();
            r.answered().unwrap().epsilon_upper.to_bits()
        };
        let mut e = engine(100.0);
        let before_eps = upper(&mut e);
        let before = e.translator_cache().stats();
        assert_eq!(before.misses, 1);

        e.insert_rows(&[vec![Value::Int(7)]]).unwrap();
        assert_eq!(upper(&mut e), before_eps);
        e.delete_rows(&[vec![Value::Int(7)]]).unwrap();
        assert_eq!(upper(&mut e), before_eps);
        let after = e.translator_cache().stats();
        assert_eq!(after.misses, 1, "same workload after a mutation hits");
        assert!(after.hits > before.hits);

        // A fresh cache over the mutated data translates to the same bits.
        let mut fresh = ApexEngine::new(
            (*e.data).clone(),
            EngineConfig {
                budget: 100.0,
                mode: Mode::Pessimistic,
                seed: 9,
            },
        );
        assert_eq!(upper(&mut fresh), before_eps);
    }

    #[test]
    fn a_widening_insert_shares_artifacts_exactly_when_the_matrix_is_the_same() {
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let compile = |e: &ApexEngine, q: &ExplorationQuery| {
            let p = PreparedQuery::prepare(e.schema(), q).unwrap();
            (p.compiled().signature(), p.compiled().csr().clone())
        };
        let prefixes = || (1..=16).map(|i| Predicate::range("v", 0.0, (4 * i) as f64));
        // Ranges inside the old domain: widening v to 0..=500 leaves the
        // cells, hence the CSR and its signature, untouched — a hit, and
        // equal signature means the shared artifact is for this matrix.
        let inner = ExplorationQuery::wcq(prefixes().collect());
        // An open-ended comparison: its cell grows a neighbour when the
        // domain does, so the matrix — and the signature — change.
        let open_end = Predicate::cmp("v", apex_data::CmpOp::Ge, 64_i64);
        let outer = ExplorationQuery::wcq(prefixes().chain([open_end]).collect());
        let mut e = engine(100.0);
        e.submit(&inner, &acc).unwrap();
        e.submit(&outer, &acc).unwrap();
        let (inner_old, outer_old) = (compile(&e, &inner), compile(&e, &outer));
        let misses = e.translator_cache().stats().misses;

        e.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        let (inner_new, outer_new) = (compile(&e, &inner), compile(&e, &outer));
        assert_eq!(inner_new.0, inner_old.0);
        assert_eq!(inner_new.1, inner_old.1, "equal signature, equal CSR");
        assert_ne!(outer_new.0, outer_old.0, "a changed matrix re-keys");

        e.submit(&inner, &acc).unwrap();
        assert_eq!(e.translator_cache().stats().misses, misses);
        e.submit(&outer, &acc).unwrap();
        assert_eq!(e.translator_cache().stats().misses, misses + 1);
    }

    /// A prefix workload with an open end: widening `v` changes its cells.
    fn open_ended() -> ExplorationQuery {
        let open_end = Predicate::cmp("v", apex_data::CmpOp::Ge, 64_i64);
        ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .chain([open_end])
                .collect(),
        )
    }

    /// The memo's entry for `q` against the engine's current schema
    /// (a hit when an evaluate just compiled it), next to a fresh compile.
    fn memoised_and_fresh(e: &ApexEngine, q: &ExplorationQuery) -> [Arc<CompiledWorkload>; 2] {
        let memoised = e.memo.prepare(e.data.schema_arc(), q).unwrap();
        let fresh = CompiledWorkload::compile(e.schema(), &q.workload).unwrap();
        [memoised.compiled().clone(), Arc::new(fresh)]
    }

    fn assert_same_compile([a, b]: &[Arc<CompiledWorkload>; 2]) {
        assert_eq!(a.csr(), b.csr());
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.sensitivity().to_bits(), b.sensitivity().to_bits());
        assert!(a.partition().same_mapping(b.partition()));
        assert_eq!(a.schema(), b.schema());
    }

    #[test]
    fn a_widening_insert_makes_the_next_evaluate_recompile() {
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let mut e = engine(100.0);
        e.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        e.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        assert_eq!((e.compile_stats().hits, e.compile_stats().misses), (1, 1));
        let before = memoised_and_fresh(&e, &open_ended());

        // A row mutation inside the domain keeps the schema: still a hit.
        e.insert_rows(&[vec![Value::Int(3)]]).unwrap();
        e.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        assert_eq!(e.compile_stats().misses, 1);

        e.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        e.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        assert_eq!(e.compile_stats().misses, 2, "the widened schema misses");
        let after = memoised_and_fresh(&e, &open_ended());
        assert_same_compile(&after);
        assert_ne!(before[0].signature(), after[0].signature());
    }

    #[test]
    fn a_compile_that_raced_a_widening_is_never_hit_after_it() {
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let mut e = engine(100.0);
        let stale = e.evaluation_context();
        e.insert_rows(&[vec![Value::Int(500)]]).unwrap();
        e.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        // The pre-widening context evaluates last: it compiles against the
        // old schema and its insert replaces the widened entry.
        stale.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        assert_eq!(e.compile_stats().misses, 2);
        for _ in 0..3 {
            e.evaluate(&open_ended(), &acc, f64::INFINITY).unwrap();
        }
        let stats = e.compile_stats();
        assert_eq!((stats.misses, stats.hits), (3, 2), "one miss, then hits");
        assert_same_compile(&memoised_and_fresh(&e, &open_ended()));
    }

    #[test]
    fn evaluate_denial_commits_to_a_denied_response() {
        let mut e = engine(1e-6);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let pending = e.evaluate(&histogram(8), &acc, f64::INFINITY).unwrap();
        assert!(pending.epsilon_upper().is_none(), "nothing fits");
        assert!(e.commit(pending).unwrap().is_denied());
        assert_eq!(e.spent(), 0.0);
        assert_eq!(e.transcript().denied(), 1);
    }

    #[test]
    fn ledger_round_trips_through_export_and_import() {
        let mut e = engine(1.0);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        e.submit(&histogram(8), &acc).unwrap();
        let exported = e.export_ledger();
        assert_eq!(exported.budget, 1.0);
        assert_eq!(exported.spent, e.spent());
        assert_eq!(exported.answered, 1);

        // A fresh engine picks the ledger up and keeps enforcing B from
        // where the old one stopped.
        let mut fresh = engine(1.0);
        fresh.import_ledger(exported.spent).unwrap();
        assert_eq!(fresh.spent(), exported.spent);
        assert!((fresh.remaining() - (1.0 - exported.spent)).abs() < 1e-12);
        // Denial logic sees the restored spend: an impossible ask denies.
        let r = fresh
            .submit(&histogram(8), &AccuracySpec::new(0.5, 0.0005).unwrap())
            .unwrap();
        assert!(r.is_denied());
    }

    #[test]
    fn ledger_import_rejects_invalid_or_used_targets() {
        // More spend than B is corruption, not something to clamp.
        assert!(engine(1.0).import_ledger(1.5).is_err());
        assert!(engine(1.0).import_ledger(-0.1).is_err());
        assert!(engine(1.0).import_ledger(f64::NAN).is_err());
        // An engine with history refuses (import is recovery-only).
        let mut used = engine(1.0);
        used.submit(&histogram(8), &AccuracySpec::new(30.0, 0.01).unwrap())
            .unwrap();
        assert!(used.import_ledger(0.1).is_err());
        // Exactly B (e.g. a fully exhausted tenant) is fine.
        let mut full = engine(1.0);
        full.import_ledger(1.0).unwrap();
        assert_eq!(full.remaining(), 0.0);
    }

    #[test]
    fn engines_can_share_one_translator_cache() {
        // Two engines over different datasets share one cache: the second
        // engine's identical workload structure is a pure hit. Artifacts
        // are data-independent, so sharing is sound across tenants.
        let cache = TranslatorCache::with_capacity(16);
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let prefix = ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        );
        let config = EngineConfig {
            budget: 100.0,
            mode: Mode::Pessimistic,
            seed: 1,
        };
        let mut e1 = ApexEngine::with_translator_cache(data(), config, cache.clone());
        let mut e2 = ApexEngine::with_translator_cache(
            {
                let mut d = Dataset::empty(schema());
                d.push(vec![Value::Int(5)]).unwrap();
                d
            },
            config,
            cache.clone(),
        );
        let a = e1.submit(&prefix, &acc).unwrap();
        let misses_after_first = cache.stats().misses;
        let b = e2.submit(&prefix, &acc).unwrap();
        // Same structure: no new build for the second tenant, and the
        // worst-case translation (data-independent) is identical.
        assert_eq!(cache.stats().misses, misses_after_first);
        assert!(cache.stats().hits > 0);
        assert_eq!(
            a.answered().unwrap().epsilon_upper,
            b.answered().unwrap().epsilon_upper
        );
    }

    #[test]
    fn cache_reuse_preserves_determinism_of_translation() {
        // Same query sequence on two engines: identical epsilons, whether
        // artifacts came fresh or from cache.
        let acc = AccuracySpec::new(30.0, 0.01).unwrap();
        let prefix = ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        );
        let run = |seed: u64| -> Vec<f64> {
            let mut e = ApexEngine::new(
                data(),
                EngineConfig {
                    budget: 100.0,
                    mode: Mode::Pessimistic,
                    seed,
                },
            );
            (0..3)
                .map(|_| {
                    e.submit(&prefix, &acc)
                        .unwrap()
                        .answered()
                        .unwrap()
                        .epsilon_upper
                })
                .collect()
        };
        let a = run(1);
        let b = run(2); // different noise seed; translation must not care
        assert_eq!(a, b);
        // Within one engine, the cached ε equals the first (fresh) ε.
        assert!(a.windows(2).all(|w| w[0] == w[1]));
    }
}
