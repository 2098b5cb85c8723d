//! Deterministic schedule exerciser for the serving stack (ISSUE 9).
//!
//! [`apex_core::sched`] supplies the mechanics — yield points, traces,
//! schedule enumeration, crash injection. This module supplies the
//! *world*: a real [`ServerState`] over a real WAL directory, a set of
//! scripted logical threads ([`Op`] sequences), and the wire model
//! ([`Acked`]) every response is recorded into. After every step, and
//! after recovery from a kill at *any* yield point, the world is checked
//! by [`invariants::check`] — the one contract every harness shares. A
//! kill may leave the one commit or mutation it interrupted durable but
//! unacked, so recovery gets that [`Slack`]: an in-flight commit's εᵘ
//! (never more — the evaluate phase fixed the worst case), one mutation.
//! That covers a kill at `state.submit.staged`, where the commit is
//! charged and its locks released but its sync not yet awaited. The
//! world's WAL never syncs, so no covering sync fails here and the live
//! checks need no slack; a state test covers the failed sync.
//! Views are volatile, so a crash simply loses them — recovery needs no
//! protocol for them.
//!
//! Schedules are executed one step at a time on one real thread, so a
//! failure prints a fully replayable report: scenario name, schedule,
//! crash point, `(seed, case)` for random runs, and the yield trace.
//! `docs/CONCURRENCY.md` documents the yield-point map and how to turn
//! a report back into a pinned regression test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use apex_core::sched::{self, RngCore as _, SeedableRng, SimulatedCrash, StdRng, TraceHook};
use apex_core::{ApexEngine, EngineConfig, Mode, TranslatorCache};
use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
use apex_query::{AccuracySpec, ExplorationQuery};

use crate::clock::ManualClock;
use crate::http::Request;
use crate::invariants::{self, Acked, Observed, Slack, When};
use crate::state::{
    PersistOptions, ServerState, ServerStateBuilder, SubmitError, SubmitInFlight, SubmitOutcome,
    SubmitPhase,
};
use crate::{json, router, wire};

/// The one tenant every world serves.
const TENANT: &str = "t";
/// Session idle TTL in the world's manual clock.
const TTL_MS: u64 = 100;
/// Fixed seed for the random-schedule gate; failures print the case.
pub const GATE_SEED: u64 = 0xA9E5_5EED;

/// One scripted step of a logical thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Evaluate phase of submission slot `q` (pin + speculate).
    Evaluate(usize),
    /// Commit phase of submission slot `q` (gate + append + charge).
    Commit(usize),
    /// Admin close of the world's session.
    Close,
    /// Advance the clock past the TTL, then run the reaper.
    Reap,
    /// Snapshot + WAL-generation rotation.
    Compact,
    /// Arm the WAL to refuse the next append.
    WalFault,
    /// Insert one row into the tenant's live dataset (bumps the epoch;
    /// any in-flight commit that evaluated earlier must refuse stale).
    Mutate,
    /// Kill the process here (schedule truncation; the yield-point
    /// crash sweep covers kills *inside* the other ops).
    Crash,
}

/// A named set of logical threads; the exerciser runs order-preserving
/// shuffles of them.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: &'static str,
    pub threads: Vec<Vec<Op>>,
    /// Inject the charge-before-append ordering bug (canary).
    pub canary: bool,
}

impl Scenario {
    fn counts(&self) -> Vec<usize> {
        self.threads.iter().map(Vec::len).collect()
    }

    /// Number of submission slots the ops reference.
    fn slots(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Evaluate(q) | Op::Commit(q) => Some(q + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Two concurrent queriers racing an admin close and the reaper.
pub fn queriers_close_reap() -> Scenario {
    Scenario {
        name: "queriers-close-reap",
        threads: vec![
            vec![Op::Evaluate(0), Op::Commit(0)],
            vec![Op::Evaluate(1), Op::Commit(1)],
            vec![Op::Close],
            vec![Op::Reap],
        ],
        canary: false,
    }
}

/// Two concurrent queriers racing compaction and the reaper.
pub fn queriers_compact() -> Scenario {
    Scenario {
        name: "queriers-compact",
        threads: vec![
            vec![Op::Evaluate(0), Op::Commit(0)],
            vec![Op::Evaluate(1), Op::Commit(1)],
            vec![Op::Compact],
            vec![Op::Reap],
        ],
        canary: false,
    }
}

/// A WAL fault armed at every possible point relative to two
/// submissions — the scenario that catches append/charge ordering bugs
/// without any crash at all.
pub fn fault_commit() -> Scenario {
    Scenario {
        name: "fault-commit",
        threads: vec![
            vec![Op::Evaluate(0), Op::Commit(0)],
            vec![Op::WalFault],
            vec![Op::Evaluate(1), Op::Commit(1)],
        ],
        canary: false,
    }
}

/// A querier racing an admin close, killed at every schedule position.
pub fn close_crash() -> Scenario {
    Scenario {
        name: "close-crash",
        threads: vec![
            vec![Op::Evaluate(0), Op::Commit(0)],
            vec![Op::Close],
            vec![Op::Crash],
        ],
        canary: false,
    }
}

/// Two queriers racing a live row mutation (ISSUE 10): a commit whose
/// evaluate straddled the mutation must refuse as epoch-stale and
/// charge nothing; one that ordered cleanly charges exactly once.
pub fn mutate_racing_queriers() -> Scenario {
    Scenario {
        name: "mutate-racing-queriers",
        threads: vec![
            vec![Op::Evaluate(0), Op::Commit(0)],
            vec![Op::Mutate],
            vec![Op::Evaluate(1), Op::Commit(1)],
        ],
        canary: false,
    }
}

/// A mutation racing an armed WAL fault and compaction. Neither can
/// touch it: its one durable record is the dataset's own mutation log,
/// so the fault can only refuse a commit's append, and compaction folds
/// nothing of the mutation — yet recovery must rebuild it exactly.
pub fn mutate_fault_compact() -> Scenario {
    Scenario {
        name: "mutate-fault-compact",
        threads: vec![
            vec![Op::Evaluate(0), Op::Commit(0)],
            vec![Op::Mutate],
            vec![Op::WalFault],
            vec![Op::Compact],
        ],
        canary: false,
    }
}

/// [`fault_commit`] with the injected charge-before-append bug: the
/// bounded enumeration must fail on it (exerciser self-test).
pub fn canary_charge_before_log() -> Scenario {
    Scenario {
        canary: true,
        name: "canary-charge-before-log",
        ..fault_commit()
    }
}

/// The scenario pool the random gate draws from.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        queriers_close_reap(),
        queriers_compact(),
        fault_commit(),
        close_crash(),
        mutate_racing_queriers(),
        mutate_fault_compact(),
    ]
}

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

fn accuracy() -> AccuracySpec {
    AccuracySpec::new(25.0, 0.05).unwrap()
}

/// Worst-case loss of one `histogram()`/`accuracy()` submission,
/// probed once per process on a throwaway engine. The world sizes its
/// budget and allowance in these units so every scenario admits the
/// interesting outcomes (answer, deny-at-cap) deterministically.
fn unit_upper() -> f64 {
    static UPPER: OnceLock<f64> = OnceLock::new();
    *UPPER.get_or_init(|| {
        let mut engine = ApexEngine::new(
            tiny_dataset(),
            EngineConfig {
                budget: 1e9,
                mode: Mode::Pessimistic,
                seed: 7,
            },
        );
        engine
            .evaluate(&histogram(), &accuracy(), f64::INFINITY)
            .expect("probe evaluate")
            .epsilon_upper()
            .expect("probe must admit")
    })
}

/// One shared translator cache across every world: mechanism selection
/// for the (only) workload is measured once per process, not once per
/// schedule.
fn shared_cache() -> TranslatorCache {
    static CACHE: OnceLock<TranslatorCache> = OnceLock::new();
    CACHE
        .get_or_init(|| TranslatorCache::with_capacity(64))
        .clone()
}

/// A unique, self-cleaning state directory per run.
fn fresh_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "apex-exerciser-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persist_opts(dir: &Path) -> PersistOptions {
    PersistOptions {
        sync: false,
        ..PersistOptions::new(dir)
    }
}

/// A live world under test: one durable tenant, one session, and what
/// its "client" was acked since the tenant was observed as `base`.
struct World {
    dir: PathBuf,
    clock: ManualClock,
    state: Option<Arc<ServerState>>,
    session: u64,
    budget: f64,
    base: Observed,
    acked: Acked,
    /// εᵘ of the commit currently in flight — the only slack recovery
    /// may legitimately show over `acked` after a mid-commit crash.
    inflight_upper: f64,
    /// True while a mutate op is between its call and its ack — the only
    /// window where recovery may show one mutation over the acked ones
    /// (logged and applied, but never acked).
    mut_inflight: bool,
    /// Pending evaluate-phase results by submission slot.
    pendings: Vec<Option<SubmitInFlight>>,
}

impl World {
    fn builder(&self) -> ServerStateBuilder {
        ServerState::builder_with_cache(shared_cache())
            .dataset(
                TENANT,
                tiny_dataset(),
                EngineConfig {
                    budget: self.budget,
                    mode: Mode::Pessimistic,
                    seed: 7,
                },
            )
            .clock(Arc::new(self.clock.clone()))
            .session_ttl(Duration::from_millis(TTL_MS))
    }

    fn new(dir: &Path, scenario: &Scenario) -> Result<World, String> {
        // Worlds are single-process and per-run fresh: the dir lock's
        // multi-process settle window would be 40 ms/run of sleep.
        crate::state::set_dirlock_settle_skip(true);
        let upper = unit_upper();
        let mut world = World {
            dir: dir.to_path_buf(),
            clock: ManualClock::new(),
            state: None,
            session: 0,
            // Ten units of budget, so the budget check `spent ≤ B` can
            // only fail through a genuine double charge…
            budget: upper * 10.0,
            base: Observed::default(),
            acked: Acked::default(),
            inflight_upper: 0.0,
            mut_inflight: false,
            pendings: (0..scenario.slots()).map(|_| None).collect(),
        };
        let (state, _) = world
            .builder()
            .build_recovered(persist_opts(dir))
            .map_err(|e| format!("world bring-up failed: {e:?}"))?;
        if scenario.canary {
            state
                .tenant(TENANT)
                .unwrap()
                .engine
                .set_bug_charge_before_log(true);
        }
        let state = Arc::new(state);
        world.base = Observed::read(&state, TENANT);
        world.state = Some(state);
        // …while the allowance admits exactly one worst-case answer:
        // the second concurrent commit must re-check and deny, which is
        // exactly the path the slice-bound races live on.
        let body = format!("{{\"dataset\":\"{TENANT}\",\"budget\":{}}}", upper * 1.5);
        let created = world.route("/v1/sessions", &body)?;
        world.session = created
            .as_ref()
            .and_then(|c| c.get("session"))
            .and_then(json::Json::as_u64)
            .ok_or("open acked without a session id")?;
        Ok(world)
    }

    /// One request through the router, its response recorded as acked —
    /// unless it is the `500` of a refused append (`None`).
    fn route(&mut self, path: &str, body: &str) -> Result<Option<json::Json>, String> {
        let state = self.state.as_ref().expect("world is live");
        let resp = router::route(state, &Request::new("POST", path, body));
        if resp.status == 500 {
            return Ok(None);
        }
        let body = json::parse(&resp.body).map_err(|e| format!("non-JSON response: {e}"))?;
        self.acked.record(resp.status, &body)?;
        Ok(Some(body))
    }

    /// Applies one op. `Err` is an invariant-class failure; panics
    /// (crash injection) unwind through to the driver.
    fn apply(&mut self, op: Op) -> Result<(), String> {
        let state = self.state.clone().expect("world is live");
        match op {
            Op::Evaluate(q) => {
                if self.pendings[q].is_some() {
                    return Err(format!("scenario bug: slot {q} already has a pending"));
                }
                match state.submit_evaluate(self.session, &histogram(), &accuracy()) {
                    Ok(SubmitPhase::Pending(flight)) => self.pendings[q] = Some(flight),
                    // Session closed/reaped underneath: a legal outcome,
                    // the slot's commit becomes a no-op.
                    Ok(SubmitPhase::Done(_)) => {}
                    Err(e) => return Err(format!("evaluate failed: {e}")),
                }
            }
            Op::Commit(q) => {
                let Some(flight) = self.pendings[q].take() else {
                    return Ok(());
                };
                self.inflight_upper = flight.epsilon_upper().unwrap_or(0.0);
                match state.submit_commit(flight) {
                    // The status and body the router would have sent.
                    Ok(SubmitOutcome::Response(r)) => {
                        let status = if r.is_denied() { 409 } else { 200 };
                        self.acked.record(status, &wire::engine_response_json(&r))?;
                    }
                    // Gone: nothing charged, nothing acked.
                    Ok(_) => {}
                    // Refused append: the contract says neither acked
                    // nor applied; `check_live` verifies the "applied"
                    // half right after this step.
                    Err(SubmitError::Wal(_)) => {}
                    // The evaluate straddled a mutation: refused at the
                    // epoch re-check, nothing charged, nothing logged.
                    Err(SubmitError::Engine(apex_core::EngineError::StaleEpoch { .. })) => {}
                    Err(e) => return Err(format!("commit failed: {e}")),
                }
                self.inflight_upper = 0.0;
            }
            Op::Mutate => {
                self.mut_inflight = true;
                let path = format!("/v1/datasets/{TENANT}/rows");
                let insert = "{\"op\":\"insert\",\"rows\":[[3]]}";
                // No fault the world injects reaches a mutation's log, so
                // a 500 here is a failure in itself.
                let ack = self
                    .route(&path, insert)?
                    .ok_or("mutation refused with 500")?;
                let inserted = ack.get("inserted").and_then(json::Json::as_u64);
                if inserted != Some(1) {
                    return Err(format!("mutation applied {inserted:?} rows, not 1"));
                }
                self.mut_inflight = false;
            }
            Op::Close => {
                // An armed WAL fault may refuse the Close record; the
                // in-memory close still happened and recovery simply
                // resurrects the session. Either way the conservation
                // equation must keep holding — so ignore the Result.
                let _ = state.expire_session(self.session);
            }
            Op::Reap => {
                self.clock.advance(TTL_MS + 1);
                let _ = state.reap_expired();
            }
            Op::Compact => state
                .compact()
                .map_err(|e| format!("compaction failed: {e}"))?,
            Op::WalFault => state.inject_wal_faults(1),
            Op::Crash => unreachable!("Crash is handled by the driver"),
        }
        Ok(())
    }

    /// Invariants that must hold between any two steps of a schedule.
    fn check_live(&self) -> Result<(), String> {
        let state = self.state.as_ref().expect("world is live");
        let after = Observed::read(state, TENANT);
        invariants::check(
            When::Live,
            &self.base,
            &after,
            &self.acked,
            Slack::default(),
        )
    }

    /// Drops the live state (releasing the directory lock — a real kill
    /// releases it too), recovers from disk, checks the recovered state
    /// against the acked model, and makes it the new baseline.
    fn check_recovered(&mut self, crashed: bool) -> Result<(), String> {
        // A durable-but-unacked record of the one commit or mutation in
        // flight is the only legitimate recovered-over-acked slack, and
        // only a crash can produce it (a completed run acked or
        // discarded every operation; refused appends must be gone).
        let slack = Slack {
            epsilon: self.inflight_upper,
            mutations: u64::from(self.mut_inflight),
            rows_per_mutation: 1,
        };
        let slack = if crashed { slack } else { Slack::default() };
        for p in &mut self.pendings {
            *p = None;
        }
        drop(self.state.take());
        let (state, _report) = self
            .builder()
            .build_recovered(persist_opts(&self.dir))
            .map_err(|e| format!("recovery failed: {e:?}"))?;
        let state = Arc::new(state);
        let after = Observed::read(&state, TENANT);
        let out = invariants::check(When::Recovered, &self.base, &after, &self.acked, slack);
        (self.base, self.acked) = (after, Acked::default());
        (self.inflight_upper, self.mut_inflight) = (0.0, false);
        self.state = Some(state);
        out
    }
}

/// What a passing run reports back (used by self-tests to compare
/// replays and to position crash sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Every yield point the schedule passed through, in order.
    pub points: Vec<&'static str>,
    /// Final acked Σε.
    pub acked: f64,
}

/// A failing run: everything needed to replay it, plus the formatted
/// report [`sched::format_failure`] builds from it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub scenario: &'static str,
    pub seed: Option<(u64, u64)>,
    pub schedule: Vec<usize>,
    pub crash_at: Option<u64>,
    pub trace: Vec<&'static str>,
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&sched::format_failure(
            self.scenario,
            self.seed,
            &self.schedule,
            self.crash_at,
            &self.trace,
            &self.message,
        ))
    }
}

/// Runs one schedule of `scenario` in a fresh directory, optionally
/// killing the world at the `crash_at`-th yield point (1-based), and
/// always finishing with the recovery check.
pub fn run_one(
    scenario: &Scenario,
    schedule: &[usize],
    crash_at: Option<u64>,
) -> Result<RunTrace, (String, Vec<&'static str>)> {
    let dir = fresh_dir(scenario.name);
    let hook = Rc::new(match crash_at {
        Some(k) => TraceHook::with_crash_at(k),
        None => TraceHook::new(),
    });
    let out = run_in(&dir, scenario, schedule, &hook);
    let _ = std::fs::remove_dir_all(&dir);
    match out {
        Ok(acked) => Ok(RunTrace {
            points: hook.trace(),
            acked,
        }),
        Err(message) => Err((message, hook.trace())),
    }
}

fn run_in(
    dir: &Path,
    scenario: &Scenario,
    schedule: &[usize],
    hook: &Rc<TraceHook>,
) -> Result<f64, String> {
    let mut world = World::new(dir, scenario)?;
    let guard = sched::hook_scope(hook.clone());
    let mut cursor = vec![0usize; scenario.threads.len()];
    let mut crashed = false;
    for &t in schedule {
        let op = scenario.threads[t][cursor[t]];
        cursor[t] += 1;
        if op == Op::Crash {
            crashed = true;
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| world.apply(op))) {
            Ok(Ok(())) => world.check_live()?,
            Ok(Err(message)) => return Err(message),
            Err(payload) => {
                if payload.downcast_ref::<SimulatedCrash>().is_some() {
                    crashed = true;
                    break;
                }
                std::panic::resume_unwind(payload);
            }
        }
    }
    // Uninstall the hook *before* recovery: recovery itself passes
    // yield points (it compacts), and an armed crash counter must not
    // fire inside the code whose crash-consistency we are checking.
    drop(guard);
    let acked = world.acked.epsilon;
    world.check_recovered(crashed)?;
    Ok(acked)
}

fn run_checked(
    scenario: &Scenario,
    schedule: &[usize],
    crash_at: Option<u64>,
    seed: Option<(u64, u64)>,
) -> Result<RunTrace, Box<Failure>> {
    run_one(scenario, schedule, crash_at).map_err(|(message, trace)| {
        Box::new(Failure {
            scenario: scenario.name,
            seed,
            schedule: schedule.to_vec(),
            crash_at,
            trace,
            message,
        })
    })
}

/// Exhaustively runs every interleaving of `scenario`; for the first
/// `crash_schedules` interleavings, additionally sweeps a kill across
/// every yield point the crash-free run passed through. Returns the
/// number of runs executed.
pub fn run_exhaustive(scenario: &Scenario, crash_schedules: usize) -> Result<usize, Box<Failure>> {
    let schedules = sched::interleavings(&scenario.counts(), usize::MAX);
    let mut runs = 0usize;
    for (i, schedule) in schedules.iter().enumerate() {
        let trace = run_checked(scenario, schedule, None, None)?;
        runs += 1;
        if i < crash_schedules {
            for k in 1..=trace.points.len() as u64 {
                run_checked(scenario, schedule, Some(k), None)?;
                runs += 1;
            }
        }
    }
    Ok(runs)
}

/// What a seeded case resolves to, before any run: the scenario index,
/// the schedule, whether a crash replay follows, and the raw draw that
/// picks the crash point (mod the trace length, known only after the
/// crash-free run).
pub fn derive_case(scenarios: &[Scenario], seed: u64, case: u64) -> (usize, Vec<usize>, bool, u64) {
    let mut rng = StdRng::seed_from_u64(sched::case_seed(seed, case));
    let idx = (rng.next_u64() % scenarios.len() as u64) as usize;
    let schedule = sched::random_interleaving(&mut rng, &scenarios[idx].counts());
    let with_crash = rng.next_u64() % 2 == 0;
    let crash_draw = rng.next_u64();
    (idx, schedule, with_crash, crash_draw)
}

/// Runs one seeded case (a failure report's `(seed, case)` replays
/// through here). Returns the number of runs executed (1, or 2 when
/// the case includes a crash replay).
pub fn run_case(scenarios: &[Scenario], seed: u64, case: u64) -> Result<usize, Box<Failure>> {
    let (idx, schedule, with_crash, crash_draw) = derive_case(scenarios, seed, case);
    let scenario = &scenarios[idx];
    let tag = Some((seed, case));
    let trace = run_checked(scenario, &schedule, None, tag)?;
    if with_crash && !trace.points.is_empty() {
        let k = 1 + crash_draw % trace.points.len() as u64;
        run_checked(scenario, &schedule, Some(k), tag)?;
        return Ok(2);
    }
    Ok(1)
}

/// Runs `cases` seeded random schedules over the scenario pool.
/// Returns the number of runs executed.
pub fn run_random(scenarios: &[Scenario], seed: u64, cases: u64) -> Result<usize, Box<Failure>> {
    let mut runs = 0usize;
    for case in 0..cases {
        runs += run_case(scenarios, seed, case)?;
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- bounded exhaustive passes (the smoke slice of the CI gate;
    // `schedule-gate` runs the full-strength `--ignored` variants) ----

    #[test]
    fn exhaustive_queriers_close_reap_holds_with_crash_sweep() {
        let runs = run_exhaustive(&queriers_close_reap(), 2).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            runs > 180,
            "expected 180 schedules + crash sweeps, got {runs}"
        );
    }

    #[test]
    fn exhaustive_fault_commit_holds_with_crash_sweep() {
        let runs = run_exhaustive(&fault_commit(), 2).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            runs > 30,
            "expected 30 schedules + crash sweeps, got {runs}"
        );
    }

    #[test]
    fn exhaustive_mutate_racing_queriers_holds_with_crash_sweep() {
        let runs = run_exhaustive(&mutate_racing_queriers(), 2).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            runs > 30,
            "expected 30 schedules + crash sweeps, got {runs}"
        );
    }

    #[test]
    fn exhaustive_mutate_fault_compact_holds_with_crash_sweep() {
        let runs = run_exhaustive(&mutate_fault_compact(), 2).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            runs > 60,
            "expected 60 schedules + crash sweeps, got {runs}"
        );
    }

    #[test]
    fn exhaustive_close_crash_holds() {
        // Every schedule position of the Crash op, plus point-level
        // sweeps on the first four schedules.
        run_exhaustive(&close_crash(), 4).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn random_schedules_hold() {
        run_random(&all_scenarios(), GATE_SEED, 40).unwrap_or_else(|f| panic!("{f}"));
    }

    // ---- full-strength gate (run by the `schedule-gate` CI job via
    // `-- --include-ignored`) ----

    #[test]
    #[ignore = "full-strength schedule gate; run via CI schedule-gate job"]
    fn gate_exhaustive_all_scenarios_with_full_crash_sweeps() {
        for scenario in all_scenarios() {
            let runs = run_exhaustive(&scenario, usize::MAX).unwrap_or_else(|f| panic!("{f}"));
            assert!(runs > 0, "{} ran nothing", scenario.name);
        }
    }

    #[test]
    #[ignore = "full-strength schedule gate; run via CI schedule-gate job"]
    fn gate_ten_thousand_seeded_random_schedules() {
        let runs =
            run_random(&all_scenarios(), GATE_SEED, 10_000).unwrap_or_else(|f| panic!("{f}"));
        assert!(runs >= 10_000);
    }

    // ---- exerciser self-tests ----

    #[test]
    fn canary_ordering_bug_is_caught_by_bounded_enumeration() {
        // Charging before the append is invisible when every append
        // succeeds — the fault-commit scenario plus the strict
        // spent==acked invariant pins it within 30 schedules.
        let failure = run_exhaustive(&canary_charge_before_log(), 0)
            .expect_err("the injected charge-before-append bug must be caught");
        assert!(
            failure.message.contains("live spent"),
            "canary caught by the wrong invariant: {failure}"
        );
        assert!(failure.crash_at.is_none(), "no crash needed: {failure}");
    }

    #[test]
    fn a_failing_schedule_replays_to_the_identical_trace() {
        let failure = run_exhaustive(&canary_charge_before_log(), 0).expect_err("canary must fail");
        let scenario = canary_charge_before_log();
        let a = run_one(&scenario, &failure.schedule, failure.crash_at)
            .expect_err("pinned schedule must fail on replay");
        let b = run_one(&scenario, &failure.schedule, failure.crash_at)
            .expect_err("pinned schedule must fail on replay");
        assert_eq!(a.1, b.1, "yield traces diverged between replays");
        assert_eq!(a.0, b.0, "violation messages diverged between replays");
        assert_eq!(a.1, failure.trace, "replay diverged from the original run");
    }

    #[test]
    fn a_seeded_case_derives_and_replays_identically() {
        let scenarios = all_scenarios();
        let first = derive_case(&scenarios, GATE_SEED, 5);
        let second = derive_case(&scenarios, GATE_SEED, 5);
        assert_eq!(first, second, "case derivation is not deterministic");
        let (idx, schedule, _, _) = first;
        let a = run_one(&scenarios[idx], &schedule, None).expect("case 5 passes");
        let b = run_one(&scenarios[idx], &schedule, None).expect("case 5 passes");
        assert_eq!(a.points, b.points, "yield traces diverged between replays");
        assert_eq!(a.acked.to_bits(), b.acked.to_bits(), "acked ε diverged");
    }

    // ---- pinned regression schedules: interleavings that were (or
    // model) real races, kept as fixed schedules forever ----

    #[test]
    fn pinned_close_between_evaluate_and_commit_charges_nothing() {
        // The PR 5 race: admin close lands between a submission's
        // evaluate and commit phases. The commit must observe the
        // closed slice and charge nothing.
        let scenario = Scenario {
            name: "pinned-close-mid-flight",
            threads: vec![vec![Op::Evaluate(0), Op::Commit(0)], vec![Op::Close]],
            canary: false,
        };
        let t = run_one(&scenario, &[0, 1, 0], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        assert_eq!(t.acked, 0.0, "a commit racing a close must not charge");
    }

    #[test]
    fn pinned_reaper_skips_the_pinned_inflight_session() {
        // The reaper fires mid-submission (clock jumps past the TTL);
        // the pin must keep the session alive and the commit must land.
        let scenario = Scenario {
            name: "pinned-reap-mid-flight",
            threads: vec![vec![Op::Evaluate(0), Op::Commit(0)], vec![Op::Reap]],
            canary: false,
        };
        let t = run_one(&scenario, &[0, 1, 0], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        assert!(t.acked > 0.0, "the pinned session must survive the reaper");
    }

    #[test]
    fn pinned_compaction_between_phases_keeps_recovery_exact() {
        // Compaction rotates the WAL generation between the two phases;
        // the commit's record lands in the new generation and recovery
        // (inside run_one) must still reproduce the charge exactly.
        let scenario = Scenario {
            name: "pinned-compact-mid-flight",
            threads: vec![vec![Op::Evaluate(0), Op::Commit(0)], vec![Op::Compact]],
            canary: false,
        };
        let t = run_one(&scenario, &[0, 1, 0], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        assert!(t.acked > 0.0, "the commit must land after rotation");
    }

    #[test]
    fn pinned_wal_fault_before_commit_charges_nothing() {
        // Append-before-charge: a refused append must leave the ledger
        // untouched (run_one's live + recovery checks prove it).
        let scenario = Scenario {
            name: "pinned-fault-before-commit",
            threads: vec![vec![Op::Evaluate(0), Op::Commit(0)], vec![Op::WalFault]],
            canary: false,
        };
        let t = run_one(&scenario, &[1, 0, 0], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        assert_eq!(t.acked, 0.0, "a refused append must not charge");
    }

    #[test]
    fn pinned_mutation_between_evaluate_and_commit_refuses_stale() {
        // The ISSUE 10 race: a row mutation lands between a submission's
        // evaluate and commit phases. The commit must observe the epoch
        // bump, refuse as stale, and charge nothing — while the mutation
        // itself lands durably.
        let scenario = Scenario {
            name: "pinned-mutate-mid-flight",
            threads: vec![vec![Op::Evaluate(0), Op::Commit(0)], vec![Op::Mutate]],
            canary: false,
        };
        let t = run_one(&scenario, &[0, 1, 0], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        assert_eq!(
            t.acked, 0.0,
            "a commit straddling a mutation must not charge"
        );
        // The reverse order charges exactly once: committed before the
        // epoch moved.
        let t = run_one(&scenario, &[0, 0, 1], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        assert!(t.acked > 0.0, "a commit that beat the mutation must land");
    }

    #[test]
    fn pinned_mutation_folds_into_the_view_an_evaluate_left_behind() {
        // The maintained-histogram invariant is not vacuous: the evaluate
        // caches the workload's `x`, the mutation folds into it rather
        // than dropping it, and `check_live` compared it with a rescan.
        let scenario = mutate_racing_queriers();
        let dir = fresh_dir("view-fold");
        let mut world = World::new(&dir, &scenario).unwrap();
        for op in [Op::Evaluate(0), Op::Mutate, Op::Commit(0), Op::Evaluate(1)] {
            world.apply(op).unwrap();
            world.check_live().unwrap_or_else(|m| panic!("{m}"));
        }
        let state = world.state.as_ref().unwrap();
        let engine = &state.tenant(TENANT).unwrap().engine;
        let views = engine.with_engine(|e| e.dataset_view_stats());
        assert_eq!((views.entries, views.misses, views.folds), (1, 1, 1));
        assert!(views.hits >= 1, "the second evaluate read the folded view");
        assert_eq!(engine.with_engine(|e| e.audit_dataset_views()), Ok(1));
        // Volatile: recovery starts with none and needs none.
        world
            .check_recovered(false)
            .unwrap_or_else(|m| panic!("{m}"));
        let state = world.state.as_ref().unwrap();
        let engine = &state.tenant(TENANT).unwrap().engine;
        assert_eq!(engine.with_engine(|e| e.dataset_view_stats()).entries, 0);
        drop(world);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- satellite 1: poison recovery proof ----

    #[test]
    fn a_crash_mid_append_poisons_no_lock_the_shard_needs() {
        // Kill the world at `wal.append.enter` — *inside* the
        // PersistInner mutex — then keep using the same state. Before
        // the lockx recovery this panicked on the poisoned mutex on the
        // very next submit; now the shard keeps serving, and the ledger
        // stays exact.
        let probe = Scenario {
            name: "poison-probe",
            threads: vec![vec![Op::Evaluate(0), Op::Commit(0)]],
            canary: false,
        };
        let t = run_one(&probe, &[0, 0], None).unwrap_or_else(|(m, _)| panic!("{m}"));
        let k = t
            .points
            .iter()
            .position(|p| *p == "wal.append.enter")
            .expect("commit path must pass the append point") as u64
            + 1;

        let dir = fresh_dir("poison-continue");
        let mut world = World::new(&dir, &probe).unwrap();
        let hook = Rc::new(TraceHook::with_crash_at(k));
        let guard = sched::hook_scope(hook);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            world.apply(Op::Evaluate(0)).unwrap();
            world.apply(Op::Commit(0)).unwrap();
        }))
        .expect_err("the armed point must fire mid-commit");
        assert!(unwound.downcast_ref::<SimulatedCrash>().is_some());
        drop(guard);

        // The crash fired before the record was written and before the
        // charge: the model says nothing happened.
        world.pendings[0] = None;
        world.check_live().unwrap_or_else(|m| panic!("{m}"));
        // Keep serving on the SAME state, through the poisoned mutex.
        world.apply(Op::Evaluate(0)).unwrap();
        world.apply(Op::Commit(0)).unwrap();
        assert!(world.acked.epsilon > 0.0, "the shard must keep answering");
        world.check_live().unwrap_or_else(|m| panic!("{m}"));
        world
            .check_recovered(false)
            .unwrap_or_else(|m| panic!("{m}"));
        drop(world);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
