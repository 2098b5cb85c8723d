//! Golden yield-point traces: the ordered `sched_point!` names each
//! operation on a persisted [`ServerState`] passes through, pinned.
//!
//! The schedule exerciser explores interleavings *between* these
//! points; this test pins the points themselves. A refactor of the
//! state modules that moves a lock, an append or a charge relative to
//! its neighbours changes one of these lists — so a change that claims
//! to move code without changing any interleaving must leave every list
//! byte-identical.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use apex_core::sched::{self, TraceHook};
use apex_core::EngineConfig;
use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
use apex_query::{AccuracySpec, ExplorationQuery};

use crate::clock::ManualClock;
use crate::state::{PersistOptions, ServerState, ServerStateBuilder, SubmitOutcome};
use crate::testutil::temp_dir;

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

/// Runs `op` with a fresh [`TraceHook`] installed on this thread.
fn traced<T>(op: impl FnOnce() -> T) -> (T, Vec<&'static str>) {
    let hook = Rc::new(TraceHook::new());
    let guard = sched::hook_scope(hook.clone());
    let out = op();
    drop(guard);
    (out, hook.trace())
}

const OPEN: &[&str] = &[
    "state.open.enter",
    "state.log.enter",
    "wal.append.enter",
    "wal.append.ok",
    "state.log.appended",
    "state.open.logged",
    "state.open.inserted",
];

const SUBMIT_ANSWERED: &[&str] = &[
    "state.submit.pinned",
    "session.evaluate.enter",
    "engine.evaluate.enter",
    "state.submit.evaluated",
    "state.submit.commit_gate",
    "session.commit.enter",
    "engine.commit.enter",
    "engine.commit.pre_log",
    "state.log.enter",
    "wal.append.enter",
    "wal.append.ok",
    "state.log.appended",
    "engine.commit.post_log",
    "engine.commit.done",
    "session.commit.done",
    "state.submit.staged",
    "state.submit.done",
];

const SUBMIT_DENIED: &[&str] = &[
    "state.submit.pinned",
    "session.evaluate.enter",
    "engine.evaluate.enter",
    "state.submit.evaluated",
    "state.submit.commit_gate",
    "session.commit.enter",
    "engine.commit.enter",
    "engine.commit.pre_log",
    "state.log.enter",
    "wal.append.enter",
    "wal.append.ok",
    "state.log.appended",
    "engine.commit.post_log",
    "session.commit.done",
    "state.submit.staged",
    "state.submit.done",
];

const EXPIRE: &[&str] = &[
    "state.expire.removing",
    "state.expire.removed",
    "session.close.enter",
    "session.close.closing",
    "state.expire.closed",
    "state.log.enter",
    "wal.append.enter",
    "wal.append.ok",
    "state.log.appended",
    "state.expire.logged",
];

const REAP: &[&str] = &[
    "state.reap.scanned",
    "state.expire.removing",
    "state.expire.removed",
    "session.close.enter",
    "session.close.closing",
    "state.expire.closed",
    "state.log.enter",
    "wal.append.enter",
    "wal.append.ok",
    "state.log.appended",
    "state.expire.logged",
];

/// The dataset's own log append happens between the two: no WAL, no
/// ledger gate.
const MUTATE_RESIDENT: &[&str] = &["engine.mutate.enter", "engine.mutate.applied"];

const COMPACT: &[&str] = &[
    "state.compact.enter",
    "state.compact.new_gen",
    "state.compact.snapshotted",
    "state.compact.done",
];

/// The resident tenant replays its mutation log inside the dataset
/// (no yield points), then the compaction that folds the WAL.
const RECOVER: &[&str] = &[
    "state.compact.enter",
    "state.compact.new_gen",
    "state.compact.snapshotted",
    "state.compact.done",
];

#[test]
fn every_state_operation_passes_its_pinned_yield_points() {
    let dir = temp_dir("yield-traces");
    let clock = ManualClock::new();
    let builder = || -> ServerStateBuilder {
        ServerState::builder(8)
            .dataset("a", tiny_dataset(), EngineConfig::default())
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(100))
    };
    // Durable and fsyncing, as in production; compaction only on demand.
    let opts = || PersistOptions {
        snapshot_every: u64::MAX,
        ..PersistOptions::new(&dir)
    };
    let acc = AccuracySpec::new(25.0, 0.05).unwrap();
    let (state, _) = builder().build_recovered(opts()).unwrap();
    let mut pinned = Vec::new();

    let (id, trace) = traced(|| state.create_session("a", 0.5).unwrap().unwrap());
    pinned.push(("open", trace, OPEN));

    let (outcome, trace) = traced(|| state.submit(id, &histogram(), &acc).unwrap());
    assert!(matches!(outcome, SubmitOutcome::Response(ref r) if !r.is_denied()));
    pinned.push(("answered submit", trace, SUBMIT_ANSWERED));

    let starved = state.create_session("a", 1e-9).unwrap().unwrap();
    let (outcome, trace) = traced(|| state.submit(starved, &histogram(), &acc).unwrap());
    assert!(matches!(outcome, SubmitOutcome::Response(ref r) if r.is_denied()));
    pinned.push(("denied submit", trace, SUBMIT_DENIED));

    let (released, trace) = traced(|| state.expire_session(starved).unwrap());
    assert!(released.is_some());
    pinned.push(("admin expire", trace, EXPIRE));

    clock.advance(101);
    let (reaped, trace) = traced(|| state.reap_expired().unwrap());
    assert_eq!(reaped.len(), 1);
    pinned.push(("TTL reap", trace, REAP));

    let (mutated, trace) = traced(|| state.mutate_rows("a", true, &[vec![Value::Int(3)]]));
    assert!(mutated.is_ok());
    pinned.push(("resident-tenant mutate", trace, MUTATE_RESIDENT));

    // Something for compaction to fold and for recovery to replay.
    let id = state.create_session("a", 0.5).unwrap().unwrap();
    state.submit(id, &histogram(), &acc).unwrap();
    let ((), trace) = traced(|| state.compact().unwrap());
    pinned.push(("compact", trace, COMPACT));

    state.submit(id, &histogram(), &acc).unwrap();
    state
        .mutate_rows("a", false, &[vec![Value::Int(3)]])
        .unwrap();
    drop(state);
    let (recovered, trace) = traced(|| builder().build_recovered(opts()).unwrap());
    assert_eq!(
        recovered.1.replayed, 1,
        "the debit; the mutation is not in the WAL"
    );
    let engine = &recovered.0.tenant("a").unwrap().engine;
    assert_eq!((engine.epoch(), engine.mutations_applied()), (2, 2));
    pinned.push(("recover", trace, RECOVER));
    drop(recovered);

    for (op, trace, expected) in pinned {
        assert_eq!(trace, expected, "{op}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
