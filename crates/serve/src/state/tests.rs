use std::time::Duration;

use super::*;
use crate::clock::ManualClock;
use crate::snapshot::{self, Snapshot, TenantLedger};
use crate::wal;
use apex_core::{EngineConfig, EngineResponse};
use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
use apex_query::{AccuracySpec, ExplorationQuery};

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

/// A one-tenant ("a") builder.
fn mk() -> ServerStateBuilder {
    ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default())
}

/// Durable options over `dir` that trade per-record fsync for speed.
fn opts(dir: &std::path::Path) -> PersistOptions {
    PersistOptions {
        sync: false,
        ..PersistOptions::new(dir)
    }
}

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
    let spent_final = {
        let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
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
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
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
    let builder = || ServerState::builder(8).dataset("a", tiny_dataset(), EngineConfig::default());

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
    let compacting = || PersistOptions {
        snapshot_every: 2, // compactions must not lose the mutations
        ..opts(&dir)
    };

    let (epoch, applied, rows, spent) = {
        let (state, _) = mk().build_recovered(compacting()).unwrap();
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
        // Interleave queries so compaction runs after the mutations.
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

    let (state, _) = mk().build_recovered(compacting()).unwrap();
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
fn a_resident_tenants_mutations_never_reach_the_snapshot() {
    let dir = temp_dir("mutsnap");
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    let snapshot_len = || {
        std::fs::metadata(dir.join(snapshot::SNAPSHOT_FILE))
            .unwrap()
            .len()
    };
    let before = snapshot_len();
    for i in 0..50 {
        let insert = i % 2 == 0;
        let outcome = state
            .mutate_rows("a", insert, &[vec![Value::Int(3)]])
            .unwrap();
        assert!(matches!(outcome, MutateOutcome::Applied(_)));
    }
    state.compact().unwrap();
    assert_eq!(
        snapshot_len(),
        before,
        "compaction re-encoded mutation history"
    );
    drop(state);
    // The dataset's own log alone carries them across the restart.
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    let t = state.tenant("a").unwrap();
    assert_eq!((t.engine.epoch(), t.engine.mutations_applied()), (50, 50));
    assert_eq!(t.engine.with_engine(|e| e.dataset_scan_rows()), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn accepted_mutations_leave_the_wal_byte_identical_on_both_backings() {
    let dir = temp_dir("mutwal");
    let paged = tiny_dataset()
        .ingest_paged(&dir.join("data"), 1, 4)
        .unwrap();
    let (state, _) = mk()
        .dataset("p", paged, EngineConfig::default())
        .build_recovered(opts(&dir.join("state")))
        .unwrap();
    let wal = || {
        let gens = snapshot::list_wal_gens(&dir.join("state")).unwrap();
        std::fs::read(snapshot::wal_path(
            &dir.join("state"),
            *gens.last().unwrap(),
        ))
        .unwrap()
    };
    let before = wal();
    for tenant in ["a", "p"] {
        state
            .mutate_rows(tenant, true, &[vec![Value::Int(3)]])
            .unwrap();
        state
            .mutate_rows(tenant, false, &[vec![Value::Int(4)]])
            .unwrap();
        let e = &state.tenant(tenant).unwrap().engine;
        assert_eq!(e.mutations_applied(), 2, "{tenant}");
    }
    assert_eq!(wal(), before, "a mutation wrote to the WAL");
    assert_eq!(state.wal_stats().unwrap().durable_records, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovering_a_never_mutated_resident_tenant_creates_no_rows_file() {
    let dir = temp_dir("mutnone");
    for _ in 0..2 {
        let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
        let id = state.create_session("a", 0.5).unwrap().unwrap();
        state.expire_session(id).unwrap();
    }
    assert!(!dir.join("rows").exists(), "recovery created a rows/ entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_refuses_a_corrupt_resident_mutation_and_leaves_its_log_alone() {
    use apex_data::store::framed::{FRAME_HEADER, MAGIC_LEN};
    let dir = temp_dir("mutrot");
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    for v in 1..=3 {
        state
            .mutate_rows("a", true, &[vec![Value::Int(v)]])
            .unwrap();
    }
    drop(state);
    let log = dir.join("rows/a").join(apex_data::store::MUTATION_LOG_FILE);
    let pristine = std::fs::read(&log).unwrap();
    let first_len = u32::from_le_bytes(pristine[MAGIC_LEN + 4..MAGIC_LEN + 8].try_into().unwrap());
    let middle = MAGIC_LEN + FRAME_HEADER + first_len as usize;
    let mut rotted = pristine.clone();
    rotted[middle + FRAME_HEADER] ^= 1; // the second record's op byte
    std::fs::write(&log, &rotted).unwrap();
    for _ in 0..2 {
        match mk().build_recovered(opts(&dir)) {
            Err(RecoverError::MutationReplay { tenant, .. }) => assert_eq!(tenant, "a"),
            other => panic!("expected MutationReplay, got {:?}", other.map(drop)),
        }
        assert_eq!(
            std::fs::read(&log).unwrap(),
            rotted,
            "recovery touched the log"
        );
    }
    // A torn tail, the artifact of a crash mid-append, still recovers:
    // to the whole records, and the next mutation lands after them.
    let mut torn = pristine.clone();
    torn.extend_from_slice(&pristine[MAGIC_LEN..middle - 1]);
    std::fs::write(&log, &torn).unwrap();
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    let t = state.tenant("a").unwrap();
    assert_eq!((t.engine.epoch(), t.engine.mutations_applied()), (3, 3));
    state
        .mutate_rows("a", false, &[vec![Value::Int(1)]])
        .unwrap();
    drop(state);
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    let t = state.tenant("a").unwrap();
    assert_eq!(t.engine.mutations_applied(), 4);
    assert_eq!(t.engine.with_engine(|e| e.dataset_scan_rows()), 8 + 3 - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_folds_the_wal_and_recovery_agrees() {
    let dir = temp_dir("compact");
    let acc = AccuracySpec::new(25.0, 0.05).unwrap();
    let compacting = || PersistOptions {
        snapshot_every: 3, // compact aggressively
        ..opts(&dir)
    };

    let spent_before = {
        let (state, _) = mk().build_recovered(compacting()).unwrap();
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

    let (state, _) = mk().build_recovered(compacting()).unwrap();
    assert!((state.tenant("a").unwrap().engine.spent() - spent_before).abs() < 1e-9);
    assert_eq!(state.session_count(), 0);
    assert_eq!(state.expired_count(), 1, "tombstones survive restarts");
    assert!(state.tenant("a").unwrap().reclaimed() > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn state_dir_refuses_a_second_live_writer() {
    let dir = temp_dir("lock");
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    // A second writer on the same dir (same process is the most
    // direct double-writer hazard) must refuse while the first
    // lives.
    match mk().build_recovered(opts(&dir)) {
        Err(RecoverError::DirLocked { holder, .. }) => {
            assert_eq!(holder, Some(std::process::id()));
        }
        other => panic!("second writer must refuse, got {other:?}"),
    }
    drop(state);
    // Released on drop: recovery proceeds again…
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
    drop(state);
    // …and a stale lock from a dead writer is stolen, because a
    // hard crash is exactly the case recovery exists for.
    std::fs::write(dir.join("lock"), "999999999").unwrap();
    let _ = mk()
        .build_recovered(opts(&dir))
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
    let (spent_live, blocked_gen) = {
        let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
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
    let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
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
    let spent_live = {
        let (state, _) = mk().build_recovered(opts(&dir)).unwrap();
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

    let (state, report) = mk().build_recovered(opts(&dir)).unwrap();
    assert!(report.truncated.is_some(), "the torn tail was cut");
    assert!(
        (state.tenant("a").unwrap().engine.spent() - spent_live).abs() < 1e-9,
        "every acked record behind the stray must replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where a WAL image's valid prefix ends: its records, then zeroed room.
fn prefix_len(wal: &[u8]) -> usize {
    apex_data::store::framed::prefix_len(&wal::WAL_FORMAT, wal).unwrap() as usize
}

#[test]
fn recovery_refuses_corruption_but_truncates_torn_tails() {
    use apex_data::store::framed::TRAILER;
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

    // Torn tail (half a record where the next one goes): recovered
    // silently, with a report.
    let clean = std::fs::read(&path).unwrap();
    let end = prefix_len(&clean);
    let mut torn = clean.clone();
    torn.copy_within(8..15, end);
    std::fs::write(&path, &torn).unwrap();
    let (state, report) = mk().build_recovered(opts()).unwrap();
    assert_eq!(report.truncated, Some(end as u64));
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
    let last = prefix_len(&bytes) - TRAILER - 1;
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
    state.wal().unwrap().lift_backstop();
    (state, dir)
}

/// The shard's group-commit counters. The room left in the WAL file is
/// not one of them (see `wal::tests`), so it reads as zero here.
fn wal(state: &ServerState) -> WalStats {
    WalStats {
        room_bytes: 0,
        ..state.wal_stats().unwrap()
    }
}

/// Runs `op` on a second present worker and returns once that worker
/// leads a group and is gathering.
fn gathering_worker<'s, T: Send + 's>(
    scope: &'s std::thread::Scope<'s, '_>,
    state: &'s ServerState,
    op: impl FnOnce() -> T + Send + 's,
) -> std::thread::ScopedJoinHandle<'s, T> {
    let before = wal(state).gathers;
    let handle = scope.spawn(move || {
        let _present = state.writer_present();
        op()
    });
    while wal(state).gathers == before {
        std::thread::yield_now();
    }
    handle
}

/// Opens a session on tenant "b": one durable record.
fn open_b(state: &ServerState) -> impl FnOnce() + Send + '_ {
    move || {
        state.create_session("b", 0.01).unwrap().unwrap();
    }
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
        let b = gathering_worker(scope, &state, open_b(&state));
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
fn sync_gate_pairs_two_commits_on_one_tenant() {
    // One tenant, one engine lock: the leader waits for its sync with
    // that lock released, so the peer's Debit joins its group instead
    // of blocking until the backstop ends the gather.
    let (state, dir) = gate_state("gate-same-tenant");
    let ids = [0.4, 0.4].map(|allowance| state.create_session("a", allowance).unwrap().unwrap());
    let acc = AccuracySpec::new(25.0, 0.05).unwrap();
    let answered = |outcome| matches!(outcome, SubmitOutcome::Response(r) if !r.is_denied());
    // Worker A holds a request but has not submitted it yet.
    let a = state.writer_present();
    std::thread::scope(|scope| {
        let b = gathering_worker(scope, &state, || {
            state.submit(ids[1], &histogram(), &acc).unwrap()
        });
        assert_eq!(wal(&state).syncs, 2, "B must wait for A");
        assert!(answered(state.submit(ids[0], &histogram(), &acc).unwrap()));
        assert!(answered(b.join().unwrap()));
    });
    drop(a);
    assert_eq!(
        wal(&state),
        WalStats {
            durable_records: 4,
            covered: 4,
            syncs: 3,
            gathers: 1,
            ..WalStats::default()
        },
        "one sync covers both Debit records, and no gather timed out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_covering_sync_failing_after_the_charge_is_never_acked() {
    use crate::invariants::{check, Acked, Observed, Slack, When};
    let dir = temp_dir("syncfault");
    let acc = AccuracySpec::new(25.0, 0.05).unwrap();
    let (state, _) = mk().build_recovered(PersistOptions::new(&dir)).unwrap();
    let state = Arc::new(state);
    let observe = |state: &Arc<ServerState>| Observed::read(state, "a");
    let base = observe(&state);
    let id = state.create_session("a", 0.9).unwrap().unwrap();
    let mut acked = Acked {
        opened: 1,
        granted: 0.9,
        ..Acked::default()
    };
    let SubmitOutcome::Response(EngineResponse::Answered(a)) =
        state.submit(id, &histogram(), &acc).unwrap()
    else {
        panic!("the first query must be answered");
    };
    (acked.answered, acked.epsilon) = (1, a.epsilon);

    // The record is written and charged; its sync fails.
    state.inject_sync_faults(1);
    let SubmitPhase::Pending(flight) = state.submit_evaluate(id, &histogram(), &acc).unwrap()
    else {
        panic!("the second query must reach its commit");
    };
    let upper = flight.epsilon_upper().expect("admitted");
    match state.submit_commit(flight) {
        Err(SubmitError::Wal(_)) => {}
        other => panic!("a failed sync must surface as a WAL error, got {other:?}"),
    }
    // The writer is poisoned: the next append fails too.
    assert!(matches!(
        state.submit(id, &histogram(), &acc),
        Err(SubmitError::Wal(_))
    ));
    // Live, the ledger holds the unacked charge — exactly one εᵘ over
    // the acks here, where ε equals εᵘ — and nothing else.
    let live = observe(&state);
    assert!(
        (live.spent - (acked.epsilon + upper)).abs() < 1e-9,
        "{live:?}"
    );
    let slack = Slack {
        epsilon: upper,
        ..Slack::default()
    };
    check(When::Live, &base, &live, &acked, slack).unwrap();
    assert!(check(When::Live, &base, &live, &acked, Slack::default()).is_err());

    // Recovered: at least the acks, at most that εᵘ more.
    drop(state);
    let (state, _) = mk().build_recovered(PersistOptions::new(&dir)).unwrap();
    let recovered = observe(&Arc::new(state));
    check(When::Recovered, &base, &recovered, &acked, slack).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_gate_leaver_releases_a_gathering_leader() {
    let (state, dir) = gate_state("gate-leaver");
    let a = state.writer_present();
    std::thread::scope(|scope| {
        let b = gathering_worker(scope, &state, open_b(&state));
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
        let b = gathering_worker(scope, state, open_b(state));
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
    // What a shard worker does around `router::serve`.
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
    assert_eq!(state.wal().unwrap().counts(), (0, 0));
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
    assert_eq!(state.wal().unwrap().counts().1, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
