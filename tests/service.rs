//! Service-layer integration tests: the multi-tenant invariants under
//! real concurrency, both at the library seam (`SharedEngine` +
//! `EngineSession` hammered from 8 threads) and end to end through the
//! HTTP server loop (the `--self-test` plumbing on an ephemeral port) —
//! plus the durability contract: kill the server mid-workload, restart
//! from disk, and the recovered ledger must equal the sum of responses
//! the clients were actually acked (HISTEX-style history checking
//! against the ledger invariant).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use apex_core::{
    ApexEngine, EngineConfig, EngineSession, Mode, PendingCharge, SharedEngine, TranslatorCache,
};
use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
use apex_query::{AccuracySpec, ExplorationQuery};
use apex_serve::client::Conn;
use apex_serve::invariants::{self, tol, Acked, Observed, Slack, When};
use apex_serve::shard::session_shard;
use apex_serve::state::{start_reaper, PersistOptions, SubmitOutcome};
use apex_serve::{json, Json, ManualClock, Request, ServerState, ShardSet};

fn dataset(n_values: i64, rows_per_value: usize) -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange {
            min: 0,
            max: n_values - 1,
        },
    )])
    .unwrap();
    let mut d = Dataset::empty(schema);
    for i in 0..n_values {
        for _ in 0..rows_per_value {
            d.push(vec![Value::Int(i)]).unwrap();
        }
    }
    d
}

fn histogram(n_values: i64, bins: usize) -> ExplorationQuery {
    ExplorationQuery::wcq(
        (0..bins)
            .map(|i| {
                Predicate::range(
                    "v",
                    (n_values as usize * i / bins) as f64,
                    (n_values as usize * (i + 1) / bins) as f64,
                )
            })
            .collect(),
    )
}

/// Eight threads, each with its own session slice, all slamming one
/// engine: joint spend must never exceed `B`, each session must stay
/// within its slice, and the ledger must balance exactly.
#[test]
fn eight_threads_never_overshoot_budget_or_slices() {
    const B: f64 = 0.5;
    let engine = SharedEngine::new(ApexEngine::new(
        dataset(16, 8),
        EngineConfig {
            budget: B,
            mode: Mode::Pessimistic,
            seed: 11,
        },
    ));
    // Slices oversubscribe B threefold, so both admission bounds bite.
    let sessions: Vec<EngineSession> = (0..8).map(|_| engine.session(B * 3.0 / 8.0)).collect();
    let acc = AccuracySpec::new(60.0, 0.01).unwrap();
    std::thread::scope(|s| {
        for sess in &sessions {
            s.spawn(|| {
                let q = histogram(16, 8);
                for _ in 0..12 {
                    // Interleave submissions with budget reads; a read
                    // must never observe an overshoot mid-flight.
                    let _ = sess.submit(&q, &acc).unwrap();
                    assert!(sess.spent() <= sess.allowance() + 1e-9);
                    assert!(sess.engine().spent() <= B + 1e-9);
                }
            });
        }
    });
    let joint: f64 = sessions.iter().map(EngineSession::spent).sum();
    assert!(engine.spent() <= B + 1e-9, "spent {}", engine.spent());
    assert!((joint - engine.spent()).abs() < 1e-9, "ledger must balance");
    assert!(joint > 0.0, "the workload must actually answer something");
    engine.with_engine(|e| assert!(e.transcript().is_valid(B)));
}

/// Concurrent cache warms across engines sharing one `TranslatorCache`:
/// every thread must see the same (data-independent) worst-case ε for
/// the same workload — a cache hit must verify as identical to a fresh
/// build — and the counters must account for every lookup.
#[test]
fn concurrent_cache_warms_are_verify_on_hit_consistent() {
    let cache = TranslatorCache::with_capacity(32);
    let engines: Vec<SharedEngine> = (0..8)
        .map(|i| {
            SharedEngine::new(ApexEngine::with_translator_cache(
                dataset(32, 4),
                EngineConfig {
                    budget: 50.0,
                    mode: Mode::Pessimistic,
                    seed: 100 + i,
                },
                cache.scoped(),
            ))
        })
        .collect();
    let acc = AccuracySpec::new(25.0, 0.01).unwrap();
    let uppers: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = engines
            .iter()
            .map(|e| {
                s.spawn(move || {
                    let q = histogram(32, 16);
                    let r = e.submit(&q, &acc).unwrap();
                    r.answered().expect("budget is ample").epsilon_upper
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All eight saw the very same translation, whether they built the
    // artifacts or hit a concurrent warm.
    for w in uppers.windows(2) {
        assert_eq!(w[0], w[1], "cache hit diverged from fresh build");
    }
    let stats = cache.stats();
    assert!(stats.hits + stats.misses >= 8, "{stats:?}");
    assert!(stats.misses >= 1, "{stats:?}");
    // A fresh engine re-running the workload from cache agrees too.
    let mut fresh = ApexEngine::with_translator_cache(
        dataset(32, 4),
        EngineConfig {
            budget: 50.0,
            mode: Mode::Pessimistic,
            seed: 999,
        },
        cache.scoped(),
    );
    let r = fresh.submit(&histogram(32, 16), &acc).unwrap();
    assert_eq!(r.answered().unwrap().epsilon_upper, uppers[0]);
    // The warm entry definitely existed by now, so the fresh engine's
    // translation must have been a hit (concurrent first submits may all
    // race to build — hits only become guaranteed once a warm settles).
    assert!(cache.stats().hits >= 1, "{:?}", cache.stats());
}

/// HISTEX-style interleaving (PAPERS.md): drive a concurrent *history*
/// against the two-phase protocol and check the outcome contract. N
/// sessions evaluate concurrently against the untouched ledger — all
/// fit, nothing is charged — then the commits race; the budget fits
/// exactly one worst case, so exactly one commit wins and every loser
/// is denied **at the commit point**, with `spent ≤ B` throughout and
/// the ledger balancing the slices exactly.
#[test]
fn concurrent_evaluates_racing_one_commit_deny_losers() {
    let acc = AccuracySpec::new(60.0, 0.01).unwrap();
    let q = histogram(16, 8);
    let mk = |budget: f64| {
        SharedEngine::new(ApexEngine::new(
            dataset(16, 8),
            EngineConfig {
                budget,
                mode: Mode::Pessimistic,
                seed: 31,
            },
        ))
    };
    // Learn the (deterministic, data-independent) worst case, then size
    // B to fit exactly one of them.
    let upper = mk(100.0)
        .evaluate(&q, &acc)
        .unwrap()
        .epsilon_upper()
        .unwrap();
    let b = upper * 1.5;
    let engine = mk(b);
    let sessions: Vec<EngineSession> = (0..6).map(|_| engine.session(upper * 2.0)).collect();

    // Phase 1: six concurrent evaluates, all against the full budget.
    let pendings: Vec<PendingCharge> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|sess| {
                let q = q.clone();
                s.spawn(move || sess.evaluate(&q, &acc).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for p in &pendings {
        assert!(
            p.epsilon_upper().is_some(),
            "every evaluate fits the untouched ledger"
        );
    }
    assert_eq!(engine.spent(), 0.0, "speculation must charge nothing");

    // Phase 2: the commits race from six threads. Whoever linearizes
    // first exhausts the budget; every later commit must re-check and
    // deny. `spent ≤ B` is asserted mid-race from every thread.
    let denials: Vec<bool> = std::thread::scope(|s| {
        let engine = &engine;
        let handles: Vec<_> = sessions
            .iter()
            .zip(pendings)
            .map(|(sess, pending)| {
                s.spawn(move || {
                    let denied = sess.commit(pending).unwrap().is_denied();
                    assert!(engine.spent() <= b + 1e-9, "overshoot mid-race");
                    denied
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let answered = denials.iter().filter(|d| !**d).count();
    assert_eq!(answered, 1, "B fits exactly one worst case");
    assert_eq!(denials.len() - answered, 5, "losers deny at commit");
    assert!(engine.spent() <= b + 1e-9, "spent {}", engine.spent());
    let joint: f64 = sessions.iter().map(EngineSession::spent).sum();
    assert!((joint - engine.spent()).abs() < 1e-9, "ledger must balance");
    engine.with_engine(|e| {
        assert!(e.transcript().is_valid(b));
        assert_eq!(e.transcript().len(), 6, "every commit leaves a trace");
    });
}

/// The server loop end to end, via the same plumbing `--self-test`
/// drives in CI: concurrent sessions over real sockets, budget
/// conservation, protocol discipline, cross-session cache hits — and
/// the compaction-pause scenario (forced WAL rotations must complete
/// while a slow query is still evaluating).
#[test]
fn http_self_test_passes() {
    let report = apex_serve::run_self_test(apex_serve::SelfTestConfig {
        server_threads: 4,
        shards: 2,
        sessions: 8,
        submits: 5,
        rows: 500,
        cache_cap: 32,
        state_dir: None,
        data_dir: None,
        slow_query_prefixes: 64,
    })
    .expect("self-test invariants must hold");
    assert!(report.answered > 0);
    assert_eq!(
        report.datasets_synthesized, 2,
        "a fresh data dir ingests the paged tenants"
    );
    assert!(
        report.store_pool_hits > 0,
        "paged rescans must be served from the buffer pool"
    );
    assert!(report.denied > 0, "oversubscription must force denials");
    assert!(report.cache_hits > 0, "sessions must share warm artifacts");
    assert!(
        report.recovery_replayed > 0,
        "the self-test must exercise restart recovery"
    );
    for (name, spent, budget) in &report.budgets {
        assert!(
            spent <= &(budget + 1e-9),
            "{name} overshot: {spent} > {budget}"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    std::env::temp_dir().join(format!("apex-it-{tag}-{}-{nanos}", std::process::id()))
}

fn service_dataset() -> Dataset {
    dataset(16, 8)
}

fn demo_builder(budget: f64) -> apex_serve::ServerStateBuilder {
    ServerState::builder(16).dataset(
        "demo",
        service_dataset(),
        EngineConfig {
            budget,
            mode: Mode::Pessimistic,
            seed: 77,
        },
    )
}

fn try_durable_state(
    dir: &PathBuf,
    budget: f64,
    truncate_corrupt: bool,
) -> Result<(ServerState, apex_serve::RecoveryReport), apex_serve::RecoverError> {
    demo_builder(budget).build_recovered(PersistOptions {
        sync: false, // tests trade per-record fsync for speed
        truncate_corrupt,
        ..PersistOptions::new(dir)
    })
}

fn durable_state(dir: &PathBuf, budget: f64) -> (ServerState, apex_serve::RecoveryReport) {
    try_durable_state(dir, budget, false).expect("recovery must succeed")
}

/// Per-session allowance in the crash-recovery runs.
const CRASH_SLICE: f64 = 0.25;

/// The crash-recovery driver both crash tests share: one client thread
/// per script over real sockets against a durable `shards`-shard server.
/// Each script step opens a session on that tenant, submits `queries`
/// queries, and closes it — except the script's last, left open. The
/// server is then hard-dropped (no graceful shutdown, no final
/// compaction), `tamper` may damage the state dir as a crash would, and
/// the restart must check, tenant by tenant, against what the clients
/// were acked — with every session live at the crash resumed mid-slice at
/// exactly the spend its client saw.
fn crash_and_recover(
    shards: usize,
    tenants: &[String],
    budget: f64,
    scripts: &[Vec<usize>],
    queries: usize,
    tamper: impl FnOnce(&std::path::Path),
) -> Vec<apex_serve::RecoveryReport> {
    let dir = temp_dir(&format!("crash-{shards}"));
    let build = || {
        let builder = |k: usize| {
            tenants.iter().fold(ServerState::builder(16), |b, name| {
                let seed = 77 ^ k as u64;
                b.dataset(
                    name,
                    service_dataset(),
                    EngineConfig {
                        budget,
                        mode: Mode::Pessimistic,
                        seed,
                    },
                )
            })
        };
        // Tests trade per-record fsync for speed.
        let opts = |d: &std::path::Path| PersistOptions {
            sync: false,
            ..PersistOptions::new(d)
        };
        ShardSet::recover(&dir, shards, builder, opts).expect("recovery must succeed")
    };
    let (set, _) = build();
    let set = Arc::new(set);
    let base: Vec<Observed> = tenants
        .iter()
        .map(|t| Observed::read(set.owner(t), t))
        .collect();
    let cfg = apex_serve::ServeConfig {
        workers_per_shard: 4,
        ..Default::default()
    };
    let handle = apex_serve::serve_sharded("127.0.0.1:0", set.clone(), cfg).unwrap();
    let addr = handle.addr();

    // Per client: what each tenant acked it, and the session left open
    // with the ε acked on it.
    let clients: Vec<(Vec<Acked>, (u64, f64))> = std::thread::scope(|scope| {
        let clients: Vec<_> = scripts
            .iter()
            .map(|script| {
                let set = &set;
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).unwrap();
                    // Only what was ACKED counts: the bodies the client read.
                    let mut call = |model: &mut Acked, path: &str, body: &str| {
                        let (status, resp) = conn.call("POST", path, body).unwrap();
                        model.record(status, &resp).unwrap();
                        resp
                    };
                    let mut acked = vec![Acked::default(); tenants.len()];
                    let mut open = (0, 0.0);
                    for (step, &t) in script.iter().enumerate() {
                        let (name, model) = (&tenants[t], &mut acked[t]);
                        let body = format!("{{\"dataset\":\"{name}\",\"budget\":{CRASH_SLICE}}}");
                        let created = call(model, "/v1/sessions", &body);
                        let id = created.get("session").and_then(Json::as_u64).unwrap();
                        let routed = set.ring().shard_for(name);
                        assert_eq!(session_shard(id), routed, "routing must respect the ring");
                        let (path, before) = (format!("/v1/sessions/{id}"), model.epsilon);
                        let q = format!(
                            "{{\"query\":\"BIN {name} ON COUNT(*) WHERE W = \
                             {{ v IN [0, 8), v IN [8, 16) }} ERROR 40 CONFIDENCE 0.95;\"}}"
                        );
                        for _ in 0..queries {
                            call(model, &format!("{path}/query"), &q);
                        }
                        if step + 1 < script.len() {
                            call(model, &format!("{path}/close"), "{}");
                        } else {
                            open = (id, model.epsilon - before);
                        }
                    }
                    (acked, open)
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut acked = vec![Acked::default(); tenants.len()];
    for (per_tenant, _) in &clients {
        acked
            .iter_mut()
            .zip(per_tenant)
            .for_each(|(all, one)| all.merge(one));
    }
    assert!(
        acked.iter().any(|a| a.epsilon > 0.0),
        "the workload must answer something"
    );
    let check = |set: &ShardSet, when| {
        for (t, name) in tenants.iter().enumerate() {
            let after = Observed::read(set.owner(name), name);
            invariants::check(when, &base[t], &after, &acked[t], Slack::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    };
    check(&set, When::Live);

    // Hard drop: stop accepting and tear the server down with NO graceful
    // flush or compaction; the shard set goes without any shutdown hook.
    handle.stop();
    handle.join();
    drop(set);
    tamper(&dir);

    // Restart from disk: every shard replays its own WAL, and no acked
    // debit is lost (losing one would silently refill B).
    let (recovered, reports) = build();
    assert_eq!(reports.len(), shards);
    assert!(
        reports.iter().all(|r| r.replayed > 0),
        "every shard saw traffic, so every shard must replay records: {reports:?}"
    );
    check(&recovered, When::Recovered);
    assert_eq!(
        recovered.session_count(),
        scripts.len(),
        "one live session per client"
    );
    for &(_, (id, eps)) in &clients {
        let spent = recovered
            .state(session_shard(id))
            .with_session(id, |s| s.session.spent())
            .expect("the open session must survive the crash");
        assert!(
            (spent - eps).abs() <= tol(eps),
            "live session {id}: recovered {spent} != acked {eps}"
        );
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

/// The acceptance-criterion test: six concurrent analysts with
/// oversubscribed slices on one tenant of a one-shard server, hard-dropped
/// mid-flight with a torn half-record left on the WAL tail exactly as a
/// crash mid-append would, restarted from disk — and the recovered spent
/// budget equals the Σε of the responses clients were **acked**, never
/// less.
#[test]
fn crash_recovery_preserves_every_acked_debit() {
    let reports = crash_and_recover(1, &["demo".into()], 0.5, &vec![vec![0]; 6], 6, |dir| {
        let shard_dir = apex_serve::snapshot::shard_dir(dir, 0);
        let gens = apex_serve::snapshot::list_wal_gens(&shard_dir).unwrap();
        let wal = apex_serve::snapshot::wal_path(&shard_dir, *gens.last().unwrap());
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0x02, 0x00, 0x00]); // half a frame header
        std::fs::write(&wal, &bytes).unwrap();
    });
    assert!(
        reports[0].truncated.is_some(),
        "the torn tail must be detected"
    );
}

/// A checksum-corrupt tail (bit rot, not a torn write) refuses recovery
/// by default and, with explicit consent, truncates at the last valid
/// record — the damaged record is dropped, never partially replayed.
#[test]
fn corrupt_wal_tail_refuses_then_truncates_with_consent() {
    const B: f64 = 0.5;
    let dir = temp_dir("corrupt");
    let spent_live = {
        let (state, _) = durable_state(&dir, B);
        let id = state.create_session("demo", 0.4).unwrap().unwrap();
        let q = histogram(16, 2);
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        for _ in 0..3 {
            match state.submit(id, &q, &acc).unwrap() {
                SubmitOutcome::Response(_) => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        state.tenant("demo").unwrap().engine.spent()
    };
    assert!(spent_live > 0.0);

    // Flip one bit inside the final WAL record.
    let gens = apex_serve::snapshot::list_wal_gens(&dir).unwrap();
    let wal = apex_serve::snapshot::wal_path(&dir, *gens.last().unwrap());
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();

    // Default policy: refuse to start.
    let refused = try_durable_state(&dir, B, false);
    assert!(
        matches!(
            refused,
            Err(apex_serve::RecoverError::CorruptWalTail { .. })
        ),
        "corrupt tails must refuse by default"
    );

    // With consent: truncate at the last valid record. The damaged final
    // debit is dropped (truncated, not replayed), so the ledger is a
    // strict prefix of the live run — less than the live spend, and
    // consistent with the surviving records.
    let (recovered, report) = try_durable_state(&dir, B, true).unwrap();
    assert!(report.truncated.is_some());
    let spent = recovered.tenant("demo").unwrap().engine.spent();
    assert!(
        spent < spent_live - 1e-12,
        "the damaged record must not have been replayed"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// State files of the previous on-disk formats are refused by name —
/// with or without corrupt-tail truncation consent — and left
/// byte-identical: an old WAL is not a torn tail to cut.
#[test]
fn previous_format_state_files_are_refused_and_left_untouched() {
    let dir = temp_dir("oldfmt");
    std::fs::create_dir_all(&dir).unwrap();
    let crc = apex_data::store::crc32;
    let refused = |path: &std::path::Path, image: &[u8], names: &str| {
        std::fs::write(path, image).unwrap();
        for consent in [false, true] {
            let err = try_durable_state(&dir, 0.5, consent)
                .err()
                .unwrap_or_else(|| panic!("{names} must be refused (consent {consent})"));
            assert!(err.to_string().contains(names), "{err}");
            assert_eq!(std::fs::read(path).unwrap(), image, "{names} was modified");
        }
        std::fs::remove_file(path).unwrap();
    };

    // APEXWAL1: the magic, then `len crc payload` records (here one
    // deny: tag 3 + session id).
    let payload = [&[3u8][..], &1u64.to_le_bytes()].concat();
    let mut old_wal = b"APEXWAL1".to_vec();
    old_wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    old_wal.extend_from_slice(&crc(&payload).to_le_bytes());
    old_wal.extend_from_slice(&payload);
    refused(
        &apex_serve::snapshot::wal_path(&dir, 1),
        &old_wal,
        "APEXWAL1",
    );

    // APEXSNP1: the magic, `len crc`, then the payload (an empty
    // snapshot: covered_gen, next_session, no tenants, no sessions).
    let payload = [0u8; 8 + 8 + 4 + 4];
    let mut old_snapshot = b"APEXSNP1".to_vec();
    old_snapshot.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    old_snapshot.extend_from_slice(&crc(&payload).to_le_bytes());
    old_snapshot.extend_from_slice(&payload);
    refused(
        &dir.join(apex_serve::snapshot::SNAPSHOT_FILE),
        &old_snapshot,
        "APEXSNP1",
    );

    // APEXSNP2: the framed snapshot before the journal took the WAL's
    // mutation layout (here an empty one: covered_gen, next_session, no
    // tenants, no sessions, no mutations).
    let mut snapshot_v2 = b"APEXSNP2".to_vec();
    apex_data::store::framed::push_frame(&mut snapshot_v2, 0, &[0u8; 8 + 8 + 4 + 4 + 4]);
    refused(
        &dir.join(apex_serve::snapshot::SNAPSHOT_FILE),
        &snapshot_v2,
        "APEXSNP2",
    );

    // APEXSNP3: the snapshot whose journal carried resident tenants'
    // mutations (an empty one, laid out as version 2's). Read as version
    // 4 it would silently drop them.
    let mut snapshot_v3 = b"APEXSNP3".to_vec();
    apex_data::store::framed::push_frame(&mut snapshot_v3, 0, &[0u8; 8 + 8 + 4 + 4 + 4]);
    refused(
        &dir.join(apex_serve::snapshot::SNAPSHOT_FILE),
        &snapshot_v3,
        "APEXSNP3",
    );

    // With the old files gone the same directory starts.
    durable_state(&dir, 0.5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// TTL semantics with the injectable clock: an expired session's queries
/// get 410 at the router, its unspent slice is reclaimed exactly once,
/// and the tombstone distinguishes 410 from 404.
#[test]
fn ttl_expiry_is_exactly_once_and_visible_as_410() {
    let clock = ManualClock::new();
    let state = Arc::new(
        ServerState::builder(16)
            .dataset(
                "demo",
                service_dataset(),
                EngineConfig {
                    budget: 2.0,
                    mode: Mode::Pessimistic,
                    seed: 5,
                },
            )
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(100))
            .build(),
    );
    let id = state.create_session("demo", 0.5).unwrap().unwrap();
    let q = histogram(16, 4);
    let acc = AccuracySpec::new(40.0, 0.05).unwrap();
    match state.submit(id, &q, &acc).unwrap() {
        SubmitOutcome::Response(r) => assert!(!r.is_denied()),
        other => panic!("unexpected: {other:?}"),
    }
    let spent = state.with_session(id, |s| s.session.spent()).unwrap();

    clock.advance(101);
    let reaped = state.reap_expired().unwrap();
    assert_eq!(reaped.len(), 1);
    assert!((reaped[0].1 - (0.5 - spent)).abs() < 1e-12);
    // Exactly once: the tenant pool saw one release, and repeats add 0.
    let reclaimed = state.tenant("demo").unwrap().reclaimed();
    assert!((reclaimed - (0.5 - spent)).abs() < 1e-12);
    assert!(state.reap_expired().unwrap().is_empty());
    assert_eq!(state.expire_session(id).unwrap(), None);
    assert_eq!(state.tenant("demo").unwrap().reclaimed(), reclaimed);

    // Router-visible: queries to the corpse are 410 Gone, unknown ids
    // stay 404.
    let q_body = "{\"query\":\"BIN demo ON COUNT(*) WHERE { v IN [0, 16) } \
                  ERROR 40 CONFIDENCE 0.95;\"}";
    let resp = apex_serve::router::route(
        &state,
        &apex_serve::Request::new("POST", &format!("/v1/sessions/{id}/query"), q_body),
    );
    assert_eq!(resp.status, 410, "{}", resp.body);
    let resp = apex_serve::router::route(
        &state,
        &apex_serve::Request::new("POST", "/v1/sessions/999/query", q_body),
    );
    assert_eq!(resp.status, 404, "{}", resp.body);
}

/// The 8-thread hammer with the reaper running: sessions churn (expire
/// mid-flight, new ones open), time is cranked by hand, and the engine
/// must still never overshoot `B` while every released slice is released
/// exactly once.
#[test]
fn hammer_with_reaper_never_overshoots_budget() {
    const B: f64 = 0.5;
    let clock = ManualClock::new();
    let state = Arc::new(
        ServerState::builder(16)
            .dataset(
                "demo",
                service_dataset(),
                EngineConfig {
                    budget: B,
                    mode: Mode::Pessimistic,
                    seed: 21,
                },
            )
            .clock(Arc::new(clock.clone()))
            .session_ttl(Duration::from_millis(3))
            .build(),
    );
    let base = Observed::read(&state, "demo");
    let reaper = start_reaper(state.clone(), Duration::from_millis(1));

    let open = format!("{{\"dataset\":\"demo\",\"budget\":{}}}", B * 3.0 / 8.0);
    let acc = AccuracySpec::new(60.0, 0.05).unwrap();
    let acked = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let (state, clock, open) = (state.clone(), clock.clone(), &open);
                scope.spawn(move || {
                    let q = histogram(16, 8);
                    let mut acked = Acked::default();
                    let mut id = None;
                    for i in 0..12 {
                        // Every worker cranks the clock, so TTLs keep firing
                        // mid-hammer (8 workers × 12 ticks ≫ the 3 ms TTL);
                        // worker-side reaps make expiry deterministic even
                        // if the real-time reaper thread lags.
                        clock.advance(1);
                        let _ = state.reap_expired();
                        let sid = match id {
                            Some(sid) => sid,
                            None => {
                                // Through the router: the model records the
                                // very 201 a client would read.
                                let resp = apex_serve::router::route(
                                    &state,
                                    &Request::new("POST", "/v1/sessions", open),
                                );
                                let created = json::parse(&resp.body).unwrap();
                                acked.record(resp.status, &created).unwrap();
                                let sid = created.get("session").and_then(Json::as_u64).unwrap();
                                *id.insert(sid)
                            }
                        };
                        match state.submit(sid, &q, &acc).unwrap() {
                            SubmitOutcome::Response(r) => {
                                let status = if r.is_denied() { 409 } else { 200 };
                                acked
                                    .record(status, &apex_serve::wire::engine_response_json(&r))
                                    .unwrap();
                            }
                            // Expired under us: open a fresh session and
                            // keep hammering.
                            SubmitOutcome::Gone => id = None,
                            SubmitOutcome::NoSuchSession => {
                                panic!("thread {t} iteration {i}: issued id vanished")
                            }
                        }
                        // Mid-flight: never over B, whatever the reaper does.
                        let spent = state.tenant("demo").unwrap().engine.spent();
                        assert!(spent <= B + 1e-9, "OVERSHOOT mid-flight: {spent}");
                    }
                    acked
                })
            })
            .collect();
        workers.into_iter().fold(Acked::default(), |mut all, w| {
            all.merge(&w.join().unwrap());
            all
        })
    });
    // Quiesce: everything still live goes idle past the TTL.
    clock.advance(10);
    state.reap_expired().unwrap();
    reaper.stop();

    // Exactly-once release accounting is grant conservation with every
    // session closed: a double release would push reclaimed past it.
    let after = Observed::read(&state, "demo");
    invariants::check(When::Live, &base, &after, &acked, Slack::default())
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(acked.epsilon > 0.0, "the hammer must answer something");
    assert!(state.expired_count() > 0, "sessions must have expired");
    assert_eq!(state.session_count(), 0, "everything idles out in the end");
    state.tenant("demo").unwrap().engine.with_engine(|e| {
        assert!(
            e.transcript().is_valid(B),
            "transcript validity under churn"
        )
    });
}

/// Sharded crash recovery: traffic on every shard of a 4-shard server,
/// hard-dropped with sessions still open (no graceful shutdown, no
/// compaction), restarted from the per-shard WALs — and every tenant's
/// recovered ledger must independently equal what it was acked on the
/// wire, with grant accounting balancing to the last slice.
#[test]
fn sharded_crash_recovery_preserves_every_shards_acked_debits() {
    const SHARDS: usize = 4;
    // Enough tenants that consistent hashing gives every shard at least
    // one; the ring is the same construction the server uses, so the
    // ownership map here matches routing exactly.
    let ring = apex_serve::ShardRing::new(SHARDS);
    let names: Vec<String> = (0..4 * SHARDS).map(|i| format!("crash_{i}")).collect();
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
    for (t, name) in names.iter().enumerate() {
        owned[ring.shard_for(name)].push(t);
    }
    assert!(
        owned.iter().all(|o| !o.is_empty()),
        "every shard needs traffic for a per-shard recovery check"
    );
    // One client per shard: three sessions on its tenants, two queries
    // each, the first two closed, the last left open at the crash.
    let scripts: Vec<Vec<usize>> = owned
        .iter()
        .map(|o| (0..3).map(|round| o[round % o.len()]).collect())
        .collect();
    crash_and_recover(SHARDS, &names, 4.0, &scripts, 2, |_| {});
}
