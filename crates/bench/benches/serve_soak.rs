//! `serve_soak` — the sharded-service throughput soak.
//!
//! Drives a 100k-session open/query/close workload over **real
//! sockets** against `apex-serve`'s shard layer at shard counts
//! {1, 2, 4, 8}, with durable (fsync-on-ack) WALs, and reports
//! sessions/sec plus the client-measured p99 submit latency per shard
//! count. The point of the measurement: per-shard WAL files fsync
//! independently, so the I/O-bound single-shard ceiling (3 fsyncs per
//! session against one journal) scales with the shard count — the full
//! run asserts **≥3× sessions/sec at 8 shards vs 1**.
//!
//! Every run also checks every tenant against what the wire acked it
//! (`apex_serve::invariants`), live and after a cold re-recovery of
//! every shard's WAL-over-snapshot, because a soak that corrupts the
//! ledger is worse than a slow one.
//!
//! The criterion shim's calibrated `Bencher::iter` loop is wrong for a
//! soak (one "iteration" is a multi-second server lifecycle), so this
//! bench hand-rolls its measurement and writes the same JSON result
//! shape `bench_gate` parses: `{"group": "serve_soak", "id":
//! "shards/N", "median_ns": <ns per session>, ...}` — ns/session keeps
//! the gate's higher-is-worse regression rule meaningful.
//!
//! `--quick` runs a few hundred sessions per shard count for CI smoke
//! (shape + invariants, no speedup assertion — a loaded runner can't
//! promise scaling) and never overwrites the committed
//! `BENCH_serve_soak.json` unless `APEX_BENCH_JSON` points elsewhere.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apex_bench::json_escape as esc;
use apex_core::{EngineConfig, Mode, TranslatorCache};
use apex_data::{Attribute, Dataset, Domain, Schema, Value};
use apex_serve::client::{self, Conn};
use apex_serve::invariants::{self, Acked, Observed, Slack, When};
use apex_serve::{serve_sharded, Json, PersistOptions, ServeConfig, ServerState, ShardSet};

/// Shard counts the soak sweeps.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Sessions per shard count in a full run: 25k × 4 counts = the 100k
/// sessions the gate promises.
const FULL_SESSIONS: usize = 25_000;

/// Sessions per shard count under `--quick` — enough to exercise every
/// shard and the invariant checks, small enough for CI smoke.
const QUICK_SESSIONS: usize = 96;

/// Extra client threads beyond one loader per shard. The default is
/// exactly `shards` loaders (each driving two connections to its
/// pinned shard — every shard sees two concurrent streams) plus the
/// latency probe: measurement showed that on a small host, surplus
/// client *threads* cost more in scheduler wakeup latency between a
/// shard's fsyncs than their extra in-flight requests buy.
const EXTRA_CLIENTS: usize = 1;

/// Sessions each load connection drives per pipelined batch. A batch
/// sends `BATCH` same-tenant requests in one segment, so the owning
/// shard's worker serves them back-to-back off its sticky buffer and
/// the shard's WAL fsyncs stay saturated instead of idling a client
/// round trip between every record. Client 0 never batches — it is the
/// latency probe (see `soak_one`).
const BATCH: usize = 8;

/// Registered tenants. Consistent hashing spreads them over the
/// shards; sessions round-robin over tenants, so every shard sees
/// traffic at every shard count.
const TENANTS: usize = 32;

/// Per-tenant budget `B` — large enough that the soak never crosses it
/// (denials would change what the throughput number measures), small
/// enough that `spent ≤ B` stays a real assertion.
const TENANT_BUDGET: f64 = 1.0e9;

/// Budget slice each session requests.
const SLICE: f64 = 1.0;

/// WAL records between checkpoints — more than the 1024-record default,
/// so it checkpoints less often: a soak is all writes, and each
/// compaction stalls its shard for a snapshot fsync. Same interval at
/// every shard count, so ratios stay apples-to-apples.
const SNAPSHOT_EVERY: u64 = 8192;

/// The submitted query (the paper's concrete syntax). Two-bucket WCQ
/// over the tiny domain: translation comes from the shared cache after
/// the first prepare, so steady-state cost is the engine + the WAL.
const QUERY: &str = r#"{"query":"BIN t ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn tiny_dataset() -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange { min: 0, max: 7 },
    )])
    .expect("static schema");
    let mut d = Dataset::empty(schema);
    for i in 0..16 {
        d.push(vec![Value::Int(i % 8)]).expect("static rows");
    }
    d
}

fn tenant_names() -> Vec<String> {
    (0..TENANTS).map(|i| format!("soak-{i}")).collect()
}

/// A unique scratch state directory per (run, shard count).
fn scratch_dir(shards: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "apex-serve-soak-{}-shards{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one phase over a PAIR of connections to the same shard: both
/// pipelined segments are written before either is read. While this
/// thread reads `a`'s responses, the shard's second worker is already
/// serving `b`'s buffered batch — so each shard carries two overlapping
/// WAL streams, which is what lets one worker's fsync cover the other
/// worker's just-appended record (see `WalWriter::append_deferred`).
/// One client thread, two server streams: loader threads stay scarce on
/// the shared core while every shard still has enough concurrency to
/// keep its WAL continuously committing.
fn exchange_pair(
    a: &mut Conn,
    b: &mut Conn,
    reqs_a: &[String],
    reqs_b: &[String],
) -> [Vec<(u16, Json)>; 2] {
    a.send(reqs_a).expect("soak pipelined write");
    b.send(reqs_b).expect("soak pipelined write");
    [a.recv_all(reqs_a), b.recv_all(reqs_b)].map(|r| r.expect("soak pipelined read"))
}

/// One request and its reply, `503` sheds re-sent.
fn post(conn: &mut Conn, path: &str, body: &str) -> (u16, Json) {
    let req = [client::encode("POST", path, body)];
    conn.send(&req).expect("soak write");
    conn.recv_all(&req).expect("soak read").remove(0)
}

/// Records one reply into its tenant's wire model and returns the body.
/// `B` is never crossed, so anything but the `want`ed status fails.
fn ack(acked: &mut Acked, want: u16, (status, body): (u16, Json)) -> Json {
    assert_eq!(status, want, "{body:?}");
    acked
        .record(status, &body)
        .unwrap_or_else(|e| panic!("{e}"));
    body
}

fn session_id(created: &Json) -> u64 {
    created
        .get("session")
        .and_then(Json::as_u64)
        .expect("session id")
}

fn open_body(name: &str) -> String {
    format!("{{\"dataset\":\"{name}\",\"budget\":{SLICE}}}")
}

/// What one shard-count soak measured.
struct SoakResult {
    shards: usize,
    sessions: usize,
    wall: Duration,
    sessions_per_sec: f64,
    p99_submit_ns: u64,
    median_submit_ns: u64,
    /// Durable WAL records per `fdatasync`, over all shards — what the
    /// per-shard group commit achieved (`/v1/stats` `shards[k].wal`).
    records_per_sync: f64,
    /// Share of gathers the backstop timer ended.
    gather_timeout_share: f64,
}

fn build_shard_set(
    dir: &std::path::Path,
    shards: usize,
    names: &[String],
) -> (Arc<ShardSet>, Vec<apex_serve::RecoveryReport>) {
    let cache = TranslatorCache::with_capacity(64);
    let names = names.to_vec();
    let (set, reports) = ShardSet::recover(
        dir,
        shards,
        |k| {
            let mut b = ServerState::builder_with_cache(cache.clone());
            for (i, name) in names.iter().enumerate() {
                b = b.dataset(
                    name,
                    tiny_dataset(),
                    EngineConfig {
                        budget: TENANT_BUDGET,
                        mode: Mode::Optimistic,
                        seed: 0x50AC ^ ((k as u64) << 32) ^ (i as u64),
                    },
                );
            }
            b
        },
        |d| PersistOptions {
            snapshot_every: SNAPSHOT_EVERY,
            ..PersistOptions::new(d)
        },
    )
    .expect("soak recovery");
    (Arc::new(set), reports)
}

/// Flushes filesystem dirty state left by a previous soak (deleted
/// scratch trees, recovery snapshots) and lets the journal settle, so
/// one shard count's cleanup IO doesn't tax the next one's fsyncs.
fn settle_fs() {
    let _ = std::process::Command::new("sync").status();
    std::thread::sleep(std::time::Duration::from_millis(200));
}

/// Runs one full soak at `shards` shards and verifies every invariant.
fn soak_one(shards: usize, sessions: usize, names: &[String]) -> SoakResult {
    let dir = scratch_dir(shards);
    settle_fs();
    let (set, _) = build_shard_set(&dir, shards, names);
    let base: Vec<Observed> = names
        .iter()
        .map(|n| Observed::read(set.owner(n), n))
        .collect();
    let handle = serve_sharded("127.0.0.1:0", set.clone(), ServeConfig::default())
        .expect("soak server bind");
    let addr = handle.addr();

    // Warm the shared translator cache so the first measured session
    // isn't paying the one-time strategy prepare. Its acks are tenant 0's
    // like any other session's.
    let acked: Vec<Mutex<Acked>> = names.iter().map(|_| Mutex::default()).collect();
    {
        let mut warm = Conn::connect(addr).expect("soak client connect");
        let model = &mut acked[0].lock().expect("no poisoning");
        let mut call = |want, path: &str, body: &str| ack(model, want, post(&mut warm, path, body));
        let id = session_id(&call(201, "/v1/sessions", &open_body(&names[0])));
        call(200, &format!("/v1/sessions/{id}/query"), QUERY);
        call(200, &format!("/v1/sessions/{id}/close"), "{}");
    }

    // Session 0 is reserved for the probe, so it times at least one submit
    // even when the loaders claim every other session before it starts.
    let next = AtomicUsize::new(1);
    let clients = shards + EXTRA_CLIENTS;
    // Tenants grouped by owning shard: each load connection pins one
    // shard and cycles its tenants, so every shard's WAL has demand at
    // every instant. Without the pinning, loaders picking tenants
    // globally leave 1-2 shards idle at any moment and the idle shards'
    // fsync slots are simply lost wall-clock.
    let by_shard: Vec<Vec<usize>> = {
        let mut v: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (t, name) in names.iter().enumerate() {
            v[set.ring().shard_for(name)].push(t);
        }
        let all: Vec<usize> = (0..names.len()).collect();
        for list in &mut v {
            if list.is_empty() {
                // A shard that owns no tenant still needs a valid pick.
                list.clone_from(&all);
            }
        }
        v
    };
    let started = Instant::now();
    // Client 0 is the latency PROBE: plain request/response, one
    // session at a time, timing every submit — it measures what one
    // tenant experiences while the other clients saturate the shards
    // with pipelined batches. Throughput comes from the wall clock over
    // all sessions; latency quantiles come only from the probe (batch
    // responses share socket writes, so per-request timing inside a
    // batch would be fiction).
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let next = &next;
            let acked = &acked;
            let by_shard = &by_shard;
            handles.push(scope.spawn(move || {
                let mut conn = Conn::connect(addr).expect("soak client connect");
                let mut lat = Vec::new();
                let mut local: Vec<Acked> = vec![Acked::default(); names.len()];
                let probe = c == 0;
                // Loaders drive a twin connection to the same shard so
                // each claim runs as two concurrently-served batches.
                let mut twin = (!probe).then(|| Conn::connect(addr).expect("soak client connect"));
                // Loaders round-robin their pinned shard's tenants; the
                // probe round-robins every tenant.
                let mine: &[usize] = if probe {
                    &[]
                } else {
                    &by_shard[(c - 1) % shards]
                };
                let mut round = 0usize;
                let mut reserved = probe;
                loop {
                    let claim = if probe { 1 } else { 2 * BATCH };
                    let i = if std::mem::take(&mut reserved) {
                        0
                    } else {
                        next.fetch_add(claim, Ordering::Relaxed)
                    };
                    if i >= sessions {
                        break;
                    }
                    let n = claim.min(sessions - i);
                    if probe {
                        let t = i % names.len();
                        let mut call = |path: &str, body: &str| post(&mut conn, path, body);
                        let id = session_id(&ack(
                            &mut local[t],
                            201,
                            call("/v1/sessions", &open_body(&names[t])),
                        ));
                        let t0 = Instant::now();
                        let answer = call(&format!("/v1/sessions/{id}/query"), QUERY);
                        lat.push(t0.elapsed().as_nanos() as u64);
                        ack(&mut local[t], 200, answer);
                        ack(
                            &mut local[t],
                            200,
                            call(&format!("/v1/sessions/{id}/close"), "{}"),
                        );
                        continue;
                    }
                    // Load generator: 2×BATCH same-shard sessions per
                    // claim, split across the twin connections, each
                    // phase pipelined in one segment so the owning
                    // shard's WAL sees back-to-back appends on two
                    // concurrent streams.
                    let twin = twin.as_mut().expect("loader has a twin conn");
                    let (ta, tb) = (
                        mine[(2 * round) % mine.len()],
                        mine[(2 * round + 1) % mine.len()],
                    );
                    round += 1;
                    let (na, nb) = (n.div_ceil(2), n / 2);
                    let open =
                        |t: usize| client::encode("POST", "/v1/sessions", &open_body(&names[t]));
                    let [oa, ob] =
                        exchange_pair(&mut conn, twin, &vec![open(ta); na], &vec![open(tb); nb]);
                    let mut ids = |replies: Vec<(u16, Json)>, t: usize| -> Vec<u64> {
                        replies
                            .into_iter()
                            .map(|r| session_id(&ack(&mut local[t], 201, r)))
                            .collect()
                    };
                    let (ids_a, ids_b) = (ids(oa, ta), ids(ob, tb));
                    for (what, body) in [("query", QUERY), ("close", "{}")] {
                        let reqs = |ids: &[u64]| -> Vec<String> {
                            ids.iter()
                                .map(|id| {
                                    client::encode(
                                        "POST",
                                        &format!("/v1/sessions/{id}/{what}"),
                                        body,
                                    )
                                })
                                .collect()
                        };
                        let [ra, rb] = exchange_pair(&mut conn, twin, &reqs(&ids_a), &reqs(&ids_b));
                        for (replies, t) in [(ra, ta), (rb, tb)] {
                            for r in replies {
                                ack(&mut local[t], 200, r);
                            }
                        }
                    }
                }
                for (t, a) in local.iter().enumerate() {
                    acked[t].lock().expect("no poisoning").merge(a);
                }
                lat
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("soak client thread"))
            .collect()
    });
    let wall = started.elapsed();

    // The aggregated stats plane must balance while the server is live.
    let (status, stats) = client::request(addr, "GET", "/v1/stats", None).expect("/v1/stats");
    assert_eq!(status, 200);
    let stats_shards = stats
        .get("shard_count")
        .and_then(Json::as_f64)
        .expect("shard_count") as usize;
    assert_eq!(stats_shards, shards, "stats must report the shard count");
    assert_eq!(
        stats
            .get("sessions")
            .and_then(Json::as_f64)
            .expect("live sessions") as usize,
        0,
        "every soak session was closed"
    );

    let wal_sum = |field: &str| -> f64 {
        stats
            .get("shards")
            .and_then(Json::as_arr)
            .expect("shards")
            .iter()
            .map(|s| {
                s.get("wal")
                    .and_then(|w| w.get(field))
                    .and_then(Json::as_f64)
                    .expect("durable shards report wal counters")
            })
            .sum()
    };
    assert_eq!(
        wal_sum("covered"),
        wal_sum("durable_records"),
        "every acked record must sit under a completed sync"
    );
    let records_per_sync = wal_sum("durable_records") / wal_sum("syncs").max(1.0);
    let gather_timeout_share = wal_sum("gather_timeouts") / wal_sum("gathers").max(1.0);

    handle.stop();
    handle.join();

    // Every tenant against what the wire acked it, live and after a cold
    // re-recovery in which every shard replays its own WAL-over-snapshot.
    let wire: Vec<Acked> = acked
        .into_iter()
        .map(|m| m.into_inner().expect("no poisoning"))
        .collect();
    let check = |set: &ShardSet, when| {
        for (t, name) in names.iter().enumerate() {
            let after = Observed::read(set.owner(name), name);
            invariants::check(when, &base[t], &after, &wire[t], Slack::default())
                .unwrap_or_else(|e| panic!("{when:?}: tenant {name}: {e}"));
        }
    };
    check(&set, When::Live);
    drop(set);
    let (recovered, reports) = build_shard_set(&dir, shards, names);
    assert!(
        reports.iter().any(|r| r.replayed > 0),
        "a durable soak must leave WAL records to replay"
    );
    check(&recovered, When::Recovered);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort_unstable();
    let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    SoakResult {
        shards,
        sessions,
        wall,
        sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
        p99_submit_ns: pick(0.99),
        median_submit_ns: pick(0.50),
        records_per_sync,
        gather_timeout_share,
    }
}

fn write_json(results: &[SoakResult], quick: bool) {
    let path = match std::env::var("APEX_BENCH_JSON") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            if quick {
                // Never let a smoke run overwrite the committed
                // full-run numbers.
                println!("--quick: skipping JSON write (set APEX_BENCH_JSON to force)");
                return;
            }
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_serve_soak.json"
            ))
        }
    };
    let mut rows = Vec::new();
    for r in results {
        let ns_per_session = r.wall.as_nanos() as f64 / r.sessions as f64;
        rows.push(format!(
            "{{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
             \"min_ns\": {:.1}, \"samples\": 1, \"iters_per_sample\": {}, \
             \"sessions_per_sec\": {:.1}, \"p99_submit_ns\": {}, \"median_submit_ns\": {}, \
             \"records_per_sync\": {:.2}, \"gather_timeout_share\": {:.3}}}",
            esc("serve_soak"),
            esc(&format!("shards/{}", r.shards)),
            ns_per_session,
            ns_per_session,
            ns_per_session,
            r.sessions,
            r.sessions_per_sec,
            r.p99_submit_ns,
            r.median_submit_ns,
            r.records_per_sync,
            r.gather_timeout_share,
        ));
    }
    let speedup = speedup_8_vs_1(results);
    let doc = format!(
        "{{\n  \"bench\": \"serve_soak\",\n  \"quick\": {quick},\n  \"results\": [\n    {}\n  ],\n  \
         \"derived\": {{\"speedup_8_vs_1\": {}}}\n}}\n",
        rows.join(",\n    "),
        speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
    );
    std::fs::write(&path, doc).expect("write soak JSON");
    println!("wrote {}", path.display());
}

fn speedup_8_vs_1(results: &[SoakResult]) -> Option<f64> {
    let rate = |k: usize| {
        results
            .iter()
            .find(|r| r.shards == k)
            .map(|r| r.sessions_per_sec)
    };
    Some(rate(8)? / rate(1)?)
}

fn main() {
    let quick = quick();
    let sessions = if quick { QUICK_SESSIONS } else { FULL_SESSIONS };
    let names = tenant_names();
    let mut results = Vec::new();
    for shards in SHARD_COUNTS {
        let r = soak_one(shards, sessions, &names);
        println!(
            "serve_soak shards/{}: {} sessions in {:.2}s — {:.0} sessions/s, \
             p50 submit {:.2} ms, p99 submit {:.2} ms, {:.2} records/sync \
             ({:.1} % of gathers timed out)",
            r.shards,
            r.sessions,
            r.wall.as_secs_f64(),
            r.sessions_per_sec,
            r.median_submit_ns as f64 / 1e6,
            r.p99_submit_ns as f64 / 1e6,
            r.records_per_sync,
            r.gather_timeout_share * 100.0,
        );
        results.push(r);
    }
    if let Some(speedup) = speedup_8_vs_1(&results) {
        println!("serve_soak derived: 8-shard vs 1-shard throughput = {speedup:.2}x");
        // The scaling promise is only asserted on the full soak: a
        // smoke run is too short (and CI runners too noisy) to gate on.
        if !quick {
            assert!(
                speedup >= 3.0,
                "sharding must buy >=3x sessions/sec at 8 shards vs 1 (got {speedup:.2}x)"
            );
        }
    }
    write_json(&results, quick);
}
