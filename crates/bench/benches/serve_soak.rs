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
//! Every run also re-verifies the paper's budget invariants end to end,
//! because a soak that corrupts the ledger is worse than a slow one:
//!
//! * per tenant, `spent ≤ B` on every shard;
//! * per tenant, the engine's spent equals the Σε the wire acked;
//! * per tenant, `granted == spent + reclaimed` once every session is
//!   closed;
//! * after a cold re-recovery of every shard's WAL-over-snapshot, the
//!   recovered spent still equals the acked Σε.
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

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apex_bench::json_escape as esc;
use apex_core::{EngineConfig, Mode, TranslatorCache};
use apex_data::{Attribute, Dataset, Domain, Schema, Value};
use apex_serve::{client, serve_sharded, PersistOptions, ServeConfig, ServerState, ShardSet};

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

/// The submitted query (the paper's concrete syntax). Two-bucket WCQ
/// over the tiny domain: translation comes from the shared cache after
/// the first prepare, so steady-state cost is the engine + the WAL.
const QUERY: &str = r#"{"query":"BIN t ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Env override for ad-hoc tuning runs (`APEX_SOAK_<NAME>`); the
/// committed numbers always come from the defaults.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

/// One keep-alive HTTP/1.1 connection with a carry buffer, so
/// back-to-back responses arriving in one segment are split correctly.
struct Conn {
    addr: std::net::SocketAddr,
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("soak client connect");
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set client read timeout");
        Self {
            addr,
            stream,
            carry: Vec::new(),
        }
    }

    /// Sends `POST path` with `body`, retrying 503 backpressure sheds
    /// (the documented client contract: wait `Retry-After`, resend) and
    /// transparently reconnecting if the server closed the connection.
    /// Returns the final non-503 (status, body).
    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        loop {
            let wrote = self.stream.write_all(raw.as_bytes());
            let resp = match wrote {
                Ok(()) => self.read_response(),
                Err(_) => None,
            };
            let Some((status, resp_body)) = resp else {
                // Closed or errored mid-exchange: reconnect and resend.
                // Mutating requests are safe to resend here because a
                // failed exchange in this closed-loop client means the
                // prior request was shed before reaching a worker.
                self.carry.clear();
                self.stream = TcpStream::connect(self.addr).expect("soak client reconnect");
                self.stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("set client read timeout");
                continue;
            };
            if status == 503 {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            return (status, resp_body);
        }
    }

    /// Sends every request in ONE pipelined segment, then reads the
    /// responses in order (HTTP/1.1 pipelining — the shard layer
    /// answers in arrival order per connection). 503 backpressure sheds
    /// keep the connection open, so shed slots are re-pipelined after
    /// `Retry-After`-ish backoff until every slot has a real answer.
    /// Unlike `post`, a dead connection here is fatal: resending a
    /// half-acked pipelined batch could double-apply opens.
    /// The send half of a pipelined batch: the `pending` slots of
    /// `reqs`, written as ONE segment.
    fn send_batch(&mut self, reqs: &[String], pending: &[usize]) {
        let wire: String = pending.iter().map(|&j| reqs[j].as_str()).collect();
        self.stream
            .write_all(wire.as_bytes())
            .expect("soak pipelined write");
    }

    /// The receive half: reads the `pending` responses in order, and
    /// re-pipelines 503 backpressure sheds after `Retry-After`-ish
    /// backoff until every slot has a real answer. A dead connection
    /// here is fatal: resending a half-acked pipelined batch could
    /// double-apply opens.
    fn recv_batch(&mut self, reqs: &[String], mut pending: Vec<usize>) -> Vec<(u16, String)> {
        let mut out: Vec<Option<(u16, String)>> = vec![None; reqs.len()];
        loop {
            let mut shed = Vec::new();
            for &j in &pending {
                let (status, body) = self.read_response().expect("soak pipelined read");
                if status == 503 {
                    shed.push(j);
                } else {
                    out[j] = Some((status, body));
                }
            }
            if shed.is_empty() {
                return out
                    .into_iter()
                    .map(|o| o.expect("every slot answered"))
                    .collect();
            }
            pending = shed;
            std::thread::sleep(Duration::from_millis(2));
            self.send_batch(reqs, &pending);
        }
    }

    /// Reads one head + Content-Length body; `None` on EOF/IO error.
    fn read_response(&mut self) -> Option<(u16, String)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = self
                .carry
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4)
            {
                let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())?;
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                if self.carry.len() >= head_end + len {
                    let body =
                        String::from_utf8_lossy(&self.carry[head_end..head_end + len]).into_owned();
                    self.carry.drain(..head_end + len);
                    return Some((status, body));
                }
            }
            let n = self.stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
    }
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
type BatchResponses = Vec<(u16, String)>;

fn post_batch_pair(
    a: &mut Conn,
    b: &mut Conn,
    reqs_a: &[String],
    reqs_b: &[String],
) -> (BatchResponses, BatchResponses) {
    let pending_a: Vec<usize> = (0..reqs_a.len()).collect();
    let pending_b: Vec<usize> = (0..reqs_b.len()).collect();
    a.send_batch(reqs_a, &pending_a);
    b.send_batch(reqs_b, &pending_b);
    (
        a.recv_batch(reqs_a, pending_a),
        b.recv_batch(reqs_b, pending_b),
    )
}

/// One raw pipelineable POST request.
fn raw_post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Pulls `"field":<number>` out of a response body without a JSON
/// parse — the hot client loop stays cheap on the shared core.
fn extract_num(body: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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

/// Per-tenant accounting the clients observed on the wire.
#[derive(Default, Clone, Copy)]
struct Acked {
    /// Sessions opened (each granted one `SLICE`).
    opened: usize,
    /// Σε across acked answers.
    epsilon: f64,
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
        |d| {
            let mut o = PersistOptions::new(d);
            o.sync = std::env::var("APEX_SOAK_NOSYNC").is_err();
            // Checkpoint less often than the 1024-record default: a
            // soak is all writes, and each compaction stalls its shard
            // for a snapshot fsync. Same interval at every shard
            // count, so ratios stay apples-to-apples.
            o.snapshot_every = env_usize("APEX_SOAK_SNAPSHOT_EVERY", 8192) as u64;
            o
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
    let handle = serve_sharded(
        "127.0.0.1:0",
        set.clone(),
        ServeConfig {
            workers_per_shard: env_usize("APEX_SOAK_WORKERS", 2),
            sticky_wait: std::time::Duration::from_micros(
                env_usize("APEX_SOAK_STICKY_US", 1000) as u64
            ),
            ..ServeConfig::default()
        },
    )
    .expect("soak server bind");
    let addr = handle.addr();

    // Warm the shared translator cache so the first measured session
    // isn't paying the one-time strategy prepare.
    {
        let mut warm = Conn::connect(addr);
        let (status, body) = warm.post(
            "/v1/sessions",
            &format!("{{\"dataset\":\"{}\",\"budget\":{SLICE}}}", names[0]),
        );
        assert_eq!(status, 201, "warmup open: {body}");
        let id = extract_num(&body, "session").expect("warmup session id") as u64;
        let (status, body) = warm.post(&format!("/v1/sessions/{id}/query"), QUERY);
        assert_eq!(status, 200, "warmup query: {body}");
        let (status, body) = warm.post(&format!("/v1/sessions/{id}/close"), "{}");
        assert_eq!(status, 200, "warmup close: {body}");
    }
    let warm_acked = Acked {
        opened: 1,
        epsilon: set.spent(&names[0]),
    };

    let next = AtomicUsize::new(0);
    let acked: Vec<Mutex<Acked>> = names.iter().map(|_| Mutex::new(Acked::default())).collect();
    let clients = env_usize("APEX_SOAK_CLIENTS", shards + EXTRA_CLIENTS);
    let batch = env_usize("APEX_SOAK_BATCH", BATCH).max(1);
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
                let mut conn = Conn::connect(addr);
                let mut lat = Vec::new();
                let mut local: Vec<Acked> = vec![Acked::default(); names.len()];
                let probe = c == 0;
                // Loaders drive a twin connection to the same shard so
                // each claim runs as two concurrently-served batches.
                let mut twin = (!probe).then(|| Conn::connect(addr));
                // Loaders round-robin their pinned shard's tenants; the
                // probe round-robins every tenant.
                let mine: &[usize] = if probe {
                    &[]
                } else {
                    &by_shard[(c - 1) % shards]
                };
                let mut round = 0usize;
                loop {
                    let claim = if probe { 1 } else { 2 * batch };
                    let i = next.fetch_add(claim, Ordering::Relaxed);
                    if i >= sessions {
                        break;
                    }
                    let n = claim.min(sessions - i);
                    if probe {
                        let t = i % names.len();
                        let name = &names[t];
                        let (status, body) = conn.post(
                            "/v1/sessions",
                            &format!("{{\"dataset\":\"{name}\",\"budget\":{SLICE}}}"),
                        );
                        assert_eq!(status, 201, "open {name}: {body}");
                        let id = extract_num(&body, "session").expect("session id") as u64;
                        local[t].opened += 1;

                        let t0 = Instant::now();
                        let (status, body) = conn.post(&format!("/v1/sessions/{id}/query"), QUERY);
                        lat.push(t0.elapsed().as_nanos() as u64);
                        assert_eq!(status, 200, "query {name}: {body}");
                        local[t].epsilon += extract_num(&body, "epsilon").expect("acked epsilon");

                        let (status, body) = conn.post(&format!("/v1/sessions/{id}/close"), "{}");
                        assert_eq!(status, 200, "close {name}: {body}");
                        continue;
                    }
                    // Load generator: 2×batch same-shard sessions per
                    // claim, split across the twin connections, each
                    // phase pipelined in one segment so the owning
                    // shard's WAL sees back-to-back appends on two
                    // concurrent streams.
                    let twin = twin.as_mut().expect("loader has a twin conn");
                    let na = n.div_ceil(2);
                    let nb = n - na;
                    let ta = mine[(2 * round) % mine.len()];
                    let tb = mine[(2 * round + 1) % mine.len()];
                    round += 1;
                    let open_req = |t: usize| {
                        raw_post(
                            "/v1/sessions",
                            &format!("{{\"dataset\":\"{}\",\"budget\":{SLICE}}}", names[t]),
                        )
                    };
                    let (oa, ob) = post_batch_pair(
                        &mut conn,
                        twin,
                        &vec![open_req(ta); na],
                        &vec![open_req(tb); nb],
                    );
                    let parse_ids = |resps: Vec<(u16, String)>, t: usize| -> Vec<u64> {
                        resps
                            .into_iter()
                            .map(|(status, body)| {
                                assert_eq!(status, 201, "open {}: {body}", names[t]);
                                extract_num(&body, "session").expect("session id") as u64
                            })
                            .collect()
                    };
                    let ids_a = parse_ids(oa, ta);
                    let ids_b = parse_ids(ob, tb);
                    local[ta].opened += na;
                    local[tb].opened += nb;

                    let query_reqs = |ids: &[u64]| -> Vec<String> {
                        ids.iter()
                            .map(|id| raw_post(&format!("/v1/sessions/{id}/query"), QUERY))
                            .collect()
                    };
                    let (qa, qb) =
                        post_batch_pair(&mut conn, twin, &query_reqs(&ids_a), &query_reqs(&ids_b));
                    for (resps, t) in [(qa, ta), (qb, tb)] {
                        for (status, body) in resps {
                            assert_eq!(status, 200, "query {}: {body}", names[t]);
                            local[t].epsilon +=
                                extract_num(&body, "epsilon").expect("acked epsilon");
                        }
                    }

                    let close_reqs = |ids: &[u64]| -> Vec<String> {
                        ids.iter()
                            .map(|id| raw_post(&format!("/v1/sessions/{id}/close"), "{}"))
                            .collect()
                    };
                    let (ca, cb) =
                        post_batch_pair(&mut conn, twin, &close_reqs(&ids_a), &close_reqs(&ids_b));
                    for (status, body) in ca.into_iter().chain(cb) {
                        assert_eq!(status, 200, "close: {body}");
                    }
                }
                for (t, a) in local.iter().enumerate() {
                    let mut g = acked[t].lock().expect("no poisoning");
                    g.opened += a.opened;
                    g.epsilon += a.epsilon;
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
        .and_then(apex_serve::Json::as_f64)
        .expect("shard_count") as usize;
    assert_eq!(stats_shards, shards, "stats must report the shard count");
    assert_eq!(
        stats
            .get("sessions")
            .and_then(apex_serve::Json::as_f64)
            .expect("live sessions") as usize,
        0,
        "every soak session was closed"
    );

    let wal_sum = |field: &str| -> f64 {
        stats
            .get("shards")
            .and_then(apex_serve::Json::as_arr)
            .expect("shards")
            .iter()
            .map(|s| {
                s.get("wal")
                    .and_then(|w| w.get(field))
                    .and_then(apex_serve::Json::as_f64)
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

    // The wire-level ledger: what the clients were told, per tenant.
    let mut wire: Vec<Acked> = acked
        .iter()
        .map(|m| *m.lock().expect("no poisoning"))
        .collect();
    wire[0].opened += warm_acked.opened;
    wire[0].epsilon += warm_acked.epsilon;

    verify_invariants(&set, names, &wire, "live");

    // Cold re-recovery: every shard replays its own WAL-over-snapshot;
    // the recovered ledgers must still match what the wire acked.
    drop(set);
    let (recovered, reports) = build_shard_set(&dir, shards, names);
    assert!(
        reports.iter().any(|r| r.replayed > 0),
        "a durable soak must leave WAL records to replay"
    );
    verify_invariants(&recovered, names, &wire, "recovered");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort_unstable();
    let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    let sessions_measured = sessions;
    SoakResult {
        shards,
        sessions: sessions_measured,
        wall,
        sessions_per_sec: sessions_measured as f64 / wall.as_secs_f64(),
        p99_submit_ns: pick(0.99),
        median_submit_ns: pick(0.50),
        records_per_sync,
        gather_timeout_share,
    }
}

/// The paper's budget invariants, checked per tenant against the
/// wire-observed ledger. `when` labels the failure (live vs recovered).
fn verify_invariants(set: &ShardSet, names: &[String], wire: &[Acked], when: &str) {
    for (t, name) in names.iter().enumerate() {
        let spent = set.spent(name);
        let tol = 1e-9 * wire[t].epsilon.max(1.0);
        assert!(
            spent <= TENANT_BUDGET + tol,
            "{when}: tenant {name} overspent: {spent} > B={TENANT_BUDGET}"
        );
        assert!(
            (spent - wire[t].epsilon).abs() <= tol,
            "{when}: tenant {name} spent {spent} != acked sum {}",
            wire[t].epsilon
        );
        // Every session was closed, so the grants must have been either
        // charged or reclaimed — nothing leaks.
        let granted = wire[t].opened as f64 * SLICE;
        let reclaimed: f64 = set
            .states()
            .iter()
            .filter_map(|s| s.tenant(name))
            .map(apex_serve::state::Tenant::reclaimed)
            .sum();
        assert!(
            (granted - (spent + reclaimed)).abs() <= 1e-9 * granted.max(1.0),
            "{when}: tenant {name} granted {granted} != spent {spent} + reclaimed {reclaimed}"
        );
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
    let counts: Vec<usize> = std::env::var("APEX_SOAK_SHARDS")
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|_| SHARD_COUNTS.to_vec());
    let sessions = env_usize("APEX_SOAK_SESSIONS", sessions);
    for shards in counts {
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
