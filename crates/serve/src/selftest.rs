//! `apex-serve --self-test`: spin up on an ephemeral port, fire a
//! scripted concurrent workload through real sockets, and assert the
//! service's invariants — the end-to-end gate CI runs.
//!
//! The posture follows HISTEX (PAPERS.md): drive concurrent histories
//! against a live server and check the isolation-level contract on the
//! observed outcomes. The contract is [`crate::invariants`]: every
//! response is recorded into a per-tenant wire model, and the tenants are
//! checked against it live, after each mutation, and after the restart.
//! On top of it, this gate asserts:
//!
//! 1. **budget conservation** — checked mid-flight on every budget read
//!    and against the engines' ledgers, grants and denial counts;
//! 2. **protocol discipline** — every response is 2xx or 409 (denial);
//!    anything else fails the test;
//! 3. **shared warm-up** — sessions submit structurally identical
//!    workloads, so the shared translator cache must report cross-session
//!    hits (> 0) in `/v1/stats`;
//! 4. **durability** — the whole run is write-ahead logged to a state
//!    directory; after shutdown the state is **restarted in-process**
//!    and every tenant must check, recovered, against what its clients
//!    were acked on the wire. When the caller supplies a state dir that
//!    already has history (CI runs the gate twice against one
//!    directory), the run starts from the *recovered* baseline and the
//!    check covers what moved since.
//! 5. **paged persistence** — the adult/trips tenants live in the durable
//!    paged store under a data dir (caller-supplied, or `<state dir>/data`
//!    so the twice-against-one-dir smoke reopens it). The first pass
//!    ingests; every later pass must *open* the stores from disk — zero
//!    re-synthesis — and a double integrity scan plus the workload must
//!    leave the buffer-pool hit counter > 0. Per-tenant transcript logs
//!    ride the same store and must replay from disk, record for record,
//!    after shutdown.
//! 6. **live mutations** — rows are inserted over the wire into a paged
//!    tenant and a resident tenant mid-run; the ack's epoch and rows must
//!    match the owning engine right away and the stats aggregation, a
//!    query admitted afterwards answers at the new epoch, and the restart
//!    must reproduce them from disk (each dataset replays its own
//!    mutation log: the store's for the paged tenant, the one recovery
//!    attaches under `rows/wide/` for the resident one).
//! 7. **maintained histograms** — the resident tenant is asked one shape
//!    before its mutation and again after it: the histogram it maintains
//!    for that shape (docs/PERFORMANCE.md) must equal a rescan after the
//!    insert, and `/v1/stats` must report `views.folds` > 0 and
//!    `views.hits` > 0 for it — the second answer read the folded view,
//!    not the rows. (Paged tenants keep no views and scan.)
//! 8. **group commit** — once the scripted clients are done, each
//!    shard's `wal` block in `/v1/stats` must read `covered ==
//!    durable_records` (no acked record left unsynced), `syncs ≤
//!    durable_records`, no worker still present, and `durable_records`
//!    equal to the durable operations its clients were acked (one per
//!    session opened, one per answer; denials are not durable records).
//!    A shard that owns a scripted tenant must report more than zero: at
//!    2 shards the ring puts `adult` on shard 1 and `trips` on
//!    shard 0, so the 2-shard gate covers both shards' WALs.
//!
//! Sessions *oversubscribe* on purpose: each holds a slice of `B` large
//! enough that the slices jointly exceed `B`, so both the per-session and
//! the engine-wide admission bound are exercised.
//!
//! The run ends with the **compaction-pause scenario**: a deliberately
//! slow query (a many-row prefix workload on the `wide` tenant, whose
//! cold translator prepare takes hundreds of milliseconds) is put in
//! flight, and WAL rotations are forced against it. Since the
//! evaluate/charge split, the ledger gate's shared side covers only the
//! commit+append pair, so a rotation must complete *while the query is
//! still evaluating* — if none does, the gate is spanning mechanism runs
//! again and the test fails.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apex_core::{EngineConfig, Mode};
use apex_data::store::{Manifest, TranscriptLog};
use apex_data::synth::{adult_dataset, nytaxi_dataset};
use apex_data::{Attribute, Dataset, Domain, Schema, Value};

use crate::client;
use crate::invariants::{self, Acked, Observed, Slack, When};
use crate::json::Json;
use crate::shard::{serve_sharded, ServeConfig, ShardRing, ShardSet};
use crate::state::{PersistOptions, RecoverError, ServerState, ServerStateBuilder};

/// Self-test knobs (`--shards/--workers-per-shard/--sessions/--submits/
/// --rows/--cache-cap/--state-dir`).
#[derive(Debug, Clone)]
pub struct SelfTestConfig {
    /// Worker threads per shard.
    pub server_threads: usize,
    /// Shard count: each shard owns its own engines, WAL sequence, and
    /// `state-dir/shard-K/` directory; tenants route by consistent
    /// hashing. `1` reproduces the unsharded behavior.
    pub shards: usize,
    /// Concurrent analyst sessions (client threads).
    pub sessions: usize,
    /// Query submissions per session.
    pub submits: usize,
    /// Rows per synthetic dataset.
    pub rows: usize,
    /// Shared translator-cache capacity.
    pub cache_cap: usize,
    /// State directory for the durability leg; `None` uses (and cleans
    /// up) a fresh temp dir. Passing a dir that already holds state runs
    /// the gate in *recovered* mode on top of it.
    pub state_dir: Option<PathBuf>,
    /// Durable dataset directory for the persistence leg; `None` keeps
    /// the paged stores under `<state dir>/data`, so a rerun against one
    /// state dir automatically exercises ingest-then-reopen.
    pub data_dir: Option<PathBuf>,
    /// Workload rows of the slow query the compaction-pause scenario
    /// holds in flight (more rows → slower cold translator prepare).
    /// The default suits release builds; debug-mode tests pass a smaller
    /// count.
    pub slow_query_prefixes: usize,
}

impl Default for SelfTestConfig {
    fn default() -> Self {
        Self {
            server_threads: 4,
            shards: 1,
            sessions: 8,
            submits: 6,
            rows: 2_000,
            cache_cap: 64,
            state_dir: None,
            data_dir: None,
            slow_query_prefixes: 256,
        }
    }
}

/// What the scripted workload observed.
#[derive(Debug, Clone, Default)]
pub struct SelfTestReport {
    /// Answered submissions (HTTP 200).
    pub answered: u64,
    /// Denied submissions (HTTP 409).
    pub denied: u64,
    /// Shared-cache hits across all scopes at the end.
    pub cache_hits: u64,
    /// Shared-cache misses across all scopes at the end.
    pub cache_misses: u64,
    /// Per-dataset `(name, spent, budget)` at the end.
    pub budgets: Vec<(String, f64, f64)>,
    /// Whether the run started from a non-empty recovered ledger (the
    /// second CI pass against one state dir).
    pub recovered_baseline: bool,
    /// WAL records the post-shutdown restart replayed.
    pub recovery_replayed: usize,
    /// Longest forced WAL rotation observed while the slow query was in
    /// flight (the compaction pause the evaluate/charge split bounds).
    pub compaction_pause_millis: u64,
    /// Wall time of the slow query the rotations raced against.
    pub slow_query_millis: u64,
    /// Forced rotations that completed while the slow query was still
    /// evaluating (must be ≥ 1 when the query was genuinely slow).
    pub rotations_in_flight: u32,
    /// Tenants synthesized and ingested into the data dir this run
    /// (0 on a reopened run — the zero-re-synthesis invariant).
    pub datasets_synthesized: u32,
    /// Tenants opened from an existing on-disk paged store.
    pub datasets_opened: u32,
    /// Buffer-pool hits summed over the paged tenants at the end
    /// (must be > 0: re-scans are served from memory, not disk).
    pub store_pool_hits: u64,
    /// Maintained-histogram hits on the resident tenant (must be > 0:
    /// the shape repeated after the mutation does not rescan).
    pub view_hits: u64,
    /// Compile-memo hits on the resident tenant (must be > 0: the shape
    /// repeated after the mutation compiles once).
    pub compile_hits: u64,
    /// Parse-memo hits the repeated `wide` text added on its owner shard
    /// (must be > 0: a text sent twice is parsed once).
    pub parse_hits: u64,
    /// Transcript records across all tenants and shards at shutdown.
    pub transcript_records: u64,
    /// Row-mutation batches acked over the wire (the live-update leg:
    /// one paged tenant, one resident tenant; each verified live and
    /// re-verified after the restart).
    pub mutations_acked: u64,
    /// Per shard, `(durable_records, syncs)` once the scripted clients
    /// were done: their ratio is the records-per-sync group commit got.
    pub wal_syncs: Vec<(u64, u64)>,
}

/// The tenants served, each by the one shard the ring routes it to;
/// `trips` holds the synthetic taxi data.
const TENANTS: [&str; 3] = ["adult", "trips", "wide"];

/// The paged tenants the scripted clients drive, alternately.
const SCRIPTED: [&str; 2] = ["adult", "trips"];

/// Per-dataset budget for the scripted workload.
const BUDGET: f64 = 0.6;

/// Budget of the `wide` tenant the compaction-pause scenario spends
/// from — ample, so the slow query itself is admitted.
const WIDE_BUDGET: f64 = 50.0;

/// Domain size of the `wide` tenant; with [`WIDE_STEP`] it bounds the
/// slow query at 512 prefix rows.
const WIDE_DOMAIN: i64 = 8192;

/// Prefix stride of the slow query's workload rows.
const WIDE_STEP: usize = 16;

/// Buffer-pool frames used while **ingesting** a paged tenant —
/// deliberately smaller than the page count of a few-thousand-row
/// dataset, so the self-test's ingest path exercises eviction and dirty
/// write-back. Serving pools are sized to the store instead (see
/// [`build_state`]): a sequential rescan through a pool smaller than the
/// store evicts every page before the scan comes back around, so the
/// pool-hit assertion needs the whole store resident.
const SELF_TEST_POOL_FRAMES: usize = 8;

fn query_for(dataset: &str, submit: usize) -> String {
    // Two structurally distinct workloads per dataset (so the cache holds
    // several entries), identical across sessions (so sessions share
    // warm-up). Alternating per submit also re-hits each entry.
    match (dataset, submit % 2) {
        ("adult", 0) => "BIN adult ON COUNT(*) WHERE W = { age IN [17, 40), age IN [40, 60), \
                         age IN [60, 91) } ERROR 30 CONFIDENCE 0.99;"
            .to_string(),
        ("adult", _) => "BIN adult ON COUNT(*) WHERE W = { education_num IN [1, 9), \
                         education_num IN [9, 17) } ERROR 30 CONFIDENCE 0.99;"
            .to_string(),
        (_, 0) => "BIN trips ON COUNT(*) WHERE W = { passenger_count IN [1, 3), \
                   passenger_count IN [3, 11) } ERROR 30 CONFIDENCE 0.99;"
            .to_string(),
        _ => "BIN trips ON COUNT(*) WHERE W = { pickup_hour IN [0, 8), pickup_hour IN [8, 16), \
              pickup_hour IN [16, 24) } ERROR 30 CONFIDENCE 0.99;"
            .to_string(),
    }
}

/// The compaction-pause scenario's tenant: a wide-domain dataset whose
/// prefix workloads compile to many cells, making the cold translator
/// prepare slow on purpose (cost is data-independent — rows stay tiny).
fn wide_dataset() -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange {
            min: 0,
            max: WIDE_DOMAIN - 1,
        },
    )])
    .expect("static schema is valid");
    let mut d = Dataset::empty(schema);
    for i in 0..64 {
        d.push(vec![Value::Int(i * (WIDE_DOMAIN / 64))])
            .expect("value in domain");
    }
    d
}

/// The slow query: `prefixes` nested ranges over the wide domain. Every
/// range boundary is a fresh partition cell, so the strategy-mechanism
/// translation Monte-Carlo simulates over ~`prefixes` cells × the full
/// sample count — hundreds of milliseconds cold, by design.
fn slow_wide_query(prefixes: usize) -> String {
    let p = prefixes.clamp(2, WIDE_DOMAIN as usize / WIDE_STEP);
    let preds: Vec<String> = (1..=p)
        .map(|i| format!("v IN [0, {})", i * WIDE_STEP))
        .collect();
    format!(
        "BIN wide ON COUNT(*) WHERE W = {{ {} }} ERROR 200 CONFIDENCE 0.99;",
        preds.join(", ")
    )
}

/// Opens a session on the resident `wide` tenant, asks it one cheap
/// fixed shape, which must be answered (`wide`'s budget is ample at every
/// point of the run), and closes the session. `when` labels the failure.
fn ask_wide(addr: std::net::SocketAddr, when: &str, wide: &mut Acked) -> Result<(), String> {
    let mut conn = client::Conn::connect(addr).map_err(|e| format!("{when} connect: {e}"))?;
    let (status, created) =
        conn.call("POST", "/v1/sessions", r#"{"dataset":"wide","budget":1.0}"#)?;
    wide.record(status, &created)?;
    let id = created
        .get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{when} session id missing"))?;
    let q = "BIN wide ON COUNT(*) WHERE W = { v IN [0, 16) } ERROR 200 CONFIDENCE 0.99;";
    let body = format!("{{\"query\":{}}}", Json::from(q).render());
    let (status, resp) = conn.call("POST", &format!("/v1/sessions/{id}/query"), &body)?;
    if status != 200 {
        return Err(format!(
            "{when} query returned {status} (must answer at the current epoch): {resp:?}"
        ));
    }
    wide.record(status, &resp)?;
    let (status, closed) = conn.call("POST", &format!("/v1/sessions/{id}/close"), "{}")?;
    wide.record(status, &closed)
}

/// One wire-encodable row at each attribute's domain floor — valid for
/// any tenant's schema, so the mutation leg can insert it blind.
fn floor_row_json(schema: &Schema) -> Json {
    Json::Arr(
        schema
            .attributes()
            .iter()
            .map(|a| match &a.domain {
                Domain::IntRange { min, .. } => Json::Num(*min as f64),
                Domain::FloatRange { min, .. } => Json::Num(*min),
                Domain::Categorical(cats) => Json::Str(cats.first().cloned().unwrap_or_default()),
                Domain::Text => Json::Str("x".to_string()),
                Domain::Boolean => Json::Bool(false),
            })
            .collect(),
    )
}

/// Ingest-or-open one tenant's paged store under the data root. Returns
/// `true` when the dataset had to be synthesized and ingested, `false`
/// when an existing store was opened (and verified) from disk.
fn ensure_paged(data_root: &std::path::Path, name: &str, rows: usize) -> Result<bool, String> {
    let dir = data_root.join(name);
    if Manifest::exists(&dir) {
        Dataset::open_paged(&dir, SELF_TEST_POOL_FRAMES)
            .map_err(|e| format!("persisted {name} store failed to open: {e}"))?;
        return Ok(false);
    }
    let data = match name {
        "adult" => adult_dataset(rows, 7),
        _ => nytaxi_dataset(rows, 9),
    };
    data.ingest_paged(&dir, 1, SELF_TEST_POOL_FRAMES)
        .map_err(|e| format!("ingest of {name} failed: {e}"))?;
    Ok(true)
}

/// Builds shard `shard`'s state with the tenants `ring` routes to it.
/// The adult/trips tenants open the paged stores [`ensure_paged`]
/// prepared under `data_root` (through the owning shard's buffer pool);
/// the `wide` tenant stays resident — it exists to make translator
/// prepare slow, not to exercise storage.
fn build_state(
    cache: apex_core::TranslatorCache,
    data_root: &std::path::Path,
    shard: usize,
    ring: &ShardRing,
) -> ServerStateBuilder {
    let open = |name: &str| {
        // Store-sized pool: the persistence leg asserts warm rescans are
        // served from memory, so every page must be able to stay resident.
        let dir = data_root.join(name);
        let pages = Manifest::load(&dir)
            .unwrap_or_else(|e| {
                panic!("paged {name} manifest vanished between ingest and open: {e}")
            })
            .page_count as usize;
        Dataset::open_paged(&dir, pages + 1)
            .unwrap_or_else(|e| panic!("paged {name} store vanished between ingest and open: {e}"))
    };
    let tenants: [(&str, &dyn Fn() -> Dataset, f64, u64); 3] = [
        ("adult", &|| open("adult"), BUDGET, 0x5E1F_0001),
        ("trips", &|| open("trips"), BUDGET, 0x5E1F_0002),
        ("wide", &wide_dataset, WIDE_BUDGET, 0x5E1F_0003),
    ];
    let mut builder = ServerState::builder_with_cache(cache);
    for (name, data, budget, seed) in tenants {
        if ring.shard_for(name) == shard {
            let mode = Mode::Pessimistic;
            builder = builder.dataset(name, data(), EngineConfig { budget, mode, seed });
        }
    }
    builder
}

/// Recovers all shards from `dir/shard-K` (in parallel), sharing one
/// translator cache; returns the set and the total WAL records replayed.
/// Each shard opens its tenants' paged stores under `data_root` and gets
/// a per-shard transcript-log directory (one writer per log).
fn recover(
    cfg: &SelfTestConfig,
    dir: &std::path::Path,
    data_root: &std::path::Path,
) -> Result<(ShardSet, usize), String> {
    let cache = apex_core::TranslatorCache::with_capacity(cfg.cache_cap);
    let ring = ShardRing::new(cfg.shards);
    ShardSet::recover(
        dir,
        cfg.shards,
        |shard| {
            build_state(cache.clone(), data_root, shard, &ring)
                .transcripts_under(&data_root.join("transcripts").join(format!("shard-{shard}")))
                .unwrap_or_else(|e| panic!("transcript logs must open: {e}"))
        },
        |d| PersistOptions::new(d),
    )
    .map(|(set, reports)| {
        let replayed = reports.iter().map(|r| r.replayed).sum();
        (set, replayed)
    })
    .map_err(|e: RecoverError| format!("recovery failed: {e}"))
}

/// Runs the whole self-test: recover → serve → hammer → verify → shut
/// down → **restart from disk** → re-verify ledger-vs-wire equality.
///
/// # Errors
/// A human-readable description of the first violated invariant.
pub fn run(cfg: SelfTestConfig) -> Result<SelfTestReport, String> {
    // The state dir: caller-supplied (CI reruns against it) or a fresh
    // temp dir this run owns and removes.
    let (dir, owned_dir) = match &cfg.state_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            let dir =
                std::env::temp_dir().join(format!("apex-selftest-{}-{nanos}", std::process::id()));
            (dir, true)
        }
    };
    let result = run_in_dir(&cfg, &dir);
    if owned_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn run_in_dir(cfg: &SelfTestConfig, dir: &std::path::Path) -> Result<SelfTestReport, String> {
    // The persistence leg's data dir: caller-supplied, or colocated with
    // the state dir so a rerun against one dir reopens the stores.
    let data_root = cfg.data_dir.clone().unwrap_or_else(|| dir.join("data"));
    let mut datasets_synthesized = 0u32;
    let mut datasets_opened = 0u32;
    for name in SCRIPTED {
        if ensure_paged(&data_root, name, cfg.rows)? {
            datasets_synthesized += 1;
        } else {
            datasets_opened += 1;
        }
    }

    let (set, _) = recover(cfg, dir, &data_root)?;
    let set = Arc::new(set);

    // Persistence probe: stream every paged tenant twice through its
    // buffer pool. The scans must agree with each other (fail-stop on
    // corruption) and the rescan must be served from memory — it shows
    // up in the pool-hit counter the stats snapshot below asserts on.
    for s in set.states() {
        for (name, t) in s.tenants() {
            if t.store_stats().is_none() {
                continue;
            }
            let (cold, warm) = t
                .engine
                .with_engine(|e| (e.dataset_scan_rows(), e.dataset_scan_rows()));
            if cold != warm {
                return Err(format!(
                    "paged store {name}: first scan saw {cold} rows, pooled rescan {warm}"
                ));
            }
        }
    }
    // Each tenant as its owner shard recovered it, and what its clients
    // are acked from here on: the invariants hold between the two.
    let base: Vec<Observed> = TENANTS
        .iter()
        .map(|t| Observed::read(set.owner(t), t))
        .collect();
    let recovered_baseline = base.iter().any(|o| o.spent > 0.0);
    let mut acked = vec![Acked::default(); TENANTS.len()];
    let ix = |name: &str| {
        TENANTS
            .iter()
            .position(|t| *t == name)
            .expect("served tenant")
    };
    let check = |set: &ShardSet, when, acked: &[Acked]| -> Result<Vec<Observed>, String> {
        let mut seen = Vec::new();
        for (t, name) in TENANTS.iter().enumerate() {
            let after = Observed::read(set.owner(name), name);
            invariants::check(when, &base[t], &after, &acked[t], Slack::default())
                .map_err(|e| format!("{name}: {e}"))?;
            seen.push(after);
        }
        Ok(seen)
    };

    let handle = serve_sharded(
        "127.0.0.1:0",
        set.clone(),
        ServeConfig {
            workers_per_shard: cfg.server_threads,
        },
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = handle.addr();

    // Oversubscribed slices: sessions÷2 per dataset, each slice is half
    // the budget, so 3+ sessions per dataset jointly exceed B.
    let slice = BUDGET / 2.0;
    let mut observed: Vec<Result<(&str, Acked), String>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..cfg.sessions {
            handles.push(scope.spawn(move || client_script(addr, i, slice, cfg.submits)));
        }
        for h in handles {
            observed.push(h.join().unwrap_or_else(|_| Err("client panicked".into())));
        }
    });

    let mut report = SelfTestReport {
        recovered_baseline,
        datasets_synthesized,
        datasets_opened,
        ..SelfTestReport::default()
    };
    // Durable operations acked per shard: each client's open + answers.
    let mut durable_acked = vec![0u64; cfg.shards];
    for r in observed {
        let (dataset, client) = r?;
        report.answered += client.answered;
        report.denied += client.denied;
        durable_acked[set.ring().shard_for(dataset)] += client.opened + client.answered;
        acked[ix(dataset)].merge(&client);
    }
    // A run on a fresh ledger must exercise both admission outcomes; a
    // recovered run starts near-exhausted, so only denials are certain.
    if report.answered == 0 && !recovered_baseline {
        return Err("no query was ever answered — the workload exercised nothing".into());
    }
    if report.denied == 0 {
        return Err(
            "no query was ever denied — oversubscription failed to stress admission".into(),
        );
    }
    check(&set, When::Live, &acked)?;

    // Server-side verification through the public API.
    let (status, stats) = client::request(addr, "GET", "/v1/stats", None)?;
    if status != 200 {
        return Err(format!("GET /v1/stats returned {status}"));
    }
    let shard_count = stats.get("shard_count").and_then(Json::as_u64).unwrap_or(0);
    if shard_count != cfg.shards as u64 {
        return Err(format!(
            "stats reported {shard_count} shards, configured {}",
            cfg.shards
        ));
    }
    // Leg 8: every client has its last ack, so the shards are quiescent.
    for (k, acked) in durable_acked.iter().enumerate() {
        let wal = stats
            .get("shards")
            .and_then(Json::as_arr)
            .and_then(|s| s.get(k))
            .and_then(|s| s.get("wal"))
            .ok_or_else(|| format!("stats missing shards[{k}].wal"))?;
        let field = |name: &str| {
            wal.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats missing shards[{k}].wal.{name}"))
        };
        let (durable, covered, syncs) = (
            field("durable_records")?,
            field("covered")?,
            field("syncs")?,
        );
        if covered != durable || syncs > durable || durable != *acked || field("present")? != 0 {
            return Err(format!(
                "GROUP COMMIT DIVERGENCE on shard {k}: clients were acked {acked} durable \
                 operations, wal reports {wal:?}"
            ));
        }
        if durable == 0 && SCRIPTED.iter().any(|t| set.ring().shard_for(t) == k) {
            return Err(format!(
                "shard {k} owns a scripted tenant but logged no durable record: {wal:?}"
            ));
        }
        report.wal_syncs.push((durable, syncs));
    }
    let global = stats
        .get("cache")
        .and_then(|c| c.get("global"))
        .ok_or("stats missing cache.global")?;
    report.cache_hits = global.get("hits").and_then(Json::as_u64).unwrap_or(0);
    report.cache_misses = global.get("misses").and_then(Json::as_u64).unwrap_or(0);
    if report.cache_hits == 0 && !recovered_baseline {
        return Err("shared translator cache saw no hits across sessions".into());
    }

    for name in SCRIPTED {
        let d = stats
            .get("datasets")
            .and_then(|d| d.get(name))
            .ok_or_else(|| format!("stats missing dataset {name}"))?;
        // Per-dataset scopes must account for every global counter.
        let scope_hits = d
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .ok_or("stats missing per-dataset cache.hits")?;
        if scope_hits > report.cache_hits {
            return Err(format!(
                "scope accounting broken: {name} hits {scope_hits} > global {}",
                report.cache_hits
            ));
        }
        // The tenant must be served from the paged store, and its pool
        // counters must be surfaced through the public stats API.
        let store = d
            .get("store")
            .ok_or_else(|| format!("stats missing store object for {name}"))?;
        if store.get("paged").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{name} is not paged — the data dir was bypassed at boot"
            ));
        }
        report.store_pool_hits += store
            .get("pool_hits")
            .and_then(Json::as_u64)
            .ok_or("stats missing store.pool_hits")?;
    }
    if report.store_pool_hits == 0 {
        return Err(
            "buffer pool recorded no hits — paged rescans are not being served from memory".into(),
        );
    }

    // The live-mutation leg: insert rows over the wire into
    // one paged tenant and the resident `wide` tenant, each durable
    // through its dataset's own mutation log. The acks must match the owning
    // engines right away, and the restart below must reproduce them
    // from disk. (`wide` is asked one shape first, so its insert has a
    // maintained histogram to fold into — leg 7.)
    ask_wide(addr, "pre-mutation", &mut acked[ix("wide")])?;
    for name in ["adult", "wide"] {
        let row = set
            .owner(name)
            .tenant(name)
            .ok_or_else(|| format!("tenant {name} missing from its owner shard"))?
            .engine
            .with_engine(|e| floor_row_json(e.schema()));
        let body = Json::obj(vec![
            ("op", Json::from("insert")),
            ("rows", Json::Arr(vec![row.clone(), row])),
        ])
        .render();
        let path = format!("/v1/datasets/{name}/rows");
        let (status, resp) = client::request(addr, "POST", &path, Some(&body))?;
        acked[ix(name)].record(status, &resp)?;
        // The ack must own up to both rows sent, so the rows invariant
        // (base + acked) pins the scan to exactly two more.
        if resp.get("inserted").and_then(Json::as_u64) != Some(2) {
            return Err(format!("{name}: mutation ack lost rows: {resp:?}"));
        }
        report.mutations_acked += 1;
    }
    check(&set, When::Live, &acked)?;
    // The public stats must surface the new epoch across the shard
    // aggregation, and a query admitted now answers against it (wide's
    // budget is still ample at this point in the run).
    let (status, stats) = client::request(addr, "GET", "/v1/stats", None)?;
    if status != 200 {
        return Err(format!("post-mutation GET /v1/stats returned {status}"));
    }
    for name in ["adult", "wide"] {
        let (t, d) = (ix(name), stats.get("datasets").and_then(|d| d.get(name)));
        let d = d.ok_or_else(|| format!("post-mutation stats missing dataset {name}"))?;
        let (epoch, applied) = (acked[t].epoch, base[t].applied + acked[t].mutations);
        if d.get("epoch").and_then(Json::as_u64) != Some(epoch)
            || d.get("mutations_applied").and_then(Json::as_u64) != Some(applied)
        {
            return Err(format!(
                "stats report epoch {:?} / applied {:?} for {name}, acked {epoch} / {applied}",
                d.get("epoch"),
                d.get("mutations_applied")
            ));
        }
    }
    let parse_hits = |stats: &Json| {
        let k = set.ring().shard_for("wide");
        stats
            .get("shards")
            .and_then(Json::as_arr)
            .and_then(|s| s.get(k))
            .and_then(|s| s.get("parse"))
            .and_then(|p| p.get("hits"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats missing shards[{k}].parse.hits"))
    };
    let parse_hits_before = parse_hits(&stats)?;
    ask_wide(addr, "post-mutation", &mut acked[ix("wide")])?;
    // Leg 7: that answer read the view the first one left and the insert
    // folded (audited against a rescan above), from the first one's parse.
    let (_, stats) = client::request(addr, "GET", "/v1/stats", None)?;
    report.parse_hits = parse_hits(&stats)?.saturating_sub(parse_hits_before);
    if report.parse_hits == 0 {
        return Err("parse memo not used: the repeated wide text was parsed again".into());
    }
    let wide = |object: &str, field: &str| {
        stats
            .get("datasets")
            .and_then(|d| d.get("wide"))
            .and_then(|d| d.get(object))
            .and_then(|v| v.get(field))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats missing datasets.wide.{object}.{field}"))
    };
    let folds = wide("views", "folds")?;
    report.view_hits = wide("views", "hits")?;
    report.compile_hits = wide("compile", "hits")?;
    if report.view_hits == 0 || folds == 0 || report.compile_hits == 0 {
        return Err(format!(
            "maintained histogram or compile memo not used: wide reports {} view hits, \
             {folds} folds and {} compile hits — the repeated shape rescanned or recompiled",
            report.view_hits, report.compile_hits
        ));
    }

    // The compaction-pause scenario: force WAL rotations against a slow
    // in-flight query — rotation must not wait on the evaluate phase.
    let wide = &mut acked[ix("wide")];
    let probe = compaction_pause_scenario(set.owner("wide"), addr, cfg.slow_query_prefixes, wide)?;
    report.compaction_pause_millis = probe.pause_millis;
    report.slow_query_millis = probe.query_millis;
    report.rotations_in_flight = probe.rotations_in_flight;
    // The forced rotations may have folded every record this run
    // appended into the snapshot; open one more (budget-neutral)
    // session so the restart leg always has WAL to replay — keeping the
    // `recovery_replayed > 0` check meaningful on every machine speed.
    let (status, created) = client::request(
        addr,
        "POST",
        "/v1/sessions",
        Some("{\"dataset\":\"wide\",\"budget\":0.001}"),
    )?;
    wide.record(status, &created)?;
    report.budgets = TENANTS
        .iter()
        .zip(check(&set, When::Live, &acked)?)
        .map(|(name, o)| (name.to_string(), o.spent, o.budget))
        .collect();

    // Graceful shutdown through the API; join must then return.
    let (status, _) = client::request(addr, "POST", "/v1/admin/shutdown", Some("{}"))?;
    if status != 202 {
        return Err(format!("shutdown returned {status}"));
    }
    handle.join();

    // Every response this run produced must be accounted for in the
    // transcript logs (recorded, or counted as dropped); flush them so
    // the replay check below reads everything back from disk.
    let mut transcript_dropped = 0u64;
    for s in set.states() {
        s.flush_transcripts();
        for (_, t) in s.tenants() {
            report.transcript_records += t.transcript_records();
            transcript_dropped += t.transcript_dropped();
        }
    }
    if report.transcript_records + transcript_dropped < report.answered + report.denied {
        return Err(format!(
            "transcript logs hold {} records (+{transcript_dropped} dropped) for {} responses",
            report.transcript_records,
            report.answered + report.denied
        ));
    }
    drop(set);

    // The flushed transcripts must replay from disk, record for record.
    let mut replayed_transcripts = 0u64;
    let troot = data_root.join("transcripts");
    for shard in 0..cfg.shards {
        for name in TENANTS {
            let d = troot.join(format!("shard-{shard}")).join(name);
            // (A tenant this shard never served has no log: zero records.)
            replayed_transcripts += TranscriptLog::replay(&d, |_| {})
                .map_err(|e| format!("transcript replay failed for shard {shard}/{name}: {e}"))?;
        }
    }
    if replayed_transcripts != report.transcript_records {
        return Err(format!(
            "TRANSCRIPT DIVERGENCE: {} records at shutdown, \
             {replayed_transcripts} replayed from disk",
            report.transcript_records
        ));
    }

    // The durability leg: restart from disk (replaying every shard's
    // WAL) and check every tenant, recovered, against what the wire saw.
    let (restarted, replayed) = recover(cfg, dir, &data_root)?;
    report.recovery_replayed = replayed;
    check(&restarted, When::Recovered, &acked)?;
    Ok(report)
}

/// What the compaction-pause scenario measured.
struct PauseProbe {
    pause_millis: u64,
    query_millis: u64,
    rotations_in_flight: u32,
}

/// Puts one slow (cold-translator) query in flight on the `wide` tenant
/// and forces WAL rotations against it, timing each. Fails when the
/// query was genuinely slow yet no rotation completed while it was
/// evaluating — that means the ledger gate is back to spanning whole
/// mechanism runs instead of just the commit+append pair.
fn compaction_pause_scenario(
    state: &Arc<ServerState>,
    addr: std::net::SocketAddr,
    prefixes: usize,
    wide: &mut Acked,
) -> Result<PauseProbe, String> {
    let body = format!("{{\"dataset\":\"wide\",\"budget\":{WIDE_BUDGET}}}");
    let (status, created) = client::request(addr, "POST", "/v1/sessions", Some(&body))?;
    wide.record(status, &created)?;
    let id = created
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("wide session id missing")?;

    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (query_millis, pauses) = std::thread::scope(|scope| {
        let done = &done;
        let slow = scope.spawn(move || {
            let body = format!(
                "{{\"query\":{}}}",
                Json::from(slow_wide_query(prefixes)).render()
            );
            let resp = client::request(
                addr,
                "POST",
                &format!("/v1/sessions/{id}/query"),
                Some(&body),
            );
            let elapsed = t0.elapsed();
            done.store(true, Ordering::SeqCst);
            (resp, elapsed)
        });
        // Let the evaluate get in flight, then rotate until the query
        // lands; `true` marks rotations that finished mid-evaluate.
        std::thread::sleep(Duration::from_millis(30));
        let mut pauses: Vec<(Duration, bool)> = Vec::new();
        while !done.load(Ordering::SeqCst) && pauses.len() < 1_000 {
            let c0 = Instant::now();
            let rotated = state.compact();
            let dt = c0.elapsed();
            let in_flight = !done.load(Ordering::SeqCst);
            if let Err(e) = rotated {
                return Err(format!("forced compaction failed mid-scenario: {e}"));
            }
            pauses.push((dt, in_flight));
            std::thread::sleep(Duration::from_millis(10));
        }
        let (resp, elapsed) = slow
            .join()
            .map_err(|_| "slow-query client panicked".to_string())?;
        let (status, body) = resp?;
        wide.record(status, &body)?;
        Ok((elapsed, pauses))
    })?;
    let rotations_in_flight = pauses.iter().filter(|(_, in_flight)| *in_flight).count() as u32;
    let pause_millis = pauses
        .iter()
        .map(|(d, _)| d.as_millis() as u64)
        .max()
        .unwrap_or(0);
    let query_millis = query_millis.as_millis() as u64;
    // Conclusive only when the query was actually slow: on a fast warm
    // machine it can land before the first forced rotation gets in.
    if query_millis >= 250 && rotations_in_flight == 0 {
        return Err(format!(
            "COMPACTION STALL: no WAL rotation completed during a {query_millis} ms in-flight \
             query — the ledger gate is spanning mechanism runs again"
        ));
    }
    Ok(PauseProbe {
        pause_millis,
        query_millis,
        rotations_in_flight,
    })
}

/// One analyst: open a session, submit `submits` queries, read the
/// budget after each (neither the slice nor `B` may be overdrawn
/// mid-flight, whatever the other sessions are doing). Returns the
/// dataset and what this client was acked.
fn client_script(
    addr: std::net::SocketAddr,
    index: usize,
    slice: f64,
    submits: usize,
) -> Result<(&'static str, Acked), String> {
    let dataset = SCRIPTED[index % 2];
    let mut acked = Acked::default();
    let mut conn = client::Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let body = format!("{{\"dataset\":\"{dataset}\",\"budget\":{slice}}}");
    let (status, created) = conn.call("POST", "/v1/sessions", &body)?;
    acked.record(status, &created)?;
    let id = created
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("session id missing")?;
    for submit in 0..submits {
        let body = format!(
            "{{\"query\":{}}}",
            Json::from(query_for(dataset, submit)).render()
        );
        let (status, resp) = conn.call("POST", &format!("/v1/sessions/{id}/query"), &body)?;
        acked.record(status, &resp)?;
        let (status, budget) = conn.call("GET", &format!("/v1/sessions/{id}/budget"), "")?;
        acked.record(status, &budget)?;
    }
    Ok((dataset, acked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes_with_a_small_workload() {
        let report = run(SelfTestConfig {
            server_threads: 2,
            shards: 1,
            sessions: 4,
            submits: 4,
            rows: 400,
            cache_cap: 16,
            state_dir: None,
            data_dir: None,
            // Debug builds are ~15× slower; a modest workload still puts
            // a few-hundred-ms evaluate in flight for the pause scenario.
            slow_query_prefixes: 64,
        })
        .expect("self-test must pass");
        assert!(report.answered > 0);
        assert!(report.denied > 0, "oversubscription must force denials");
        assert!(report.cache_hits > 0, "sessions must share warm artifacts");
        assert!(!report.recovered_baseline, "a temp dir starts fresh");
        assert_eq!(report.datasets_synthesized, 2, "fresh data dir ingests");
        assert_eq!(report.datasets_opened, 0);
        assert!(report.store_pool_hits > 0, "rescans come from the pool");
        assert!(
            report.view_hits > 0,
            "repeated shapes read maintained views"
        );
        assert!(report.compile_hits > 0, "repeated shapes compile once");
        assert!(report.parse_hits > 0, "a repeated text is parsed once");
        assert!(
            report.transcript_records >= report.answered + report.denied,
            "every response must reach a transcript log"
        );
        assert!(
            report.recovery_replayed > 0,
            "the restart leg must replay this run's WAL"
        );
        assert_eq!(
            report.mutations_acked, 2,
            "the mutation leg must cover one paged and one resident tenant"
        );
        assert!(
            report.slow_query_millis > 0,
            "the compaction-pause scenario must have run"
        );
        for (name, spent, budget) in &report.budgets {
            assert!(spent <= &(budget + 1e-9), "{name}: {spent} > {budget}");
        }
        assert!(
            report.budgets.iter().any(|(n, _, _)| n == "wide"),
            "the wide tenant's ledger must be restart-verified too"
        );
    }

    #[test]
    fn self_test_passes_with_multiple_shards() {
        // The same invariants must hold when tenants are spread over
        // shards: per-shard ledgers sum to what the wire acked, and the
        // restart leg recovers every shard's WAL in parallel.
        let report = run(SelfTestConfig {
            server_threads: 2,
            shards: 2,
            sessions: 4,
            submits: 4,
            rows: 400,
            cache_cap: 16,
            state_dir: None,
            data_dir: None,
            slow_query_prefixes: 64,
        })
        .expect("sharded self-test must pass");
        assert!(report.answered > 0);
        assert!(report.denied > 0, "oversubscription must force denials");
        assert!(
            report.recovery_replayed > 0,
            "the restart leg must replay per-shard WAL"
        );
        // The scripted tenants cover both shards, so each logged records.
        assert_eq!(report.wal_syncs.len(), 2);
        assert!(
            report.wal_syncs.iter().all(|&(durable, _)| durable > 0),
            "a shard got no scripted traffic: {:?}",
            report.wal_syncs
        );
        for (name, spent, budget) in &report.budgets {
            assert!(spent <= &(budget + 1e-9), "{name}: {spent} > {budget}");
        }
    }

    #[test]
    fn self_test_reruns_against_the_same_state_dir() {
        // The CI shape: two passes over one directory — the second runs
        // in recovered mode and re-verifies the combined ledger.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = std::env::temp_dir().join(format!(
            "apex-selftest-rerun-{}-{nanos}",
            std::process::id()
        ));
        let cfg = || SelfTestConfig {
            server_threads: 2,
            shards: 1,
            sessions: 4,
            submits: 3,
            rows: 300,
            cache_cap: 16,
            state_dir: Some(dir.clone()),
            data_dir: None,
            slow_query_prefixes: 64,
        };
        let first = run(cfg()).expect("fresh pass must hold");
        assert!(!first.recovered_baseline);
        assert_eq!(first.datasets_synthesized, 2, "first pass ingests");
        let second = run(cfg()).expect("recovered pass must hold");
        assert!(second.recovered_baseline, "second pass starts from disk");
        // The persistence leg: the second pass must open the paged
        // stores from disk — zero re-synthesis — and serve rescans from
        // the buffer pool.
        assert_eq!(second.datasets_synthesized, 0, "no tenant re-synthesized");
        assert_eq!(second.datasets_opened, 2, "both tenants opened from disk");
        assert!(second.store_pool_hits > 0, "pool must serve the rescans");
        assert!(
            second.transcript_records > first.transcript_records,
            "transcript logs accumulate across restarts"
        );
        // The combined ledger kept growing monotonically (or stayed put).
        for ((name, s1, _), (_, s2, _)) in first.budgets.iter().zip(&second.budgets) {
            assert!(s2 + 1e-9 >= *s1, "{name} ledger shrank across restarts");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
