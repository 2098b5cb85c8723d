//! The outside-in layer ladder: the first generated requests of a
//! workload replayed single-threaded through each layer's **public**
//! functions, one span per call. No crate is edited; a request's path is
//! decomposed by invoking each rung separately on the same request, and
//! a rung's logical parent is the rung one layer out:
//!
//! ```text
//! router.route                      router::route on a Request::new
//! ├─ json.parse                     json::parse
//! ├─ wire.parse_query               wire::parse_query_request
//! │  └─ query.parse                 parser::parse_query
//! ├─ state.submit                   ServerState::submit
//! │  ├─ engine.evaluate             EngineSession::evaluate
//! │  │  ├─ mech.prepare_query       PreparedQuery::prepare
//! │  │  ├─ translator.choose        choose_mechanism_cached_at_epoch
//! │  │  └─ mech.run                 Mechanism::run
//! │  │     └─ data.histogram        CompiledWorkload::histogram
//! │  ├─ engine.commit               EngineSession::commit
//! │  └─ wal.append_sync             WalWriter::append (durable workloads)
//! └─ wire.render                    engine_response_json(..).render()
//! ```
//!
//! A rung's self time is its duration minus its children's; timings are
//! medians over the answered queries of the replayed stream.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apex_core::{choose_mechanism_cached_at_epoch, EngineSession, Mode, TranslatorCache};
use apex_data::Dataset;
use apex_mech::PreparedQuery;
use apex_query::parser::parse_query;
use apex_query::{AccuracySpec, ExplorationQuery};
use apex_serve::shard::session_shard;
use apex_serve::wal::{WalRecord, WalWriter};
use apex_serve::{json, router, wire, Json, Request, ServerState, ShardSet, SubmitOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::{extract_str, Class, Client, Transport};
use crate::gen::{self, Catalog, MutateOp, Op, QueryType, Spec};
use crate::run::Metric;
use crate::service::{build_set, paged_half_pool, tenant_dataset};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Most requests replayed (the time budget usually ends the replay first).
const MAX_REQUESTS: u64 = 2_000;
/// Most fresh-cache translations timed: on 100-predicate shapes one costs
/// tens of milliseconds, and a median needs only a few dozen.
const MAX_MISS_PROBES: usize = 48;

/// The ladder of one traced run. Its twins of the service state are
/// built during set-up, right after the served instance and on the same
/// fresh heap: a scan over a tenant's row vectors runs up to 30 % slower
/// on a copy the allocator laid out from recycled memory, which would
/// make rungs measured on different copies disagree by that much.
pub struct Ladder<'a> {
    spec: &'a Spec,
    catalog: &'a Arc<Catalog>,
    seed: u64,
    scratch: &'a Path,
    /// Time the replay may take.
    budget: Duration,
    tracer: Tracer,
    /// The twin with the workload's own durability: rungs 1 to 3 replay
    /// against it one after the other, so router, state and engine are
    /// timed over the very same rows.
    primary: Arc<ShardSet>,
    /// The memory-only twin (`None` when `primary` already is one).
    memory: Option<ShardSet>,
    /// The tenants' rows alone, for the mechanism rungs.
    rows: Vec<Dataset>,
}

/// The in-process transport of the `router.route` rung: what the shard
/// layer's dispatcher does with a parsed request, without the socket.
struct InProcess(Arc<ShardSet>);

impl Transport for InProcess {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let set = &self.0;
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let state = match segments.as_slice() {
            ["v1", "sessions"] => {
                let dataset = extract_str(body, "dataset").ok_or("open without a dataset")?;
                set.owner(dataset)
            }
            ["v1", "sessions", id, ..] => {
                state_of(set, id.parse().map_err(|_| "session id is not a number")?)
            }
            ["v1", "datasets", name, ..] => set.owner(name),
            _ => return Err(format!("the ladder does not route {path}")),
        };
        let resp = router::route(state, &Request::new(method, path, body));
        Ok((resp.status, resp.body))
    }
}

pub struct Output {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

/// One replayed request and what the rungs learned about it.
struct Replayed {
    req: u64,
    op: Op,
    tenant: usize,
    /// Past the warm-up sessions: its spans count towards the medians.
    measured: bool,
    /// The query was answered (200), not denied.
    answered: bool,
    route_span: Option<u64>,
    submit_span: Option<u64>,
    evaluate_span: Option<u64>,
    parsed: Option<(ExplorationQuery, AccuracySpec)>,
    /// Remaining session allowance when the engine twin evaluated it.
    cap: f64,
    /// The WAL record the request logs on a durable deployment.
    record: Option<WalRecord>,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn state_of(set: &ShardSet, session: u64) -> &Arc<ServerState> {
    set.state(session_shard(session))
}

/// Rung 2, the state layer: the session replayed through `ServerState`'s
/// own methods, with each query's parse rungs and response rendering on
/// the way. Leaves every request's parsed query, submit span and WAL
/// record for the rungs below.
fn state_rung(t: &mut Tracer, catalog: &Catalog, set: &ShardSet, reqs: &mut [Replayed]) {
    let mut session = None;
    for r in reqs.iter_mut() {
        let req = r.req;
        match &r.op {
            Op::Open { tenant } => {
                let def = &catalog.tenants[*tenant];
                let (_, _, id) =
                    t.span("state.create_session", req, None, || open_session(set, def));
                session = Some(id);
                r.record = Some(WalRecord::Open {
                    session: id,
                    dataset: def.name.clone(),
                    allowance: def.allowance,
                });
            }
            Op::Query(q) => {
                let Some(id) = session else { continue };
                let root = r.route_span;
                let (_, _, body) = t.span("json.parse", req, root, || json::parse(&q.body));
                let body = body.expect("generated body is JSON");
                let (wire_id, _, decoded) = t.span("wire.parse_query", req, root, || {
                    wire::parse_query_request(&body)
                });
                let (query, acc) = decoded.expect("generated query parses");
                let statement = body.get("query").and_then(Json::as_str).unwrap_or("");
                t.span("query.parse", req, Some(wire_id), || parse_query(statement))
                    .2
                    .expect("generated statement parses");
                let (submit_id, _, outcome) = t.span("state.submit", req, root, || {
                    state_of(set, id).submit(id, &query, &acc)
                });
                let response = match outcome {
                    Ok(SubmitOutcome::Response(response)) => response,
                    other => panic!("ladder submit: {other:?}"),
                };
                t.span("wire.render", req, root, || {
                    wire::engine_response_json(&response).render()
                });
                r.submit_span = Some(submit_id);
                r.record = Some(match response.answered() {
                    Some(a) => WalRecord::Debit {
                        session: id,
                        epsilon: a.epsilon,
                    },
                    None => WalRecord::Deny { session: id },
                });
                r.parsed = Some((query, acc));
            }
            Op::Close => {
                if let Some(id) = session.take() {
                    state_of(set, id).expire_session(id).expect("ladder WAL");
                    r.record = Some(WalRecord::Close {
                        session: id,
                        released: 0.0,
                    });
                }
            }
            Op::Mutate(m) => {
                let name = &catalog.tenants[m.tenant].name;
                t.span("state.mutate_rows", req, None, || {
                    mutate_state(set, name, m)
                });
                r.record = Some(WalRecord::Mutate {
                    dataset: name.clone(),
                    insert: m.insert,
                    epoch_after: 0,
                    rows: m.rows.clone(),
                });
            }
        }
    }
}

/// Rung 2b: the same session against the memory-only twin; only the
/// submits are timed (`state.submit_mem`).
fn memory_rung(t: &mut Tracer, catalog: &Catalog, set: &ShardSet, reqs: &[Replayed]) {
    let mut session = None;
    for r in reqs {
        match (&r.op, &r.parsed) {
            (Op::Open { tenant }, _) => {
                session = Some(open_session(set, &catalog.tenants[*tenant]));
            }
            (Op::Query(_), Some((query, acc))) => {
                let Some(id) = session else { continue };
                t.span("state.submit_mem", r.req, None, || {
                    state_of(set, id).submit(id, query, acc)
                })
                .2
                .expect("memory twin submits");
            }
            (Op::Close, _) => {
                if let Some(id) = session.take() {
                    state_of(set, id)
                        .expire_session(id)
                        .expect("no WAL to fail");
                }
            }
            (Op::Mutate(m), _) => mutate_state(set, &catalog.tenants[m.tenant].name, m),
            (Op::Query(_), None) => {}
        }
    }
}

fn open_session(set: &ShardSet, def: &gen::TenantDef) -> u64 {
    set.owner(&def.name)
        .create_session(&def.name, def.allowance)
        .expect("ladder WAL")
        .expect("tenant is registered")
}

fn mutate_state(set: &ShardSet, name: &str, m: &MutateOp) {
    set.owner(name)
        .mutate_rows(name, m.insert, &m.rows)
        .expect("twin mutation applies");
}

/// Rung 3, the engine: sessions straight on the twin's tenant engines.
/// (Their commits bypass the twin's WAL; nothing reads its ledger.)
fn engine_rung(t: &mut Tracer, catalog: &Catalog, set: &ShardSet, reqs: &mut [Replayed]) {
    let engine_of = |tenant: usize| {
        let name = &catalog.tenants[tenant].name;
        &set.owner(name).tenant(name).expect("registered").engine
    };
    let mut session: Option<EngineSession> = None;
    for r in reqs.iter_mut() {
        match &r.op {
            Op::Open { tenant } => {
                session = Some(engine_of(*tenant).session(catalog.tenants[*tenant].allowance));
            }
            Op::Query(_) => {
                let (Some(s), Some((query, acc))) = (&session, &r.parsed) else {
                    continue;
                };
                r.cap = s.remaining();
                let (eval_id, _, pending) = t.span("engine.evaluate", r.req, r.submit_span, || {
                    s.evaluate(query, acc)
                });
                let pending = pending.expect("engine twin evaluates");
                t.span("engine.commit", r.req, r.submit_span, || s.commit(pending))
                    .2
                    .expect("engine twin commits");
                r.evaluate_span = Some(eval_id);
            }
            Op::Close => {
                if let Some(s) = session.take() {
                    s.close();
                }
            }
            Op::Mutate(m) if m.insert => {
                engine_of(m.tenant)
                    .insert_rows(&m.rows)
                    .expect("engine twin mutates");
            }
            Op::Mutate(m) => {
                engine_of(m.tenant)
                    .delete_rows(&m.rows)
                    .expect("engine twin mutates");
            }
        }
    }
}

/// Rung 4, the mechanism layer on the tenants' rows alone: prepare,
/// choose (on a cache that sees the stream in order, as the server's
/// does), run, histogram — and `choose` again on a warm and on a fresh
/// cache.
struct MechRung {
    rows: Vec<Dataset>,
    stream_cache: TranslatorCache,
    cache_cap: usize,
    rng: StdRng,
    miss_probes: usize,
    /// Rows of the tenant each query scanned.
    rows_scanned: HashMap<u64, usize>,
}

impl MechRung {
    fn replay(&mut self, t: &mut Tracer, reqs: &[Replayed]) {
        for r in reqs {
            let (q, (query, acc)) = match (&r.op, &r.parsed) {
                (Op::Query(q), Some(parsed)) => (q, parsed),
                (Op::Mutate(m), _) if m.insert => {
                    self.rows[m.tenant]
                        .insert_rows(&m.rows)
                        .expect("rows mutate");
                    continue;
                }
                (Op::Mutate(m), _) => {
                    self.rows[m.tenant]
                        .delete_rows(&m.rows)
                        .expect("rows mutate");
                    continue;
                }
                _ => continue,
            };
            let (req, eval) = (r.req, r.evaluate_span);
            let rows = &self.rows[r.tenant];
            self.rows_scanned.insert(req, rows.len());
            let (_, _, prepared) = t.span("mech.prepare_query", req, eval, || {
                PreparedQuery::prepare(rows.schema(), query)
            });
            let prepared = prepared.expect("generated query compiles");
            let choose = |cache: &TranslatorCache| {
                choose_mechanism_cached_at_epoch(
                    &prepared,
                    acc,
                    r.cap,
                    Mode::Optimistic,
                    Some(cache.handle()),
                    rows.epoch(),
                )
                .expect("translation succeeds")
            };
            let choice = t
                .span("translator.choose", req, eval, || {
                    choose(&self.stream_cache)
                })
                .2;
            if let Some(choice) = &choice {
                let rng = &mut self.rng;
                let (run_id, _, out) = t.span("mech.run", req, eval, || {
                    choice.mechanism.run(&prepared, acc, rows, rng)
                });
                out.expect("mechanism runs");
                t.span("data.histogram", req, Some(run_id), || {
                    prepared.compiled().histogram(rows)
                });
            }
            // Only WCQ and ICQ consult the strategy cache at all.
            if q.qtype != QueryType::Tcq && r.answered && r.measured {
                t.span("translator.choose_hit", req, None, || {
                    choose(&self.stream_cache)
                });
                if self.miss_probes < MAX_MISS_PROBES {
                    self.miss_probes += 1;
                    let fresh = TranslatorCache::with_capacity(self.cache_cap);
                    t.span("translator.choose_miss", req, None, || choose(&fresh));
                }
            }
        }
    }
}

/// Rung 5, the WAL: every request's record appended to scratch writers
/// with `sync` on and off.
struct WalRung {
    synced: WalWriter,
    relaxed: WalWriter,
    /// The workload logs at all (its records are counted and the synced
    /// append is a child of the request's submit).
    durable: bool,
    records: u64,
    bytes: u64,
}

impl WalRung {
    fn replay(&mut self, t: &mut Tracer, reqs: &[Replayed]) {
        for r in reqs {
            let Some(record) = &r.record else { continue };
            if self.durable {
                self.records += 1;
                self.bytes += record.encode().len() as u64;
            }
            let parent = r.submit_span.filter(|_| self.durable);
            t.span("wal.append_sync", r.req, parent, || {
                self.synced.append(record)
            })
            .2
            .expect("probe WAL append");
            t.span("wal.append_nosync", r.req, None, || {
                self.relaxed.append(record)
            })
            .2
            .expect("probe WAL append");
        }
    }
}

impl<'a> Ladder<'a> {
    /// Builds the twins under `scratch`. Call during set-up.
    pub fn new(
        spec: &'a Spec,
        catalog: &'a Arc<Catalog>,
        seed: u64,
        scratch: &'a Path,
        budget: Duration,
        origin: Instant,
    ) -> Self {
        std::fs::create_dir_all(scratch).expect("create ladder scratch");
        let twin = |name: &str, durable: bool| {
            build_set(spec, catalog, seed, &scratch.join(name), durable)
        };
        Self {
            spec,
            catalog,
            seed,
            scratch,
            budget,
            tracer: Tracer::new(origin, 1 << 56),
            primary: Arc::new(twin("primary", spec.durable)),
            memory: spec.durable.then(|| twin("memory", false)),
            rows: catalog
                .tenants
                .iter()
                .map(|t| tenant_dataset(spec, t, &scratch.join("rows")))
                .collect(),
        }
    }

    /// Runs the ladder. `recovered` is the cold `ShardSet::recover` of
    /// what the socket phase left on disk (for a memory-only workload:
    /// of an empty directory) and `recover_span` when it started and
    /// ended; it is compacted once, timed, and dropped.
    ///
    /// Then, session by session until the time budget is spent: a fresh
    /// client 0 sends the session through [`InProcess`] (rung 1,
    /// `router.route`), and each further rung replays that same session
    /// before the next one is generated — so the rungs of one request
    /// run within milliseconds of each other (the host's speed drifts
    /// over seconds) while each rung still scans its rows for a whole
    /// session at a time. The warm-up sessions are replayed unmeasured:
    /// they warm the twins' translator caches as the socket phase's
    /// warm-up did the server's. The client is returned so its failures
    /// count.
    pub fn run(self, recovered: ShardSet, recover_span: (Instant, Instant)) -> (Output, Client) {
        let Ladder {
            spec,
            catalog,
            seed,
            scratch,
            budget,
            mut tracer,
            primary,
            memory,
            rows,
        } = self;
        let t = &mut tracer;
        t.record("snapshot.recover", 0, None, recover_span.0, recover_span.1);
        t.span("snapshot.compact", 0, None, || recovered.compact_all())
            .2
            .expect("compaction");
        drop(recovered);

        let mut client = Client::new(
            0,
            catalog.clone(),
            seed,
            Box::new(InProcess(primary.clone())),
        );
        let mut mech = MechRung {
            rows,
            stream_cache: TranslatorCache::with_capacity(spec.cache_cap),
            cache_cap: spec.cache_cap,
            rng: StdRng::seed_from_u64(seed ^ 0x1ADD),
            miss_probes: 0,
            rows_scanned: HashMap::new(),
        };
        let open_wal = |name: &str, sync: bool| {
            WalWriter::open(&scratch.join(name), sync).expect("open probe WAL")
        };
        let mut wal = WalRung {
            synced: open_wal("probe-sync.wal", true),
            relaxed: open_wal("probe-nosync.wal", false),
            durable: spec.durable,
            records: 0,
            bytes: 0,
        };

        let mut reqs: Vec<Replayed> = Vec::new();
        let mut warming = spec.warm_sessions;
        let started = Instant::now();
        while (reqs.len() as u64) < MAX_REQUESTS && (warming > 0 || started.elapsed() < budget) {
            // Rung 1: one session through the router.
            let first = reqs.len();
            loop {
                let req = reqs.len() as u64 + 1;
                let step = client.step();
                let is_query = matches!(step.op, Op::Query(_));
                let span = step
                    .class
                    .map(|_| t.record("router.route", req, None, step.start, step.end));
                let closes = matches!(step.op, Op::Close);
                reqs.push(Replayed {
                    req,
                    op: step.op,
                    tenant: step.tenant,
                    measured: warming == 0,
                    answered: step.class == Some(Class::Query),
                    route_span: span.filter(|_| is_query),
                    submit_span: None,
                    evaluate_span: None,
                    parsed: None,
                    cap: f64::INFINITY,
                    record: None,
                });
                if closes {
                    break;
                }
            }
            warming = warming.saturating_sub(1);
            // Rungs 2 to 5 over the same session. Router, state and
            // engine run against the one twin, so over the very same rows.
            let session = &mut reqs[first..];
            state_rung(t, catalog, &primary, session);
            if let Some(memory) = &memory {
                memory_rung(t, catalog, memory, session);
            }
            engine_rung(t, catalog, &primary, session);
            mech.replay(t, session);
            wal.replay(t, session);
        }
        client.hang_up();

        // The k = 64 mutation probe through the state layer, on every
        // workload, and the paged-store probe.
        let first = &catalog.tenants[0].name;
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0x9206E);
        for _ in 0..3 {
            let (insert, delete) = gen::mutation_pair(catalog, 0, &mut probe_rng);
            for m in [&insert, &delete] {
                t.span("state.mutate_rows", 0, None, || {
                    mutate_state(&primary, first, m)
                });
            }
        }
        let store = store_probe(t, &catalog.tenants[0].data, &scratch.join("store-probe"));

        let answered: HashSet<u64> = reqs
            .iter()
            .filter(|r| r.answered && r.measured)
            .map(|r| r.req)
            .collect();
        let spans = tracer.spans;
        let metrics = summarize(
            &spans,
            &answered,
            &mech.rows_scanned,
            wal.records,
            wal.bytes,
            &store,
        );
        (Output { metrics, spans }, client)
    }
}

/// What the `data.store` probe measured.
struct StoreProbe {
    rows: usize,
    bytes_on_disk_per_row: f64,
}

/// The paged store under the workload's first tenant, on a scratch copy:
/// ingest it with a pool of half its pages, scan it, insert and delete
/// k = 64 rows. Run on every workload so `store.*` timings are always
/// measured; the pool counters of the *serving* tenant are read live.
fn store_probe(t: &mut Tracer, data: &Dataset, dir: &Path) -> StoreProbe {
    let mut paged = paged_half_pool(data, dir);
    for _ in 0..3 {
        let mut rows = 0u64;
        t.span("store.scan", 0, None, || paged.for_each_row(|_| rows += 1));
        assert_eq!(rows as usize, paged.len());
    }
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let bytes_on_disk_per_row = bytes as f64 / paged.len().max(1) as f64;
    let mut rng = StdRng::seed_from_u64(0x5702);
    for _ in 0..3 {
        let rows = gen::mutation_rows(data.schema(), gen::MUTATION_ROWS, &mut rng);
        t.span("store.insert_k64", 0, None, || paged.insert_rows(&rows))
            .2
            .expect("probe insert");
        paged.delete_rows(&rows).expect("probe delete");
    }
    StoreProbe {
        rows: data.len().max(1),
        bytes_on_disk_per_row,
    }
}

/// Medians per rung, self times, and how much of `router.route` the
/// rungs below it leave unaccounted.
fn summarize(
    spans: &[Span],
    answered: &HashSet<u64>,
    rows_scanned: &HashMap<u64, usize>,
    wal_records: u64,
    wal_bytes: u64,
    store: &StoreProbe,
) -> Vec<Metric> {
    let own = trace::self_times(spans);
    // Rungs on the query path are summarized over answered queries only
    // (a denial skips the mechanism run); `req == 0` marks a probe.
    let on_query_path = |s: &Span| s.req == 0 || answered.contains(&s.req);
    let mut durs: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut selfs: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in spans {
        let query_rung = !matches!(
            s.name,
            "state.create_session" | "state.mutate_rows" | "wal.append_sync" | "wal.append_nosync"
        );
        if query_rung && !on_query_path(s) {
            continue;
        }
        durs.entry(s.name).or_default().push(s.dur_ns() as f64);
        selfs.entry(s.name).or_default().push(own[&s.id] as f64);
    }
    let med = |name: &str| stats::median(durs.get(name).map_or(&[][..], Vec::as_slice));
    let med_self = |name: &str| stats::median(selfs.get(name).map_or(&[][..], Vec::as_slice));

    // Per answered request: the share of its route span that no rung
    // beneath it accounts for.
    let mut route_of: HashMap<u64, u64> = HashMap::new();
    let mut below: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| answered.contains(&s.req)) {
        match (s.name, s.parent) {
            ("router.route", _) => {
                route_of.insert(s.req, s.dur_ns());
            }
            (_, Some(_)) => *below.entry(s.req).or_default() += own[&s.id],
            _ => {}
        }
    }
    let unaccounted: Vec<f64> = route_of
        .iter()
        .map(|(req, &route)| {
            1.0 - below.get(req).copied().unwrap_or(0) as f64 / route.max(1) as f64
        })
        .collect();

    let scan_ns_per_row: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "data.histogram")
        .filter_map(|s| Some(s.dur_ns() as f64 / *rows_scanned.get(&s.req)? as f64))
        .collect();
    vec![
        Metric::new("json.parse_us", us(med("json.parse")), "us"),
        Metric::new("query.parse_us", us(med("query.parse")), "us"),
        Metric::new("wire.parse_query_us", us(med("wire.parse_query")), "us"),
        Metric::new("wire.render_us", us(med("wire.render")), "us"),
        Metric::new("router.route_us", us(med("router.route")), "us"),
        Metric::new("router.self_us", us(med_self("router.route")), "us"),
        Metric::new(
            "state.create_session_us",
            us(med("state.create_session")),
            "us",
        ),
        Metric::new("state.submit_us", us(med("state.submit")), "us"),
        Metric::new(
            "state.submit_mem_us",
            us(if durs.contains_key("state.submit_mem") {
                med("state.submit_mem")
            } else {
                med("state.submit")
            }),
            "us",
        ),
        Metric::new("state.self_us", us(med_self("state.submit")), "us"),
        Metric::new("state.mutate_rows_ms", ms(med("state.mutate_rows")), "ms"),
        Metric::new("wal.append_sync_us", us(med("wal.append_sync")), "us"),
        Metric::new("wal.append_nosync_us", us(med("wal.append_nosync")), "us"),
        Metric::new("wal.records", wal_records as f64, "count"),
        Metric::new(
            "wal.bytes_per_record",
            wal_bytes as f64 / wal_records.max(1) as f64,
            "bytes",
        ),
        Metric::new("snapshot.compact_ms", ms(med("snapshot.compact")), "ms"),
        Metric::new("snapshot.recover_ms", ms(med("snapshot.recover")), "ms"),
        Metric::new("engine.evaluate_us", us(med("engine.evaluate")), "us"),
        Metric::new("engine.commit_us", us(med("engine.commit")), "us"),
        Metric::new(
            "translator.choose_hit_us",
            us(med("translator.choose_hit")),
            "us",
        ),
        Metric::new(
            "translator.choose_miss_ms",
            ms(med("translator.choose_miss")),
            "ms",
        ),
        Metric::new("mech.prepare_query_us", us(med("mech.prepare_query")), "us"),
        Metric::new("mech.run_us", us(med("mech.run")), "us"),
        Metric::new("data.histogram_us", us(med("data.histogram")), "us"),
        Metric::new(
            "data.scan_ns_per_row",
            stats::median(&scan_ns_per_row),
            "ns",
        ),
        Metric::new(
            "store.scan_ns_per_row",
            med("store.scan") / store.rows as f64,
            "ns",
        ),
        Metric::new("store.insert_k64_ms", ms(med("store.insert_k64")), "ms"),
        Metric::new(
            "store.bytes_on_disk_per_row",
            store.bytes_on_disk_per_row,
            "bytes",
        ),
        Metric::new(
            "trace.unaccounted_share",
            stats::median(&unaccounted),
            "share",
        ),
    ]
}
