//! The seeded load generator: every tenant dataset, query text, session
//! script and mutation batch the benchmark sends is produced here from
//! `--seed`, so a later change to `apex-bench` (or any other crate)
//! cannot move the load. The service sees only the generated requests.
//!
//! Tenant *data* is fixed per workload (it is configuration, like the
//! shard count); the seed decides the request stream — shape order,
//! which α each query asks for, where the must-deny query sits, which
//! tenant a session opens, every random range of `cold_translate`, and
//! every mutated row.

use std::collections::VecDeque;
use std::sync::Arc;

use apex_data::synth::{adult_dataset, nytaxi_dataset, ADULT_SIZE};
use apex_data::{Attribute, Dataset, Domain, Schema, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The four workloads, by the names `BENCHMARK.json` and the README use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExploreHot,
    CommitBound,
    ColdTranslate,
    PagedMutating,
}

pub const ALL_KINDS: [Kind; 4] = [
    Kind::ExploreHot,
    Kind::CommitBound,
    Kind::ColdTranslate,
    Kind::PagedMutating,
];

/// Relative accuracy levels of the exploration mixes (α = level · |D|).
const ALPHA_LEVELS: [f64; 4] = [0.01, 0.02, 0.04, 0.08];
/// β of the exploration mixes, written as `CONFIDENCE 0.9995`.
pub const BETA: f64 = 5e-4;
/// α of a must-deny query, relative to |D|: no mechanism's worst case
/// fits a session slice at this accuracy.
const DENY_LEVEL: f64 = 1e-6;
/// Rows per mutation batch on `paged_mutating`.
pub const MUTATION_ROWS: usize = 64;
/// Client 0 of `paged_mutating` mutates once per this many of its queries.
const QUERIES_PER_MUTATION: usize = 25;
/// Queries per `cold_translate` session: two of every three ask 16
/// ranges, the third 32. (An even split would put the median latency in
/// the gap between the two modes, where it swings with the sample.)
const COLD_SESSION_QUERIES: usize = 9;
/// Domain size of the `cold_translate` tenant.
const COLD_DOMAIN: i64 = 4096;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ExploreHot => "explore_hot",
            Kind::CommitBound => "commit_bound",
            Kind::ColdTranslate => "cold_translate",
            Kind::PagedMutating => "paged_mutating",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Kind::ExploreHot => {
                "the paper's exploration mix: repeated Table-1 shapes hit the translator cache, \
                 so engine, mechanism and scan set the time and the WAL little"
            }
            Kind::CommitBound => {
                "tiny tenants: the engine does microseconds of work, so WAL fsync, group commit, \
                 HTTP and routing set the time"
            }
            Kind::ColdTranslate => {
                "every query is a fresh random-range workload, so it misses the translator cache \
                 and Monte-Carlo prepare dominates; no WAL"
            }
            Kind::PagedMutating => {
                "scans go through a half-sized buffer pool while row mutations bump the epoch, \
                 so writes sit beside reads"
            }
        }
    }
}

/// How the service is configured for a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub shards: usize,
    pub workers_per_shard: usize,
    /// Durable state dir with `sync = true`; `false` = `ShardSet::build`.
    pub durable: bool,
    /// Translator-cache capacity shared by all shards.
    pub cache_cap: usize,
    /// Tenants live in a paged store with a pool of half the page count.
    pub paged: bool,
    /// Sessions each client runs unmeasured before the window (part of
    /// `setup_s`; count-based so set-up time measures work, not a timer).
    pub warm_sessions: usize,
}

pub fn spec(kind: Kind) -> Spec {
    match kind {
        Kind::ExploreHot => Spec {
            kind,
            shards: 1,
            workers_per_shard: 2,
            durable: true,
            cache_cap: 64,
            paged: false,
            warm_sessions: 2,
        },
        Kind::CommitBound => Spec {
            kind,
            shards: 2,
            workers_per_shard: 2,
            durable: true,
            cache_cap: 64,
            paged: false,
            warm_sessions: 16,
        },
        Kind::ColdTranslate => Spec {
            kind,
            shards: 1,
            workers_per_shard: 2,
            durable: false,
            cache_cap: 8,
            paged: false,
            warm_sessions: 1,
        },
        Kind::PagedMutating => Spec {
            kind,
            shards: 1,
            workers_per_shard: 2,
            durable: true,
            cache_cap: 64,
            paged: true,
            warm_sessions: 1,
        },
    }
}

/// The three query types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryType {
    Wcq,
    Icq,
    Tcq,
}

/// One repeating query shape: the statement text up to its `ERROR` clause.
#[derive(Debug, Clone)]
pub struct Shape {
    pub qtype: QueryType,
    text: String,
}

impl Shape {
    fn new(qtype: QueryType, table: &str, preds: &[String], tail: &str) -> Self {
        Self {
            qtype,
            text: format!(
                "BIN {table} ON COUNT(*) WHERE W = {{ {} }}{tail}",
                preds.join(", ")
            ),
        }
    }
}

/// The JSON body of a query submission.
fn query_body(statement: &str, alpha: f64, confidence: f64) -> String {
    format!("{{\"query\":\"{statement} ERROR {alpha} CONFIDENCE {confidence};\"}}")
}

/// One tenant of a workload: its data and the shapes asked of it.
#[derive(Debug)]
pub struct TenantDef {
    pub name: String,
    /// Resident copy of the tenant's rows (the benchmark's ground truth;
    /// the service gets its own copy or a paged ingest of it).
    pub data: Dataset,
    pub shapes: Vec<Shape>,
    /// Budget slice each session opens with.
    pub allowance: f64,
}

/// Everything fixed about a workload: tenants, their data, their shapes.
#[derive(Debug)]
pub struct Catalog {
    pub kind: Kind,
    pub tenants: Vec<TenantDef>,
}

/// Per-tenant budget `B`: never reached (a denial by exhaustion would
/// change what the latency measures), yet `spent ≤ B` stays a real check.
pub const TENANT_BUDGET: f64 = 1.0e9;

fn range(attr: &str, lo: impl std::fmt::Display, hi: impl std::fmt::Display) -> String {
    format!("{attr} IN [{lo}, {hi})")
}

/// The six Adult shapes of Table 1 (QW1, QW2, QI1, QI2, QT1, QT2).
fn adult_shapes(n: usize) -> Vec<Shape> {
    let c = format!(" HAVING COUNT(*) > {}", 0.1 * n as f64);
    let top = " ORDER BY COUNT(*) DESC LIMIT 10";
    let hist: Vec<String> = (0..100)
        .map(|i| range("capital_gain", 50 * i, 50 * (i + 1)))
        .collect();
    let prefix: Vec<String> = (1..=100)
        .map(|i| range("capital_gain", 0, 50 * i))
        .collect();
    let by_sex: Vec<String> = (0..50)
        .flat_map(|i| {
            ["M", "F"].map(|s| {
                format!(
                    "{} AND sex = '{s}'",
                    range("capital_gain", 100 * i, 100 * (i + 1))
                )
            })
        })
        .collect();
    let ages: Vec<String> = (0..100).map(|i| format!("age = {i}")).collect();
    let cumulative: Vec<String> = (0..50)
        .flat_map(|i| {
            [
                format!("age >= {}", 17 + 73 * i / 50),
                format!("hours_per_week >= {}", 1 + 2 * i),
            ]
        })
        .collect();
    vec![
        Shape::new(QueryType::Wcq, "adult", &hist, ""), // QW1
        Shape::new(QueryType::Wcq, "adult", &prefix, ""), // QW2
        Shape::new(QueryType::Icq, "adult", &prefix, &c), // QI1
        Shape::new(QueryType::Icq, "adult", &by_sex, &c), // QI2
        Shape::new(QueryType::Tcq, "adult", &ages, top), // QT1
        Shape::new(QueryType::Tcq, "adult", &cumulative, top), // QT2
    ]
}

fn tenths(i: usize) -> String {
    format!("{}.{}", i / 10, i % 10)
}

/// The six NYTaxi shapes of Table 1 (QW3, QW4, QI3, QI4, QT3, QT4).
fn taxi_shapes(n: usize) -> Vec<Shape> {
    let c = format!(" HAVING COUNT(*) > {}", 0.1 * n as f64);
    let top = " ORDER BY COUNT(*) DESC LIMIT 10";
    let fine = |attr: &str| -> Vec<String> {
        (0..100)
            .map(|i| range(attr, tenths(i), tenths(i + 1)))
            .collect()
    };
    let amount_by_passenger: Vec<String> = (0..10)
        .flat_map(|a| {
            (1..=10).map(move |p| {
                format!(
                    "{} AND passenger_count = {p}",
                    range("total_amount", a, a + 1)
                )
            })
        })
        .collect();
    let zone_pairs: Vec<String> = (1..=10)
        .flat_map(|pu| (1..=10).map(move |d| format!("puid = {pu} AND doid = {d}")))
        .collect();
    let cumulative: Vec<String> = (0..50)
        .flat_map(|i| {
            [
                format!("trip_distance >= {}", tenths(2 * i)),
                format!("fare_amount >= {i}"),
            ]
        })
        .collect();
    vec![
        Shape::new(QueryType::Wcq, "taxi", &fine("trip_distance"), ""), // QW3
        Shape::new(QueryType::Wcq, "taxi", &amount_by_passenger, ""),   // QW4
        Shape::new(QueryType::Icq, "taxi", &fine("fare_amount"), &c),   // QI3
        Shape::new(QueryType::Icq, "taxi", &fine("total_amount"), &c),  // QI4
        Shape::new(QueryType::Tcq, "taxi", &zone_pairs, top),           // QT3
        Shape::new(QueryType::Tcq, "taxi", &cumulative, top),           // QT4
    ]
}

/// The eight repeating shapes of `paged_mutating`: the taxi families at
/// 20–25 predicates, so the artifacts every epoch bump invalidates are
/// rebuilt in milliseconds and the scan through the pool stays visible.
fn paged_shapes(n: usize) -> Vec<Shape> {
    let c = format!(" HAVING COUNT(*) > {}", 0.02 * n as f64);
    let top = " ORDER BY COUNT(*) DESC LIMIT 5";
    let bins = |attr: &str, width: usize| -> Vec<String> {
        (0..25)
            .map(|i| range(attr, tenths(width * i), tenths(width * (i + 1))))
            .collect()
    };
    let prefix = |attr: &str| -> Vec<String> { (1..=20).map(|i| range(attr, 0, 2 * i)).collect() };
    let amount_by_passenger: Vec<String> = (0..5)
        .flat_map(|a| {
            (1..=5).map(move |p| {
                format!(
                    "{} AND passenger_count = {p}",
                    range("total_amount", 4 * a, 4 * (a + 1))
                )
            })
        })
        .collect();
    let zones: Vec<String> = (1..=30).map(|z| format!("puid = {z}")).collect();
    let zone_pairs: Vec<String> = (1..=5)
        .flat_map(|pu| (1..=5).map(move |d| format!("puid = {pu} AND doid = {d}")))
        .collect();
    let cumulative: Vec<String> = (0..12)
        .flat_map(|i| {
            [
                format!("trip_distance >= {}", tenths(5 * i)),
                format!("fare_amount >= {}", 3 * i),
            ]
        })
        .collect();
    vec![
        Shape::new(QueryType::Wcq, "taxi", &bins("trip_distance", 4), ""), // PW1
        Shape::new(QueryType::Wcq, "taxi", &prefix("fare_amount"), ""),    // PW2
        Shape::new(QueryType::Wcq, "taxi", &amount_by_passenger, ""),      // PW3
        Shape::new(QueryType::Icq, "taxi", &bins("fare_amount", 8), &c),   // PI1
        Shape::new(QueryType::Icq, "taxi", &prefix("total_amount"), &c),   // PI2
        Shape::new(QueryType::Tcq, "taxi", &zones, top),                   // PT1
        Shape::new(QueryType::Tcq, "taxi", &zone_pairs, top),              // PT2
        Shape::new(QueryType::Tcq, "taxi", &cumulative, top),              // PT3
    ]
}

/// The soak's tenant: 16 rows over an 8-value domain.
fn tiny_dataset() -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange { min: 0, max: 7 },
    )])
    .expect("static schema");
    let rows = (0..16).map(|i| vec![Value::Int(i % 8)]).collect();
    Dataset::new(schema, rows).expect("static rows")
}

/// The `cold_translate` tenant: 20 000 rows over one 4096-value attribute.
fn cold_dataset() -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange {
            min: 0,
            max: COLD_DOMAIN - 1,
        },
    )])
    .expect("static schema");
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let rows = (0..20_000)
        .map(|_| vec![Value::Int(rng.gen_range(0..COLD_DOMAIN))])
        .collect();
    Dataset::new(schema, rows).expect("rows are in the domain")
}

impl Catalog {
    /// Synthesizes the workload's tenants (part of `setup_s`).
    pub fn build(kind: Kind) -> Catalog {
        let tenants = match kind {
            Kind::ExploreHot => {
                let taxi_rows = 100_000;
                vec![
                    TenantDef {
                        name: "adult".into(),
                        data: adult_dataset(ADULT_SIZE, 7),
                        shapes: adult_shapes(ADULT_SIZE),
                        allowance: 64.0,
                    },
                    TenantDef {
                        name: "taxi".into(),
                        data: nytaxi_dataset(taxi_rows, 9),
                        shapes: taxi_shapes(taxi_rows),
                        allowance: 64.0,
                    },
                ]
            }
            Kind::CommitBound => (0..32)
                .map(|i| TenantDef {
                    name: format!("tiny-{i:02}"),
                    data: tiny_dataset(),
                    shapes: vec![Shape::new(
                        QueryType::Wcq,
                        "t",
                        &[range("v", 0, 4), range("v", 4, 8)],
                        "",
                    )],
                    allowance: 1.0,
                })
                .collect(),
            Kind::ColdTranslate => vec![TenantDef {
                name: "cold".into(),
                data: cold_dataset(),
                shapes: Vec::new(),
                allowance: 64.0,
            }],
            Kind::PagedMutating => {
                let rows = 20_000;
                vec![TenantDef {
                    name: "taxi".into(),
                    data: nytaxi_dataset(rows, 9),
                    shapes: paged_shapes(rows),
                    allowance: 64.0,
                }]
            }
        };
        Catalog { kind, tenants }
    }
}

/// One generated request. Session ids are filled in by whoever drives
/// the stream (a session's id is only known once its open is answered).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /v1/sessions` on tenant `tenant`.
    Open { tenant: usize },
    /// `POST /v1/sessions/{id}/query`.
    Query(QueryOp),
    /// `POST /v1/sessions/{id}/close`.
    Close,
    /// `POST /v1/datasets/{name}/rows`.
    Mutate(MutateOp),
}

#[derive(Debug, Clone, PartialEq)]
pub struct QueryOp {
    pub body: Arc<str>,
    pub qtype: QueryType,
    /// Index into the tenant's repeating shapes; `None` for the one-off
    /// workloads of `cold_translate`.
    pub shape: Option<usize>,
    pub alpha: f64,
    pub beta: f64,
    /// The query asks for an accuracy no session slice can pay for: the
    /// service must answer 409 and charge nothing.
    pub must_deny: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MutateOp {
    pub tenant: usize,
    pub insert: bool,
    pub rows: Vec<Vec<Value>>,
    pub body: String,
}

/// The body of `POST /v1/sessions`.
pub fn open_body(tenant: &TenantDef) -> String {
    format!(
        "{{\"dataset\":\"{}\",\"budget\":{}}}",
        tenant.name, tenant.allowance
    )
}

fn value_json(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("\"{s}\""),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".into(),
    }
}

fn mutate_body(insert: bool, rows: &[Vec<Value>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(value_json).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!(
        "{{\"op\":\"{}\",\"rows\":[{}]}}",
        if insert { "insert" } else { "delete" },
        rows.join(",")
    )
}

/// `k` rows inside `schema`'s domains (a mutation must not widen a
/// domain: that would recompile every workload and measure something
/// else). Floats carry a fractional part so they survive the JSON round
/// trip as floats and a delete finds exactly what the insert added.
pub fn mutation_rows(schema: &Schema, k: usize, rng: &mut StdRng) -> Vec<Vec<Value>> {
    (0..k)
        .map(|_| {
            schema
                .attributes()
                .iter()
                .map(|a| match &a.domain {
                    Domain::IntRange { min, max } => Value::Int(rng.gen_range(*min..=*max)),
                    Domain::FloatRange { min, max } => {
                        let steps = ((max - min).min(40.0) * 4.0) as i64 - 1;
                        Value::Float(min + 0.125 + 0.25 * rng.gen_range(0..steps) as f64)
                    }
                    Domain::Categorical(cats) => {
                        Value::Str(cats.choose(rng).expect("non-empty category list").clone())
                    }
                    Domain::Boolean => Value::Bool(rng.gen()),
                    Domain::Text => Value::Str("bench".into()),
                })
                .collect()
        })
        .collect()
}

/// An insert batch for `tenant` and the delete batch that undoes it.
pub fn mutation_pair(catalog: &Catalog, tenant: usize, rng: &mut StdRng) -> (MutateOp, MutateOp) {
    let rows = mutation_rows(catalog.tenants[tenant].data.schema(), MUTATION_ROWS, rng);
    let op = |insert: bool| MutateOp {
        tenant,
        insert,
        body: mutate_body(insert, &rows),
        rows: rows.clone(),
    };
    (op(true), op(false))
}

/// The request stream of one closed-loop client. Deterministic in
/// `(workload, seed, client)` and unbounded: sessions are generated one at
/// a time as the client consumes them.
pub struct Generator {
    catalog: Arc<Catalog>,
    client: usize,
    rng: StdRng,
    queue: VecDeque<Op>,
    /// Sessions generated so far (drives tenant alternation and the α
    /// rotation, so every shape meets every α level equally often).
    sessions: usize,
    queries: usize,
    /// The delete that undoes the last insert, once it is due.
    pending_delete: Option<MutateOp>,
}

impl Generator {
    pub fn new(catalog: Arc<Catalog>, seed: u64, client: usize) -> Self {
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(client as u64 + 1);
        Self {
            catalog,
            client,
            rng: StdRng::seed_from_u64(stream),
            queue: VecDeque::new(),
            sessions: 0,
            queries: 0,
            pending_delete: None,
        }
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return op;
            }
            self.push_session();
        }
    }

    fn push_query(&mut self, q: QueryOp) {
        self.queue.push_back(Op::Query(q));
        self.queries += 1;
        let mutates = self.catalog.kind == Kind::PagedMutating && self.client == 0;
        if mutates && self.queries.is_multiple_of(QUERIES_PER_MUTATION) {
            let op = match self.pending_delete.take() {
                Some(delete) => delete,
                None => {
                    let (insert, delete) = mutation_pair(&self.catalog, 0, &mut self.rng);
                    self.pending_delete = Some(delete);
                    insert
                }
            };
            self.queue.push_back(Op::Mutate(op));
        }
    }

    fn push_session(&mut self) {
        let catalog = self.catalog.clone();
        let n = self.sessions;
        self.sessions += 1;
        match catalog.kind {
            Kind::ExploreHot | Kind::PagedMutating => {
                // Clients start on different tenants and alternate, so two
                // consecutive sessions of a client cover all 12 shapes.
                let tenant = (n + self.client) % catalog.tenants.len();
                let def = &catalog.tenants[tenant];
                let size = def.data.len() as f64;
                let round = n / catalog.tenants.len();
                let mut order: Vec<usize> = (0..def.shapes.len()).collect();
                order.shuffle(&mut self.rng);
                let deny_at = match catalog.kind {
                    Kind::ExploreHot => Some(self.rng.gen_range(0..=order.len())),
                    _ => None,
                };
                self.queue.push_back(Op::Open { tenant });
                for (slot, &s) in order.iter().enumerate() {
                    if deny_at == Some(slot) {
                        self.push_query(deny_query(def, size));
                    }
                    let shape = &def.shapes[s];
                    let alpha = ALPHA_LEVELS[(s + round) % ALPHA_LEVELS.len()] * size;
                    self.push_query(QueryOp {
                        body: query_body(&shape.text, alpha, 1.0 - BETA).into(),
                        qtype: shape.qtype,
                        shape: Some(s),
                        alpha,
                        beta: BETA,
                        must_deny: false,
                    });
                }
                if deny_at == Some(order.len()) {
                    self.push_query(deny_query(def, size));
                }
                self.queue.push_back(Op::Close);
            }
            Kind::CommitBound => {
                let tenant = self.rng.gen_range(0..catalog.tenants.len());
                let shape = &catalog.tenants[tenant].shapes[0];
                self.queue.push_back(Op::Open { tenant });
                self.push_query(QueryOp {
                    body: query_body(&shape.text, 8.0, 0.95).into(),
                    qtype: QueryType::Wcq,
                    shape: Some(0),
                    alpha: 8.0,
                    beta: 0.05,
                    must_deny: false,
                });
                self.queue.push_back(Op::Close);
            }
            Kind::ColdTranslate => {
                let size = catalog.tenants[0].data.len() as f64;
                self.queue.push_back(Op::Open { tenant: 0 });
                for i in 0..COLD_SESSION_QUERIES {
                    let ranges = if i % 3 == 2 { 32 } else { 16 };
                    let preds: Vec<String> = (0..ranges)
                        .map(|_| {
                            let a = self.rng.gen_range(0..COLD_DOMAIN);
                            let b = self.rng.gen_range(0..COLD_DOMAIN);
                            range("v", a.min(b), a.max(b) + 1)
                        })
                        .collect();
                    let statement = Shape::new(QueryType::Wcq, "cold", &preds, "").text;
                    let alpha = 0.02 * size;
                    self.push_query(QueryOp {
                        body: query_body(&statement, alpha, 1.0 - BETA).into(),
                        qtype: QueryType::Wcq,
                        shape: None,
                        alpha,
                        beta: BETA,
                        must_deny: false,
                    });
                }
                self.queue.push_back(Op::Close);
            }
        }
    }
}

/// The tenant's first (histogram) shape at an accuracy nothing can pay for.
fn deny_query(def: &TenantDef, size: f64) -> QueryOp {
    let alpha = DENY_LEVEL * size;
    QueryOp {
        body: query_body(&def.shapes[0].text, alpha, 1.0 - BETA).into(),
        qtype: def.shapes[0].qtype,
        shape: Some(0),
        alpha,
        beta: BETA,
        must_deny: true,
    }
}

/// A must-deny query for tenant 0 of any workload (the traced run's
/// probe where the stream itself carries no denial).
pub fn probe_deny_query(catalog: &Catalog) -> QueryOp {
    let def = &catalog.tenants[0];
    let size = def.data.len() as f64;
    if !def.shapes.is_empty() {
        return deny_query(def, size);
    }
    let alpha = DENY_LEVEL * size;
    let statement = Shape::new(QueryType::Wcq, "t", &[range("v", 0, COLD_DOMAIN / 2)], "").text;
    QueryOp {
        body: query_body(&statement, alpha, 1.0 - BETA).into(),
        qtype: QueryType::Wcq,
        shape: None,
        alpha,
        beta: BETA,
        must_deny: true,
    }
}

/// The first `n` requests of a stream, rendered to bytes (what the
/// determinism tests compare).
#[cfg(test)]
pub fn render_stream(catalog: &Arc<Catalog>, seed: u64, client: usize, n: usize) -> Vec<u8> {
    let mut gen = Generator::new(catalog.clone(), seed, client);
    let mut out = Vec::new();
    for _ in 0..n {
        let line = match gen.next_op() {
            Op::Open { tenant } => format!("OPEN {}\n", open_body(&catalog.tenants[tenant])),
            Op::Query(q) => format!("QUERY {}\n", q.body),
            Op::Close => "CLOSE\n".to_string(),
            Op::Mutate(m) => format!("MUTATE {} {}\n", catalog.tenants[m.tenant].name, m.body),
        };
        out.extend_from_slice(line.as_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_core::{choose_mechanism_cached_at_epoch, Mode, TranslatorCache};
    use apex_mech::PreparedQuery;
    use apex_serve::{json, wire};

    #[test]
    fn one_seed_gives_a_byte_identical_stream_and_two_seeds_differ() {
        for kind in ALL_KINDS {
            let catalog = Arc::new(Catalog::build(kind));
            let a = render_stream(&catalog, 1, 0, 300);
            assert_eq!(a, render_stream(&catalog, 1, 0, 300), "{}", kind.name());
            assert_ne!(a, render_stream(&catalog, 2, 0, 300), "{}", kind.name());
            assert_ne!(a, render_stream(&catalog, 1, 1, 300), "{}", kind.name());
        }
    }

    #[test]
    fn every_generated_query_parses_and_compiles() {
        for kind in ALL_KINDS {
            let catalog = Arc::new(Catalog::build(kind));
            let mut gen = Generator::new(catalog.clone(), 3, 0);
            let mut tenant = 0;
            for _ in 0..60 {
                match gen.next_op() {
                    Op::Open { tenant: t } => tenant = t,
                    Op::Query(q) => {
                        let body = json::parse(&q.body).expect("body is JSON");
                        let (query, acc) = wire::parse_query_request(&body).expect("query parses");
                        assert!((acc.alpha() - q.alpha).abs() <= 1e-9 * q.alpha);
                        assert!((acc.beta() - q.beta).abs() <= 1e-12);
                        PreparedQuery::prepare(catalog.tenants[tenant].data.schema(), &query)
                            .expect("query compiles against its tenant");
                    }
                    Op::Mutate(m) => {
                        let body = json::parse(&m.body).expect("body is JSON");
                        let parsed = wire::parse_mutate_rows(&body).expect("mutation parses");
                        assert_eq!(parsed.rows, m.rows, "rows survive the JSON round trip");
                        for row in &m.rows {
                            catalog.tenants[m.tenant]
                                .data
                                .schema()
                                .validate_row(row)
                                .expect("row is inside the domain");
                        }
                    }
                    Op::Close => {}
                }
            }
        }
    }

    #[test]
    fn paged_mutating_alternates_insert_and_delete_of_the_same_rows() {
        let catalog = Arc::new(Catalog::build(Kind::PagedMutating));
        let mut gen = Generator::new(catalog.clone(), 5, 0);
        let mut mutations = Vec::new();
        let mut queries = 0;
        while mutations.len() < 4 {
            match gen.next_op() {
                Op::Query(_) => queries += 1,
                Op::Mutate(m) => {
                    assert_eq!(queries % QUERIES_PER_MUTATION, 0);
                    mutations.push(m);
                }
                _ => {}
            }
        }
        assert!(mutations[0].insert && !mutations[1].insert);
        assert_eq!(mutations[0].rows, mutations[1].rows);
        assert_ne!(mutations[0].rows, mutations[2].rows);
        // Client 1 only reads.
        let mut reader = Generator::new(catalog, 5, 1);
        assert!((0..400).all(|_| !matches!(reader.next_op(), Op::Mutate(_))));
    }

    #[test]
    fn fresh_cold_translate_workloads_really_miss_the_cache() {
        let catalog = Arc::new(Catalog::build(Kind::ColdTranslate));
        let cache = TranslatorCache::with_capacity(spec(Kind::ColdTranslate).cache_cap);
        let mut gen = Generator::new(catalog.clone(), 11, 0);
        let mut seen = 0;
        while seen < 50 {
            let Op::Query(q) = gen.next_op() else {
                continue;
            };
            let body = json::parse(&q.body).unwrap();
            let (query, acc) = wire::parse_query_request(&body).unwrap();
            let prepared =
                PreparedQuery::prepare(catalog.tenants[0].data.schema(), &query).unwrap();
            choose_mechanism_cached_at_epoch(
                &prepared,
                &acc,
                f64::INFINITY,
                Mode::Optimistic,
                Some(cache.handle()),
                0,
            )
            .unwrap()
            .expect("an unbounded budget admits some mechanism");
            seen += 1;
        }
        let stats = cache.stats();
        let ratio = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        assert!(
            stats.misses >= 50,
            "every fresh workload prepares: {stats:?}"
        );
        assert!(
            ratio < 0.05,
            "cache.hit_ratio on a 50-query dry run: {ratio}"
        );
    }
}
