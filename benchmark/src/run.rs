//! One run of one workload: set-up, the closed-loop socket window(s),
//! the checks, and (with tracing) the layer ladder.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apex_serve::ShardSet;

use crate::check::{self, Check};
use crate::client::{Class, Client, Conn, Sample, Transport, Until, WindowLog};
use crate::gen::{self, Catalog, Kind, Op, Spec};
use crate::ladder::Ladder;
use crate::service::{build_set, Service};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Closed-loop clients, one keep-alive connection each: an analyst's
/// next query depends on the last answer, and this host has two cores.
pub const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median (one set-up is a
/// fraction of a second, so a single reading would mostly be noise).
const SETUPS: usize = 7;
/// A traced run spends `--seconds` on four socket windows of this share
/// each and on the ladder.
const TRACE_WINDOW_SHARE: f64 = 0.1;
/// Length of a slice of a measured window, and the share of slices (the
/// quietest) the headline figures are taken over.
pub const SLICE_SECONDS: f64 = 0.5;
const QUIET_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.5;

/// A reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Per-slice values, where the metric has them (spread, `compare`).
    pub slices: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            slices: Vec::new(),
        }
    }
}

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Figures printed for people but outside the `BENCHMARK.json`
    /// contract (`mutate_ms_p50` where defined, `failed_share`).
    pub extra: Vec<Metric>,
    pub answered: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Where this process keeps its files: `benchmark/out` of the checkout
/// the binary was built in (the benchmark writes nowhere else).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch tree removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = out_dir().join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Flushes dirty filesystem state left by earlier runs (deleted scratch
/// trees, build outputs) and lets the journal settle, so one run's
/// cleanup does not tax the next one's fsyncs.
fn settle_fs() {
    let _ = std::process::Command::new("sync").status();
    std::thread::sleep(Duration::from_millis(200));
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn rss_mb_peak() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A served workload with its warmed-up clients.
struct Live {
    catalog: Arc<Catalog>,
    service: Service,
    clients: Vec<Client>,
}

/// Set-up: synthesize the tenants, ingest/recover/bind, warm up.
fn set_up(spec: &Spec, seed: u64, root: &Path) -> Live {
    let catalog = Arc::new(Catalog::build(spec.kind));
    let service = Service::start(spec, &catalog, seed, root);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| {
            let conn = Conn::connect(service.addr).expect("client connect");
            Client::new(i, catalog.clone(), seed, Box::new(conn))
        })
        .collect();
    drive(
        &mut clients,
        Until::Sessions(spec.warm_sessions),
        None,
        None,
    );
    Live {
        catalog,
        service,
        clients,
    }
}

/// Runs every client on its own thread until `until`.
fn drive(
    clients: &mut [Client],
    until: Until,
    logs: Option<&mut [WindowLog]>,
    tracers: Option<&mut [Tracer]>,
) {
    let mut logs = logs.map(|l| l.iter_mut());
    let mut tracers = tracers.map(|t| t.iter_mut());
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let log = logs.as_mut().and_then(Iterator::next);
            let tracer = tracers.as_mut().and_then(Iterator::next);
            scope.spawn(move || client.run(until, log, tracer));
        }
    });
}

/// One measured window of `seconds` over all clients.
fn window(clients: &mut [Client], seconds: f64, tracers: Option<&mut [Tracer]>) -> Vec<WindowLog> {
    let mut logs: Vec<WindowLog> = clients.iter().map(|_| WindowLog::default()).collect();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    drive(
        clients,
        Until::Window { start, end },
        Some(&mut logs),
        tracers,
    );
    logs
}

fn samples_of<'a>(
    logs: impl IntoIterator<Item = &'a WindowLog>,
    class: Class,
) -> impl Iterator<Item = &'a Sample> {
    logs.into_iter()
        .flat_map(|l| &l.samples)
        .filter(move |s| s.class == class)
}

/// Sorted latencies (ms) of one class of operation.
fn latencies_ms<'a>(logs: impl IntoIterator<Item = &'a WindowLog>, class: Class) -> Vec<f64> {
    let mut v: Vec<f64> = samples_of(logs, class)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    stats::sort(&mut v);
    v
}

/// The headline figures of a window: median and p95 latency of the
/// answered queries, and their rate.
///
/// The host is shared, and other tenants' load only ever slows a stretch
/// of the window down — so the window is cut into half-second slices,
/// the slices are ranked by their own median latency, and the figures
/// are taken over the pooled samples of the quietest fifth. A change
/// to the system moves every slice; a noisy neighbour moves some. The
/// whole-window figures are reported next to these (`*_whole`), and each
/// metric keeps its per-slice values (the spread `compare` judges by).
struct Headline {
    p50: Metric,
    p95: Metric,
    qps: Metric,
    whole: Vec<Metric>,
    answered: u64,
}

fn headline(logs: &[WindowLog], seconds: f64) -> Headline {
    let slices = ((seconds / SLICE_SECONDS).round() as usize).max(1);
    let slice_ns = seconds * 1e9 / slices as f64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for s in samples_of(logs, Class::Query) {
        let k = ((s.end_ns as f64 / slice_ns) as usize).min(slices - 1);
        per_slice[k].push(s.dur_ns as f64 / 1e6);
    }
    let pick = stats::supported_percentile;
    let mut p50 = Metric::new("query_ms_p50", 0.0, "ms");
    let mut p95 = Metric::new("query_ms_p95", 0.0, "ms");
    let mut qps = Metric::new("queries_per_s", 0.0, "1/s");
    for slice in &mut per_slice {
        stats::sort(slice);
        p50.slices.push(pick(slice, 50.0));
        p95.slices.push(pick(slice, 95.0));
        qps.slices.push(slice.len() as f64 / (slice_ns / 1e9));
    }
    // The quietest fifth: non-empty slices, lowest median latency first.
    let mut order: Vec<usize> = (0..slices).filter(|&k| !per_slice[k].is_empty()).collect();
    order.sort_by(|&a, &b| p50.slices[a].partial_cmp(&p50.slices[b]).expect("no NaN"));
    order.truncate(((order.len() as f64 * QUIET_SHARE).ceil() as usize).max(1));
    let mut quiet: Vec<f64> = order
        .iter()
        .flat_map(|&k| per_slice[k].iter().copied())
        .collect();
    stats::sort(&mut quiet);
    p50.value = pick(&quiet, 50.0);
    p95.value = pick(&quiet, 95.0);
    qps.value = quiet.len() as f64 / (order.len().max(1) as f64 * slice_ns / 1e9);

    let all = latencies_ms(logs, Class::Query);
    let whole = vec![
        Metric::new("query_ms_p50_whole", pick(&all, 50.0), "ms"),
        Metric::new("query_ms_p95_whole", pick(&all, 95.0), "ms"),
        Metric::new("queries_per_s_whole", all.len() as f64 / seconds, "1/s"),
    ];
    Headline {
        p50,
        p95,
        qps,
        whole,
        answered: all.len() as u64,
    }
}

/// Runs the workload once and reports what the mode asks for.
pub fn run_workload(args: &RunArgs) -> Outcome {
    settle_fs();
    let spec = gen::spec(args.kind);
    let scratch = Scratch::new();
    let origin = Instant::now();

    // The first set-up — on this process's fresh heap, like a server
    // just started — is the instance measured. An untraced run sets up
    // again after the measurement, and `setup_s` is the median of all.
    let root = scratch.0.join("setup-0");
    let started = Instant::now();
    let Live {
        catalog,
        service,
        mut clients,
    } = set_up(&spec, args.seed, &root);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    // A traced run builds the ladder's twins now, on the same fresh heap
    // as the instance it serves.
    let ladder_scratch = scratch.0.join("ladder");
    let ladder = args.trace.then(|| {
        let budget = Duration::from_secs_f64(args.seconds * LADDER_SHARE);
        Ladder::new(&spec, &catalog, args.seed, &ladder_scratch, budget, origin)
    });

    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let answered;
    let mut rss = 0.0;
    let mut traced = None;
    if args.trace {
        // Four socket windows, alternately untraced and traced — so drift
        // over the run cancels out of their difference, the tracing
        // overhead — then the ladder.
        let each = args.seconds * TRACE_WINDOW_SHARE;
        let mut tracers: Vec<Tracer> = (0..CLIENTS)
            .map(|i| Tracer::new(origin, (i as u64 + 1) << 48))
            .collect();
        let mut plain = window(&mut clients, each, None);
        let mut logs = window(&mut clients, each, Some(&mut tracers));
        plain.extend(window(&mut clients, each, None));
        logs.extend(window(&mut clients, each, Some(&mut tracers)));
        let seen = |class| {
            samples_of(plain.iter().chain(&logs), class)
                .next()
                .is_some()
        };
        let (deny, mutate) = (!seen(Class::Deny), !seen(Class::Mutate));
        probe_tail(
            &catalog,
            &mut clients[0],
            &mut logs[0],
            &mut tracers[0],
            deny,
            mutate,
        );
        let healthz_us = healthz_rtt_us(&service);
        spans.extend(tracers.into_iter().flat_map(|t| t.spans));
        answered = samples_of(plain.iter().chain(&logs), Class::Query).count() as u64;
        traced = Some((plain, logs, each, healthz_us));
    } else {
        let logs = window(&mut clients, args.seconds, None);
        // Peak RSS of the serving process through set-up and the window.
        // Read here: what the checks below allocate (a second copy of the
        // tenants for the cold recovery) is the benchmark's, not the
        // service's.
        rss = rss_mb_peak();
        let h = headline(&logs, args.seconds);
        answered = h.answered;
        let epsilon: f64 = logs.iter().map(|l| l.epsilon).sum();
        metrics.extend([h.p50, h.p95, h.qps]);
        extra.extend(h.whole);
        metrics.push(Metric::new(
            "eps_per_answer",
            epsilon / answered.max(1) as f64,
            "eps",
        ));
        let mutate = latencies_ms(&logs, Class::Mutate);
        if !mutate.is_empty() {
            extra.push(Metric::new(
                "mutate_ms_p50",
                stats::percentile(&mutate, 50.0),
                "ms",
            ));
        }
    }

    // Live counters, then stop the server and check what it left.
    let set = service.stop();
    let live_counters = LiveCounters::read(&set, &catalog);
    let wire = check::wire_ledger(&catalog, &clients);
    let mut checks = check::ledger_checks(&set, &catalog, &wire, "live");
    checks.push(check::denial_check(&set, &catalog, &wire));
    checks.push(check::mutation_check(&set, &catalog, &clients, "live"));
    let wcq: Vec<_> = clients.iter().flat_map(|c| &c.wcq).collect();
    let accuracy = check::accuracy_check(&catalog, &wcq);
    checks.push(accuracy.check.clone());
    drop(set);
    // Cold recovery of what the run left on disk. A memory-only workload
    // left nothing; its traced run still times the recovery of an empty
    // directory so `snapshot.recover_ms` is measured on every workload.
    let mut recovered = None;
    if spec.durable || args.trace {
        let dir = if spec.durable {
            root
        } else {
            scratch.0.join("empty")
        };
        let started = Instant::now();
        let set = build_set(&spec, &catalog, args.seed, &dir, true);
        recovered = Some((set, (started, Instant::now())));
    }
    if let (true, Some((set, _))) = (spec.durable, &recovered) {
        checks.extend(check::ledger_checks(set, &catalog, &wire, "recovered"));
        checks.push(check::mutation_check(set, &catalog, &clients, "recovered"));
    }

    let mut attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = clients.iter().map(|c| c.failed).sum();
    let mut failures: Vec<String> = clients.iter().flat_map(|c| c.failures.clone()).collect();
    for c in &checks {
        attempted += 1;
        if !c.ok {
            failed += 1;
            failures.push(format!("check {}: {}", c.name, c.detail));
        }
    }

    if let Some((plain, logs, each, healthz_us)) = traced {
        let (recovered, recover_span) = recovered.expect("a traced run always recovers");
        let ladder = ladder.expect("a traced run builds its ladder at set-up");
        let (rungs, replay) = ladder.run(recovered, recover_span);
        attempted += replay.attempted;
        failed += replay.failed;
        failures.extend(replay.failures);
        spans.extend(rungs.spans);
        metrics = per_layer_metrics(
            &clients,
            &plain,
            &logs,
            each,
            healthz_us,
            &live_counters,
            &accuracy,
            &rungs.metrics,
            spans.len(),
        );
        let path = out_dir().join(format!("trace-{}.jsonl", args.kind.name()));
        trace::write_jsonl(&path, &spans).expect("write trace");
    } else {
        drop(recovered);
        drop((clients, catalog));
        for i in 1..SETUPS {
            let root = scratch.0.join(format!("setup-{i}"));
            let started = Instant::now();
            let again = set_up(&spec, args.seed, &root);
            setup_s.push(started.elapsed().as_secs_f64());
            drop(again.service.stop());
            let _ = std::fs::remove_dir_all(&root);
        }
        let mut setup = Metric::new("setup_s", stats::median(&setup_s), "s");
        setup.slices = setup_s;
        metrics.insert(0, setup);
        metrics.push(Metric::new("rss_mb_peak", rss, "MB"));
    }

    extra.push(Metric::new(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    ));
    Outcome {
        attempted,
        failed,
        failures,
        checks,
        metrics,
        extra,
        answered,
    }
}

/// Counters read from the live state before it is dropped.
pub struct LiveCounters {
    cache: apex_mech::CacheStats,
    engine_denied: u64,
    pool: apex_data::PoolStats,
    epoch_final: u64,
}

impl LiveCounters {
    fn read(set: &ShardSet, catalog: &Catalog) -> Self {
        let mut engine_denied = 0;
        let mut pool = apex_data::PoolStats::default();
        for state in set.states() {
            for (_, tenant) in state.tenants() {
                engine_denied += tenant.engine.export_ledger().denied as u64;
                if let Some(p) = tenant.store_stats() {
                    pool = pool.merge(&p);
                }
            }
        }
        let first = &catalog.tenants[0].name;
        let epoch_final = set
            .owner(first)
            .tenant(first)
            .map_or(0, |t| t.engine.epoch());
        Self {
            cache: set.state(0).cache().stats(),
            engine_denied,
            pool,
            epoch_final,
        }
    }
}

/// Median round trip of a keep-alive `GET /healthz`: the event loop
/// answers it inline, so this is the socket + event-loop floor.
fn healthz_rtt_us(service: &Service) -> f64 {
    let mut conn = Conn::connect(service.addr).expect("healthz connect");
    let rtts: Vec<f64> = (0..400)
        .filter_map(|_| {
            let t = Instant::now();
            let resp = conn.request("GET", "/healthz", "");
            matches!(resp, Ok((200, _))).then(|| t.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect();
    stats::median(&rtts)
}

/// Denials and mutation batches for the workloads whose stream has none,
/// so `client.deny_ms_p50` and `client.mutate_ms_*` are measured — never
/// assumed — on every workload. Runs after the traced window on an
/// otherwise idle server; the acks enter the same ledgers the checks read.
fn probe_tail(
    catalog: &Arc<Catalog>,
    client: &mut Client,
    log: &mut WindowLog,
    tracer: &mut Tracer,
    deny: bool,
    mutate: bool,
) {
    let mut ops = Vec::new();
    if deny {
        ops.push(Op::Open { tenant: 0 });
        ops.extend((0..16).map(|_| Op::Query(gen::probe_deny_query(catalog))));
        ops.push(Op::Close);
    }
    if mutate {
        let mut rng = rand::SeedableRng::seed_from_u64(0x9206E);
        for _ in 0..4 {
            let (insert, delete) = gen::mutation_pair(catalog, 0, &mut rng);
            ops.extend([Op::Mutate(insert), Op::Mutate(delete)]);
        }
    }
    client.run_ops(ops, log, tracer);
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    clients: &[Client],
    plain: &[WindowLog],
    traced: &[WindowLog],
    each: f64,
    healthz_us: f64,
    live: &LiveCounters,
    accuracy: &check::Accuracy,
    rungs: &[Metric],
    span_count: usize,
) -> Vec<Metric> {
    let rung = |name: &str| {
        rungs
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let all = |class| latencies_ms(plain.iter().chain(traced), class);
    let p = stats::supported_percentile;
    let queries = all(Class::Query);
    let mutates = all(Class::Mutate);
    let plain_p50 = p(&latencies_ms(plain, Class::Query), 50.0);
    let traced_p50 = p(&latencies_ms(traced, Class::Query), 50.0);
    // Rate per socket window (each window's logs hold one entry per client).
    let slice_qps: Vec<f64> = plain
        .chunks(CLIENTS)
        .chain(traced.chunks(CLIENTS))
        .map(|w| samples_of(w, Class::Query).count() as f64 / each)
        .collect();
    let lookups = (live.cache.hits + live.cache.misses).max(1) as f64;
    let pins = (live.pool.hits + live.pool.misses).max(1) as f64;
    let sum = |f: fn(&Client) -> u64| clients.iter().map(f).sum::<u64>() as f64;
    // Indexed as `client::MECHANISMS`: LM, SM, MPM, LTM.
    let mech = |i: usize| clients.iter().map(|c| c.mech_counts[i]).sum::<u64>() as f64;

    let mut out = vec![
        Metric::new("http.healthz_rtt_us", healthz_us, "us"),
        Metric::new(
            "http.socket_self_us",
            traced_p50 * 1e3 - rung("router.route_us"),
            "us",
        ),
        Metric::new("http.shed_503", sum(Client::shed_503), "count"),
    ];
    out.extend(rungs.iter().cloned());
    out.extend([
        Metric::new("engine.denied", live.engine_denied as f64, "count"),
        Metric::new("engine.stale_epoch", sum(|c| c.stale_retries), "count"),
        Metric::new("cache.hit_ratio", live.cache.hits as f64 / lookups, "ratio"),
        Metric::new("cache.evictions", live.cache.evictions as f64, "count"),
        Metric::new("mech.count_lm", mech(0), "count"),
        Metric::new("mech.count_sm", mech(1), "count"),
        Metric::new("mech.count_mpm", mech(2), "count"),
        Metric::new("mech.count_ltm", mech(3), "count"),
        Metric::new(
            "store.pool_hit_ratio",
            live.pool.hits as f64 / pins,
            "ratio",
        ),
        Metric::new("store.pool_evictions", live.pool.evictions as f64, "count"),
        Metric::new("store.pool_flushes", live.pool.flushes as f64, "count"),
        Metric::new("data.epoch_final", live.epoch_final as f64, "count"),
        Metric::new("client.samples", queries.len() as f64, "count"),
        Metric::new("client.query_ms_p99", p(&queries, 99.0), "ms"),
        Metric::new(
            "client.query_ms_max",
            queries.last().copied().unwrap_or(0.0),
            "ms",
        ),
        Metric::new("client.deny_ms_p50", p(&all(Class::Deny), 50.0), "ms"),
        Metric::new("client.open_ms_p50", p(&all(Class::Open), 50.0), "ms"),
        Metric::new("client.close_ms_p50", p(&all(Class::Close), 50.0), "ms"),
        Metric::new("client.mutate_ms_p50", p(&mutates, 50.0), "ms"),
        Metric::new("client.mutate_ms_p95", p(&mutates, 95.0), "ms"),
        Metric::new(
            "client.stale_epoch_retries",
            sum(|c| c.stale_retries),
            "count",
        ),
        Metric::new(
            "client.slice_qps_iqr_share",
            stats::iqr_share(&slice_qps),
            "share",
        ),
        Metric::new(
            "client.accuracy_violation_share",
            accuracy.violations as f64 / accuracy.checked.max(1) as f64,
            "share",
        ),
        Metric::new("trace.spans", span_count as f64, "count"),
        Metric::new(
            "trace.overhead_share",
            traced_p50 / plain_p50 - 1.0,
            "share",
        ),
    ]);
    out
}
