//! Metric definitions, result files, the host fingerprint, and the
//! `compare` subcommand.

use std::path::Path;

use apex_serve::{json, Json};

use crate::gen::ALL_KINDS;
use crate::run::{Metric, Outcome, CLIENTS};
use crate::stats;

/// An end-to-end metric of the `BENCHMARK.json` contract: name, unit,
/// which direction is better, and the share of the parent's median by
/// which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Measured with tracing off, per workload. `mutate_ms_p50` and
/// `failed_share` are printed next to these but are not in the contract:
/// the first exists on one workload only, the second is zero on a
/// correct run (see the README).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "eps_per_answer",
        unit: "eps",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "rss_mb_peak",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// The per-layer metrics of a traced run: `(name, unit, better)`, in the
/// order a run reports them.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("http.healthz_rtt_us", "us", "lower"),
    ("http.socket_self_us", "us", "lower"),
    ("http.shed_503", "count", "lower"),
    ("json.parse_us", "us", "lower"),
    ("query.parse_us", "us", "lower"),
    ("wire.parse_query_us", "us", "lower"),
    ("wire.render_us", "us", "lower"),
    ("router.route_us", "us", "lower"),
    ("router.self_us", "us", "lower"),
    ("state.create_session_us", "us", "lower"),
    ("state.submit_us", "us", "lower"),
    ("state.submit_mem_us", "us", "lower"),
    ("state.self_us", "us", "lower"),
    ("state.mutate_rows_ms", "ms", "lower"),
    ("wal.append_sync_us", "us", "lower"),
    ("wal.append_nosync_us", "us", "lower"),
    ("wal.records", "count", "lower"),
    ("wal.bytes_per_record", "bytes", "lower"),
    ("snapshot.compact_ms", "ms", "lower"),
    ("snapshot.recover_ms", "ms", "lower"),
    ("engine.evaluate_us", "us", "lower"),
    ("engine.commit_us", "us", "lower"),
    ("translator.choose_hit_us", "us", "lower"),
    ("translator.choose_miss_ms", "ms", "lower"),
    ("mech.prepare_query_us", "us", "lower"),
    ("mech.run_us", "us", "lower"),
    ("data.histogram_us", "us", "lower"),
    ("data.scan_ns_per_row", "ns", "lower"),
    ("store.scan_ns_per_row", "ns", "lower"),
    ("store.insert_k64_ms", "ms", "lower"),
    ("store.bytes_on_disk_per_row", "bytes", "lower"),
    ("trace.unaccounted_share", "share", "lower"),
    ("engine.denied", "count", "lower"),
    ("engine.stale_epoch", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("mech.count_lm", "count", "higher"),
    ("mech.count_sm", "count", "higher"),
    ("mech.count_mpm", "count", "higher"),
    ("mech.count_ltm", "count", "higher"),
    ("store.pool_hit_ratio", "ratio", "higher"),
    ("store.pool_evictions", "count", "lower"),
    ("store.pool_flushes", "count", "lower"),
    ("data.epoch_final", "count", "higher"),
    ("client.samples", "count", "higher"),
    ("client.query_ms_p99", "ms", "lower"),
    ("client.query_ms_max", "ms", "lower"),
    ("client.deny_ms_p50", "ms", "lower"),
    ("client.open_ms_p50", "ms", "lower"),
    ("client.close_ms_p50", "ms", "lower"),
    ("client.mutate_ms_p50", "ms", "lower"),
    ("client.mutate_ms_p95", "ms", "lower"),
    ("client.stale_epoch_retries", "count", "lower"),
    ("client.slice_qps_iqr_share", "share", "lower"),
    ("client.accuracy_violation_share", "share", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.overhead_share", "share", "lower"),
];

/// `{"name": {"value": v, "unit": u}, …}` — the `metrics` object of the
/// contract's result line.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line a single-workload run prints: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
    .render()
}

/// Everything else a run knows, for the result file of a full run.
pub fn detail_json(outcome: &Outcome) -> Json {
    let metric = |m: &Metric| {
        (
            m.name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::from(m.unit)),
                (
                    "slices",
                    Json::Arr(m.slices.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
        )
    };
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("answered", Json::from(outcome.answered)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .chain(&outcome.extra)
                    .map(metric)
                    .collect(),
            ),
        ),
        (
            "checks",
            Json::Arr(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::from(c.name.as_str())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point of `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Where the numbers came from: host, toolchain, commit, and the load
/// generator's shape. Part of every result.
pub fn fingerprint(seed: u64, seconds: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name").map(str::to_string))
        })
        .map_or("unknown".into(), |l| {
            l.trim_start_matches([' ', '\t', ':']).to_string()
        });
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let per_workload: Vec<(String, Json)> = ALL_KINDS
        .iter()
        .map(|&k| {
            let s = crate::gen::spec(k);
            (
                k.name().to_string(),
                Json::obj(vec![
                    ("shards", Json::from(s.shards)),
                    ("workers_per_shard", Json::from(s.workers_per_shard)),
                    ("durable", Json::Bool(s.durable)),
                    ("paged", Json::Bool(s.paged)),
                    ("translator_cache_capacity", Json::from(s.cache_cap)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cpu", Json::from(cpu)),
        (
            "scratch_filesystem",
            Json::from(filesystem_of(manifest_dir)),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("clients", Json::from(CLIENTS)),
        ("connections_per_client", Json::from(1usize)),
        (
            "loop",
            Json::from(
                "closed: a client sends its next request only after the previous answer \
                 (an analyst's next query depends on the last one)",
            ),
        ),
        ("seed", Json::from(seed)),
        ("window_seconds", Json::Num(seconds)),
        ("slice_seconds", Json::Num(crate::run::SLICE_SECONDS)),
        ("workloads", Json::Obj(per_workload)),
    ])
}

/// One row of `compare`.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// `(new - base) / base`, signed so that positive is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

/// Compares two result files metric by metric. A pair whose slice spread
/// (interquartile range over the median, on either side) exceeds the
/// bound is *unresolved*: the run cannot tell a change that small from
/// its own noise, so it must not be read as *unchanged*.
pub fn compare(base: &Json, new: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in ALL_KINDS {
        for m in &END_TO_END {
            let field = |doc: &Json, key: &str| {
                doc.get("workloads")?
                    .get(kind.name())?
                    .get("end_to_end")?
                    .get("metrics")?
                    .get(m.name)?
                    .get(key)
                    .cloned()
            };
            let value = |doc: &Json| field(doc, "value").and_then(|v| v.as_f64());
            let spread = |doc: &Json| {
                let slices: Vec<f64> = field(doc, "slices")
                    .and_then(|s| s.as_arr().map(<[Json]>::to_vec))
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                stats::iqr_share(&slices)
            };
            let (Some(b), Some(n)) = (value(base), value(new)) else {
                continue;
            };
            let delta = (n - b) / b;
            let worse_by = if m.better == "higher" { -delta } else { delta };
            let noisy = spread(base).max(spread(new)) > m.bound;
            let verdict = if noisy {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else if worse_by < -m.bound {
                "better"
            } else {
                "unchanged"
            };
            rows.push(Row {
                workload: kind.name().to_string(),
                metric: m.name.to_string(),
                base: b,
                new: n,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// Prints `compare`'s table; returns whether any pair got worse.
pub fn print_compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let rows = compare(&load(base_path)?, &load(new_path)?);
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<15} {:<15} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.verdict
        );
    }
    Ok(rows.iter().any(|r| r.verdict == "worse"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;

    fn outcome() -> Outcome {
        let mut p50 = Metric::new("query_ms_p50", 1.2034, "ms");
        p50.slices = vec![1.2, 1.25, 1.2034];
        Outcome {
            attempted: 1000,
            failed: 0,
            failures: vec!["a \"quoted\" failure".into()],
            checks: vec![Check {
                name: "live.spent_within_budget".into(),
                ok: true,
                detail: String::new(),
            }],
            metrics: vec![p50, Metric::new("setup_s", 0.8127, "s")],
            extra: vec![Metric::new("failed_share", 0.0, "share")],
            answered: 990,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome());
        assert!(!line.contains('\n'));
        let Json::Obj(pairs) = json::parse(&line).unwrap() else {
            panic!("result line is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Json::Obj(pairs);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("query_ms_p50"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(
            line.contains("\"value\":1.2034"),
            "all digits, as measured: {line}"
        );
    }

    #[test]
    fn the_detail_document_round_trips_through_the_writer() {
        let doc = detail_json(&outcome());
        let back = json::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        let slices = back
            .get("metrics")
            .and_then(|m| m.get("query_ms_p50"))
            .and_then(|m| m.get("slices"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(slices.len(), 3);
        assert!(back
            .get("metrics")
            .and_then(|m| m.get("failed_share"))
            .is_some());
    }

    #[test]
    fn metric_tables_name_each_metric_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let kinds: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
        assert_eq!(names("workloads"), kinds);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), layers);
        for (m, want) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(want.better));
        }
    }

    fn result_doc(p50: f64, slices: &[f64]) -> Json {
        let metric = Json::obj(vec![
            ("value", Json::Num(p50)),
            (
                "slices",
                Json::Arr(slices.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]);
        let workload = Json::obj(vec![(
            "end_to_end",
            Json::obj(vec![("metrics", Json::obj(vec![("query_ms_p50", metric)]))]),
        )]);
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![("explore_hot", workload)]),
        )])
    }

    #[test]
    fn compare_tells_unresolved_from_unchanged() {
        let steady = [5.0, 5.01, 4.99, 5.0, 5.02, 4.98];
        let noisy = [5.0, 6.5, 4.0, 5.0, 7.0, 3.5];
        let bound = END_TO_END[1].bound;
        let verdict = |new: f64, slices: &[f64]| {
            compare(&result_doc(5.0, &steady), &result_doc(new, slices))[0].verdict
        };
        assert_eq!(verdict(5.0 * (1.0 + bound / 2.0), &steady), "unchanged");
        assert_eq!(verdict(5.0 * (1.0 + bound + 0.05), &steady), "worse");
        assert_eq!(verdict(5.0 * (1.0 - bound - 0.05), &steady), "better");
        // The same medians, but one side's slices spread wider than the
        // bound: the pair says nothing either way.
        assert_eq!(verdict(5.0 * (1.0 + bound / 2.0), &noisy), "unresolved");
        let rows = compare(&result_doc(5.0, &steady), &result_doc(5.5, &steady));
        assert_eq!(rows.len(), 1, "metrics missing on either side are skipped");
        assert!((rows[0].worse_by - 0.1).abs() < 1e-12);
    }
}
