//! `apex-request-bench` — the request-path benchmark of the APEx service.
//!
//! Starts the real service in-process (`ShardSet::recover`/`build` +
//! `serve_sharded`), drives it over real keep-alive sockets from two
//! closed-loop clients, checks what it answered against the ledger, and
//! — in a separate traced run — replays the same requests through each
//! layer's public functions. See `benchmark/README.md`.
//!
//! ```text
//! apex-request-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result object
//! apex-request-bench [--seed <n>] [--seconds <s>] [--smoke]
//!     every workload, untraced then traced, each in a fresh process;
//!     writes out/result-seed<n>.json
//! apex-request-bench compare <base.json> <new.json>
//! ```

mod check;
mod client;
mod gen;
mod ladder;
mod report;
mod run;
mod service;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use apex_serve::{json, Json};

use crate::gen::{Kind, ALL_KINDS};
use crate::report::{END_TO_END, PER_LAYER};
use crate::run::{out_dir, run_workload, Metric, Outcome, RunArgs};

/// Window of a full run's untraced workloads, as `BENCHMARK.json`'s
/// `run_seconds`.
const RUN_SECONDS: f64 = 20.0;
/// Window under `--smoke`: shape and checks, not numbers.
const SMOKE_SECONDS: f64 = 2.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: apex-request-bench [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>] [--smoke]\n\
         \x20      apex-request-bench compare <base.json> <new.json>\n\
         workloads: {}",
        ALL_KINDS.map(Kind::name).join(", ")
    );
    ExitCode::from(2)
}

struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Where a child of a full run leaves its detail document.
    detail: Option<String>,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => cli.smoke = true,
            "--workload" => cli.workload = Some(Kind::from_name(it.next()?)?),
            "--seed" => cli.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                cli.seconds = Some(it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?);
            }
            "--trace" => {
                cli.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--detail" => cli.detail = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    Some(cli)
}

fn print_metric(m: &Metric, bound: Option<f64>) {
    let bound = bound.map_or(String::new(), |b| format!("  (bound {:.0}%)", 100.0 * b));
    println!("  {:<34} {:>14.4} {}{bound}", m.name, m.value, m.unit);
}

/// Prints one run for people: every metric by name with its unit, then
/// the checks.
fn print_outcome(kind: Kind, cli: &Cli, seconds: f64, outcome: &Outcome) {
    println!(
        "{} (seed {}, {} s, {} closed-loop clients x 1 connection, tracing {}): {} answered queries",
        kind.name(),
        cli.seed,
        seconds,
        run::CLIENTS,
        if cli.trace { "on" } else { "off" },
        outcome.answered,
    );
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        let bound = END_TO_END
            .iter()
            .find(|e| e.name == m.name)
            .map(|e| e.bound);
        print_metric(m, bound);
    }
    if !outcome.extra.iter().any(|m| m.name == "mutate_ms_p50") && !cli.trace {
        println!(
            "  {:<34} {:>14} ms  (defined on paged_mutating only)",
            "mutate_ms_p50", "null"
        );
    }
    for c in &outcome.checks {
        println!(
            "  check {:<40} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for f in &outcome.failures {
        println!("  failure: {f}");
    }
}

/// One run of one workload (the `BENCHMARK.json` contract).
fn run_one(kind: Kind, cli: &Cli) -> ExitCode {
    let seconds = cli.seconds.unwrap_or(RUN_SECONDS);
    let outcome = run_workload(&RunArgs {
        kind,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
    });
    // The tables and the run must agree on what is reported.
    let want: Vec<(&str, &str)> = if cli.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, want, "reported metrics differ from the metric tables");

    print_outcome(kind, cli, seconds, &outcome);
    if let Some(path) = &cli.detail {
        std::fs::write(path, report::detail_json(&outcome).render()).expect("write detail");
    }
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a fresh child process
/// (so peak RSS is per workload), merged into one result file.
fn run_all(cli: &Cli) -> ExitCode {
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS
    });
    let exe = std::env::current_exe().expect("own path");
    std::fs::create_dir_all(out_dir()).expect("create out dir");
    let mut ok = true;
    let mut workloads = Vec::new();
    for kind in ALL_KINDS {
        let mut modes = Vec::new();
        for (mode, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let detail = out_dir().join(format!("detail-{}-{mode}.json", kind.name()));
            let status = Command::new(&exe)
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--detail")
                .arg(&detail)
                .stdin(Stdio::null())
                .status()
                .expect("spawn workload process");
            ok &= status.success();
            let doc = std::fs::read_to_string(&detail)
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .unwrap_or(Json::Null);
            let _ = std::fs::remove_file(&detail);
            modes.push((mode.to_string(), doc));
        }
        modes.insert(0, ("why".to_string(), Json::from(kind.why())));
        workloads.push((kind.name().to_string(), Json::Obj(modes)));
    }
    let result = Json::obj(vec![
        ("benchmark", Json::from("apex-request-bench")),
        ("fingerprint", report::fingerprint(cli.seed, seconds)),
        ("correct", Json::Bool(ok)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir().join(format!("result-seed{}.json", cli.seed));
    std::fs::write(&path, result.render() + "\n").expect("write result file");
    println!(
        "{}: wrote {}",
        if ok { "all checks passed" } else { "FAILED" },
        path.display()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            return usage();
        };
        return match report::print_compare(Path::new(base), Path::new(new)) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(cli) = parse_cli(&args) else {
        return usage();
    };
    match cli.workload {
        Some(kind) => run_one(kind, &cli),
        None => run_all(&cli),
    }
}
