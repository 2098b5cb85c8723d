//! `bench_gate` — the CI bench-regression gate.
//!
//! The `--quick` smoke runs of `cargo bench --bench mc_translate` and
//! `cargo bench --bench serve_soak` each write their medians to a
//! scratch JSON. This checker compares each scratch file against its
//! committed full-run counterpart (`BENCH_mc_translate.json`,
//! `BENCH_serve_soak.json`) two ways and fails when they drift apart.
//! Any number of `<committed> <smoke>` pairs can be checked in one
//! invocation; violations accumulate across all of them.
//!
//! **Shape rules** (all groups — this is how benches rot silently: a
//! group stops being measured but the stale committed numbers keep
//! telling a good story):
//!
//! 1. every committed group must appear in the smoke run;
//! 2. the smoke run must not contain groups the committed file has never
//!    recorded (a new group belongs in a regenerated committed file);
//! 3. within a shared group, every domain point the smoke run measured
//!    must exist in the committed file (quick runs a *subset* of the full
//!    domains, never new ones);
//! 4. no shared group may be empty in the smoke run.
//!
//! **Regression rule** (the `translator_prepare_multi`, `serve_soak`,
//! `dataset_store` and `mutate` groups only — the prepare medians, soak
//! ns/session, store ingest/open/scan and mutation medians are the perf
//! numbers this repo actually promises, and they are stable enough on a
//! quiet CI runner to gate on):
//!
//! 5. for every id measured by both runs in a regression-gated group, the
//!    smoke median must not exceed the committed median by more than the
//!    group's tolerance (default 25%, override per group with repeatable
//!    `--tolerance group=pct` flags).
//!
//! The committed medians come from a *full* run; the smoke run measures
//! the same configurations at domains 64/256 with fewer criterion
//! samples, so the comparison is like-for-like per id and the tolerance
//! absorbs sampling noise plus runner-to-runner variance. A smoke median
//! *below* the committed one never fails (faster is not a regression;
//! refreshing the committed file is a full-run concern).
//!
//! Usage: `bench_gate <committed.json> <smoke.json> [<committed2.json>
//! <smoke2.json>]… [--tolerance g=pct]…`; exits non-zero with one line
//! per violation.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use apex_serve::json::{self, Json};

/// Groups whose medians are gated (rule 5), not just their shape.
/// `serve_soak` medians are ns/session, so "smoke must not exceed
/// committed by more than the tolerance" reads as a throughput floor.
const REGRESS_GROUPS: &[&str] = &[
    "translator_prepare_multi",
    "serve_soak",
    "dataset_store",
    "mutate",
];

/// Rule 5's default allowance for a smoke median over the committed one.
const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

/// group → set of ids, and group → set of trailing numeric domain points.
type Shape = BTreeMap<String, (BTreeSet<String>, BTreeSet<usize>)>;

/// (group, id) → median_ns.
type Medians = BTreeMap<(String, String), f64>;

fn load(path: &str) -> Result<(Shape, Medians), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"results\" array"))?;
    let mut shape = Shape::new();
    let mut medians = Medians::new();
    for r in results {
        let group = r
            .get("group")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: result without \"group\""))?;
        let id = r
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: result without \"id\""))?;
        let entry = shape.entry(group.to_string()).or_default();
        entry.0.insert(id.to_string());
        if let Some(domain) = id.rsplit('/').next().and_then(|n| n.parse::<usize>().ok()) {
            entry.1.insert(domain);
        }
        if let Some(m) = r.get("median_ns").and_then(Json::as_f64) {
            medians.insert((group.to_string(), id.to_string()), m);
        }
    }
    Ok((shape, medians))
}

/// Parses repeatable `--tolerance group=pct` overrides (rule 5);
/// `Err` on malformed syntax, non-numeric or negative percentages.
fn parse_tolerances(args: &[String]) -> Result<BTreeMap<String, f64>, String> {
    let mut tolerances = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a != "--tolerance" {
            return Err(format!("unexpected argument \"{a}\""));
        }
        let spec = it
            .next()
            .ok_or_else(|| "missing group=pct after --tolerance".to_string())?;
        let (group, pct) = spec
            .split_once('=')
            .ok_or_else(|| format!("--tolerance \"{spec}\" is not group=pct"))?;
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("--tolerance \"{spec}\": \"{pct}\" is not a number"))?;
        if !pct.is_finite() || pct < 0.0 {
            return Err(format!(
                "--tolerance \"{spec}\": percentage must be finite and >= 0"
            ));
        }
        tolerances.insert(group.to_string(), pct);
    }
    Ok(tolerances)
}

fn run(
    committed_path: &str,
    smoke_path: &str,
    tolerances: &BTreeMap<String, f64>,
) -> Result<Vec<String>, String> {
    let (committed, committed_medians) = load(committed_path)?;
    let (smoke, smoke_medians) = load(smoke_path)?;
    let mut violations = Vec::new();

    for (group, (_, committed_domains)) in &committed {
        let Some((smoke_ids, smoke_domains)) = smoke.get(group) else {
            violations.push(format!(
                "group \"{group}\" is in {committed_path} but the smoke run no longer measures it"
            ));
            continue;
        };
        if smoke_ids.is_empty() {
            violations.push(format!("group \"{group}\" is empty in the smoke run"));
        }
        for d in smoke_domains {
            if !committed_domains.contains(d) {
                violations.push(format!(
                    "group \"{group}\" measured domain {d} which {committed_path} has never \
                     recorded — regenerate the committed file with a full bench run"
                ));
            }
        }
        if REGRESS_GROUPS.contains(&group.as_str()) {
            let tol = tolerances
                .get(group)
                .copied()
                .unwrap_or(DEFAULT_TOLERANCE_PCT);
            for id in smoke_ids {
                let key = (group.clone(), id.clone());
                let (Some(&was), Some(&now)) =
                    (committed_medians.get(&key), smoke_medians.get(&key))
                else {
                    continue;
                };
                if now > was * (1.0 + tol / 100.0) {
                    violations.push(format!(
                        "group \"{group}\" id \"{id}\" regressed: smoke median {:.1} ms vs \
                         committed {:.1} ms (+{:.0}% > {tol:.0}% tolerance)",
                        now / 1e6,
                        was / 1e6,
                        (now / was - 1.0) * 100.0,
                    ));
                }
            }
        }
    }
    for group in smoke.keys() {
        if !committed.contains_key(group) {
            violations.push(format!(
                "smoke run measured new group \"{group}\" missing from {committed_path} — \
                 regenerate the committed file with a full bench run"
            ));
        }
    }
    Ok(violations)
}

const USAGE: &str = "usage: bench_gate <committed.json> <smoke.json> \
     [<committed2.json> <smoke2.json>]... [--tolerance group=pct]...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Positional args (the file pairs) end where the flags begin.
    let flags_at = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (pairs, flags) = args.split_at(flags_at);
    if pairs.len() < 2 || pairs.len() % 2 != 0 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let tolerances = match parse_tolerances(flags) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: ERROR: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for pair in pairs.chunks(2) {
        let (committed, smoke) = (&pair[0], &pair[1]);
        match run(committed, smoke, &tolerances) {
            Ok(violations) if violations.is_empty() => {
                println!("bench_gate: OK — {smoke} matches {committed} (shape + gated medians)");
            }
            Ok(violations) => {
                for v in &violations {
                    eprintln!("bench_gate: FAIL: {v}");
                }
                failed = true;
            }
            Err(e) => {
                eprintln!("bench_gate: ERROR: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(format!("bench_gate_test_{name}.json"));
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn doc_with_medians(entries: &[(&str, &str, f64)]) -> String {
        let rows: Vec<String> = entries
            .iter()
            .map(|(g, i, m)| {
                format!("{{\"group\": \"{g}\", \"id\": \"{i}\", \"median_ns\": {m:.1}, \"mean_ns\": {m:.1}, \"min_ns\": {m:.1}, \"samples\": 1, \"iters_per_sample\": 1}}")
            })
            .collect();
        format!(
            "{{\"bench\": \"mc_translate\", \"results\": [{}]}}",
            rows.join(",")
        )
    }

    fn doc(entries: &[(&str, &str)]) -> String {
        let with: Vec<(&str, &str, f64)> = entries.iter().map(|&(g, i)| (g, i, 1.0)).collect();
        doc_with_medians(&with)
    }

    fn no_tol() -> BTreeMap<String, f64> {
        BTreeMap::new()
    }

    #[test]
    fn matching_shapes_pass() {
        let committed = write_tmp(
            "c1",
            &doc(&[
                ("translator_prepare_multi", "blocked/64"),
                ("translator_prepare_multi", "blocked/4096"),
            ]),
        );
        let smoke = write_tmp("s1", &doc(&[("translator_prepare_multi", "blocked/64")]));
        assert_eq!(
            run(&committed, &smoke, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn disappeared_group_fails() {
        let committed = write_tmp(
            "c2",
            &doc(&[
                ("translator_prepare_multi", "blocked/64"),
                ("mc_translate_domain", "cached/64"),
            ]),
        );
        let smoke = write_tmp("s2", &doc(&[("translator_prepare_multi", "blocked/64")]));
        let v = run(&committed, &smoke, &no_tol()).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("mc_translate_domain"), "{v:?}");
    }

    #[test]
    fn unknown_domains_and_new_groups_fail() {
        let committed = write_tmp("c4", &doc(&[("translator_prepare_multi", "blocked/64")]));
        let smoke = write_tmp(
            "s4",
            &doc(&[
                ("translator_prepare_multi", "blocked/128"),
                ("brand_new_group", "x/64"),
            ]),
        );
        let v = run(&committed, &smoke, &no_tol()).unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("domain 128")));
        assert!(v.iter().any(|m| m.contains("brand_new_group")));
    }

    #[test]
    fn prepare_median_regressions_fail_within_the_default_tolerance() {
        let committed = write_tmp(
            "c5",
            &doc_with_medians(&[
                ("translator_prepare_multi", "blocked/64", 100.0e6),
                ("mutate", "full_k1/4096", 100.0e6),
            ]),
        );
        // +20% passes at the default 25%, +30% fails; faster never fails.
        let ok = write_tmp(
            "s5ok",
            &doc_with_medians(&[
                ("translator_prepare_multi", "blocked/64", 120.0e6),
                ("mutate", "full_k1/4096", 50.0e6),
            ]),
        );
        assert_eq!(
            run(&committed, &ok, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
        let bad = write_tmp(
            "s5bad",
            &doc_with_medians(&[
                ("translator_prepare_multi", "blocked/64", 130.0e6),
                ("mutate", "full_k1/4096", 50.0e6),
            ]),
        );
        let v = run(&committed, &bad, &no_tol()).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("regressed") && v[0].contains("blocked/64"),
            "{v:?}"
        );
    }

    #[test]
    fn per_group_tolerance_overrides_the_default() {
        let committed = write_tmp(
            "c6",
            &doc_with_medians(&[
                ("translator_prepare_multi", "blocked/64", 100.0e6),
                ("mutate", "full_k1/4096", 100.0e6),
            ]),
        );
        let smoke = write_tmp(
            "s6",
            &doc_with_medians(&[
                ("translator_prepare_multi", "blocked/64", 140.0e6),
                ("mutate", "full_k1/4096", 140.0e6),
            ]),
        );
        // +40% on both: loosening one group leaves the other failing.
        let tol = parse_tolerances(&[
            "--tolerance".to_string(),
            "translator_prepare_multi=50".to_string(),
        ])
        .unwrap();
        let v = run(&committed, &smoke, &tol).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("mutate"), "{v:?}");
    }

    #[test]
    fn medians_outside_the_regression_groups_are_not_gated() {
        let committed = write_tmp(
            "c7",
            &doc_with_medians(&[("mc_translate_domain", "cached/64", 100.0e6)]),
        );
        let smoke = write_tmp(
            "s7",
            &doc_with_medians(&[("mc_translate_domain", "cached/64", 900.0e6)]),
        );
        assert_eq!(
            run(&committed, &smoke, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn tolerance_parsing_rejects_malformed_specs() {
        assert!(parse_tolerances(&[]).unwrap().is_empty());
        assert!(parse_tolerances(&["--tolerance".into()]).is_err());
        assert!(parse_tolerances(&["--tolerance".into(), "nopct".into()]).is_err());
        assert!(parse_tolerances(&["--tolerance".into(), "g=abc".into()]).is_err());
        assert!(parse_tolerances(&["--tolerance".into(), "g=-5".into()]).is_err());
        assert!(parse_tolerances(&["stray".into()]).is_err());
        let t = parse_tolerances(&["--tolerance".into(), "g=40".into()]).unwrap();
        assert_eq!(t.get("g"), Some(&40.0));
    }

    #[test]
    fn soak_median_regressions_fail() {
        // serve_soak medians are ns/session: a slower smoke soak past
        // the tolerance is a throughput regression and must fail.
        let committed = write_tmp(
            "c9",
            &doc_with_medians(&[
                ("serve_soak", "shards/1", 500_000.0),
                ("serve_soak", "shards/8", 150_000.0),
            ]),
        );
        let ok = write_tmp(
            "s9ok",
            &doc_with_medians(&[
                ("serve_soak", "shards/1", 600_000.0),
                ("serve_soak", "shards/8", 150_000.0),
            ]),
        );
        assert_eq!(
            run(&committed, &ok, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
        let bad = write_tmp(
            "s9bad",
            &doc_with_medians(&[
                ("serve_soak", "shards/1", 500_000.0),
                ("serve_soak", "shards/8", 200_000.0),
            ]),
        );
        let v = run(&committed, &bad, &no_tol()).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("regressed") && v[0].contains("shards/8"),
            "{v:?}"
        );
    }

    #[test]
    fn the_committed_soak_file_matches_a_quick_shape() {
        // The committed soak file must accept the shape a --quick soak
        // produces (a subset of the committed shard counts). Medians of
        // 1.0 ns can never trip rule 5.
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_soak.json");
        let smoke = write_tmp(
            "s10",
            &doc(&[
                ("serve_soak", "shards/1"),
                ("serve_soak", "shards/2"),
                ("serve_soak", "shards/4"),
                ("serve_soak", "shards/8"),
            ]),
        );
        assert_eq!(
            run(committed, &smoke, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn the_committed_mutate_file_matches_a_quick_shape() {
        // A --quick mutate run measures the small row count with the two
        // small batch sizes; the committed file must accept that subset.
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mutate.json");
        let smoke = write_tmp(
            "s11",
            &doc(&[
                ("mutate", "incremental_k1/4096"),
                ("mutate", "full_k1/4096"),
                ("mutate", "incremental_k64/4096"),
                ("mutate", "full_k64/4096"),
            ]),
        );
        assert_eq!(
            run(committed, &smoke, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn the_committed_file_matches_a_real_quick_shape() {
        // The real committed file at the workspace root must accept the
        // shape a --quick run produces today (groups at domains 64/256).
        // Medians of 1.0 ns can never trip rule 5, so this stays a pure
        // shape check against the committed file.
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mc_translate.json");
        let smoke = write_tmp(
            "s8",
            &doc(&[
                ("translator_prepare_multi", "blocked/64"),
                ("translator_prepare_multi", "blocked/256"),
                ("noise_fill", "61"),
                ("mc_translate_domain", "cached/64"),
                ("mc_translate_domain", "cached/256"),
                ("strategy_sparse_vs_dense", "build_csr/64"),
                ("strategy_sparse_vs_dense", "matvec_csr/256"),
            ]),
        );
        assert_eq!(
            run(committed, &smoke, &no_tol()).unwrap(),
            Vec::<String>::new()
        );
    }
}
