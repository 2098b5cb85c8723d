//! Benchmarks of the strategy mechanism's translator prepare (Algorithm
//! 3's Monte-Carlo accuracy-to-privacy translation) and the sparse
//! strategy algebra feeding it. Every row times code a request can reach.
//!
//! Four questions, each a benchmark group:
//!
//! * `translator_prepare_multi` — end-to-end translator preparation
//!   (strategy operator + blocked Monte-Carlo simulation) through
//!   `SmArtifacts::build`, what a translator-cache miss pays, per domain
//!   size up to 16384 (`blocked/{n}`).
//! * `noise_fill` — the sampler floor under every prepare: the `N` =
//!   10 000 unit-Laplace noise vectors of `m` strategy rows one miss
//!   draws, panel by panel as the pipeline draws them (`noise_fill/{m}`;
//!   m = 61 and 125 are the `H₂` strategies behind a 16- and a 32-range
//!   workload, 1 023 a 512-cell domain).
//! * `mc_translate_domain` — what a translator-cache hit pays: the
//!   translate-only binary search over the prepared samples
//!   (`cached/{n}`).
//! * `strategy_sparse_vs_dense` — CSR construction, `A·x` and `‖A‖₁` cost
//!   of the `H₂` strategy per domain size.
//!
//! Monte-Carlo sample counts shrink as the domain grows to keep one
//! iteration tractable on one core, and the JSON output records `N` per
//! config. `cached/4096` prepares through the identity strategy, as the
//! committed row records.
//!
//! Besides the textual report, the harness writes the medians to
//! `BENCH_mc_translate.json` at the workspace root (override with
//! `APEX_BENCH_JSON`) so the perf trajectory is machine-trackable
//! across PRs.
//!
//! Pass `--quick` (the CI smoke mode) to restrict every group to small
//! domains; quick runs only write JSON when `APEX_BENCH_JSON` is set, so a
//! smoke pass can never clobber the committed full-run medians.

use apex_linalg::{CsrBuilder, CsrMatrix};
use apex_mech::mc::{fill_noise_panel, McConfig, SAMPLE_BLOCK};
use apex_mech::SmArtifacts;
use apex_query::Strategy;
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Write as _;

/// `--quick`: the CI smoke configuration (small domains only).
fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Monte-Carlo sample count per domain size (kept tractable on one core).
fn samples_for(n: usize) -> usize {
    match n {
        0..=64 => 10_000,
        65..=1024 => 2_000,
        _ => 300,
    }
}

fn mc_for(n: usize) -> McConfig {
    McConfig {
        samples: samples_for(n),
        ..Default::default()
    }
}

/// The strategy the `mc_translate_domain` rows prepare through.
fn domain_strategy(n: usize) -> Strategy {
    if n <= 1024 {
        Strategy::H2
    } else {
        Strategy::Identity
    }
}

/// The paper's workload size: 100 predicates. Prepare-time rows use a
/// 100-row prefix (CDF) workload so the measured cost is dominated by the
/// strategy machinery, not by an `O(n²)` workload incidence.
const PREPARE_WORKLOAD_ROWS: usize = 100;

/// 100-row prefix workload over `n` cells, directly in CSR.
fn prefix_workload_csr(n: usize) -> CsrMatrix {
    let l = n.min(PREPARE_WORKLOAD_ROWS);
    let mut b = CsrBuilder::new(n);
    for i in 0..l {
        b.push_interval_row(0, ((i + 1) * n / l).max(1));
    }
    b.finish()
}

/// The translator prepare a cache miss runs: `blocked/{n}` is the
/// acceptance number for the multi-RHS kernels.
fn bench_translator_prepare_multi(c: &mut Criterion) {
    let mut g = c.benchmark_group("translator_prepare_multi");
    g.sample_size(if quick() { 3 } else { 5 });
    let domains: &[usize] = if quick() {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096, 16384]
    };
    for &n in domains {
        let w = prefix_workload_csr(n);
        let cfg = mc_for(n);
        g.bench_with_input(BenchmarkId::new("blocked", n), &n, |b, _| {
            b.iter(|| black_box(SmArtifacts::build(&w, Strategy::H2, cfg).unwrap()))
        });
    }
    g.finish();
}

/// The noise one prepare draws, and nothing else: `N` columns of `m`
/// unit-Laplace values through one reused panel, as
/// `unit_errors_operator_blocked` fills them on one thread.
fn bench_noise_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("noise_fill");
    g.sample_size(if quick() { 3 } else { 5 });
    let McConfig { samples, seed, .. } = McConfig::default();
    let rows: &[usize] = if quick() { &[61] } else { &[61, 125, 1023] };
    for &m in rows {
        let mut panel = vec![0.0_f64; m * SAMPLE_BLOCK];
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                for start in (0..samples).step_by(SAMPLE_BLOCK) {
                    let bs = SAMPLE_BLOCK.min(samples - start);
                    fill_noise_panel(&mut panel[..m * bs], m, seed, start as u64);
                }
                black_box(panel[0])
            })
        });
    }
    g.finish();
}

/// What a translator-cache hit pays: translation only, no rebuild.
fn bench_domain_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("mc_translate_domain");
    g.sample_size(5);
    let domains: &[usize] = if quick() {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    for &n in domains {
        let w = prefix_workload_csr(n);
        let prepared = SmArtifacts::build(&w, domain_strategy(n), mc_for(n)).unwrap();
        g.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| black_box(prepared.translator.translate(40.0, 5e-4)))
        });
    }
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("strategy_sparse_vs_dense");
    g.sample_size(10);
    let domains: &[usize] = if quick() {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    for &n in domains {
        g.bench_with_input(BenchmarkId::new("build_csr", n), &n, |b, &n| {
            b.iter(|| black_box(Strategy::H2.build_csr(n).unwrap()))
        });
        let a_csr = Strategy::H2.build_csr(n).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        g.bench_with_input(BenchmarkId::new("matvec_csr", n), &n, |b, _| {
            b.iter(|| black_box(a_csr.matvec(&x).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("l1_norm_csr", n), &n, |b, _| {
            b.iter(|| black_box(a_csr.l1_operator_norm()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_translator_prepare_multi,
    bench_noise_fill,
    bench_domain_scaling,
    bench_sparse
);

use apex_bench::json_escape as esc;

/// Writes every measurement as machine-readable JSON, plus the prepare
/// medians in milliseconds, so future PRs can track the perf trajectory
/// (`BENCH_mc_translate.json` at the workspace root).
fn write_json(c: &criterion::Criterion) -> std::io::Result<std::path::PathBuf> {
    let path = match std::env::var("APEX_BENCH_JSON") {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_mc_translate.json"),
    };
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"mc_translate\",\n  \"results\": [\n");
    for (i, r) in c.results().iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let domain = r
            .id
            .rsplit('/')
            .next()
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|_| r.group == "mc_translate_domain" || r.group == "translator_prepare_multi");
        let extra = domain
            .map(|n| {
                let identity =
                    r.group == "mc_translate_domain" && domain_strategy(n) == Strategy::Identity;
                format!(
                    ", \"mc_samples\": {}, \"strategy\": \"{}\"",
                    samples_for(n),
                    if identity { "identity" } else { "H2" }
                )
            })
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}{}}}",
            esc(&r.group),
            esc(&r.id),
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.samples,
            r.iters_per_sample,
            extra,
        ));
    }
    out.push_str("\n  ],\n  \"derived\": {\n");
    // The prepare medians in milliseconds — the acceptance numbers for the
    // multi-RHS kernels.
    let derived: Vec<String> = c
        .results()
        .iter()
        .filter(|r| r.group == "translator_prepare_multi")
        .filter_map(|r| {
            let n = r.id.strip_prefix("blocked/")?;
            Some(format!(
                "    \"prepare_blocked_ms_n{n}\": {:.3}",
                r.median_ns / 1e6
            ))
        })
        .collect();
    out.push_str(&derived.join(",\n"));
    out.push_str("\n  }\n}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

fn main() {
    let mut c = criterion::Criterion::default();
    benches(&mut c);
    c.final_summary();
    // A quick (smoke) pass measures a subset; rewriting the committed
    // full-run medians with it would silently rot the file. Only write
    // when the caller explicitly redirects the output.
    if quick() && std::env::var("APEX_BENCH_JSON").is_err() {
        println!(
            "quick mode: BENCH_mc_translate.json left untouched (set APEX_BENCH_JSON to write)"
        );
        return;
    }
    match write_json(&c) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_mc_translate.json: {e}"),
    }
}
