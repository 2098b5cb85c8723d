//! `repro` — regenerates the APEx paper's evaluation (Table 2, Figs 2–7)
//! and checks the paper's claims about it.
//!
//! ```text
//! cargo run --release -p apex-bench --bin repro -- [--quick] [figure…]
//! ```
//!
//! Each entry of [`FIGURES`] is a sweep, written to
//! `experiments/<figure>.jsonl`, and named claims over those records
//! (the figure → claims table is `apex_bench`'s crate doc). Every sweep
//! runs at both [`SEEDS`]. A claim passes when it holds at both; its line
//! gives the worse seed's margin (≥ 0 on the passing side) and where it
//! was measured. A claim that already failed at quick sizes when it was
//! written carries a `deviation` quoting the numbers, and reports
//! `deviation` instead of failing. Any other failure exits 1; an unknown
//! flag or figure exits 2. `--quick` runs the CI sizes and, when no
//! figure is named, rewrites the committed `REPRO.json` (claim → verdict
//! and worst margin), byte-identical across runs on one host. Each
//! figure's wall time goes to stderr.
//!
//! **Synthetic data.** Seeded generators (`apex_data::synth`) stand in
//! for the paper's Adult (32 561 rows), NYTaxi (9.7 M rows) and
//! citations data. That keeps what the figures measure: a mechanism's
//! cost depends only on the workload matrix and (α, β), except ICQ-MPM's,
//! which depends on the gaps between bin counts and the threshold, and
//! the generators keep those gaps' shape. NYTaxi's size only rescales ε:
//! at equal α/|D|, εᵘ·|D| does not depend on |D| (`fig2.taxi_invariant`),
//! so at 9.7 M rows QW3 costs 9.7 M / 32 561 ≈ 298× less than QW1.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use apex_bench::{
    benchmark_queries, empirical_error, f1_of_answer, parallel_map, run_er_sweep, write_records,
    BenchError, BenchQuery, DatasetId, Datasets, ExperimentRecord as Rec,
};
use apex_core::{choose_mechanism, Mode};
use apex_data::{Dataset, Predicate};
use apex_mech::{mechanisms_for, PreparedQuery, TranslatorCache};
use apex_query::{AccuracySpec, ExplorationQuery, QueryAnswer};
use apex_serve::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BETA: f64 = 5e-4;
/// The α/|D| grid of Figs 2, 3 and 6.
const ALPHAS: [f64; 7] = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64];
/// Figs 5 and 7 sweep the budget B at α = `ER_ALPHA`·|D|; Fig 6 sweeps
/// α at B = `ER_BUDGET`.
const BUDGETS: [f64; 6] = [0.1, 0.2, 0.5, 1.0, 1.5, 2.0];
const ER_ALPHA: f64 = 0.08;
const ER_BUDGET: f64 = 1.0;
/// Every sweep runs once per seed, and every claim must hold at both.
const SEEDS: [u64; 2] = [42, 43];
/// The committed record of the last full `--quick` run.
const REPRO_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.json");

/// How large the sweeps are.
struct Sizes {
    /// NYTaxi rows (Adult is always its 32 561).
    taxi_rows: usize,
    /// Noisy runs per point of Figs 2–4 and Table 2.
    runs: usize,
    /// Sampled cleaners per point of Figs 5–7.
    er_runs: usize,
    /// Citation pairs of Figs 5–6, then Fig 7's smaller |D|.
    er_pairs: [usize; 2],
}

const FULL: Sizes = Sizes {
    taxi_rows: 500_000,
    runs: 10,
    er_runs: 100,
    er_pairs: [4_000, 1_000],
};

const QUICK: Sizes = Sizes {
    taxi_rows: 20_000,
    runs: 5,
    er_runs: 8,
    er_pairs: [1_000, 500],
};

/// One figure of the paper: what it sweeps, and what the paper claims
/// about the result.
struct Figure {
    name: &'static str,
    sweep: fn(&Ctx) -> Result<Vec<Rec>, BenchError>,
    claims: &'static [Claim],
}

/// A named claim, checked over one seed's records of its figure.
struct Claim {
    name: &'static str,
    check: fn(&[Rec]) -> Check,
    /// Why the claim fails at quick sizes, quoting the numbers.
    deviation: Option<&'static str>,
}

const fn claim(name: &'static str, check: fn(&[Rec]) -> Check) -> Claim {
    Claim {
        name,
        check,
        deviation: None,
    }
}

const fn deviation(name: &'static str, check: fn(&[Rec]) -> Check, why: &'static str) -> Claim {
    Claim {
        deviation: Some(why),
        ..claim(name, check)
    }
}

const FIGURES: &[Figure] = &[
    Figure {
        name: "fig2",
        sweep: |cx| picked_runs(cx, "fig2", &[], "error", empirical_error),
        claims: &[
            claim("error_within_alpha", |rs| {
                let failed = rs.iter().filter(|r| r.value > r.alpha).count();
                rate_at_most(failed, rs.len(), BETA)
            }),
            claim("epsilon_within_upper", |rs| within_upper(rs.iter())),
            claim("upper_falls_with_alpha", |rs| {
                let upper = curves(rs, |_| true, |r| r.alpha, |r| r.epsilon_upper);
                monotone(&upper, -1.0, true)
            }),
            claim("taxi_invariant", taxi_invariant),
        ],
    },
    Figure {
        name: "fig3",
        sweep: |cx| picked_runs(cx, "fig3", &["QI4", "QT1"], "f1", f1),
        claims: &[claim("f1_falls_with_alpha", |rs| {
            monotone(&curves(rs, |_| true, |r| r.alpha, |r| r.value), -1.0, false)
        })],
    },
    Figure {
        name: "table2",
        sweep: table2,
        claims: &[
            claim("no_universal_winner", no_universal_winner),
            claim("winner_is_pick", winner_is_pick),
            claim("mpm_within_upper", |rs| {
                within_upper(rs.iter().filter(|r| r.mechanism == "MPM"))
            }),
        ],
    },
    Figure {
        name: "fig4a",
        sweep: fig4a,
        claims: &[
            claim("lm_linear_in_l", |rs| {
                ratio_in(growth(&panel(rs, "QW2 LM")), 5.0, f64::INFINITY)
            }),
            claim("sm_logarithmic_in_l", |rs| {
                ratio_in(growth(&panel(rs, "QW2 SM")), 1.0, 2.0)
            }),
        ],
    },
    Figure {
        name: "fig4b",
        sweep: fig4b,
        claims: &[
            claim("lm_flat_in_k", |rs| flat(&panel(rs, "LM"))),
            claim("ltm_linear_in_k", |rs| {
                ratio_in(growth(&panel(rs, "LTM")), 5.0 - 5e-9, 5.0 + 5e-9)
            }),
        ],
    },
    Figure {
        name: "fig4c",
        sweep: fig4c,
        claims: &[
            claim("lm_sm_flat_in_c", |rs| {
                flat(&[panel(rs, "LM"), panel(rs, "SM")].concat())
            }),
            deviation(
                "mpm_below_lm",
                |rs| below(&[panel(rs, "MPM"), panel(rs, "LM")].concat()),
                "MPM's median ε tops LM's 0.0177 at c/|D| = 0.01, 0.30 and 0.61 \
                 (0.0212, 0.0212 and 0.0191 at seed 42)",
            ),
        ],
    },
    Figure {
        name: "fig5",
        sweep: |cx| Ok(relabel(cx.er(0), "fig5", |r| r.alpha == ER_ALPHA)),
        claims: &[
            claim("blocking_saturates_in_budget", |rs| saturates(rs, "BS")),
            claim("matching_saturates_in_budget", |rs| saturates(rs, "MS")),
            // BS2/MS2 ask ICQs/TCQs, which reveal (and cost) less than
            // BS1/MS1's WCQs.
            deviation(
                "icq_strategies_need_less_budget",
                |rs| below(&strategies(rs, "", |r| r.budget)),
                "MS2's median F1 is 0 at B = 1 (MS1: 0.31 at seed 42, 0.44 at seed 43), \
                 and BS2's recall trails BS1's at B = 2 (0.909 vs 0.990 at seed 42)",
            ),
        ],
    },
    Figure {
        name: "fig6",
        sweep: |cx| Ok(relabel(cx.er(0), "fig6", |r| r.budget == ER_BUDGET)),
        claims: &[
            deviation(
                "blocking_peaks_mid_alpha",
                |rs| peaks_inside(&strategies(rs, "BS", |r| r.alpha)),
                "BS1's and BS2's recall is highest at α = 0.64·|D| (1.0 at seed 42; \
                 BS1 0.991 at both 0.16 and 0.64 at seed 43): no mid-range peak",
            ),
            deviation(
                "matching_peaks_mid_alpha",
                |rs| peaks_inside(&strategies(rs, "MS", |r| r.alpha)),
                "MS1's F1 is highest at α = 0.64·|D| at seed 42 (0.906), MS2's flat \
                 from 0.16 on at seed 43 (0.855); only MS2 at seed 42 peaks mid-range \
                 (0.80, then 0.747 at 0.64)",
            ),
        ],
    },
    Figure {
        name: "fig7",
        sweep: |cx| {
            Ok(relabel([cx.er(1), cx.er(0)].concat(), "fig7", |r| {
                r.subject.starts_with('B')
            }))
        },
        claims: &[claim("smaller_data_needs_more_budget", needs_more_budget)],
    },
];

/// QW1 (Adult) and QW3 (NYTaxi) are both 100-bin histograms, so at
/// equal α/|D| their εᵘ·|D| match.
fn taxi_invariant(rs: &[Rec]) -> Check {
    let pair = |r: &Rec| r.subject == "QW1" || r.subject == "QW3";
    let c = curves(rs, pair, |r| r.alpha, |r| r.epsilon_upper * r.rows as f64);
    let [adult, taxi] = &c[..] else {
        return worst([], false);
    };
    let ratios = adult.1.iter().zip(&taxi.1);
    let ratios = ratios.map(|(a, t)| (format!("α={}", a.0), t.1 / a.1));
    ratio_in(ratios, 1.0 - 1e-9, 1.0 + 1e-9)
}

/// Recall averaged over the budget grid rises with |D|: the same α/|D|
/// is a smaller α on less data, so each query costs more.
fn needs_more_budget(rs: &[Rec]) -> Check {
    let mut by_size: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for n in rs.iter().map(|r| r.rows).collect::<BTreeSet<_>>() {
        let budget_grid = |r: &Rec| r.rows == n && r.alpha == ER_ALPHA;
        for (label, pts) in curves(rs, budget_grid, |r| r.budget, |r| r.value) {
            let mean = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
            by_size.entry(label).or_default().push((n as f64, mean));
        }
    }
    monotone(&by_size.into_iter().collect::<Vec<_>>(), 1.0, true)
}

/// One seed's sweeps. The datasets and the ER runs are made once and
/// shared by every figure that reads them.
struct Ctx {
    sizes: &'static Sizes,
    seed: u64,
    threads: usize,
    data: OnceLock<Datasets>,
    /// The strategy mechanism's artifacts, one cache for the whole run.
    cache: TranslatorCache,
    /// ER records per entry of `Sizes::er_pairs`.
    er: Mutex<BTreeMap<usize, Vec<Rec>>>,
}

impl Ctx {
    fn data(&self) -> &Datasets {
        let taxi_rows = self.sizes.taxi_rows;
        self.data
            .get_or_init(|| Datasets::generate(taxi_rows, self.seed))
    }

    /// Every strategy at every ER point of `er_pairs[which]` pairs: Fig 5's
    /// budget grid and Fig 6's α grid, whose shared point runs once.
    fn er(&self, which: usize) -> Vec<Rec> {
        let n = self.sizes.er_pairs[which];
        let sweep = || {
            let fig6 = ALPHAS
                .iter()
                .filter(|&&a| a != ER_ALPHA)
                .map(|&a| (ER_BUDGET, a));
            let configs: Vec<_> = BUDGETS
                .map(|b| (b, ER_ALPHA))
                .into_iter()
                .chain(fig6)
                .collect();
            run_er_sweep(self.seed, n, &configs, self.sizes.er_runs, self.threads)
        };
        let mut memo = self.er.lock().expect("no sweep panicked");
        memo.entry(n).or_insert_with(sweep).clone()
    }

    /// A record of this seed's sweep over `data` at α = `alpha`·|D|.
    fn record(&self, fig: &str, subject: &str, data: &Dataset, alpha: f64) -> Rec {
        let mut r = Rec::new(fig, subject);
        (r.seed, r.rows, r.alpha, r.beta) = (self.seed, data.len(), alpha, BETA);
        r
    }

    /// The noise of one run: a hash of the seed and the run's coordinates,
    /// so no two points share noise and any one replays alone.
    fn rng(&self, key: &str, x: f64, run: usize) -> StdRng {
        let bytes = key.bytes().chain(x.to_bits().to_le_bytes());
        let h = bytes
            .chain((run as u64).to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325 ^ self.seed, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        StdRng::seed_from_u64(h)
    }
}

fn accuracy(data: &Dataset, ratio: f64) -> AccuracySpec {
    AccuracySpec::new(ratio * data.len() as f64, BETA).expect("valid accuracy")
}

fn f1(q: &PreparedQuery, truth: &[f64], answer: &QueryAnswer, _: usize) -> f64 {
    f1_of_answer(q, truth, answer)
}

/// Figs 2 and 3: every run of APEx's pick (optimistic mode) for the named
/// queries (all 12 when `names` is empty) at each α, with `measure` of
/// its answer in `value`.
fn picked_runs(
    cx: &Ctx,
    fig: &str,
    names: &[&str],
    measure: &str,
    of: fn(&PreparedQuery, &[f64], &QueryAnswer, usize) -> f64,
) -> Result<Vec<Rec>, BenchError> {
    let mut out = Vec::new();
    for bq in table1(cx, names) {
        let data = cx.data().get(bq.dataset);
        let q = bq.prepare(data.schema())?;
        let truth = q.compiled().true_answer(data);
        for ratio in ALPHAS {
            let acc = accuracy(data, ratio);
            let pick = choose_mechanism(&q, &acc, f64::INFINITY, Mode::Optimistic, &cx.cache);
            let pick = pick
                .expect("translation succeeds")
                .expect("B = ∞ admits one");
            out.extend(parallel_map(
                (0..cx.sizes.runs).collect(),
                cx.threads,
                |run| {
                    let mut rng = cx.rng(bq.name, ratio, run);
                    let ran = pick
                        .mechanism
                        .run(&q, &acc, data, &mut rng)
                        .expect("mechanism runs");
                    let mut r = cx.record(fig, bq.name, data, ratio);
                    r.mechanism = pick.mechanism.name().into();
                    (r.epsilon_upper, r.epsilon) = (pick.translation.upper, ran.epsilon);
                    r.value = of(&q, &truth, &ran.answer, data.len());
                    (r.measure, r.run) = (measure.into(), run);
                    r
                },
            ));
        }
    }
    Ok(out)
}

/// Each applicable mechanism's ε for `bq` at α = `ratio`·|D|, with the
/// swept parameter `x` in `value` and `measure`: its εᵘ when it is
/// data-independent (εˡ = εᵘ), else one record per measured run.
fn costs(
    cx: &Ctx,
    fig: &str,
    bq: &BenchQuery,
    ratio: f64,
    x: (&str, f64),
) -> Result<Vec<Rec>, BenchError> {
    let data = cx.data().get(bq.dataset);
    let q = bq.prepare(data.schema())?;
    let acc = accuracy(data, ratio);
    let mut out = Vec::new();
    for mech in mechanisms_for(q.kind(), &cx.cache) {
        let Ok(t) = mech.translate(&q, &acc) else {
            continue;
        };
        let run = |run| {
            let mut rng = cx.rng(&format!("{} {}", bq.name, x.1), ratio, run);
            mech.run(&q, &acc, data, &mut rng)
                .expect("mechanism runs")
                .epsilon
        };
        let eps = if t.lower < t.upper {
            (0..cx.sizes.runs).map(run).collect()
        } else {
            vec![t.upper]
        };
        for (run, epsilon) in eps.into_iter().enumerate() {
            let mut r = cx.record(fig, bq.name, data, ratio);
            (r.mechanism, r.epsilon_upper, r.epsilon) = (mech.name().into(), t.upper, epsilon);
            (r.measure, r.value, r.run) = (x.0.into(), x.1, run);
            out.push(r);
        }
    }
    Ok(out)
}

/// Table 2: every applicable mechanism on the 12 queries at two α, with
/// `value` 1 on APEx's pick (optimistic mode).
fn table2(cx: &Ctx) -> Result<Vec<Rec>, BenchError> {
    let mut out = Vec::new();
    for bq in table1(cx, &[]) {
        let data = cx.data().get(bq.dataset);
        let q = bq.prepare(data.schema())?;
        for ratio in [0.02, 0.08] {
            let pick = choose_mechanism(
                &q,
                &accuracy(data, ratio),
                f64::INFINITY,
                Mode::Optimistic,
                &cx.cache,
            );
            let pick = pick
                .expect("translation succeeds")
                .expect("B = ∞ admits one");
            for mut r in costs(cx, "table2", &bq, ratio, ("picked", 0.0))? {
                r.value = f64::from(u8::from(r.mechanism == pick.mechanism.name()));
                out.push(r);
            }
        }
    }
    Ok(out)
}

/// Fig 4a: cost vs workload size L on the QW1 (histogram) and QW2
/// (prefix) templates, Adult, α = 0.08·|D|.
fn fig4a(cx: &Ctx) -> Result<Vec<Rec>, BenchError> {
    let mut out = Vec::new();
    for l in [100usize, 200, 300, 400, 500] {
        let width = 5000.0 / l as f64;
        let range = |lo, hi| Predicate::range("capital_gain", width * lo as f64, width * hi as f64);
        let hist = (0..l).map(|i| range(i, i + 1)).collect();
        let prefix = (1..=l).map(|i| range(0, i)).collect();
        for (name, workload) in [("QW1", hist), ("QW2", prefix)] {
            let query = ExplorationQuery::wcq(workload);
            let bq = BenchQuery {
                name,
                dataset: DatasetId::Adult,
                query,
            };
            out.extend(costs(cx, "fig4a", &bq, 0.08, ("workload_size", l as f64))?);
        }
    }
    Ok(out)
}

/// Fig 4b: cost vs k on the QT3 (zone pairs) and QT4 (cumulative)
/// workloads, NYTaxi, α = 0.08·|D|.
fn fig4b(cx: &Ctx) -> Result<Vec<Rec>, BenchError> {
    let mut out = Vec::new();
    for bq in table1(cx, &["QT3", "QT4"]) {
        for k in [10usize, 20, 30, 40, 50] {
            let query = ExplorationQuery::tcq(bq.query.workload.clone(), k);
            out.extend(costs(
                cx,
                "fig4b",
                &BenchQuery { query, ..bq },
                0.08,
                ("k", k as f64),
            )?);
        }
    }
    Ok(out)
}

/// Fig 4c: cost vs the ICQ threshold c on the QI2 workload, Adult,
/// α = 0.02·|D|.
fn fig4c(cx: &Ctx) -> Result<Vec<Rec>, BenchError> {
    let n = cx.data().adult.len() as f64;
    let bq = table1(cx, &["QI2"]).pop().expect("QI2 is in Table 1");
    let mut out = Vec::new();
    for c in [
        0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.32, 0.4, 0.5, 0.6, 0.61, 0.7, 0.8, 1.0,
    ] {
        let query = ExplorationQuery::icq(bq.query.workload.clone(), c * n);
        out.extend(costs(
            cx,
            "fig4c",
            &BenchQuery { query, ..bq },
            0.02,
            ("threshold", c),
        )?);
    }
    Ok(out)
}

/// The named Table 1 queries (all 12 when `names` is empty).
fn table1(cx: &Ctx, names: &[&str]) -> Vec<BenchQuery> {
    let ds = cx.data();
    let mut queries = benchmark_queries(ds.adult.len(), ds.taxi.len());
    queries.retain(|q| names.is_empty() || names.contains(&q.name));
    queries
}

/// The ER records `keep` selects, as records of `fig`.
fn relabel(recs: Vec<Rec>, fig: &str, keep: fn(&Rec) -> bool) -> Vec<Rec> {
    let mut recs: Vec<Rec> = recs.into_iter().filter(keep).collect();
    recs.iter_mut().for_each(|r| r.experiment = fig.into());
    recs
}

/// A named curve: `(x, median y)` points in `x` order.
type Curve = (String, Vec<(f64, f64)>);

/// One curve per subject and mechanism over the records `keep` selects,
/// with the median `y` at each distinct `x`.
fn curves(
    rs: &[Rec],
    keep: impl Fn(&Rec) -> bool,
    x: fn(&Rec) -> f64,
    y: fn(&Rec) -> f64,
) -> Vec<Curve> {
    // Keys are non-negative, so bit order is numeric order.
    let mut by: BTreeMap<String, BTreeMap<u64, Vec<f64>>> = BTreeMap::new();
    for r in rs.iter().filter(|r| keep(r)) {
        let label = format!("{} {}", r.subject, r.mechanism)
            .trim_end()
            .to_string();
        by.entry(label)
            .or_default()
            .entry(x(r).to_bits())
            .or_default()
            .push(y(r));
    }
    let median = |(x, mut ys): (u64, Vec<f64>)| {
        ys.sort_by(f64::total_cmp);
        (f64::from_bits(x), ys[ys.len() / 2])
    };
    by.into_iter()
        .map(|(label, pts)| (label, pts.into_iter().map(median).collect()))
        .collect()
}

/// The median quality curve in `x` of each ER strategy named `prefix…`.
fn strategies(rs: &[Rec], prefix: &str, x: fn(&Rec) -> f64) -> Vec<Curve> {
    curves(rs, |r| r.subject.starts_with(prefix), x, |r| r.value)
}

/// The ε curves of a Fig 4 panel whose label ends with `suffix`.
fn panel(rs: &[Rec], suffix: &str) -> Vec<Curve> {
    let mut c = curves(rs, |_| true, |r| r.value, |r| r.epsilon);
    c.retain(|c| c.0.ends_with(suffix));
    c
}

/// `ε(last x) / ε(first x)` of each curve.
fn growth(curves: &[Curve]) -> Vec<(String, f64)> {
    let last_over_first = |(l, p): &Curve| (l.clone(), p[p.len() - 1].1 / p[0].1);
    curves.iter().map(last_over_first).collect()
}

/// Flat: each curve's `max ε / min ε` is 1 to within 1e-9.
fn flat(curves: &[Curve]) -> Check {
    let spread = |(l, p): &Curve| {
        let (lo, hi) = p
            .iter()
            .fold((f64::MAX, 0.0_f64), |m, q| (m.0.min(q.1), m.1.max(q.1)));
        (l.clone(), hi / lo)
    };
    ratio_in(curves.iter().map(spread), 1.0, 1.0 + 1e-9)
}

/// Table 2's rows: each mechanism's median ε per (query, α), and APEx's
/// pick.
fn table_rows(rs: &[Rec]) -> BTreeMap<String, (Vec<(String, f64)>, String)> {
    let mut rows: BTreeMap<String, (Vec<(String, f64)>, String)> = BTreeMap::new();
    for (label, pts) in curves(rs, |_| true, |r| r.alpha, |r| r.epsilon) {
        let (query, mech) = label
            .split_once(' ')
            .expect("table2 records name a mechanism");
        for (alpha, eps) in pts {
            rows.entry(format!("{query} α={alpha}"))
                .or_default()
                .0
                .push((mech.into(), eps));
        }
    }
    for r in rs.iter().filter(|r| r.value == 1.0) {
        let row = rows
            .entry(format!("{} α={}", r.subject, r.alpha))
            .or_default();
        row.1.clone_from(&r.mechanism);
    }
    rows
}

/// A claim measured on one seed's sweep.
#[derive(Clone)]
struct Check {
    pass: bool,
    /// Distance from the claim's boundary, ≥ 0 on the passing side.
    margin: f64,
    /// Where the margin was measured.
    at: String,
}

/// Every claim kind below reduces to `(where, margin)` items; the claim
/// holds when the least margin is ≥ 0 (> 0 when `strict`). A NaN margin
/// counts as the worst possible, and so does measuring nothing.
fn worst(items: impl IntoIterator<Item = (String, f64)>, strict: bool) -> Check {
    let nan_is_worst = |(at, m): (String, f64)| (at, if m.is_nan() { f64::MIN } else { m });
    let least = items
        .into_iter()
        .map(nan_is_worst)
        .min_by(|a, b| a.1.total_cmp(&b.1));
    let (at, margin) = least.unwrap_or(("nothing measured".into(), f64::MIN));
    let pass = if strict { margin > 0.0 } else { margin >= 0.0 };
    // `+ 0.0` reports a flat step's −0 as 0.
    Check {
        pass,
        margin: margin + 0.0,
        at,
    }
}

/// Rate ≤ β: at most a `bound` share of `trials` `failed`.
fn rate_at_most(failed: usize, trials: usize, bound: f64) -> Check {
    let rate = failed as f64 / trials as f64;
    worst(
        [(format!("{failed} of {trials} runs"), bound - rate)],
        false,
    )
}

/// ε ≤ εᵘ in every record.
fn within_upper<'a>(rs: impl Iterator<Item = &'a Rec>) -> Check {
    let at = |r: &Rec| format!("{} {} α={} run {}", r.subject, r.mechanism, r.alpha, r.run);
    worst(rs.map(|r| (at(r), r.epsilon_upper - r.epsilon)), false)
}

/// In each pair of curves, the first lies at or below the second at
/// every x: `[a, b, c, d]` compares a with b and c with d.
fn below(curves: &[Curve]) -> Check {
    let gaps = curves.chunks_exact(2).flat_map(|p| {
        let at = move |x: f64| format!("{} vs {} at {x}", p[0].0, p[1].0);
        p[0].1
            .iter()
            .zip(&p[1].1)
            .map(move |(lo, hi)| (at(lo.0), hi.1 - lo.1))
    });
    worst(gaps, false)
}

/// Every curve moves one way: `sign` 1 rises, −1 falls; `strict`
/// forbids flat steps.
fn monotone(curves: &[Curve], sign: f64, strict: bool) -> Check {
    let steps = curves.iter().flat_map(|(label, p)| {
        let at = move |w: &[(f64, f64)]| format!("{label} {}→{}", w[0].0, w[1].0);
        p.windows(2).map(move |w| (at(w), sign * (w[1].1 - w[0].1)))
    });
    worst(steps, strict)
}

/// Linear (and flat): every ratio lies in `[lo, hi]`.
fn ratio_in(items: impl IntoIterator<Item = (String, f64)>, lo: f64, hi: f64) -> Check {
    let margin = |r: f64| (r / lo - 1.0).min(1.0 - r / hi);
    worst(
        items
            .into_iter()
            .map(|(at, r)| (format!("{at} ×{r:.4}"), margin(r))),
        false,
    )
}

/// Every ER strategy named `prefix…` gains quality with B, and its last
/// budget step adds at most half of the gain.
fn saturates(rs: &[Rec], prefix: &str) -> Check {
    let items = strategies(rs, prefix, |r| r.budget)
        .into_iter()
        .map(|(label, p)| {
            let (first, last, prev) = (p[0].1, p[p.len() - 1].1, p[p.len() - 2].1);
            let rise = last - first;
            (label, rise.min(rise / 2.0 - (last - prev)))
        });
    worst(items, true)
}

/// Every curve peaks strictly inside its x range.
fn peaks_inside(curves: &[Curve]) -> Check {
    let items = curves.iter().map(|(label, p)| {
        let max = p.iter().fold(f64::MIN, |m, q| m.max(q.1));
        (label.clone(), (max - p[0].1).min(max - p[p.len() - 1].1))
    });
    worst(items, true)
}

/// Winner == pick: no mechanism in a Table 2 row costs less than APEx's
/// pick (margin: the cheapest other mechanism's extra cost, relative).
fn winner_is_pick(rs: &[Rec]) -> Check {
    let items = table_rows(rs).into_iter().map(|(at, (costs, pick))| {
        let (picked, others): (Vec<_>, Vec<_>) = costs.iter().partition(|c| c.0 == pick);
        let picked = picked.first().map_or(f64::NAN, |c| c.1);
        let other = others.iter().fold(f64::INFINITY, |m, c| m.min(c.1));
        (format!("{at} pick {pick}"), other / picked - 1.0)
    });
    worst(items, false)
}

/// Within each query kind (QW/QI/QT), every mechanism loses some Table 2
/// row (margin: its largest cost over the row's cheapest, relative).
fn no_universal_winner(rs: &[Rec]) -> Check {
    let mut loss: BTreeMap<String, f64> = BTreeMap::new();
    for (at, (costs, _)) in table_rows(rs) {
        let best = costs.iter().fold(f64::INFINITY, |m, c| m.min(c.1));
        for (mech, eps) in costs {
            let slot = loss.entry(format!("{} {mech}", &at[..2])).or_insert(0.0);
            *slot = slot.max(eps / best - 1.0);
        }
    }
    worst(loss, true)
}

/// `repro`'s command line: `--quick`, and the figures to run (all when
/// none is named).
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    figures: Vec<&'static str>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        quick: false,
        figures: Vec::new(),
    };
    for arg in args {
        if arg == "--quick" {
            out.quick = true;
            continue;
        }
        let fig = FIGURES.iter().find(|f| f.name == arg);
        out.figures
            .push(fig.ok_or_else(|| format!("unknown argument {arg:?}"))?.name);
    }
    Ok(out)
}

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    format!("usage: repro [--quick] [{}]…", names.join("|"))
}

/// A claim's verdict, and its report line.
fn verdict(fig: &Figure, claim: &Claim, c: &Check) -> (&'static str, String) {
    let v = match (c.pass, claim.deviation) {
        (true, _) => "pass",
        (false, Some(_)) => "deviation",
        (false, None) => "fail",
    };
    (
        v,
        format!(
            "{v:<9} {}.{}  margin {:.4e}  at {}",
            fig.name, claim.name, c.margin, c.at
        ),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the chosen figures at both seeds and reports every claim;
/// `Ok(false)` when one fails.
fn run(args: &Args) -> Result<bool, BenchError> {
    let sizes = if args.quick { &QUICK } else { &FULL };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cache = TranslatorCache::new();
    let cxs = SEEDS.map(|seed| Ctx {
        sizes,
        seed,
        threads,
        data: OnceLock::new(),
        cache: cache.clone(),
        er: Mutex::default(),
    });
    let chosen = |f: &&Figure| args.figures.is_empty() || args.figures.contains(&f.name);
    let (mut ok, mut entries) = (true, Vec::new());
    for fig in FIGURES.iter().filter(chosen) {
        let mut per_seed = Vec::new();
        for cx in &cxs {
            let t = Instant::now();
            per_seed.push((cx.seed, (fig.sweep)(cx)?));
            let secs = t.elapsed().as_secs_f64();
            eprintln!("{} seed {}: {secs:.1} s", fig.name, cx.seed);
        }
        let all: Vec<Rec> = per_seed.iter().flat_map(|s| s.1.clone()).collect();
        write_records(fig.name, &all)?;
        for claim in fig.claims {
            let mut worse: Option<Check> = None;
            for (seed, recs) in &per_seed {
                let mut c = (claim.check)(recs);
                c.at = format!("seed {seed}: {}", c.at);
                if worse
                    .as_ref()
                    .is_none_or(|w| (c.pass, c.margin) < (w.pass, w.margin))
                {
                    worse = Some(c);
                }
            }
            let c = worse.expect("two seeds");
            let (v, line) = verdict(fig, claim, &c);
            println!("{line}");
            ok &= v != "fail";
            // Five significant digits keep ulp-level drift between hosts
            // out of the committed file.
            let margin: f64 = format!("{:.4e}", c.margin)
                .parse()
                .expect("f64 round-trips");
            let mut entry = vec![("claim", Json::Str(format!("{}.{}", fig.name, claim.name)))];
            entry.extend([("verdict", v.into()), ("margin", margin.into())]);
            entry.push(("at", Json::Str(c.at)));
            entry.extend(claim.deviation.map(|d| ("deviation", d.into())));
            entries.push(Json::obj(entry).render());
        }
    }
    if args.quick && args.figures.is_empty() {
        let claims = entries.join(",\n");
        let head = format!("{{\"sizes\":\"quick\",\"seeds\":{SEEDS:?}");
        std::fs::write(REPRO_JSON, format!("{head},\"claims\":[\n{claims}\n]}}\n"))?;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic records of `"subject mechanism"`, one per `(x, y)`
    /// point, with `set` writing each point into the fields a claim reads.
    fn sweep(label: &str, pts: &[(f64, f64)], set: fn(&mut Rec, f64, f64)) -> Vec<Rec> {
        let (subject, mechanism) = label.split_once(' ').unwrap_or((label, ""));
        let point = |&(x, y): &(f64, f64)| {
            let mut r = Rec::new("test", subject);
            (r.mechanism, r.rows) = (mechanism.into(), 1000);
            set(&mut r, x, y);
            r
        };
        pts.iter().map(point).collect()
    }

    /// `name` (`figure.claim`) holds on `good`, and fails on `bad` with a
    /// report line that names it.
    fn has_teeth(name: &str, good: &[Rec], bad: &[Rec]) {
        let (fig, claim) = name.split_once('.').expect("figure.claim");
        let fig = FIGURES.iter().find(|f| f.name == fig).expect("a figure");
        let claim = fig
            .claims
            .iter()
            .find(|c| c.name == claim)
            .expect("a claim");
        let c = (claim.check)(good);
        assert!(c.pass, "{}", verdict(fig, claim, &c).1);
        let c = (claim.check)(bad);
        let line = verdict(fig, claim, &c).1;
        assert!(!c.pass && line.contains(name), "{line}");
    }

    #[test]
    fn arguments_parse_and_unknowns_are_rejected() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(
            parse(&[]),
            Ok(Args {
                quick: false,
                figures: vec![]
            })
        );
        let some = Args {
            quick: true,
            figures: vec!["fig4b", "table2"],
        };
        assert_eq!(parse(&["fig4b", "--quick", "table2"]), Ok(some));
        // The old binaries' flags and panel argument, and a typo.
        for bad in [
            &["--quikc"][..],
            &["--quick", "--runs", "0"],
            &["--taxi", "9"],
            &["fig4"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(usage().contains("[fig2|fig3|table2|fig4a|fig4b|fig4c|fig5|fig6|fig7]"));
    }

    /// Each claim kind, fed a synthetic sweep that violates it, fails the
    /// real claim by name; the same sweep without the violation passes.
    #[test]
    fn every_claim_kind_has_teeth() {
        type Set = fn(&mut Rec, f64, f64);
        // Rate ≤ β: one error above α in 1 000 runs is 2β.
        let error: Set = |r, a, e| (r.alpha, r.value) = (a, e);
        let good = sweep("QW1 LM", &[(0.1, 0.05); 1000], error);
        let mut bad = good.clone();
        bad[7].value = 0.2;
        has_teeth("fig2.error_within_alpha", &good, &bad);

        // ε ≤ εᵘ.
        let charged: Set = |r, u, e| (r.epsilon_upper, r.epsilon) = (u, e);
        let good = sweep("QI2 MPM", &[(0.1, 0.1)], charged);
        let bad = sweep("QI2 MPM", &[(0.1, 0.11)], charged);
        has_teeth("table2.mpm_within_upper", &good, &bad);

        // Monotone, and strict: equal recall at both |D| fails Fig 7.
        let recall: Set = |r, n, y| (r.rows, r.alpha, r.value) = (n as usize, ER_ALPHA, y);
        let good = sweep("BS1", &[(500.0, 0.5), (1000.0, 0.9)], recall);
        let bad = sweep("BS1", &[(500.0, 0.9), (1000.0, 0.9)], recall);
        has_teeth("fig7.smaller_data_needs_more_budget", &good, &bad);

        // Linear (or flat) in k.
        let eps: Set = |r, k, e| (r.value, r.epsilon) = (k, e);
        let good = sweep("QT3 LTM", &[(10.0, 0.1), (50.0, 0.5)], eps);
        let bad = sweep("QT3 LTM", &[(10.0, 0.1), (50.0, 0.1)], eps);
        has_teeth("fig4b.ltm_linear_in_k", &good, &bad);

        // Winner == pick: LM is cheaper in QW1's row and SM in QW2's, and
        // `value` flags the pick.
        let cost: Set = |r, e, pick| (r.alpha, r.epsilon, r.value) = (0.02, e, pick);
        let table = |picks: [f64; 4]| {
            let cells = ["QW1 LM", "QW1 SM", "QW2 LM", "QW2 SM"]
                .iter()
                .zip([0.5, 1.0, 2.0, 1.0]);
            let cells = cells
                .zip(picks)
                .map(|((l, e), p)| sweep(l, &[(e, p)], cost));
            cells.collect::<Vec<_>>().concat()
        };
        let bad = table([0.0, 1.0, 0.0, 1.0]);
        has_teeth("table2.winner_is_pick", &table([1.0, 0.0, 0.0, 1.0]), &bad);

        // Rises then saturates.
        let quality: Set = |r, b, y| (r.budget, r.value) = (b, y);
        let good = sweep("BS1", &[(0.5, 0.0), (1.0, 0.8), (2.0, 0.9)], quality);
        let bad = sweep("BS1", &[(0.5, 0.0), (1.0, 0.0), (2.0, 0.9)], quality);
        has_teeth("fig5.blocking_saturates_in_budget", &good, &bad);
    }

    /// `REPRO.json` lists every claim in spec order, and says `deviation`
    /// exactly where the spec records one: a claim added without a rerun,
    /// a committed `fail`, or a deviation that stopped failing all show.
    #[test]
    fn the_committed_file_matches_the_spec() {
        let text = std::fs::read_to_string(REPRO_JSON).expect("REPRO.json is committed");
        let committed: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"claim\""))
            .collect();
        let spec = FIGURES
            .iter()
            .flat_map(|f| f.claims.iter().map(move |c| (f.name, c)));
        let spec: Vec<String> = spec
            .map(|(f, c)| {
                let v = if c.deviation.is_some() {
                    "deviation"
                } else {
                    "pass"
                };
                format!("{{\"claim\":\"{f}.{}\",\"verdict\":\"{v}\",", c.name)
            })
            .collect();
        assert_eq!(committed.len(), spec.len());
        for (line, prefix) in committed.iter().zip(&spec) {
            assert!(line.starts_with(prefix), "{line} is not {prefix}…");
        }
    }
}
