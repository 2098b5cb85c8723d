//! Empirical validation of the `(α, β)`-accuracy contracts
//! (Definitions 3.1–3.3) for every mechanism, across repeated runs.
//!
//! β is set moderately large (0.05) so that "no failures beyond the
//! statistical allowance" is a meaningful check at a few hundred runs.

use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
use apex_mech::mc::McConfig;
use apex_mech::{
    LaplaceMechanism, LaplaceTopKMechanism, Mechanism, MultiPokingMechanism, PreparedQuery,
    StrategyMechanism, TranslatorCache,
};
use apex_query::{AccuracySpec, ExplorationQuery, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange { min: 0, max: 31 },
    )])
    .unwrap()
}

/// Bin counts 320, 310, …, 10 across 32 value bins.
fn staircase() -> Dataset {
    let mut d = Dataset::empty(schema());
    for v in 0..32_i64 {
        for _ in 0..(10 * (32 - v)) {
            d.push(vec![Value::Int(v)]).unwrap();
        }
    }
    d
}

fn value_bins() -> Vec<Predicate> {
    (0..32).map(|i| Predicate::eq("v", i as i64)).collect()
}

fn prefix_bins() -> Vec<Predicate> {
    (1..=32)
        .map(|i| Predicate::range("v", 0.0, i as f64))
        .collect()
}

const ALPHA: f64 = 60.0;
const BETA: f64 = 0.05;
const RUNS: usize = 300;

/// Allowed failures: a generous 3σ above the binomial mean β·RUNS.
fn failure_allowance() -> usize {
    let mean = BETA * RUNS as f64;
    (mean + 3.0 * (mean * (1.0 - BETA)).sqrt()).ceil() as usize
}

fn count_wcq_failures(mech: &dyn Mechanism, q: &PreparedQuery, d: &Dataset) -> usize {
    let acc = AccuracySpec::new(ALPHA, BETA).unwrap();
    let truth = q.compiled().true_answer(d);
    let mut rng = StdRng::seed_from_u64(0xACC);
    (0..RUNS)
        .filter(|_| {
            let out = mech.run(q, &acc, d, &mut rng).unwrap();
            let counts = out.answer.as_counts().unwrap();
            let err = counts
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            err >= ALPHA
        })
        .count()
}

#[test]
fn lm_wcq_accuracy_holds() {
    let d = staircase();
    let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(value_bins())).unwrap();
    let failures = count_wcq_failures(&LaplaceMechanism, &q, &d);
    assert!(
        failures <= failure_allowance(),
        "{failures} failures in {RUNS} runs"
    );
}

/// The strategy mechanism as the engine builds it: H2, the default
/// Monte-Carlo settings, artifacts from a cache.
fn sm_h2() -> StrategyMechanism {
    StrategyMechanism::new(Strategy::H2, McConfig::default(), TranslatorCache::new())
}

#[test]
fn sm_wcq_accuracy_holds_on_prefixes() {
    let d = staircase();
    let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(prefix_bins())).unwrap();
    let failures = count_wcq_failures(&sm_h2(), &q, &d);
    assert!(
        failures <= failure_allowance(),
        "{failures} failures in {RUNS} runs"
    );
}

/// ICQ contract: bins with count > c+α always in, bins < c−α always out.
fn count_icq_failures(mech: &dyn Mechanism, c: f64) -> usize {
    let d = staircase();
    let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::icq(value_bins(), c)).unwrap();
    let acc = AccuracySpec::new(ALPHA, BETA).unwrap();
    let truth = q.compiled().true_answer(&d);
    let mut rng = StdRng::seed_from_u64(0x1C9);
    (0..RUNS)
        .filter(|_| {
            let out = mech.run(&q, &acc, &d, &mut rng).unwrap();
            let bins: std::collections::HashSet<usize> =
                out.answer.as_bins().unwrap().iter().copied().collect();
            truth.iter().enumerate().any(|(i, &t)| {
                (t > c + ALPHA && !bins.contains(&i)) || (t < c - ALPHA && bins.contains(&i))
            })
        })
        .count()
}

#[test]
fn lm_icq_accuracy_holds() {
    let failures = count_icq_failures(&LaplaceMechanism, 150.0);
    assert!(failures <= failure_allowance(), "{failures} failures");
}

#[test]
fn sm_icq_accuracy_holds() {
    let failures = count_icq_failures(&sm_h2(), 150.0);
    assert!(failures <= failure_allowance(), "{failures} failures");
}

#[test]
fn mpm_icq_accuracy_holds() {
    let failures = count_icq_failures(&MultiPokingMechanism::default(), 150.0);
    assert!(failures <= failure_allowance(), "{failures} failures");
}

/// TCQ contract relative to ck (Definition 3.3).
fn count_tcq_failures(mech: &dyn Mechanism, k: usize) -> usize {
    let d = staircase();
    let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::tcq(value_bins(), k)).unwrap();
    let acc = AccuracySpec::new(ALPHA, BETA).unwrap();
    let truth = q.compiled().true_answer(&d);
    let mut sorted = truth.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let ck = sorted[k - 1];
    let mut rng = StdRng::seed_from_u64(0x7C9);
    (0..RUNS)
        .filter(|_| {
            let out = mech.run(&q, &acc, &d, &mut rng).unwrap();
            let bins: std::collections::HashSet<usize> =
                out.answer.as_bins().unwrap().iter().copied().collect();
            // Violation: returned bin with count < ck−α, or excluded bin
            // with count > ck+α.
            truth.iter().enumerate().any(|(i, &t)| {
                (bins.contains(&i) && t < ck - ALPHA) || (!bins.contains(&i) && t > ck + ALPHA)
            })
        })
        .count()
}

#[test]
fn lm_tcq_accuracy_holds() {
    let failures = count_tcq_failures(&LaplaceMechanism, 5);
    assert!(failures <= failure_allowance(), "{failures} failures");
}

#[test]
fn ltm_tcq_accuracy_holds() {
    let failures = count_tcq_failures(&LaplaceTopKMechanism, 5);
    assert!(failures <= failure_allowance(), "{failures} failures");
}

#[test]
fn accuracy_contract_is_uniform_over_datasets() {
    // Definition 3.1 quantifies over every D; spot-check LM's WCQ bound
    // on three very different shapes.
    let shapes: [&dyn Fn() -> Dataset; 3] = [
        &staircase,
        &|| {
            // All mass in one bin.
            let mut d = Dataset::empty(schema());
            for _ in 0..5_000 {
                d.push(vec![Value::Int(0)]).unwrap();
            }
            d
        },
        &|| Dataset::empty(schema()), // empty data: pure noise
    ];
    for (si, make) in shapes.iter().enumerate() {
        let d = make();
        let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(value_bins())).unwrap();
        let failures = count_wcq_failures(&LaplaceMechanism, &q, &d);
        assert!(
            failures <= failure_allowance(),
            "shape {si}: {failures} failures"
        );
    }
}

#[test]
fn translation_is_the_minimal_cost_for_lm() {
    // Minimality (Theorem 5.2): running LM at 0.8× the translated ε must
    // observably violate the accuracy bound more often than β allows.
    let d = staircase();
    let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(value_bins())).unwrap();
    let acc = AccuracySpec::new(ALPHA, BETA).unwrap();
    let eps = LaplaceMechanism.translate(&q, &acc).unwrap().upper;
    // Simulate the cheaper mechanism by scaling α up by the same factor
    // (equivalent to shrinking ε) and measuring failures against ALPHA.
    let cheat = AccuracySpec::new(ALPHA / 0.7, BETA).unwrap();
    let cheat_eps = LaplaceMechanism.translate(&q, &cheat).unwrap().upper;
    assert!(cheat_eps < eps);
    let truth = q.compiled().true_answer(&d);
    let mut rng = StdRng::seed_from_u64(0x31);
    let failures = (0..RUNS)
        .filter(|_| {
            let out = LaplaceMechanism.run(&q, &cheat, &d, &mut rng).unwrap();
            let err = out
                .answer
                .as_counts()
                .unwrap()
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            err >= ALPHA
        })
        .count();
    assert!(
        failures > failure_allowance(),
        "under-budgeted mechanism should fail noticeably, got {failures}"
    );
}
