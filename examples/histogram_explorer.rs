//! Adaptive drill-down: the exploration pattern the paper motivates.
//!
//! ```text
//! cargo run --release --example histogram_explorer
//! ```
//!
//! The analyst starts with a coarse histogram (cheap, loose accuracy),
//! finds the heaviest region, and zooms in with a finer, more accurate
//! query — letting APEx trade budget for precision query by query. Each
//! choice depends on previous *noisy* answers, which is exactly the
//! adaptively-chosen-sequence setting Theorem 6.2 covers.

use apex_core::{ApexEngine, EngineConfig, EngineResponse, Mode};
use apex_data::synth::nytaxi_dataset;
use apex_data::Predicate;
use apex_query::{AccuracySpec, ExplorationQuery};

fn main() {
    let data = nytaxi_dataset(200_000, 5);
    let n = data.len() as f64;
    let mut engine = ApexEngine::new(
        data,
        EngineConfig {
            budget: 0.01,
            mode: Mode::Optimistic,
            seed: 9,
        },
    );

    // Round 1: coarse — ten 1-mile bins, loose accuracy (1% of |D|).
    let coarse: Vec<Predicate> = (0..10)
        .map(|i| Predicate::range("trip_distance", i as f64, (i + 1) as f64))
        .collect();
    let acc = AccuracySpec::new(0.01 * n, 5e-4).expect("valid");
    let answer = match engine
        .submit(&ExplorationQuery::wcq(coarse), &acc)
        .expect("ok")
    {
        EngineResponse::Answered(a) => a,
        EngineResponse::Denied => {
            println!("coarse query denied");
            return;
        }
    };
    let counts = answer.answer.as_counts().expect("WCQ").to_vec();
    let (hot, _) = counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    println!(
        "coarse pass (ε = {:.6}): heaviest mile bucket = [{hot}, {} mi)",
        answer.epsilon,
        hot + 1
    );

    // Round 2: zoom into the heaviest mile with 0.1-mile bins and a 4×
    // tighter accuracy bound. The analyst's choice of region is
    // post-processing of a private answer — no extra privacy cost.
    let fine: Vec<Predicate> = (0..10)
        .map(|i| {
            Predicate::range(
                "trip_distance",
                hot as f64 + 0.1 * i as f64,
                hot as f64 + 0.1 * (i + 1) as f64,
            )
        })
        .collect();
    let tight = AccuracySpec::new(0.0025 * n, 5e-4).expect("valid");
    match engine
        .submit(&ExplorationQuery::wcq(fine), &tight)
        .expect("ok")
    {
        EngineResponse::Answered(a) => {
            println!("fine pass (ε = {:.6}):", a.epsilon);
            for (i, c) in a.answer.as_counts().expect("WCQ").iter().enumerate() {
                let lo = hot as f64 + 0.1 * i as f64;
                println!("  [{:.1}, {:.1}) mi: ~{:>8.0}", lo, lo + 0.1, c.max(0.0));
            }
        }
        EngineResponse::Denied => println!("fine pass denied — tighten the budget or loosen α"),
    }

    // Round 3: a deliberately extravagant request to show denial.
    let extravagant = AccuracySpec::new(5.0, 5e-4).expect("valid"); // ±5 trips of 200k!
    let one_bin = vec![Predicate::range("trip_distance", 0.0, 1.0)];
    match engine
        .submit(&ExplorationQuery::wcq(one_bin), &extravagant)
        .expect("ok")
    {
        EngineResponse::Answered(a) => println!("surprisingly answered at ε = {:.4}", a.epsilon),
        EngineResponse::Denied => {
            println!("extravagant request denied (as expected) — budget is preserved")
        }
    }

    // Round 4: revisit the coarse histogram at a few accuracy levels —
    // the classic session pattern. The workload's domain partition is
    // unchanged, so the engine's translator cache answers every
    // accuracy-to-privacy translation without redoing the O(n³)
    // pseudoinverse or the Monte-Carlo simulation.
    let coarse_again: Vec<Predicate> = (0..10)
        .map(|i| Predicate::range("trip_distance", i as f64, (i + 1) as f64))
        .collect();
    for alpha_frac in [0.02, 0.015, 0.0125] {
        let acc = AccuracySpec::new(alpha_frac * n, 5e-4).expect("valid");
        let q = ExplorationQuery::wcq(coarse_again.clone());
        if let EngineResponse::Answered(a) = engine.submit(&q, &acc).expect("ok") {
            println!("revisit at α = {:.3}|D|: ε = {:.6}", alpha_frac, a.epsilon);
        }
    }
    let stats = engine.translator_cache().stats();
    println!(
        "translator cache: {} hits, {} misses over {} distinct workloads",
        stats.hits,
        stats.misses,
        engine.translator_cache().len()
    );

    println!(
        "spent {:.6} of {:.3}; transcript valid: {}",
        engine.spent(),
        engine.budget(),
        engine.transcript().is_valid(engine.budget())
    );
}
