//! Optimistic vs pessimistic mechanism selection (Algorithm 1, Lines
//! 8/10) on a sequence of iceberg queries.
//!
//! ```text
//! cargo run --release --example adaptive_budget
//! ```
//!
//! The multi-poking mechanism's privacy loss depends on the data: far
//! from the threshold it stops after one poke (cheap); near the
//! threshold it burns its whole worst-case allowance. Optimistic mode
//! gambles on the cheap case — this example shows both modes on the same
//! query sequence so you can watch the gamble pay off (or not).

use apex_core::{ApexEngine, EngineConfig, EngineResponse, Mode};
use apex_data::synth::adult_dataset;
use apex_data::Predicate;
use apex_query::{AccuracySpec, ExplorationQuery};

fn run(mode: Mode) -> (usize, f64) {
    let data = adult_dataset(32_561, 7);
    let n = data.len() as f64;
    let mut engine = ApexEngine::new(
        data,
        EngineConfig {
            budget: 0.5,
            mode,
            seed: 31,
        },
    );
    let acc = AccuracySpec::new(0.02 * n, 5e-4).expect("valid");

    // A sequence of iceberg queries over occupation groups at thresholds
    // increasingly close to real counts — late queries get expensive for
    // the optimist.
    let occupations = [
        "tech",
        "craft",
        "exec",
        "admin",
        "sales",
        "service",
        "machine-op",
        "transport",
    ];
    let mut answered = 0;
    for (i, frac) in [0.5, 0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05]
        .iter()
        .enumerate()
    {
        let workload: Vec<Predicate> = occupations
            .iter()
            .map(|o| Predicate::eq("occupation", *o))
            .collect();
        let q = ExplorationQuery::icq(workload, frac * n);
        match engine.submit(&q, &acc).expect("well-formed") {
            EngineResponse::Answered(a) => {
                answered += 1;
                println!(
                    "  [{mode:?}] q{i}: c = {:.2}|D| → {} bins over, mech {}, ε = {:.4} (εᵘ was {:.4})",
                    frac,
                    a.answer.as_bins().expect("ICQ").len(),
                    a.mechanism,
                    a.epsilon,
                    a.epsilon_upper
                );
            }
            EngineResponse::Denied => {
                println!(
                    "  [{mode:?}] q{i}: denied — remaining budget {:.4}",
                    engine.remaining()
                );
            }
        }
    }
    (answered, engine.spent())
}

fn main() {
    println!("pessimistic mode (min εᵘ — never gambles):");
    let (ans_p, spent_p) = run(Mode::Pessimistic);
    println!("\noptimistic mode (min εˡ — bets on data-dependent savings):");
    let (ans_o, spent_o) = run(Mode::Optimistic);

    println!("\nsummary under budget B = 0.5:");
    println!("  pessimistic: {ans_p} answered, {spent_p:.4} spent");
    println!("  optimistic:  {ans_o} answered, {spent_o:.4} spent");
    println!(
        "(the paper runs its evaluation in optimistic mode; Section 7.3 \
              shows a case where optimism backfires when c sits near true counts)"
    );
}
