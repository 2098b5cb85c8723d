//! The Section 8 case study in one run: privately learn blocking and
//! matching formulas for entity resolution.
//!
//! ```text
//! cargo run --release --example entity_resolution
//! ```
//!
//! A "cleaner" (a simulated human analyst, sampled from the paper's
//! Table 3 model) explores a labeled record-pair table through APEx only
//! — every decision it makes is based on differentially private answers —
//! and produces boolean formulas over similarity predicates. We then
//! score those formulas against the ground truth.

use apex_cleaning::strategies::{materialize_for_cleaner, run_strategy_on};
use apex_cleaning::{CleanerModel, StrategyKind};
use apex_data::synth::{citations_dataset, CitationsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let pairs = citations_dataset(&CitationsConfig {
        n_pairs: 2_000,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(2024);
    let cleaner = CleanerModel::default().sample(&mut rng);

    println!(
        "sampled cleaner: {} transforms × {} sims × {} thresholds in [{:.2}, {:.2}]",
        cleaner.transforms.len(),
        cleaner.sims.len(),
        cleaner.n_thetas,
        cleaner.theta_lo,
        cleaner.theta_hi
    );

    // Materialize the cleaner's candidate predicates once; both tasks
    // reuse it (the derivation is a per-tuple map, so DP over the derived
    // table is DP over the pairs).
    let m = materialize_for_cleaner(&pairs, &cleaner).expect("materializes");
    println!(
        "materialized {} candidate predicates over {} pairs\n",
        m.predicates.len(),
        pairs.len()
    );

    let budget = 2.0;
    let alpha = 0.08 * pairs.len() as f64;

    for kind in [StrategyKind::Bs2, StrategyKind::Ms2] {
        let out =
            run_strategy_on(kind, &m, &cleaner, budget, alpha, 5e-4, 77).expect("strategy runs");
        println!("{} (budget {budget}, α = {alpha}):", kind.name());
        println!(
            "  queries answered: {}   denied: {}   privacy spent: {:.4}",
            out.queries_answered, out.queries_denied, out.spent
        );
        println!("  selected {} predicate(s):", out.selected.len());
        for &i in &out.selected {
            println!("    {}", m.predicates[i]);
        }
        if kind.is_blocking() {
            println!(
                "  ground truth: recall = {:.3}, blocking cost = {} pairs\n",
                out.quality.recall, out.cost
            );
        } else {
            println!(
                "  ground truth: precision = {:.3}, recall = {:.3}, F1 = {:.3}\n",
                out.quality.precision, out.quality.recall, out.quality.f1
            );
        }
    }
}
