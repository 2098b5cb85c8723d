//! Shared driver for the entity-resolution experiments (Figures 5–7).

use apex_cleaning::strategies::{materialize_for_cleaner, run_strategy_on};
use apex_cleaning::{CleanerModel, StrategyKind};
use apex_data::synth::{citations_dataset, CitationsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::{parallel_map, ExperimentRecord};

/// Runs `runs` sampled cleaners for every strategy at every `(B, α/|D|)`
/// point of `configs` and returns experiment records (one per run,
/// labelled `er`). The expensive materialization is done once per
/// cleaner and shared across all configurations and strategies. `seed`
/// fixes the citation pairs, the sampled cleaners and every strategy's
/// noise.
pub fn run_er_sweep(
    seed: u64,
    n_pairs: usize,
    configs: &[(f64, f64)],
    runs: usize,
    threads: usize,
) -> Vec<ExperimentRecord> {
    use StrategyKind::{Bs1, Bs2, Ms1, Ms2};
    let pairs = citations_dataset(&CitationsConfig {
        n_pairs,
        seed,
        ..Default::default()
    });
    let model = CleanerModel::default();

    let outputs = parallel_map((0..runs).collect::<Vec<usize>>(), threads, |run| {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xE12_0000 + run as u64));
        let cleaner = model.sample(&mut rng);
        let m = materialize_for_cleaner(&pairs, &cleaner).expect("materialization succeeds");
        let mut recs = Vec::new();
        for kind in [Bs1, Bs2, Ms1, Ms2] {
            for (ci, &(budget, alpha)) in configs.iter().enumerate() {
                let run_seed = seed ^ (0x5EED_0000 + (run as u64) * 100 + ci as u64);
                let abs_alpha = alpha * n_pairs as f64;
                let out = run_strategy_on(kind, &m, &cleaner, budget, abs_alpha, 5e-4, run_seed)
                    .expect("strategy runs");
                let (value, measure) = if kind.is_blocking() {
                    (out.quality.recall, "recall")
                } else {
                    (out.quality.f1, "f1")
                };
                let mut r = ExperimentRecord::new("er", kind.name());
                r.seed = seed;
                r.rows = n_pairs;
                r.alpha = alpha;
                r.beta = 5e-4;
                r.budget = budget;
                r.epsilon = out.spent;
                r.value = value;
                r.measure = measure.into();
                r.run = run;
                recs.push(r);
            }
        }
        recs
    });
    outputs.into_iter().flatten().collect()
}
