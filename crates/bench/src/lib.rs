//! Benchmark harness regenerating the APEx paper's evaluation
//! (Sections 7 and 8) and checking its claims.
//!
//! * [`queries`] — the 12 benchmark queries of Table 1, re-created on the
//!   synthetic Adult / NYTaxi datasets;
//! * [`metrics`] — the paper's empirical error and F1 measures;
//! * [`er`] — the entity-resolution sweep behind Figures 5–7;
//! * [`runner`] — shared experiment plumbing: records, parallel sweeps,
//!   JSON lines.
//!
//! One binary, `repro`, runs every figure and checks the claims below;
//! its module doc has the sizes, seeds, verdicts and the synthetic-data
//! rationale. `repro --quick` is the CI gate and rewrites `REPRO.json`;
//! `repro [figure…]` runs a subset at the paper's sizes.
//!
//! | figure | sweep | claims (deviations in italics) |
//! |---|---|---|
//! | `fig2` | ε and error of APEx's pick, 12 queries × 7 α | `error_within_alpha` (rate ≤ β), `epsilon_within_upper`, `upper_falls_with_alpha`, `taxi_invariant` (εᵘ·\|D\| of QW1 = QW3) |
//! | `fig3` | F1 of APEx's pick on QI4 and QT1 | `f1_falls_with_alpha` |
//! | `table2` | every mechanism × 12 queries × 2 α | `no_universal_winner`, `winner_is_pick` (`choose_mechanism`), `mpm_within_upper` |
//! | `fig4a` | LM/SM εᵘ vs workload size L | `lm_linear_in_l` (QW2 ≥ 5×), `sm_logarithmic_in_l` (QW2 ≤ 2×) |
//! | `fig4b` | LM/LTM εᵘ vs k on QT3, QT4 | `lm_flat_in_k`, `ltm_linear_in_k` (ε(50)/ε(10) = 5) |
//! | `fig4c` | LM/SM/MPM ε vs ICQ threshold c on QI2 | `lm_sm_flat_in_c`, *`mpm_below_lm`* |
//! | `fig5` | ER quality vs budget B | `blocking_saturates_in_budget`, `matching_saturates_in_budget`, *`icq_strategies_need_less_budget`* |
//! | `fig6` | ER quality vs α at B = 1 | *`blocking_peaks_mid_alpha`*, *`matching_peaks_mid_alpha`* |
//! | `fig7` | BS1/BS2 at two \|D\| | `smaller_data_needs_more_budget` |

pub mod er;
pub mod metrics;
pub mod queries;
pub mod runner;

pub use er::run_er_sweep;
pub use metrics::{empirical_error, f1_of_answer, true_selection};
pub use queries::{benchmark_queries, BenchQuery, DatasetId, Datasets};
pub use runner::{json_escape, parallel_map, write_records, BenchError, ExperimentRecord};
