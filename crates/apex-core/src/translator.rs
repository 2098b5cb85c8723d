//! The accuracy translator: choose the admissible mechanism with least
//! privacy loss (Algorithm 1, Lines 4–10), and the standalone
//! [`PreparedTranslator`] for callers that manage strategy translation
//! directly (benchmarks, multi-tenant services).

use std::sync::Arc;

use apex_mech::mc::McConfig;
use apex_mech::{
    mechanisms_for_cached, MechError, Mechanism, PreparedQuery, SmArtifacts, SmCache, Translation,
};
use apex_query::{AccuracySpec, CompiledWorkload, Strategy};

use crate::cache::TranslatorCache;
use crate::engine::Mode;
use crate::selector::OperatorSelector;

/// A workload's accuracy-to-privacy translator, prepared once and reused:
/// the strategy operator, its Monte-Carlo simulation, and the
/// reconstruction path.
///
/// Since the operator refactor, preparation is `O(n log n)` — the
/// strategy's normal equations are solved recursively instead of through
/// a dense `O(n³)` pseudoinverse — and the prepared state is `O(n log n)`
/// small, so translators are cheap to build per workload and cheap to
/// share across engines through a bounded [`TranslatorCache`].
/// Reconstruction computes `ω = W A⁺ ŷ` as
/// `apply_transpose` + `solve_normal` + one sparse workload product; no
/// dense `W A⁺` is ever stored.
///
/// Everything here is data-independent: a `PreparedTranslator` can be
/// built before any data access and reused across tenant datasets.
#[derive(Debug, Clone)]
pub struct PreparedTranslator {
    artifacts: Arc<SmArtifacts>,
}

impl PreparedTranslator {
    /// Prepares the translator for `workload` answered through
    /// `strategy`, consulting (and warming) `cache` when given. Cache
    /// hits are verified against the workload's actual structure, so a
    /// 64-bit signature collision can never hand out another workload's
    /// translator.
    ///
    /// The build pipeline (dense reference, single-RHS operator loop, or
    /// blocked multi-RHS operator) is picked by [`OperatorSelector`] from
    /// bench-measured crossover points, so preparation takes the fastest
    /// path for the workload's domain size. The choice is a pure function
    /// of `(n, samples)` plus the `APEX_OPERATOR_PATH` override, and the
    /// path is part of the cache key — cached and fresh prepares always
    /// agree, and a path switch never aliases another path's artifacts.
    ///
    /// # Errors
    /// Propagates strategy-construction failures (empty domain, bad
    /// branching).
    pub fn prepare(
        workload: &CompiledWorkload,
        strategy: Strategy,
        mc: McConfig,
        cache: Option<&TranslatorCache>,
    ) -> Result<Self, MechError> {
        let path = OperatorSelector::choose(workload.csr().cols(), mc.samples);
        let artifacts = match cache {
            None => Arc::new(SmArtifacts::build_with_path(
                workload.csr(),
                strategy,
                mc,
                path,
            )?),
            Some(cache) => SmArtifacts::get_or_build_cached_with_path(
                &cache.handle(),
                workload.csr(),
                workload.signature(),
                strategy,
                mc,
                path,
            )?,
        };
        Ok(Self { artifacts })
    }

    /// The minimal `ε` meeting `(α, β)` accuracy for the WCQ form of the
    /// workload (Algorithm 3's `translate`).
    pub fn translate(&self, alpha: f64, beta: f64) -> f64 {
        self.artifacts.translator.translate(alpha, beta)
    }

    /// The strategy's true answer `A x` on a histogram `x` (noise is the
    /// caller's job — mechanisms own the RNG).
    ///
    /// # Errors
    /// Shape mismatches surface as [`MechError::Linalg`].
    pub fn strategy_answer(&self, x: &[f64]) -> Result<Vec<f64>, MechError> {
        self.artifacts.strategy_answer(x)
    }

    /// Reconstructs workload answers `ω = W A⁺ ŷ` from noisy strategy
    /// answers, via `solve_normal` + `apply_transpose`.
    ///
    /// # Errors
    /// Shape mismatches surface as [`MechError::Linalg`].
    pub fn reconstruct(&self, y_hat: &[f64]) -> Result<Vec<f64>, MechError> {
        self.artifacts.reconstruct(y_hat)
    }

    /// The strategy sensitivity `‖A‖₁` (the Laplace scale is
    /// `‖A‖₁ / ε`).
    pub fn strategy_sensitivity(&self) -> f64 {
        self.artifacts.strat_sensitivity
    }

    /// Number of strategy rows `m` — the noise dimension.
    pub fn strategy_rows(&self) -> usize {
        self.artifacts.strategy_rows()
    }

    /// The underlying shared artifacts (for interop with `apex-mech`).
    pub fn artifacts(&self) -> &Arc<SmArtifacts> {
        &self.artifacts
    }
}

/// A mechanism admitted by the privacy analyzer, with its translation.
pub struct MechanismChoice {
    /// The selected mechanism.
    pub mechanism: Box<dyn Mechanism>,
    /// Its accuracy-to-privacy translation for the query at hand.
    pub translation: Translation,
}

impl std::fmt::Debug for MechanismChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MechanismChoice")
            .field("mechanism", &self.mechanism.name())
            .field("translation", &self.translation)
            .finish()
    }
}

/// Translates `(q, α, β)` for every applicable mechanism, keeps those
/// whose **worst-case** loss fits inside `remaining_budget` (the analyzer
/// step: running any admitted mechanism can never overshoot the budget),
/// and picks the best by `mode`:
///
/// * [`Mode::Pessimistic`] — least `εᵘ` (Line 8),
/// * [`Mode::Optimistic`] — least `εˡ` (Line 10), gambling that a
///   data-dependent mechanism stops early.
///
/// Returns `Ok(None)` when no mechanism fits — the caller must deny the
/// query. The decision is a deterministic function of the query, accuracy
/// and remaining budget only (never the data), which Case 3 of the
/// Theorem 6.2 proof requires.
///
/// # Errors
/// Propagates translation failures other than "unsupported kind" (those
/// are skipped, since the registry may be broader than the query).
pub fn choose_mechanism(
    q: &PreparedQuery,
    acc: &AccuracySpec,
    remaining_budget: f64,
    mode: Mode,
) -> Result<Option<MechanismChoice>, MechError> {
    choose_mechanism_cached(q, acc, remaining_budget, mode, None)
}

/// [`choose_mechanism`] with the strategy mechanism wired to a shared
/// artifact cache, so the analyzer's translation and the subsequent `run`
/// reuse one pseudoinverse + Monte-Carlo translator per workload
/// signature. The selection logic — and, because cached artifacts are
/// exact, every selected mechanism and ε — is identical to the uncached
/// path.
///
/// # Errors
/// Same contract as [`choose_mechanism`].
pub fn choose_mechanism_cached(
    q: &PreparedQuery,
    acc: &AccuracySpec,
    remaining_budget: f64,
    mode: Mode,
    cache: Option<Arc<SmCache>>,
) -> Result<Option<MechanismChoice>, MechError> {
    let mut best: Option<MechanismChoice> = None;
    for mechanism in mechanisms_for_cached(q.kind(), cache) {
        if !mechanism.supports(q.kind()) {
            continue;
        }
        let translation = match mechanism.translate(q, acc) {
            Ok(t) => t,
            Err(MechError::Unsupported { .. }) => continue,
            Err(e) => return Err(e),
        };
        if translation.upper > remaining_budget {
            continue; // inadmissible: could overshoot the budget
        }
        let key = match mode {
            Mode::Pessimistic => translation.upper,
            Mode::Optimistic => translation.lower,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                let bkey = match mode {
                    Mode::Pessimistic => b.translation.upper,
                    Mode::Optimistic => b.translation.lower,
                };
                key < bkey
            }
        };
        if better {
            best = Some(MechanismChoice {
                mechanism,
                translation,
            });
        }
    }
    Ok(best)
}

/// [`choose_mechanism_cached`] under its former name; `_dataset_epoch` is
/// ignored. The strategy artifacts are data-independent, so the epoch no
/// longer takes part in the cache key. Kept only because the request-path
/// benchmark (`benchmark/`, frozen) calls this signature.
///
/// # Errors
/// Same contract as [`choose_mechanism`].
pub fn choose_mechanism_cached_at_epoch(
    q: &PreparedQuery,
    acc: &AccuracySpec,
    remaining_budget: f64,
    mode: Mode,
    cache: Option<Arc<SmCache>>,
    _dataset_epoch: u64,
) -> Result<Option<MechanismChoice>, MechError> {
    choose_mechanism_cached(q, acc, remaining_budget, mode, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::{Attribute, Domain, Predicate, Schema};
    use apex_query::ExplorationQuery;

    fn schema() -> Schema {
        Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 63 },
        )])
        .unwrap()
    }

    fn prepare(q: &ExplorationQuery) -> PreparedQuery {
        PreparedQuery::prepare(&schema(), q).unwrap()
    }

    #[test]
    fn histogram_wcq_prefers_lm() {
        // Sensitivity-1 histogram: LM beats SM(H2).
        let q = prepare(&ExplorationQuery::wcq(
            (0..8)
                .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
                .collect(),
        ));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let c = choose_mechanism(&q, &acc, f64::INFINITY, Mode::Pessimistic)
            .unwrap()
            .unwrap();
        assert_eq!(c.mechanism.name(), "LM");
    }

    #[test]
    fn prefix_wcq_prefers_sm() {
        // Sensitivity-L prefix workload: SM(H2) wins (Table 2, QW2).
        let q = prepare(&ExplorationQuery::wcq(
            (1..=32)
                .map(|i| Predicate::range("v", 0.0, (2 * i) as f64))
                .collect(),
        ));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let c = choose_mechanism(&q, &acc, f64::INFINITY, Mode::Pessimistic)
            .unwrap()
            .unwrap();
        assert_eq!(c.mechanism.name(), "SM");
    }

    #[test]
    fn optimistic_mode_prefers_mpm_for_icq() {
        // MPM's εˡ = εᵘ/m is far below LM/SM; optimistic mode gambles.
        let q = prepare(&ExplorationQuery::icq(
            (0..8)
                .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
                .collect(),
            100.0,
        ));
        let acc = AccuracySpec::new(20.0, 0.0005).unwrap();
        let c = choose_mechanism(&q, &acc, f64::INFINITY, Mode::Optimistic)
            .unwrap()
            .unwrap();
        assert_eq!(c.mechanism.name(), "MPM");
        // Pessimistic mode refuses the gamble (MPM has the largest εᵘ).
        let c = choose_mechanism(&q, &acc, f64::INFINITY, Mode::Pessimistic)
            .unwrap()
            .unwrap();
        assert_ne!(c.mechanism.name(), "MPM");
    }

    #[test]
    fn budget_filters_out_expensive_mechanisms() {
        let q = prepare(&ExplorationQuery::wcq(
            (0..8)
                .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
                .collect(),
        ));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        // With effectively no budget, nothing is admissible.
        let c = choose_mechanism(&q, &acc, 1e-6, Mode::Pessimistic).unwrap();
        assert!(c.is_none());
    }

    #[test]
    fn prepared_translator_reconstructs_exact_answers_without_noise() {
        // With zero noise, ω = W A⁺ A x = W x exactly (up to solver
        // tolerance): the reconstruction identity of Section 5.2, computed
        // via solve_normal + apply_transpose.
        let q = prepare(&ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        ));
        let mc = apex_mech::mc::McConfig {
            samples: 500,
            ..Default::default()
        };
        let t = PreparedTranslator::prepare(q.compiled(), Strategy::H2, mc, None).unwrap();
        let n = q.compiled().n_cells();
        let x: Vec<f64> = (0..n).map(|i| (i % 11) as f64).collect();
        let y = t.strategy_answer(&x).unwrap();
        assert_eq!(y.len(), t.strategy_rows());
        let omega = t.reconstruct(&y).unwrap();
        let wx = q.compiled().csr().matvec(&x).unwrap();
        for (a, b) in omega.iter().zip(&wx) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!(t.strategy_sensitivity() >= 1.0);
        assert!(t.translate(20.0, 0.01) > 0.0);
    }

    #[test]
    fn prepared_translator_uses_the_cache() {
        let q = prepare(&ExplorationQuery::wcq(
            (1..=8)
                .map(|i| Predicate::range("v", 0.0, (8 * i) as f64))
                .collect(),
        ));
        let mc = apex_mech::mc::McConfig {
            samples: 200,
            ..Default::default()
        };
        let cache = TranslatorCache::with_capacity(4);
        let a = PreparedTranslator::prepare(q.compiled(), Strategy::H2, mc, Some(&cache)).unwrap();
        let b = PreparedTranslator::prepare(q.compiled(), Strategy::H2, mc, Some(&cache)).unwrap();
        assert!(Arc::ptr_eq(a.artifacts(), b.artifacts()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Cached and fresh translations are identical (reuse is exact).
        let fresh = PreparedTranslator::prepare(q.compiled(), Strategy::H2, mc, None).unwrap();
        assert_eq!(a.translate(10.0, 0.05), fresh.translate(10.0, 0.05));
    }

    #[test]
    fn every_selector_path_reproduces_the_dense_reference_unit_errors() {
        // Whatever the selector picks for a given (n, samples), the
        // resulting translator must be statistically the same object:
        // the two operator paths are bit-identical to each other, and all
        // paths match the dense reference to solver tolerance, so a
        // crossover-table update can shift timings but never a privacy
        // decision.
        use apex_mech::OperatorPath;
        let q = prepare(&ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        ));
        let mc = apex_mech::mc::McConfig {
            samples: 400,
            ..Default::default()
        };
        let dense =
            SmArtifacts::build_with_path(q.compiled().csr(), Strategy::H2, mc, OperatorPath::Dense)
                .unwrap();
        let reference = dense.translator.unit_errors();
        for path in [
            OperatorPath::Dense,
            OperatorPath::HierSingle,
            OperatorPath::HierBlocked,
        ] {
            let built =
                SmArtifacts::build_with_path(q.compiled().csr(), Strategy::H2, mc, path).unwrap();
            let errs = built.translator.unit_errors();
            assert_eq!(errs.len(), reference.len(), "{path:?}");
            for (a, b) in errs.iter().zip(reference) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "{path:?}: {a} vs {b}"
                );
            }
        }
        // The selected path (whatever the committed table says for this
        // size) is one of the three above, so prepare() inherits the
        // equivalence; check the end-to-end translation anyway.
        let selected = PreparedTranslator::prepare(q.compiled(), Strategy::H2, mc, None).unwrap();
        let eps = selected.translate(20.0, 0.01);
        let eps_dense = {
            let t = &dense.translator;
            t.translate(20.0, 0.01)
        };
        assert!(
            (eps - eps_dense).abs() <= 1e-9 * eps_dense.abs().max(1.0),
            "{eps} vs {eps_dense}"
        );
    }

    #[test]
    fn selection_is_deterministic() {
        let q = prepare(&ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        ));
        let acc = AccuracySpec::new(20.0, 0.01).unwrap();
        let a = choose_mechanism(&q, &acc, 100.0, Mode::Pessimistic)
            .unwrap()
            .unwrap();
        let b = choose_mechanism(&q, &acc, 100.0, Mode::Pessimistic)
            .unwrap()
            .unwrap();
        assert_eq!(a.mechanism.name(), b.mechanism.name());
        assert_eq!(a.translation, b.translation);
    }
}
