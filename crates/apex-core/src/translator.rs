//! The accuracy translator: choose the admissible mechanism with least
//! privacy loss (Algorithm 1, Lines 4–10).

use apex_mech::{
    mechanisms_for_cached, MechError, Mechanism, PreparedQuery, Translation, TranslatorCache,
};
use apex_query::AccuracySpec;

use crate::engine::Mode;

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
/// reuse one strategy operator + Monte-Carlo translator per workload
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
    cache: Option<TranslatorCache>,
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
    cache: Option<TranslatorCache>,
    _dataset_epoch: u64,
) -> Result<Option<MechanismChoice>, MechError> {
    choose_mechanism_cached(q, acc, remaining_budget, mode, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::{Attribute, Domain, Predicate, Schema};
    use apex_mech::mc::McConfig;
    use apex_mech::SmArtifacts;
    use apex_query::{ExplorationQuery, Strategy};

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
    fn tiny_beta_histogram_is_translated_by_every_mechanism() {
        // The analyzer costs SM for every WCQ, so SM's translator must
        // survive a β whose band quantile rounds to 1 (β = 1e-15), and the
        // pick is still the cheapest finite candidate.
        let q = prepare(&ExplorationQuery::wcq(
            (0..8)
                .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
                .collect(),
        ));
        let acc = AccuracySpec::new(20.0, 1e-15).unwrap();
        let uppers: Vec<f64> = mechanisms_for_cached(q.kind(), None)
            .iter()
            .map(|m| m.translate(&q, &acc).unwrap().upper)
            .collect();
        assert_eq!(uppers.len(), 2, "LM and SM both cost a WCQ");
        assert!(uppers.iter().all(|e| e.is_finite()), "{uppers:?}");
        let c = choose_mechanism(&q, &acc, f64::INFINITY, Mode::Pessimistic)
            .unwrap()
            .unwrap();
        assert_eq!(
            c.translation.upper,
            uppers.iter().copied().fold(f64::INFINITY, f64::min)
        );
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
        // via the strategy operator's pinv_apply.
        let q = prepare(&ExplorationQuery::wcq(
            (1..=16)
                .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
                .collect(),
        ));
        let mc = McConfig {
            samples: 500,
            ..Default::default()
        };
        let art = SmArtifacts::build(q.compiled().csr(), Strategy::H2, mc).unwrap();
        let n = q.compiled().n_cells();
        let x: Vec<f64> = (0..n).map(|i| (i % 11) as f64).collect();
        let y = art.strategy_answer(&x).unwrap();
        assert_eq!(y.len(), art.strategy_rows());
        let omega = art.reconstruct(&y).unwrap();
        let wx = q.compiled().csr().matvec(&x).unwrap();
        for (a, b) in omega.iter().zip(&wx) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!(art.strat_sensitivity >= 1.0);
        assert!(art.translator.translate(20.0, 0.01) > 0.0);
    }

    #[test]
    fn prepared_translator_uses_the_cache() {
        let q = prepare(&ExplorationQuery::wcq(
            (1..=8)
                .map(|i| Predicate::range("v", 0.0, (8 * i) as f64))
                .collect(),
        ));
        let mc = McConfig {
            samples: 200,
            ..Default::default()
        };
        let cache = TranslatorCache::with_capacity(4);
        let cached = || {
            let w = q.compiled();
            SmArtifacts::get_or_build_cached(&cache, w.csr(), w.signature(), Strategy::H2, mc)
                .unwrap()
        };
        let (a, b) = (cached(), cached());
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Cached and fresh translations are identical (reuse is exact).
        let fresh = SmArtifacts::build(q.compiled().csr(), Strategy::H2, mc).unwrap();
        assert_eq!(
            a.translator.translate(10.0, 0.05),
            fresh.translator.translate(10.0, 0.05)
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
