//! The strategy-based (matrix) mechanism — Algorithm 3 — for WCQ, and its
//! ICQ adaptation via post-processing (Section 5.3.1).

use std::sync::Arc;

use apex_data::Dataset;
use apex_linalg::{CsrMatrix, SharedOperator};
use apex_query::{AccuracySpec, QueryAnswer, QueryKind, Strategy};
use rand::rngs::StdRng;

use crate::cache::{SmCacheKey, TranslatorCache};
use crate::mc::{McConfig, McTranslator};
use crate::traits::unsupported;
use crate::{Laplace, MechError, MechOutput, Mechanism, PreparedQuery, Translation};

/// Everything the strategy mechanism derives from a query's incidence
/// structure: the strategy operator, its sensitivity, and the prepared
/// Monte-Carlo translator.
///
/// Data-independent (only the compiled workload and the strategy go in),
/// so it is safe to reuse across queries and analysts — see
/// [`TranslatorCache`].
#[derive(Debug)]
pub struct SmArtifacts {
    /// The compiled workload incidence `W` these artifacts were built
    /// from. Kept so cache hits can be verified against the querying
    /// workload's actual structure — the cache key carries only a 64-bit
    /// signature, and a hash collision must never hand one workload
    /// another workload's reconstruction.
    pub workload: CsrMatrix,
    /// `‖A‖₁`.
    pub strat_sensitivity: f64,
    /// The Monte-Carlo translator prepared for `W A⁺`.
    pub translator: McTranslator,
    /// The matrix-free strategy: `ŷ = op.apply(x)` and
    /// `ω = W · op.pinv_apply(ŷ)` (the transpose, then one `O(n)` normal
    /// solve). No `O(n³)` pseudoinverse, no dense `W A⁺`.
    pub operator: SharedOperator,
}

impl SmArtifacts {
    /// Builds the artifacts for `workload` answered through `strategy` —
    /// the one prepare pipeline, `O(n log n)` plus the Monte-Carlo
    /// simulation.
    ///
    /// # Errors
    /// Propagates strategy-construction failures (empty domain, bad
    /// branching).
    pub fn build(
        workload: &CsrMatrix,
        strategy: Strategy,
        mc: McConfig,
    ) -> Result<Self, MechError> {
        let op = strategy.operator(workload.cols())?;
        let strat_sensitivity = op.l1_operator_norm();
        let translator = McTranslator::with_operator(workload, op.as_ref(), strat_sensitivity, mc);
        Ok(SmArtifacts {
            workload: workload.clone(),
            strat_sensitivity,
            translator,
            operator: op,
        })
    }

    /// [`SmArtifacts::build`] through a cache, with the verify-on-hit
    /// collision check.
    ///
    /// `signature` must be the workload's structural signature
    /// (`CsrMatrix::signature`; pass the precomputed
    /// `CompiledWorkload::signature` to avoid an `O(nnz)` rehash). It is
    /// a 64-bit hash and analyst workloads are adversarial input in a DP
    /// engine, so a hit is verified against the actual structure: on a
    /// collision the artifacts are rebuilt uncached rather than answering
    /// with another workload's reconstruction.
    ///
    /// # Errors
    /// Propagates build failures.
    pub fn get_or_build_cached(
        cache: &TranslatorCache,
        workload: &CsrMatrix,
        signature: u64,
        strategy: Strategy,
        mc: McConfig,
    ) -> Result<Arc<Self>, MechError> {
        let key = SmCacheKey {
            workload_signature: signature,
            strategy,
            samples: mc.samples,
            seed: mc.seed,
            tolerance_bits: mc.tolerance.to_bits(),
        };
        let art = cache.get_or_build(key, || Self::build(workload, strategy, mc))?;
        if art.workload == *workload {
            Ok(art)
        } else {
            Ok(Arc::new(Self::build(workload, strategy, mc)?))
        }
    }

    /// The strategy's answer `A x` on a histogram.
    ///
    /// # Errors
    /// Shape mismatches surface as [`MechError::Linalg`].
    pub fn strategy_answer(&self, x: &[f64]) -> Result<Vec<f64>, MechError> {
        Ok(self.operator.apply(x)?)
    }

    /// Reconstructs workload answers `ω = (W A⁺) ŷ` from noisy strategy
    /// answers, via the operator's `pinv_apply`.
    ///
    /// # Errors
    /// Shape mismatches surface as [`MechError::Linalg`].
    pub fn reconstruct(&self, y_hat: &[f64]) -> Result<Vec<f64>, MechError> {
        Ok(self.workload.matvec(&self.operator.pinv_apply(y_hat)?)?)
    }

    /// Number of strategy rows `m` (the noise dimension).
    pub fn strategy_rows(&self) -> usize {
        self.operator.rows()
    }
}

/// The strategy mechanism: answer a low-sensitivity strategy workload `A`
/// with the Laplace mechanism and reconstruct the analyst's workload as
/// `ω = (W A⁺)(A x + Lap(‖A‖₁/ε)^l)`.
///
/// `translate` has no closed form — the reconstruction error is a weighted
/// sum of Laplace variables — so the accuracy-to-privacy translation runs
/// the Monte-Carlo binary search of [`McTranslator`] (Algorithm 3's
/// `translate`/`estimateBeta`).
///
/// For ICQ (Section 5.3.1) the same mechanism is used with the noisy
/// counts thresholded locally; the one-sided accuracy requirement lets it
/// run the WCQ translation at `β_wcq = 2β`.
///
/// Matrix handling: `W` stays in CSR (products scale with nonzeros), and
/// the strategy is a matrix-free [`apex_linalg::StrategyOperator`] — the
/// `O(n³)` pseudoinverse of the old pipeline is replaced by structured
/// normal-equation solves (`O(n)` per right-hand side for `H_b`), so no
/// dense `A⁺` or `W A⁺` is ever materialized. When constructed
/// [`with_cache`](StrategyMechanism::with_cache), the artifacts (operator
/// + Monte-Carlo translator) are memoized per workload-signature.
#[derive(Debug, Clone)]
pub struct StrategyMechanism {
    strategy: Strategy,
    mc: McConfig,
    cache: Option<TranslatorCache>,
}

impl StrategyMechanism {
    /// A strategy mechanism with the paper's default `H2` hierarchy.
    pub fn h2() -> Self {
        Self::new(Strategy::H2, McConfig::default())
    }

    /// A strategy mechanism over an arbitrary strategy and MC settings.
    pub fn new(strategy: Strategy, mc: McConfig) -> Self {
        Self {
            strategy,
            mc,
            cache: None,
        }
    }

    /// Like [`StrategyMechanism::new`], but artifacts (operator + MC
    /// translator) are looked up in / inserted into `cache`.
    pub fn with_cache(strategy: Strategy, mc: McConfig, cache: TranslatorCache) -> Self {
        Self {
            strategy,
            mc,
            cache: Some(cache),
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Builds (or fetches) the derived artifacts for a query.
    fn artifacts(&self, q: &PreparedQuery) -> Result<Arc<SmArtifacts>, MechError> {
        let w = q.compiled().csr();
        match &self.cache {
            None => Ok(Arc::new(SmArtifacts::build(w, self.strategy, self.mc)?)),
            Some(cache) => SmArtifacts::get_or_build_cached(
                cache,
                w,
                q.compiled().signature(),
                self.strategy,
                self.mc,
            ),
        }
    }

    /// The effective WCQ-level failure probability for a query kind:
    /// ICQ's one-sided errors let the two-sided WCQ bound run at `2β`.
    fn effective_beta(kind: QueryKind, beta: f64) -> Result<f64, MechError> {
        match kind {
            QueryKind::Wcq => Ok(beta),
            // Cap at the valid range; β is < 1 by construction and in
            // practice tiny (the paper uses 5e-4).
            QueryKind::Icq { .. } => Ok((2.0 * beta).min(0.999)),
            QueryKind::Tcq { .. } => Err(unsupported("SM", kind)),
        }
    }
}

impl Mechanism for StrategyMechanism {
    fn name(&self) -> &'static str {
        "SM"
    }

    fn supports(&self, kind: QueryKind) -> bool {
        matches!(kind, QueryKind::Wcq | QueryKind::Icq { .. })
    }

    fn translate(&self, q: &PreparedQuery, acc: &AccuracySpec) -> Result<Translation, MechError> {
        let beta = Self::effective_beta(q.kind(), acc.beta())?;
        let art = self.artifacts(q)?;
        let eps = art.translator.translate(acc.alpha(), beta);
        Ok(Translation::exact(eps))
    }

    fn run(
        &self,
        q: &PreparedQuery,
        acc: &AccuracySpec,
        data: &Dataset,
        rng: &mut StdRng,
    ) -> Result<MechOutput, MechError> {
        let beta = Self::effective_beta(q.kind(), acc.beta())?;
        let art = self.artifacts(q)?;
        let eps = art.translator.translate(acc.alpha(), beta);

        // ŷ = A x + Lap(‖A‖₁/ε)^m ; ω = (W A⁺) ŷ — the reconstruction is
        // the operator's pinv_apply, never a stored dense W A⁺.
        let x = q.compiled().histogram(data);
        let mut y = art.strategy_answer(&x)?;
        let b = art.strat_sensitivity / eps;
        let lap = Laplace::new(b);
        for v in y.iter_mut() {
            *v += lap.sample(rng);
        }
        let omega = art.reconstruct(&y)?;

        let answer = match q.kind() {
            QueryKind::Wcq => QueryAnswer::Counts(omega),
            QueryKind::Icq { threshold } => QueryAnswer::Bins(
                omega
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v > threshold)
                    .map(|(i, _)| i)
                    .collect(),
            ),
            QueryKind::Tcq { .. } => return Err(unsupported("SM", q.kind())),
        };
        Ok(MechOutput {
            answer,
            epsilon: eps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaplaceMechanism;
    use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
    use apex_query::ExplorationQuery;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 63 },
        )])
        .unwrap()
    }

    fn data() -> Dataset {
        let mut d = Dataset::empty(schema());
        for i in 0..64 {
            for _ in 0..(64 - i) {
                d.push(vec![Value::Int(i)]).unwrap();
            }
        }
        d
    }

    fn prefix_query(l: usize) -> ExplorationQuery {
        ExplorationQuery::wcq(
            (1..=l)
                .map(|i| Predicate::range("v", 0.0, (64 * i / l) as f64))
                .collect(),
        )
    }

    fn small_mc() -> McConfig {
        McConfig {
            samples: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn sm_beats_lm_on_prefix_workloads() {
        // The headline claim of Section 5.2: for high-sensitivity (prefix)
        // workloads the H2 strategy costs far less than plain Laplace.
        let q = PreparedQuery::prepare(&schema(), &prefix_query(32)).unwrap();
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        let sm = StrategyMechanism::new(Strategy::H2, small_mc());
        let e_sm = sm.translate(&q, &acc).unwrap().upper;
        let e_lm = LaplaceMechanism.translate(&q, &acc).unwrap().upper;
        assert!(
            e_sm < e_lm / 2.0,
            "H2 should be much cheaper on prefixes: SM {e_sm} vs LM {e_lm}"
        );
    }

    #[test]
    fn lm_beats_sm_on_disjoint_histograms() {
        // Conversely (Table 2, QW1): sensitivity-1 histograms are cheapest
        // via plain Laplace; H2 pays for answering the whole tree.
        let hist: Vec<Predicate> = (0..16)
            .map(|i| Predicate::range("v", (4 * i) as f64, (4 * (i + 1)) as f64))
            .collect();
        let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(hist)).unwrap();
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        let sm = StrategyMechanism::new(Strategy::H2, small_mc());
        let e_sm = sm.translate(&q, &acc).unwrap().upper;
        let e_lm = LaplaceMechanism.translate(&q, &acc).unwrap().upper;
        assert!(
            e_lm < e_sm,
            "LM should win on histograms: LM {e_lm} vs SM {e_sm}"
        );
    }

    #[test]
    fn wcq_run_meets_accuracy_bound_empirically() {
        let q = PreparedQuery::prepare(&schema(), &prefix_query(16)).unwrap();
        let beta = 0.1;
        let acc = AccuracySpec::new(80.0, beta).unwrap();
        let d = data();
        let truth = q.compiled().true_answer(&d);
        let sm = StrategyMechanism::new(Strategy::H2, small_mc());
        let mut rng = StdRng::seed_from_u64(11);
        let runs = 120;
        let mut failures = 0;
        for _ in 0..runs {
            let out = sm.run(&q, &acc, &d, &mut rng).unwrap();
            let counts = out.answer.as_counts().unwrap();
            let err = counts
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            if err >= acc.alpha() {
                failures += 1;
            }
        }
        // The translator targets a failure probability just under β, so
        // the empirical rate should hover near β — allow 2β plus noise.
        let bound = (2.0 * beta * runs as f64 + 4.0) as usize;
        assert!(
            failures <= bound,
            "failures = {failures} out of {runs} (bound {bound})"
        );
    }

    #[test]
    fn icq_translation_is_cheaper_than_wcq() {
        let preds: Vec<Predicate> = (1..=16)
            .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
            .collect();
        let acc = AccuracySpec::new(40.0, 0.01).unwrap();
        let sm = StrategyMechanism::new(Strategy::H2, small_mc());
        let wcq = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(preds.clone())).unwrap();
        let icq = PreparedQuery::prepare(&schema(), &ExplorationQuery::icq(preds, 100.0)).unwrap();
        let ew = sm.translate(&wcq, &acc).unwrap().upper;
        let ei = sm.translate(&icq, &acc).unwrap().upper;
        assert!(ei < ew, "ICQ runs at 2β: {ei} vs {ew}");
    }

    #[test]
    fn icq_run_returns_bins() {
        let preds: Vec<Predicate> = (0..8)
            .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
            .collect();
        let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::icq(preds, 250.0)).unwrap();
        let acc = AccuracySpec::new(100.0, 0.05).unwrap();
        let sm = StrategyMechanism::new(Strategy::H2, small_mc());
        let mut rng = StdRng::seed_from_u64(4);
        let out = sm.run(&q, &acc, &data(), &mut rng).unwrap();
        // Bin 0 holds counts 64+63+...+57 = 484 >> 250 + α.
        assert!(out.answer.as_bins().unwrap().contains(&0));
    }

    #[test]
    fn tcq_is_unsupported() {
        let preds: Vec<Predicate> = (0..4).map(|i| Predicate::eq("v", i as i64)).collect();
        let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::tcq(preds, 2)).unwrap();
        let acc = AccuracySpec::new(10.0, 0.05).unwrap();
        let sm = StrategyMechanism::h2();
        assert!(!sm.supports(q.kind()));
        assert!(matches!(
            sm.translate(&q, &acc),
            Err(MechError::Unsupported { .. })
        ));
    }

    #[test]
    fn cached_and_uncached_translations_are_identical() {
        // Caching must be invisible to the analyzer: same ε bit-for-bit.
        let q = PreparedQuery::prepare(&schema(), &prefix_query(16)).unwrap();
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        let plain = StrategyMechanism::new(Strategy::H2, small_mc());
        let cache = TranslatorCache::new();
        let cached = StrategyMechanism::with_cache(Strategy::H2, small_mc(), cache.clone());
        let e_plain = plain.translate(&q, &acc).unwrap();
        let e_cached_miss = cached.translate(&q, &acc).unwrap();
        let e_cached_hit = cached.translate(&q, &acc).unwrap();
        assert_eq!(e_plain, e_cached_miss);
        assert_eq!(e_plain, e_cached_hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_distinguishes_workloads_and_strategies() {
        let cache = TranslatorCache::new();
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        let q16 = PreparedQuery::prepare(&schema(), &prefix_query(16)).unwrap();
        let q8 = PreparedQuery::prepare(&schema(), &prefix_query(8)).unwrap();
        let h2 = StrategyMechanism::with_cache(Strategy::H2, small_mc(), cache.clone());
        let h4 = StrategyMechanism::with_cache(
            Strategy::Hierarchical { branching: 4 },
            small_mc(),
            cache.clone(),
        );
        h2.translate(&q16, &acc).unwrap();
        h2.translate(&q8, &acc).unwrap();
        h4.translate(&q16, &acc).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn signature_collision_is_detected_and_bypassed() {
        // Simulate a 64-bit signature collision by planting one workload's
        // artifacts under another workload's cache key: the mechanism must
        // notice the structural mismatch and rebuild instead of answering
        // with the wrong reconstruction.
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        let q8 = PreparedQuery::prepare(&schema(), &prefix_query(8)).unwrap();
        let q16 = PreparedQuery::prepare(&schema(), &prefix_query(16)).unwrap();
        let cache = TranslatorCache::new();
        let sm = StrategyMechanism::with_cache(Strategy::H2, small_mc(), cache.clone());

        // Build q8's artifacts, then plant them under q16's key.
        let poisoned_key = SmCacheKey {
            workload_signature: q16.compiled().signature(),
            strategy: Strategy::H2,
            samples: small_mc().samples,
            seed: small_mc().seed,
            tolerance_bits: small_mc().tolerance.to_bits(),
        };
        cache
            .get_or_build(poisoned_key, || {
                SmArtifacts::build(q8.compiled().csr(), Strategy::H2, small_mc())
            })
            .unwrap();

        // The "collided" entry must not leak into q16's translation.
        let via_cache = sm.translate(&q16, &acc).unwrap();
        let fresh = StrategyMechanism::new(Strategy::H2, small_mc())
            .translate(&q16, &acc)
            .unwrap();
        assert_eq!(via_cache, fresh);
    }

    #[test]
    fn cached_run_reuses_artifacts_and_stays_accurate() {
        let q = PreparedQuery::prepare(&schema(), &prefix_query(8)).unwrap();
        let acc = AccuracySpec::new(80.0, 0.1).unwrap();
        let d = data();
        let cache = TranslatorCache::new();
        let sm = StrategyMechanism::with_cache(Strategy::H2, small_mc(), cache.clone());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let out = sm.run(&q, &acc, &d, &mut rng).unwrap();
            assert!(out.epsilon > 0.0);
        }
        // One build, nine hits (translate + run per call after the first).
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.stats().hits >= 4);
    }

    #[test]
    fn dense_reference_and_operator_paths_agree() {
        // The operator pipeline replaces the dense pinv; its translations
        // and answers must match the dense oracle up to floating-point
        // summation order (the two simulate the same noise streams).
        let q = PreparedQuery::prepare(&schema(), &prefix_query(16)).unwrap();
        let acc = AccuracySpec::new(40.0, 0.05).unwrap();
        let sm = StrategyMechanism::new(Strategy::H2, small_mc());
        let art = sm.artifacts(&q).unwrap();
        let (recon, oracle) =
            McTranslator::dense_oracle(q.compiled().csr(), Strategy::H2, small_mc());
        let e_op = sm.translate(&q, &acc).unwrap().upper;
        let e_dense = oracle.translate(acc.alpha(), acc.beta());
        assert!(
            (e_op - e_dense).abs() <= 3.0 * small_mc().tolerance * e_dense,
            "operator ε {e_op} vs dense ε {e_dense}"
        );

        // Reconstruction on a fixed noisy strategy answer agrees tightly.
        assert_eq!(art.strategy_rows(), recon.cols());
        let y: Vec<f64> = (0..art.strategy_rows())
            .map(|i| (i as f64) * 0.7 - 3.0)
            .collect();
        let w_op = art.reconstruct(&y).unwrap();
        let w_dense = recon.matvec(&y).unwrap();
        for (a, b) in w_op.iter().zip(&w_dense) {
            assert!((a - b).abs() <= 1e-8 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn identity_strategy_approximates_lm_on_histograms() {
        // With A = I the strategy mechanism *is* the Laplace mechanism up
        // to the conservativeness of the MC translation.
        let hist: Vec<Predicate> = (0..8)
            .map(|i| Predicate::range("v", (8 * i) as f64, (8 * (i + 1)) as f64))
            .collect();
        let q = PreparedQuery::prepare(&schema(), &ExplorationQuery::wcq(hist)).unwrap();
        let acc = AccuracySpec::new(30.0, 0.05).unwrap();
        let sm = StrategyMechanism::new(Strategy::Identity, small_mc());
        let e_sm = sm.translate(&q, &acc).unwrap().upper;
        let e_lm = LaplaceMechanism.translate(&q, &acc).unwrap().upper;
        let ratio = e_sm / e_lm;
        assert!(ratio > 0.8 && ratio < 1.3, "ratio {ratio}");
    }
}
