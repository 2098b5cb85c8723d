//! Monte-Carlo accuracy-to-privacy translation (Algorithm 3's
//! `translate` / `estimateBeta`).
//!
//! The strategy mechanism's error is `(W A⁺) η` with `η ~ Lap(‖A‖₁/ε)^l` —
//! a weighted sum of Laplace variables with no closed-form `ℓ∞` tail. The
//! paper translates accuracy to privacy by binary-searching `ε` between 0
//! and the Chebyshev bound of Theorem A.1, using Monte-Carlo simulation
//! with a normal-approximation confidence band to test whether a candidate
//! `ε` meets the failure bound `β`.
//!
//! One structural optimization (docs/PERFORMANCE.md, "Translator prepare:
//! one pipeline"): because the noise distribution at privacy `ε` is the
//! distribution at `ε = 1` scaled by `1/ε`, we sample the reconstruction
//! errors **once** at unit scale and reuse them for every candidate `ε`
//! in the binary search. The estimator at each candidate is identical to
//! the paper's; sharing the sample only removes simulation noise
//! *between* candidates (making the search strictly better behaved).
//!
//! # The simulation pipeline
//!
//! There is one: [`McTranslator::with_operator`] pushes panels of noise
//! vectors through the matrix-free `A⁺` of a [`StrategyOperator`] and the
//! sparse workload ([`unit_errors_operator_blocked`]) — no dense `A⁺` or
//! `W A⁺` is ever materialized, and the inner loops are independent
//! fixed-width lanes instead of loop-carried reductions.
//!
//! Determinism is load-bearing (the privacy analyzer's deny decision must
//! be a pure function of its inputs), so each sample index draws from its
//! **own seeded RNG stream** derived from `(cfg.seed, index)`. Panel width
//! and thread count therefore cannot reorder sampling or change a result.
//! Noise value `k` of sample `index` is [`unit_laplace`] of that stream's
//! `k`-th word — a function of `(seed, index, k)` and IEEE arithmetic
//! alone (no libm), whether [`fill_noise_panel`] draws it on a vector
//! lane or an oracle draws it through [`crate::Laplace::sample`].
//!
//! The tests pin the pipeline two ways. Run at one thread with one-sample
//! panels, [`unit_errors_operator_blocked`] sends every sample through the
//! kernels' one-column instance; every other thread count and panel width
//! must match that **bit for bit**. And inside this module's tests, a
//! dense serial simulation over a materialized `W A⁺` from the dev-only
//! `apex-oracle` crate (same noise streams) must match it to ≈1e-9
//! relative; only the floating-point summation order differs.

use apex_linalg::{CsrMatrix, OpScratch, StrategyOperator};
use rand::rngs::{StdRng, StdRngLanes};
use rand::{RngCore, SeedableRng};

use crate::laplace::unit_laplace;

/// Samples per noise panel: large enough to amortize the kernel setup,
/// small enough that a panel (`m × 512` doubles) stays in cache for
/// realistic strategy sizes. The panel width never changes results
/// (bit-identity is per sample), only wall-clock and peak memory.
pub const SAMPLE_BLOCK: usize = 512;

/// z-score for the (1 − p/2) normal quantile used in the confidence band.
fn z_score(p: f64) -> f64 {
    // Inverse normal CDF via the Acklam rational approximation; accurate
    // to ~1e-9 over (0, 1), far beyond what the band needs.
    let upper = 1.0 - p / 2.0;
    if upper < 1.0 {
        inverse_normal_cdf(upper)
    } else {
        // p/2 below half an ulp of 1 (β ≤ 1e-14): read the same quantile
        // off the lower tail, where p/2 is still representable.
        -inverse_normal_cdf((p / 2.0).max(f64::MIN_POSITIVE))
    }
}

/// Peter Acklam's rational approximation of the standard normal quantile.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Configuration of the Monte-Carlo translator.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Simulation sample size `N` (the paper uses 10,000).
    pub samples: usize,
    /// Relative tolerance at which the binary search stops.
    pub tolerance: f64,
    /// RNG seed — fixed per translation so that `translate` is a
    /// deterministic function of its inputs (required for the privacy
    /// analyzer: the denial decision must be data- and coin-independent).
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            samples: 10_000,
            tolerance: 1e-3,
            seed: 0x4150_4578, /* "APEx" */
        }
    }
}

/// The Monte-Carlo translator for a fixed reconstruction matrix `W A⁺`
/// and strategy sensitivity `‖A‖₁`.
#[derive(Debug)]
pub struct McTranslator {
    /// `‖A‖₁` — the strategy sensitivity.
    strat_sensitivity: f64,
    /// `‖W A⁺‖_F` for the Chebyshev upper bound.
    recon_frobenius: f64,
    /// Sorted unit-scale error maxima: `mᵢ = ‖(W A⁺) η̂ᵢ‖∞` with
    /// `η̂ᵢ ~ Lap(1)^l`, ascending.
    unit_errors: Vec<f64>,
    cfg: McConfig,
}

/// The seed of sample `index`'s RNG stream: SplitMix64-style mixing of
/// `(seed, index)` so every sample owns an independent, reorder-proof
/// stream.
fn stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-sample RNG stream.
fn sample_stream(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, index))
}

/// Fills a column-major noise panel of `m`-long columns: column `j`
/// becomes the first `m` unit-Laplace draws of stream `(seed, first + j)`
/// — exactly what `Laplace::new(1.0).sample` yields on
/// `sample_stream(seed, first + j)`, so how columns are grouped is
/// invisible in the values.
///
/// Columns are taken [`StdRngLanes::LANES`] at a time: their streams step
/// in lockstep and [`unit_laplace`] runs across the lanes (the sampler is
/// the largest single stage of a translator-cache miss). A ragged tail of
/// fewer columns falls to the scalar generator.
///
/// # Panics
/// Panics if `m == 0` or `panel.len()` is not a multiple of `m`.
pub fn fill_noise_panel(panel: &mut [f64], m: usize, seed: u64, first: u64) {
    const LANES: usize = StdRngLanes::LANES;
    assert_eq!(panel.len() % m, 0, "panel must hold whole columns");
    let mut index = first;
    let mut groups = panel.chunks_exact_mut(LANES * m);
    for group in &mut groups {
        let mut rng = StdRngLanes::seed_from_u64(std::array::from_fn(|l| {
            stream_seed(seed, index + l as u64)
        }));
        for k in 0..m {
            let bits = rng.next_u64();
            // Draw first, scatter after: the bounds checks of the strided
            // stores would otherwise sit between the lanes.
            let mut noise = [0.0_f64; LANES];
            for (v, &b) in noise.iter_mut().zip(&bits) {
                *v = unit_laplace(b);
            }
            for (l, &v) in noise.iter().enumerate() {
                group[l * m + k] = v;
            }
        }
        index += LANES as u64;
    }
    for col in groups.into_remainder().chunks_exact_mut(m) {
        let mut rng = sample_stream(seed, index);
        col.fill_with(|| unit_laplace(rng.next_u64()));
        index += 1;
    }
}

impl McTranslator {
    /// Prepares the translator by simulating `cfg.samples` unit-scale
    /// reconstruction errors `‖W A⁺ η‖∞` through a [`StrategyOperator`] —
    /// `A⁺η` comes from [`StrategyOperator::pinv_apply_multi`], never a
    /// dense `W A⁺`.
    ///
    /// The Chebyshev bound's `‖W A⁺‖_F` is computed without
    /// materialization either, via the trace identity
    /// `‖W A⁺‖_F² = tr(W (AᵀA)⁻¹ Wᵀ) = Σ_i wᵢᵀ (AᵀA)⁻¹ wᵢ` — one normal
    /// solve per workload row.
    ///
    /// Noise is drawn from the same per-sample streams as the tests' dense
    /// oracle, so the simulated errors differ from a dense simulation over
    /// a materialized `W A⁺` only by floating-point summation order
    /// (≈1e-9 relative — tested), not by distribution.
    ///
    /// # Panics
    /// Panics if `workload.cols() != op.cols()` (caller bug: the workload
    /// and strategy must share a domain).
    pub fn with_operator(
        workload: &CsrMatrix,
        op: &dyn StrategyOperator,
        strat_sensitivity: f64,
        cfg: McConfig,
    ) -> Self {
        assert_eq!(
            workload.cols(),
            op.cols(),
            "workload and strategy operator must share the domain"
        );
        let unit_errors = unit_errors_operator_blocked(
            workload,
            op,
            cfg.samples,
            cfg.seed,
            apex_linalg::max_threads(),
            SAMPLE_BLOCK,
        );
        let recon_frobenius = recon_frobenius_via_operator(workload, op);
        Self::from_parts(strat_sensitivity, recon_frobenius, cfg, unit_errors)
    }

    fn from_parts(
        strat_sensitivity: f64,
        recon_frobenius: f64,
        cfg: McConfig,
        mut unit_errors: Vec<f64>,
    ) -> Self {
        // total_cmp: NaN-safe (a NaN in the samples must not panic the
        // analyzer; it sorts to the top and behaves as an always-failing
        // sample, which is the conservative direction). Keys equal under
        // total_cmp are equal bit patterns, so the unstable sort yields
        // the same vector as the stable one, without its merge buffer.
        unit_errors.sort_unstable_by(f64::total_cmp);
        Self {
            strat_sensitivity,
            recon_frobenius,
            unit_errors,
            cfg,
        }
    }

    /// The sorted unit-scale error maxima backing the estimator (ascending;
    /// exposed so determinism tests can compare construction paths
    /// byte-for-byte).
    pub fn unit_errors(&self) -> &[f64] {
        &self.unit_errors
    }

    /// Algorithm 3's `estimateBeta`: whether privacy cost `eps` meets the
    /// `(α, β)` accuracy requirement with confidence margin.
    ///
    /// The empirical failure rate is `βₑ = #{mᵢ·b > α}/N` with
    /// `b = ‖A‖₁/ε`; the test passes when `βₑ + δβ + p/2 < β` with
    /// `δβ = z_{1−p/2} √(βₑ(1−βₑ)/N)` and `p = β/100`.
    ///
    /// With an empty sample set there is no evidence at all, so the test
    /// conservatively fails for every `eps` (`translate` then returns the
    /// Chebyshev upper bound unchanged).
    pub fn estimate_beta_ok(&self, eps: f64, alpha: f64, beta: f64) -> bool {
        if self.unit_errors.is_empty() {
            return false;
        }
        let b = self.strat_sensitivity / eps;
        let threshold = alpha / b;
        // Errors are sorted ascending (total order, NaN last): failures are
        // those > threshold, so `partition_point(≤ threshold)` finds the
        // first failure even when NaNs are present.
        let first_fail = self.unit_errors.partition_point(|&m| m <= threshold);
        let nf = self.unit_errors.len() - first_fail;
        let n = self.unit_errors.len() as f64;
        let beta_e = nf as f64 / n;
        let p = beta / 100.0;
        let delta = z_score(p) * (beta_e * (1.0 - beta_e) / n).sqrt();
        beta_e + delta + p / 2.0 < beta
    }

    /// Algorithm 3's `translate`: the (approximately) minimal `ε` that
    /// achieves `(α, β)` accuracy, found by binary search below the
    /// Chebyshev bound `ε ≤ ‖A‖₁·‖W A⁺‖_F / (α·√(β/2))` (Theorem A.1).
    pub fn translate(&self, alpha: f64, beta: f64) -> f64 {
        // √(β/2), taken as √β·√½ where β/2 underflows (β = 5e-324).
        let root_half_beta = if beta / 2.0 > 0.0 {
            (beta / 2.0).sqrt()
        } else {
            beta.sqrt() * std::f64::consts::FRAC_1_SQRT_2
        };
        let hi = self.strat_sensitivity * self.recon_frobenius / (alpha * root_half_beta);
        if self.unit_errors.is_empty() {
            // No simulation evidence: return the closed-form bound.
            return hi;
        }
        let mut hi = hi;
        let mut lo = 0.0_f64;
        debug_assert!(self.estimate_beta_ok(hi, alpha, beta) || hi == 0.0);
        // Invariant: hi always satisfies the accuracy test; lo never does.
        while hi - lo > self.cfg.tolerance * hi {
            let mid = 0.5 * (hi + lo);
            if self.estimate_beta_ok(mid, alpha, beta) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// The matrix-free simulation: noise vectors (`m` = strategy rows, the
/// same per-sample streams as the oracles) are drawn into column-major
/// panels and pushed through `A⁺` via
/// [`StrategyOperator::pinv_apply_multi`] and the sparse workload via
/// [`CsrMatrix::matvec_panel_with_plan`] — one interval-tree /
/// sparsity-pattern walk amortized over a whole panel. Per sample still
/// `O(nnz(W) + solve cost)`, but the inner loops are independent
/// fixed-width lanes instead of loop-carried reductions.
///
/// A panel column's result does not depend on the panel around it, and
/// every sample owns its RNG stream and output slot, so the thread count
/// and the panel width `block` (both clamped to ≥ 1) never change a
/// result — pinned by property tests against `threads = 1, block = 1`
/// (parallelism must never change a privacy decision). The effective
/// panel width is additionally capped so the per-thread noise panel stays
/// within a fixed memory budget (see `capped_panel_width`); that cap is
/// equally invisible in the results.
///
/// Samples are split across scoped threads in **balanced** contiguous
/// chunks (`base + 1` samples for the first `samples % threads` threads,
/// `base` for the rest), so no thread gets a systematically short or empty
/// chunk when `samples % threads != 0`.
pub fn unit_errors_operator_blocked(
    workload: &CsrMatrix,
    op: &dyn StrategyOperator,
    samples: usize,
    seed: u64,
    threads: usize,
    block: usize,
) -> Vec<f64> {
    let mut errors = vec![0.0_f64; samples];
    if samples == 0 {
        return errors;
    }
    let m = op.rows();
    let block = capped_panel_width(block, m);
    let l = workload.rows();
    let t = threads.clamp(1, samples);
    let base = samples / t;
    let extra = samples % t;
    // Row classification is O(nnz); build it once and share it across
    // threads instead of re-deriving it inside every panel product.
    let panel_plan = workload.panel_plan();
    std::thread::scope(|s| {
        let mut rest: &mut [f64] = &mut errors;
        let mut offset = 0usize;
        for i in 0..t {
            let len = base + usize::from(i < extra);
            let (slice, tail) = rest.split_at_mut(len);
            rest = tail;
            let first = offset;
            offset += len;
            let plan = &panel_plan;
            s.spawn(move || {
                // Per-thread panels: the noise panel, the pinv output
                // panel, the workload product panel, and the solver's
                // sweep buffers are allocated once and reused for every
                // panel, so the steady-state loop is allocation-free.
                // Buffers are fully overwritten per panel — results stay
                // bit-identical for any thread count and panel width.
                let mut eta_panel: Vec<f64> = Vec::new();
                let mut recon_panel: Vec<f64> = Vec::new();
                let mut w_panel: Vec<f64> = Vec::new();
                let mut scratch = OpScratch::new();
                let mut start = 0usize;
                while start < slice.len() {
                    let bs = block.min(slice.len() - start);
                    eta_panel.resize(m * bs, 0.0);
                    fill_noise_panel(&mut eta_panel, m, seed, (first + start) as u64);
                    op.pinv_apply_multi(&eta_panel, bs, &mut recon_panel, &mut scratch)
                        .expect("noise length matches operator rows");
                    workload
                        .matvec_panel_with_plan(plan, &recon_panel, bs, &mut w_panel)
                        .expect("workload and operator share the domain");
                    for (j, e) in slice[start..start + bs].iter_mut().enumerate() {
                        *e = w_panel[j * l..(j + 1) * l]
                            .iter()
                            .fold(0.0_f64, |mx, v| mx.max(v.abs()));
                    }
                    start += bs;
                }
            });
        }
    });
    errors
}

/// Caps a requested panel width so the per-panel working buffers stay
/// within a fixed ~8 MiB budget. [`SAMPLE_BLOCK`]-wide panels at very
/// large strategies (78 MiB of noise at n = 16384) thrash the cache and
/// TLB badly enough to make the blocked path *slower* than narrow panels;
/// panel width provably never changes results (pinned by the
/// `blocked_is_bit_identical_*` tests), so clamping it is a locality
/// decision the caller never observes.
fn capped_panel_width(requested: usize, col_len: usize) -> usize {
    const PANEL_BUDGET_BYTES: usize = 8 << 20;
    const MIN_WIDTH: usize = 8;
    let fit = PANEL_BUDGET_BYTES / (8 * col_len.max(1));
    requested.max(1).min(fit.max(MIN_WIDTH))
}

/// `‖W A⁺‖_F` without materializing `W A⁺`, via
/// `‖W A⁺‖_F² = tr(W (AᵀA)⁻¹ Wᵀ) = Σ_i wᵢᵀ (AᵀA)⁻¹ wᵢ` — normal solves
/// over the workload rows (`O(L · n)` total for the hierarchical family),
/// pushed through [`StrategyOperator::solve_normal_multi`] in panels of
/// densified rows. A panel column's solve does not depend on the panel
/// around it, so the returned norm is unchanged by the panel width.
pub fn recon_frobenius_via_operator(workload: &CsrMatrix, op: &dyn StrategyOperator) -> f64 {
    let n = workload.cols();
    let l = workload.rows();
    let chunk = capped_panel_width(usize::MAX, n);
    let mut panel: Vec<f64> = Vec::new();
    let mut z: Vec<f64> = Vec::new();
    let mut scratch = OpScratch::new();
    let mut total = 0.0_f64;
    let mut start = 0usize;
    while start < l {
        let k = chunk.min(l - start);
        panel.clear();
        panel.resize(k * n, 0.0);
        for (c, col) in panel.chunks_exact_mut(n).enumerate() {
            let (cols, vals) = workload.row(start + c);
            for (&j, &v) in cols.iter().zip(vals) {
                col[j] = v;
            }
        }
        op.solve_normal_multi(&panel, k, &mut z, &mut scratch)
            .expect("workload and operator share the domain");
        for c in 0..k {
            let (cols, vals) = workload.row(start + c);
            let zc = &z[c * n..(c + 1) * n];
            // wᵢᵀ zᵢ over the sparse support only.
            total += cols.iter().zip(vals).map(|(&j, &v)| v * zc[j]).sum::<f64>();
        }
        start += k;
    }
    // M⁻¹ is SPD, so each summand is ≥ 0 up to rounding.
    total.max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Laplace;
    use apex_linalg::{CsrBuilder, HierarchicalOperator, IdentityOperator};
    use apex_oracle::{frobenius_norm, pinv, Matrix};
    use apex_query::Strategy;

    impl McTranslator {
        /// The dense oracle: one noise vector and one dense `matvec`
        /// against a materialized `recon = W A⁺` per sample. Obviously
        /// right, not fast.
        pub(crate) fn new_serial(recon: &Matrix, strat_sensitivity: f64, cfg: McConfig) -> Self {
            let unit_errors = unit_errors_serial(recon, cfg.samples, cfg.seed);
            Self::from_parts(strat_sensitivity, frobenius_norm(recon), cfg, unit_errors)
        }

        /// The dense oracle for `workload` answered through `strategy`:
        /// the materialized `W A⁺` (QR pseudoinverse of the dense `A`) and
        /// the serial translator over it.
        pub(crate) fn dense_oracle(
            workload: &CsrMatrix,
            strategy: Strategy,
            cfg: McConfig,
        ) -> (Matrix, Self) {
            let a = strategy.build_csr(workload.cols()).unwrap();
            let a_pinv = pinv(&Matrix::from_csr(&a)).unwrap();
            let recon = Matrix::from_csr(workload).matmul(&a_pinv).unwrap();
            let translator = Self::new_serial(&recon, a.l1_operator_norm(), cfg);
            (recon, translator)
        }
    }

    /// The dense oracle's simulation: per sample, draw `l` unit-Laplace
    /// variables from the sample's own stream and reduce `‖recon · η‖∞`
    /// with a dense `matvec`. `O(N · L · l)` with a strictly serial inner
    /// reduction.
    fn unit_errors_serial(recon: &Matrix, samples: usize, seed: u64) -> Vec<f64> {
        let unit = Laplace::new(1.0);
        let l = recon.cols();
        (0..samples)
            .map(|i| {
                let mut rng = sample_stream(seed, i as u64);
                let eta = unit.sample_vec(l, &mut rng);
                recon
                    .matvec(&eta)
                    .expect("noise length matches recon columns")
                    .iter()
                    .fold(0.0_f64, |m, v| m.max(v.abs()))
            })
            .collect()
    }

    fn mc(samples: usize) -> McConfig {
        McConfig {
            samples,
            ..Default::default()
        }
    }

    /// `n` counting queries answered directly (`W = A = I`), through the
    /// served constructor.
    fn identity_translator(n: usize, samples: usize) -> McTranslator {
        McTranslator::with_operator(
            &CsrMatrix::identity(n),
            &IdentityOperator::new(n),
            1.0,
            mc(samples),
        )
    }

    /// The one-column reference: one thread, one sample per panel, so
    /// every sample runs the kernels' `W = 1` instance alone.
    fn unit_errors_one_by_one(
        workload: &CsrMatrix,
        op: &dyn StrategyOperator,
        samples: usize,
        seed: u64,
    ) -> Vec<f64> {
        unit_errors_operator_blocked(workload, op, samples, seed, 1, 1)
    }

    fn prefix_workload_csr(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.push_interval_row(0, i + 1);
        }
        b.finish()
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.999) - 3.090232).abs() < 1e-4);
    }

    /// With `W = A = I₁` (a single counting query answered directly), the
    /// mechanism is the plain scalar Laplace mechanism, whose exact
    /// requirement is `ε = ln(1/β)/α`. The MC translation must land near
    /// it (slightly above, because of the confidence margin).
    #[test]
    fn translate_matches_scalar_laplace_closed_form() {
        let t = identity_translator(1, 40_000);
        let (alpha, beta) = (10.0, 0.05);
        let eps = t.translate(alpha, beta);
        let exact = (1.0 / beta).ln() / alpha;
        assert!(
            eps >= exact * 0.95 && eps <= exact * 1.35,
            "eps {eps} vs exact {exact}"
        );
    }

    #[test]
    fn tiny_betas_translate_to_a_finite_epsilon() {
        // At β ≤ 1e-14 the band's `1 − p/2` (p = β/100) rounds to 1, and
        // at β = 5e-324 so does `β/2` under the Chebyshev bound's root to
        // 0. Neither may panic the analyzer (nor trip translate's
        // debug_assert) or hand it an infinite ε.
        let n = 16;
        let op = Strategy::H2.operator(n).unwrap();
        let translators = [
            identity_translator(4, 2_000),
            McTranslator::with_operator(
                &prefix_workload_csr(n),
                op.as_ref(),
                op.l1_operator_norm(),
                mc(2_000),
            ),
        ];
        for beta in [1e-14, 1e-16, 1e-300, f64::MIN_POSITIVE, 5e-324] {
            for t in &translators {
                let eps = t.translate(10.0, beta);
                assert!(eps.is_finite() && eps > 0.0, "β = {beta:e}: ε = {eps}");
            }
        }
    }

    #[test]
    fn translate_is_monotone_in_alpha() {
        let t = identity_translator(4, 5_000);
        let e1 = t.translate(5.0, 0.05);
        let e2 = t.translate(10.0, 0.05);
        let e3 = t.translate(20.0, 0.05);
        assert!(e1 > e2 && e2 > e3, "{e1} {e2} {e3}");
        // Inverse-linear in alpha: e1/e2 ≈ 2.
        assert!((e1 / e2 - 2.0).abs() < 0.1);
    }

    #[test]
    fn translate_is_monotone_in_beta() {
        let t = identity_translator(4, 5_000);
        let tight = t.translate(10.0, 0.01);
        let loose = t.translate(10.0, 0.2);
        assert!(tight > loose);
    }

    #[test]
    fn estimate_beta_ok_is_monotone_in_eps() {
        let t = identity_translator(3, 5_000);
        let eps_star = t.translate(10.0, 0.05);
        assert!(t.estimate_beta_ok(eps_star * 2.0, 10.0, 0.05));
        assert!(!t.estimate_beta_ok(eps_star * 0.5, 10.0, 0.05));
    }

    #[test]
    fn translation_is_deterministic() {
        let a = identity_translator(2, 10_000).translate(5.0, 0.1);
        let b = identity_translator(2, 10_000).translate(5.0, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sample_set_is_conservative() {
        let t = identity_translator(1, 0);
        assert!(t.unit_errors().is_empty());
        // No evidence: every candidate fails the test...
        assert!(!t.estimate_beta_ok(1e6, 10.0, 0.05));
        // ...and translate falls back to the closed-form Chebyshev bound.
        let (alpha, beta) = (10.0, 0.05);
        let chebyshev = 1.0 * 1.0 / (alpha * (beta / 2.0_f64).sqrt());
        assert_eq!(t.translate(alpha, beta), chebyshev);
    }

    #[test]
    fn operator_translator_agrees_with_dense_translator() {
        // Branchings 2/3/5 over power and non-power domains.
        for (n, b) in [
            (5usize, 2usize),
            (16, 2),
            (33, 2),
            (13, 3),
            (27, 3),
            (50, 5),
        ] {
            let strategy = Strategy::Hierarchical { branching: b };
            let w = prefix_workload_csr(n);
            let op = strategy.operator(n).unwrap();
            let cfg = mc(1_500);
            let t_op = McTranslator::with_operator(&w, op.as_ref(), op.l1_operator_norm(), cfg);
            let (_, t_dense) = McTranslator::dense_oracle(&w, strategy, cfg);

            // Same noise, same distribution; only FP summation order
            // differs, so the per-sample errors match tightly...
            assert_eq!(t_op.unit_errors().len(), t_dense.unit_errors().len());
            for (a, d) in t_op.unit_errors().iter().zip(t_dense.unit_errors()) {
                assert!(
                    (a - d).abs() <= 1e-9 * d.abs().max(1.0),
                    "n={n} b={b}: {a} vs {d}"
                );
            }
            // ...and the translations land within the search tolerance.
            let (alpha, beta) = (10.0, 0.05);
            let e_op = t_op.translate(alpha, beta);
            let e_dense = t_dense.translate(alpha, beta);
            assert!(
                (e_op - e_dense).abs() <= 2.0 * cfg.tolerance * e_dense,
                "n={n} b={b}: {e_op} vs {e_dense}"
            );
        }
    }

    #[test]
    fn operator_frobenius_matches_dense_frobenius() {
        for n in [4usize, 9, 20] {
            let w = prefix_workload_csr(n);
            let op = Strategy::H2.operator(n).unwrap();
            let (recon, _) = McTranslator::dense_oracle(&w, Strategy::H2, mc(0));
            let f_op = recon_frobenius_via_operator(&w, op.as_ref());
            let f_dense = frobenius_norm(&recon);
            assert!(
                (f_op - f_dense).abs() <= 1e-9 * f_dense,
                "n={n}: {f_op} vs {f_dense}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_allocating_reference() {
        // The pipeline reuses per-thread scratch buffers; re-derive every
        // sample with fresh allocations and demand bitwise equality.
        for (n, samples) in [(5usize, 40usize), (33, 130), (64, 700)] {
            let w = prefix_workload_csr(n);
            let op = Strategy::H2.operator(n).unwrap();
            let got = unit_errors_operator_blocked(
                &w,
                op.as_ref(),
                samples,
                0xC0FFEE,
                apex_linalg::max_threads(),
                SAMPLE_BLOCK,
            );
            let unit = Laplace::new(1.0);
            for (i, g) in got.iter().enumerate() {
                let mut rng = sample_stream(0xC0FFEE, i as u64);
                let eta = unit.sample_vec(op.rows(), &mut rng);
                let reference = w
                    .matvec(&op.pinv_apply(&eta).unwrap())
                    .unwrap()
                    .iter()
                    .fold(0.0_f64, |mx, v| mx.max(v.abs()));
                assert_eq!(g.to_bits(), reference.to_bits(), "n={n} sample {i}");
            }
        }
    }

    #[test]
    fn operator_unit_errors_are_thread_count_invariant() {
        for (n, samples) in [(7usize, 1usize), (16, 37), (33, 260)] {
            let w = prefix_workload_csr(n);
            let op = Strategy::H2.operator(n).unwrap();
            let run = |threads| {
                unit_errors_operator_blocked(&w, op.as_ref(), samples, 0xBEE, threads, SAMPLE_BLOCK)
            };
            let one = run(1);
            for threads in [2usize, 3, 8, 64] {
                assert_eq!(one, run(threads), "n={n} N={samples} threads={threads}");
            }
        }
    }

    #[test]
    fn blocked_is_bit_identical_to_single_rhs_across_panel_widths() {
        // The blocked panel pipeline must reproduce the one-sample-per-
        // panel run bit for bit for every panel width — including 1, widths around
        // the default block, and widths straddling the sample count — over
        // non-power domains and branchings 2/3/5.
        for (n, b) in [(13usize, 2usize), (33, 3), (50, 5)] {
            let w = prefix_workload_csr(n);
            let op = HierarchicalOperator::new(n, b).unwrap();
            let samples = 70;
            let reference = unit_errors_one_by_one(&w, &op, samples, 0xB10C);
            for block in [1usize, 7, 8, 9, 64, 69, 70, 71, 1024] {
                let blocked = unit_errors_operator_blocked(&w, &op, samples, 0xB10C, 1, block);
                assert_eq!(reference, blocked, "n={n} b={b} block={block}");
            }
        }
    }

    #[test]
    fn blocked_is_bit_identical_around_the_default_block_size() {
        // SAMPLE_BLOCK − 1 / SAMPLE_BLOCK / SAMPLE_BLOCK + 1 panels, with
        // enough samples that full panels, ragged lane tails, and a ragged
        // final panel all occur.
        let n = 16;
        let w = prefix_workload_csr(n);
        let op = HierarchicalOperator::new(n, 2).unwrap();
        let samples = SAMPLE_BLOCK + 37;
        let reference = unit_errors_one_by_one(&w, &op, samples, 0x51AB);
        for block in [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1] {
            let blocked = unit_errors_operator_blocked(&w, &op, samples, 0x51AB, 1, block);
            assert_eq!(reference, blocked, "block={block}");
        }
    }

    #[test]
    fn single_rhs_translator_agrees_exactly_with_blocked_translator() {
        // The served constructor (host thread count, default panel width)
        // against the one-sample-per-panel samples, sorted as it sorts.
        let n = 27;
        let w = prefix_workload_csr(n);
        let op = Strategy::H2.operator(n).unwrap();
        let cfg = mc(SAMPLE_BLOCK + 100);
        let blocked = McTranslator::with_operator(&w, op.as_ref(), op.l1_operator_norm(), cfg);
        let mut single = unit_errors_one_by_one(&w, op.as_ref(), cfg.samples, cfg.seed);
        single.sort_by(f64::total_cmp);
        assert_eq!(blocked.unit_errors(), single);
    }

    #[test]
    fn panel_fill_is_bit_identical_to_the_scalar_sampler() {
        // Whole lane groups, ragged tails on either side of a group, the
        // default panel and one short of it; columns of one value, fewer
        // than a group's worth, and the two cold-workload strategy sizes.
        let unit = Laplace::new(1.0);
        for first in [0u64, 1_000_003] {
            for m in [1usize, 7, 61, 125] {
                for bs in [1usize, 7, 8, 9, SAMPLE_BLOCK - 1, SAMPLE_BLOCK] {
                    let mut panel = vec![f64::NAN; m * bs];
                    fill_noise_panel(&mut panel, m, 0xF111, first);
                    for (j, col) in panel.chunks_exact(m).enumerate() {
                        let mut rng = sample_stream(0xF111, first + j as u64);
                        for (k, v) in col.iter().enumerate() {
                            let want = unit.sample(&mut rng);
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "first={first} m={m} bs={bs} col {j} row {k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn noise_stream_golden_vector() {
        // The stream is a function of (seed, index, k) and IEEE arithmetic
        // alone — no libm — so these bits hold on every host. A change
        // here moves every seeded ε and answer: do it on purpose or not
        // at all.
        const GOLDEN: [u64; 16] = [
            0xbfdb_2c71_a20a_249e,
            0x3fb7_4fca_d590_4a31,
            0x4003_9bb0_3d70_ba8a,
            0x3fcd_95c5_5963_6bc3,
            0x3fe4_3215_5b43_8c3b,
            0xbfba_3a8d_3f27_5ad2,
            0xbfd2_eb57_6535_705e,
            0xbfef_c741_df9d_f0ae,
            0x3fe5_56fa_855f_745d,
            0xbfd0_5116_da1b_0946,
            0xbff9_e0d8_7d22_b796,
            0xc007_ab82_6ed1_7e76,
            0x3fe8_1e9d_19e6_f8a4,
            0xbfd0_19b2_c5eb_0063,
            0x3fc7_80b4_0737_9ccd,
            0x3feb_93c1_4258_19d8,
        ];
        let mut rng = sample_stream(McConfig::default().seed, 0);
        let got: Vec<u64> = (0..16)
            .map(|_| unit_laplace(rng.next_u64()).to_bits())
            .collect();
        assert_eq!(got, GOLDEN, "{got:#018x?}");
    }

    #[test]
    fn thread_chunks_are_balanced() {
        // 10 samples across 4 threads must split 3/3/2/2 (never 3/3/3/1,
        // and never an empty trailing chunk) — checked behaviorally: every
        // thread count and remainder combination reproduces the
        // single-thread result, including threads > samples.
        let n = 16;
        let w = prefix_workload_csr(n);
        let op = Strategy::H2.operator(n).unwrap();
        for samples in [1usize, 2, 9, 10, 37] {
            let run = |threads| {
                unit_errors_operator_blocked(&w, op.as_ref(), samples, 0xFA1, threads, SAMPLE_BLOCK)
            };
            let one = run(1);
            for threads in [2usize, 3, 4, 7, samples, samples + 5, 64] {
                assert_eq!(one, run(threads), "samples={samples} threads={threads}");
            }
        }
    }

    #[test]
    fn identity_operator_translator_matches_identity_recon() {
        let n = 6;
        let t_op = identity_translator(n, 2_000);
        let t_dense = McTranslator::new_serial(&Matrix::identity(n), 1.0, mc(2_000));
        // With W = A = I both compute |η_j| maxima — identically.
        assert_eq!(t_op.unit_errors(), t_dense.unit_errors());
        assert_eq!(t_op.translate(8.0, 0.05), t_dense.translate(8.0, 0.05));
    }

    #[test]
    fn per_sample_streams_are_independent_of_order() {
        // Stream derivation depends only on (seed, index): sampling a
        // prefix yields a prefix.
        let w = prefix_workload_csr(9);
        let op = Strategy::H2.operator(9).unwrap();
        let all = unit_errors_one_by_one(&w, op.as_ref(), 50, 99);
        let prefix = unit_errors_one_by_one(&w, op.as_ref(), 20, 99);
        assert_eq!(&all[..20], &prefix[..]);
    }
}
