//! The Laplace distribution, implemented from scratch.
//!
//! `rand_distr` is not in the allowed offline crate set, and the sampler
//! is ten lines via inverse-CDF, so we own it — along with the CDF and
//! quantile functions that the accuracy proofs (Appendix A.1) use.
//!
//! # One sampler
//!
//! [`unit_laplace`] is the only code in the workspace that turns RNG bits
//! into Laplace noise: [`Laplace::sample`] is `b ×` it on
//! `rng.next_u64()`, and the Monte-Carlo translator's panel filler
//! ([`crate::mc::fill_noise_panel`]) applies it lane-wise. Its logarithm is
//! `ln_normal` below — plain IEEE arithmetic, no libm call — so a seeded
//! noise stream is a function of the seed and IEEE-754 alone, on every
//! host, and the mechanisms' noise and the translator's simulated noise
//! cannot drift apart. Do not add a second sampler; change this one.

use rand::Rng;

// fdlibm's `e_log.c` constants in shortest round-trip decimal (their bit
// patterns are pinned by `ln_constants_are_fdlibms`): `ln 2` split so that
// `k·LN2_HI` is exact for every exponent `k`, and the minimax coefficients
// `Lg1..Lg7`.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LG: [f64; 7] = [
    0.666_666_666_666_673_5,
    0.399_999_999_994_094_2,
    0.285_714_287_436_623_9,
    0.222_221_984_321_497_84,
    0.181_835_721_616_180_5,
    0.153_138_376_992_093_73,
    0.147_981_986_051_165_86,
];

/// Spacing of the uniform grid the sampler draws from: `2⁻⁵³`.
const GRID: f64 = 1.0 / (1u64 << 53) as f64;

/// `ln x` for a positive, normal, finite `x`: the fdlibm / musl `log`
/// kernel with its case split removed, so it is straight-line arithmetic
/// the compiler can run on vector lanes. `x = 2ᵏ·(1 + f)` with
/// `√2/2 ≤ 1 + f < √2` (the split is integer arithmetic on the exponent
/// field), then `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))` with
/// `s = f/(2 + f)` and `R` the degree-14 minimax polynomial. Within 1 ulp
/// of the correctly rounded value; `ln 1 = 0` exactly.
///
/// Subnormals, zero, negatives, infinities and NaN are outside the
/// contract (the sampler never produces them) and yield garbage, not a
/// panic.
#[inline(always)]
fn ln_normal(x: f64) -> f64 {
    // High word of √2/2: adding `1.0 − √2/2` (as bit patterns) carries
    // into the exponent exactly when the mantissa is ≥ √2.
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e << 32;
    const ONE: u64 = 0x3ff0_0000 << 32;
    const MANTISSA: u64 = (1 << 52) - 1;

    let ix = x.to_bits() + (ONE - SQRT_HALF_HI);
    let k = ((ix >> 52) as i32 - 0x3ff) as f64;
    let f = f64::from_bits((ix & MANTISSA) + SQRT_HALF_HI) - 1.0;

    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// The one unit-scale Laplace sampler: maps 64 uniformly random bits to
/// a `Lap(1)` draw by inverse CDF. `r = (bits >> 11)·2⁻⁵³ ∈ [0, 1)`,
/// `u = r − ½`, `x = −sgn(u)·ln(1 − 2|u|)`; every step before the
/// logarithm is exact in `f64`.
///
/// `r = 0` gives `u = −½` and `1 − 2|u| = 0`; the argument is clamped to
/// the grid spacing `2⁻⁵³` there, so that draw is `−53·ln 2 ≈ −36.7`
/// instead of `−∞` (no other draw is affected: the next-smallest
/// argument is `2⁻⁵²`).
#[inline(always)]
pub fn unit_laplace(bits: u64) -> f64 {
    let u = -0.5 + (bits >> 11) as f64 * GRID;
    let arg = 1.0 - 2.0 * u.abs();
    let mag = -ln_normal(if arg < GRID { GRID } else { arg });
    if u < 0.0 {
        -mag
    } else {
        mag
    }
}

/// A zero-mean Laplace distribution with scale `b`:
/// `p(x) = exp(−|x|/b) / (2b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    b: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with scale `b`.
    ///
    /// # Panics
    /// Panics if `b` is not strictly positive and finite — a scale of zero
    /// would make a mechanism silently non-private.
    pub fn new(b: f64) -> Self {
        assert!(
            b.is_finite() && b > 0.0,
            "Laplace scale must be positive and finite, got {b}"
        );
        Self { b }
    }

    /// The scale parameter `b`.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.b
    }

    /// Draws one sample: `b ×` [`unit_laplace`] on the generator's next
    /// 64 bits.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.b * unit_laplace(rng.next_u64())
    }

    /// Draws `n` i.i.d. samples.
    pub fn sample_vec<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The CDF `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.b).exp()
        } else {
            1.0 - 0.5 * (-x / self.b).exp()
        }
    }

    /// The survival function of the absolute value: `P(|X| > t)` for
    /// `t ≥ 0`, which is `exp(−t/b)`. This is the quantity every accuracy
    /// proof in Appendix A bounds.
    pub fn abs_tail(&self, t: f64) -> f64 {
        debug_assert!(t >= 0.0);
        (-t / self.b).exp()
    }

    /// The quantile function (inverse CDF).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile needs p in [0,1], got {p}"
        );
        if p == 0.0 {
            return f64::NEG_INFINITY;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        if p < 0.5 {
            self.b * (2.0 * p).ln()
        } else {
            -self.b * (2.0 * (1.0 - p)).ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Distance in representable values between two finite doubles of the
    /// same sign.
    fn ulps_apart(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn ln_constants_are_fdlibms() {
        assert_eq!(LN2_HI.to_bits(), 0x3fe6_2e42_fee0_0000);
        assert_eq!(LN2_LO.to_bits(), 0x3dea_39ef_3579_3c76);
        let lg: [u64; 7] = [
            0x3fe5_5555_5555_5593,
            0x3fd9_9999_9997_fa04,
            0x3fd2_4924_9422_9359,
            0x3fcc_71c5_1d8e_78af,
            0x3fc7_4664_96cb_03de,
            0x3fc3_9a09_d078_c69f,
            0x3fc2_f112_df3e_5244,
        ];
        assert_eq!(LG.map(f64::to_bits), lg);
    }

    #[test]
    fn ln_kernel_is_within_one_ulp_of_libm() {
        // The sampler's extremes and the √2/2 split's neighbourhood.
        for x in [GRID, 2.0 * GRID, 0.5, 1.0 - 2.0 * GRID, 1.0 - GRID] {
            assert!(ulps_apart(ln_normal(x), x.ln()) <= 1, "x = {x:e}");
        }
        assert_eq!(ln_normal(1.0).to_bits(), 0.0_f64.to_bits());
        // Seeded arguments exactly as the sampler forms them.
        let mut rng = StdRng::seed_from_u64(0x1F_1065);
        let mut differing = 0usize;
        for _ in 0..1_500_000 {
            let u = -0.5 + (rng.next_u64() >> 11) as f64 * GRID;
            let x = 1.0 - 2.0 * u.abs();
            if x == 0.0 {
                continue;
            }
            let d = ulps_apart(ln_normal(x), x.ln());
            assert!(d <= 1, "x = {x:e}: {} vs {}", ln_normal(x), x.ln());
            differing += usize::from(d == 1);
        }
        // Both are sub-ulp accurate, so most results agree outright.
        assert!(differing < 300_000, "{differing} of 1.5M differ by an ulp");
    }

    /// A generator that replays fixed words.
    struct Replay(std::vec::IntoIter<u64>);

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("replay exhausted")
        }
    }

    #[test]
    fn extreme_generator_words_give_finite_samples() {
        // `r = 0` used to be `u = −0.5`, `ln(0)` and a sample of −∞.
        let ln2 = std::f64::consts::LN_2;
        let mut rng = Replay(vec![0, 1 << 11, u64::MAX, 1 << 63].into_iter());
        let d = Laplace::new(2.0);
        let expected = [-53.0 * ln2 * 2.0, -52.0 * ln2 * 2.0, 52.0 * ln2 * 2.0];
        for want in expected {
            let got = d.sample(&mut rng);
            assert!(got.is_finite());
            assert!((got - want).abs() <= 1e-13 * want.abs(), "{got} vs {want}");
        }
        // r = ½ is u = 0: the centre of the distribution, as before.
        assert_eq!(d.sample(&mut rng), 0.0);
    }

    #[test]
    #[should_panic(expected = "Laplace scale must be positive")]
    fn zero_scale_panics() {
        let _ = Laplace::new(0.0);
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        let d = Laplace::new(2.0);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(d.cdf(-1.0) < d.cdf(0.0));
        assert!(d.cdf(1.0) > d.cdf(0.0));
        // Symmetry: F(-x) = 1 - F(x).
        for x in [0.1, 1.0, 3.7] {
            assert!((d.cdf(-x) - (1.0 - d.cdf(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Laplace::new(1.5);
        for p in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn abs_tail_matches_cdf() {
        let d = Laplace::new(0.7);
        for t in [0.0, 0.5, 2.0] {
            let via_cdf = d.cdf(-t) + (1.0 - d.cdf(t));
            assert!((d.abs_tail(t) - via_cdf).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_moments_are_plausible() {
        let d = Laplace::new(3.0);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let xs = d.sample_vec(n, &mut rng);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Var = 2b² = 18.
        assert!((var - 18.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn sample_tail_frequency_matches_theory() {
        let d = Laplace::new(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let t = 2.0;
        let exceed = d
            .sample_vec(n, &mut rng)
            .iter()
            .filter(|x| x.abs() > t)
            .count();
        let expected = d.abs_tail(t); // e^-2 ≈ 0.1353
        let frac = exceed as f64 / n as f64;
        assert!((frac - expected).abs() < 0.01, "frac {frac} vs {expected}");
    }

    #[test]
    fn empirical_ks_statistic_is_small() {
        let d = Laplace::new(2.5);
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 50_000;
        let mut xs = d.sample_vec(n, &mut rng);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut ks: f64 = 0.0;
        for (i, x) in xs.iter().enumerate() {
            let emp = (i + 1) as f64 / n as f64;
            ks = ks.max((emp - d.cdf(*x)).abs());
        }
        // 99.9% KS critical value ≈ 1.95 / sqrt(n) ≈ 0.0087.
        assert!(ks < 0.009, "KS statistic {ks}");
    }
}
