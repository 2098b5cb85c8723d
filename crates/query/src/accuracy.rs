//! The `(α, β)` accuracy requirement (Definitions 3.1–3.3).

/// Errors raised when constructing an accuracy requirement.
#[derive(Debug, Clone, PartialEq)]
pub enum AccuracyError {
    /// `α` must be strictly positive and finite.
    InvalidAlpha(f64),
    /// `β` must lie in `(0, 1)`.
    InvalidBeta(f64),
}

impl std::fmt::Display for AccuracyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccuracyError::InvalidAlpha(a) => {
                write!(f, "alpha must be positive and finite, got {a}")
            }
            AccuracyError::InvalidBeta(b) => write!(f, "beta must be in (0, 1), got {b}"),
        }
    }
}

impl std::error::Error for AccuracyError {}

/// An `(α, β)` accuracy requirement: with probability at least `1 − β`,
/// the answer error is bounded by `α`.
///
/// * For a WCQ the error is `‖y − q_W(D)‖∞` (Definition 3.1).
/// * For an ICQ / TCQ, `α` bounds the count distance at which a bin may be
///   mislabeled (Definitions 3.2 / 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySpec {
    alpha: f64,
    beta: f64,
}

impl AccuracySpec {
    /// Builds a validated accuracy requirement.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite `α`, and `β ∉ (0, 1)`.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, AccuracyError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(AccuracyError::InvalidAlpha(alpha));
        }
        if !(beta > 0.0 && beta < 1.0) {
            return Err(AccuracyError::InvalidBeta(beta));
        }
        Ok(Self { alpha, beta })
    }

    /// The error bound `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The failure probability `β`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The confidence `1 − β` (as the concrete syntax writes it).
    #[inline]
    pub fn confidence(&self) -> f64 {
        1.0 - self.beta
    }

    /// A copy with `α` replaced and `β` kept (used by sweeps over `α/|D|`).
    pub fn with_alpha(&self, alpha: f64) -> Result<Self, AccuracyError> {
        Self::new(alpha, self.beta)
    }
}

impl std::fmt::Display for AccuracySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ERROR {} CONFIDENCE {}", self.alpha, self.confidence())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_spec_round_trips() {
        let a = AccuracySpec::new(10.0, 0.0005).unwrap();
        assert_eq!(a.alpha(), 10.0);
        assert_eq!(a.beta(), 0.0005);
        assert!((a.confidence() - 0.9995).abs() < 1e-12);
    }

    #[test]
    fn invalid_alpha_rejected() {
        assert!(matches!(
            AccuracySpec::new(0.0, 0.1),
            Err(AccuracyError::InvalidAlpha(_))
        ));
        assert!(matches!(
            AccuracySpec::new(-1.0, 0.1),
            Err(AccuracyError::InvalidAlpha(_))
        ));
        assert!(matches!(
            AccuracySpec::new(f64::INFINITY, 0.1),
            Err(AccuracyError::InvalidAlpha(_))
        ));
        assert!(matches!(
            AccuracySpec::new(f64::NAN, 0.1),
            Err(AccuracyError::InvalidAlpha(_))
        ));
    }

    #[test]
    fn invalid_beta_rejected() {
        assert!(matches!(
            AccuracySpec::new(1.0, 0.0),
            Err(AccuracyError::InvalidBeta(_))
        ));
        assert!(matches!(
            AccuracySpec::new(1.0, 1.0),
            Err(AccuracyError::InvalidBeta(_))
        ));
        assert!(matches!(
            AccuracySpec::new(1.0, -0.2),
            Err(AccuracyError::InvalidBeta(_))
        ));
    }

    #[test]
    fn with_alpha_preserves_beta() {
        let a = AccuracySpec::new(10.0, 0.05).unwrap();
        let b = a.with_alpha(20.0).unwrap();
        assert_eq!(b.alpha(), 20.0);
        assert_eq!(b.beta(), 0.05);
    }
}
