//! The APEx differentially private mechanism suite (Section 5).
//!
//! Every mechanism exposes two functions, mirroring the paper's interface:
//!
//! * `translate(q, α, β) → (εˡ, εᵘ)` — the privacy cost bounds if the
//!   mechanism were run with the given accuracy requirement;
//! * `run(q, α, β, D) → (ω, ε)` — execute, returning the answer and the
//!   *actual* privacy loss (which for data-dependent mechanisms may be
//!   below `εᵘ`).
//!
//! Implemented mechanisms:
//!
//! | type | mechanisms |
//! |------|------------|
//! | WCQ  | [`LaplaceMechanism`] (Alg. 2), [`StrategyMechanism`] (Alg. 3) |
//! | ICQ  | [`LaplaceMechanism`], [`StrategyMechanism`] (§5.3.1), [`MultiPokingMechanism`] (Alg. 4) |
//! | TCQ  | [`LaplaceMechanism`], [`LaplaceTopKMechanism`] (Alg. 5) |
//!
//! plus the building blocks: a from-scratch [`laplace`] sampler, the
//! gradual-release noise kernel [`relax`] (Koufogiannis et al. [22]), and
//! the Monte-Carlo accuracy-to-privacy translator [`mc`] used by the
//! strategy mechanism.

pub mod cache;
pub mod laplace;
pub mod lm;
pub mod ltm;
pub mod mc;
pub mod mpm;
pub mod prepared;
pub mod registry;
pub mod relax;
pub mod sm;
pub mod traits;

pub use cache::{CacheStats, SmCacheKey, TranslatorCache};
pub use laplace::Laplace;
pub use lm::LaplaceMechanism;
pub use ltm::LaplaceTopKMechanism;
pub use mpm::MultiPokingMechanism;
pub use prepared::PreparedQuery;
pub use registry::{mechanisms_for, mechanisms_for_cached};
pub use relax::relax_laplace;
pub use sm::{SmArtifacts, StrategyMechanism};
pub use traits::{MechError, MechOutput, Mechanism, Translation};

/// Numerical floor for translated privacy costs: extremely loose accuracy
/// requirements can push the closed forms to zero or below, meaning the
/// bound is achievable at negligible privacy cost.
pub const EPSILON_FLOOR: f64 = 1e-12;
