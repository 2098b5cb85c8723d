//! APEx — the accuracy-aware privacy engine (Ge, He, Ilyas,
//! Machanavajjhala; SIGMOD 2019).
//!
//! APEx sits between a data analyst and a sensitive dataset. The analyst
//! poses declarative aggregate queries ([`apex_query::ExplorationQuery`])
//! each with an `(α, β)` accuracy requirement; the engine
//!
//! 1. **translates** the accuracy requirement into a differentially
//!    private mechanism with the least privacy loss
//!    ([`translator::choose_mechanism`]),
//! 2. **checks** the worst-case loss against the owner's remaining budget
//!    and denies the query if no mechanism fits ([`ApexEngine::submit`]),
//! 3. **executes** the chosen mechanism and charges the *actual* loss —
//!    which for data-dependent mechanisms can be well below the worst
//!    case (Algorithm 1, Line 12),
//! 4. **records** everything in a [`Transcript`] whose validity implies
//!    the end-to-end guarantee of Theorem 6.2: the analyst's whole view
//!    of the interaction is `B`-differentially private.
//!
//! # Quick start
//!
//! ```
//! use apex_core::{ApexEngine, EngineConfig, Mode, EngineResponse};
//! use apex_data::{synth::adult_dataset, Predicate};
//! use apex_query::{AccuracySpec, ExplorationQuery};
//!
//! let data = adult_dataset(5_000, 7);
//! let mut engine = ApexEngine::new(data, EngineConfig { budget: 1.0, ..Default::default() });
//!
//! // Histogram of capital gain in [0, 5000), 10 bins of width 500.
//! let workload: Vec<Predicate> = (0..10)
//!     .map(|i| Predicate::range("capital_gain", 500.0 * i as f64, 500.0 * (i + 1) as f64))
//!     .collect();
//! let query = ExplorationQuery::wcq(workload);
//! let accuracy = AccuracySpec::new(250.0, 0.0005).unwrap();
//!
//! match engine.submit(&query, &accuracy).unwrap() {
//!     EngineResponse::Answered(a) => {
//!         println!("mechanism {} spent ε = {:.4}", a.mechanism, a.epsilon);
//!     }
//!     EngineResponse::Denied => println!("query denied: budget exhausted"),
//! }
//! assert!(engine.spent() <= 1.0);
//! ```

pub mod engine;
pub mod error;
pub mod memo;
#[cfg(any(test, feature = "sched"))]
pub mod sched;
pub mod shared;
pub mod transcript;
pub mod translator;

/// Marks a named yield point for the deterministic schedule exerciser
/// ([`sched`]). Expands to nothing unless the compiling crate is built
/// with `cfg(test)` or its own `sched` feature — release builds carry
/// zero overhead, not even a branch.
///
/// Points are trace markers *and* crash-injection sites: place one at
/// every boundary where a process kill or a context switch would be
/// observable (before/after a WAL append, between an append and the
/// ledger charge, inside a lock-held critical section). Naming:
/// `area.operation.moment`, e.g. `engine.commit.post_log`.
#[macro_export]
macro_rules! sched_point {
    ($name:expr) => {{
        #[cfg(any(test, feature = "sched"))]
        $crate::sched::yield_point($name);
    }};
}

pub use apex_mech::TranslatorCache;
pub use engine::{
    Answered, ApexEngine, CommitError, EngineConfig, EngineResponse, EvalContext, LedgerExport,
    Mode, PendingCharge,
};
pub use error::EngineError;
pub use memo::{CompileMemo, CompileStats};
pub use shared::{EngineSession, SharedEngine};
pub use transcript::{QueryRecord, Transcript, TranscriptEntry};
pub use translator::{choose_mechanism, choose_mechanism_cached_at_epoch, MechanismChoice};
