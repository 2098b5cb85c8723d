//! The APEx exploration-query language (Section 3 of the paper).
//!
//! Analysts interact with APEx through declaratively specified aggregate
//! queries:
//!
//! ```text
//! BIN D ON COUNT(*) WHERE W = {φ₁, …, φ_L}
//!   [HAVING COUNT(*) > c]
//!   [ORDER BY COUNT(*) LIMIT k]
//!   ERROR α CONFIDENCE 1 − β;
//! ```
//!
//! This crate defines:
//!
//! * [`ExplorationQuery`] — the three query types (WCQ / ICQ / TCQ) over a
//!   predicate workload,
//! * [`AccuracySpec`] — the `(α, β)` accuracy requirement,
//! * [`CompiledWorkload`] — the matrix form `W ← T(W), x ← T_W(D)` used by
//!   every mechanism, including the workload sensitivity `‖W‖₁`,
//! * [`Strategy`] — strategies for the matrix mechanism (identity and
//!   hierarchical `H_b`), as CSR matrices and as matrix-free operators,
//! * [`parser`] — a parser for the concrete syntax above.

pub mod accuracy;
pub mod parser;
pub mod query;
pub mod strategy;
pub mod workload;

pub use accuracy::{AccuracyError, AccuracySpec};
pub use parser::{parse_query, ParseError, ParsedQuery};
pub use query::{ExplorationQuery, QueryAnswer, QueryKind};
pub use strategy::{Strategy, StrategyError};
pub use workload::{CompiledWorkload, WorkloadError};
