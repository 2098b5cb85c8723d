//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on three real datasets that are not available in
//! this offline environment: the 1994 US Census *Adult* extract (32,561
//! rows), NYC TLC *yellow taxi* trip records (9.7M rows), and the Magellan
//! *citations* record-pair benchmark. Each generator here produces a
//! synthetic stand-in with the same schema, the same attribute
//! cardinalities, and count distributions with the same qualitative shape
//! (heavy zero-inflation for capital gain, short-trip skew for taxi data,
//! clustered duplicates for citations).
//!
//! The substitution preserves the behaviours the experiments measure
//! (`apex-bench`'s `repro` checks them; see its module doc,
//! `crates/bench/src/bin/repro.rs`): mechanism privacy costs depend only
//! on the workload matrix and the accuracy bound — both data-independent
//! — except for ICQ-MPM, whose cost depends on the *gap between bin
//! counts and the iceberg threshold*; the generators control those gaps
//! through skew parameters, so the paper's qualitative findings are
//! reproducible.
//!
//! All generators are deterministic given a seed.

mod adult;
mod citations;
mod nytaxi;

pub use adult::{adult_dataset, adult_schema, ADULT_SIZE};
pub use citations::{citations_dataset, citations_schema, CitationsConfig};
pub use nytaxi::{nytaxi_dataset, nytaxi_schema};
