//! APEx — accuracy-aware privacy engine for data exploration (SIGMOD 2019
//! reproduction): workspace facade crate.
//!
//! This crate re-exports the workspace's sub-crates under one roof so that
//! downstream users (and the integration tests and examples in this
//! repository) can depend on a single `apex` crate:
//!
//! * [`core`] — the privacy engine (budget, mechanism selection, transcripts)
//! * [`data`] — schema, datasets, predicates, domain partitioning
//! * [`query`] — exploration queries, accuracy specs, compiled workloads
//! * [`mech`] — the differentially private mechanism suite
//! * [`linalg`] — sparse (CSR) matrices and matrix-free strategy operators
//! * [`cleaning`] — the entity-resolution case study

pub use apex_cleaning as cleaning;
pub use apex_core as core;
pub use apex_data as data;
pub use apex_linalg as linalg;
pub use apex_mech as mech;
pub use apex_query as query;
