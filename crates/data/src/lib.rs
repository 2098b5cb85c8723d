//! Relational substrate for the APEx reproduction.
//!
//! APEx (Section 2) assumes a single-table relational schema
//! `R(A₁, …, A_d)` with a public domain, and a sensitive instance `D` that
//! is a multiset of tuples over that domain. This crate provides:
//!
//! * [`Value`] / [`DataType`] — the typed cell values,
//! * [`Schema`] / [`Attribute`] / [`Domain`] — the public schema,
//! * [`Dataset`] — a multiset instance of the schema,
//! * [`Predicate`] — the boolean predicate language `φ: dom(R) → {0,1}`
//!   that workloads are built from,
//! * [`partition`] — the workload-driven domain partitioning
//!   `T(W), T_W(D)` of Section 5 (workload matrix + histogram vector),
//! * [`views`] — the histograms a [`Dataset`] maintains per partition, so
//!   an answered query does not rescan `D` (docs/PERFORMANCE.md),
//! * [`BoundedLru`] — the one entry- and byte-capped LRU map under the
//!   views, the translator cache and the engine's compile memo,
//! * [`synth`] — seeded synthetic generators standing in for the paper's
//!   Adult, NYTaxi and citations datasets (the substitution rationale is
//!   in `crates/bench/src/bin/repro.rs`'s module doc),
//! * [`store`] — the durable paged storage layer (file manager, buffer
//!   pool, page codec) that lets a [`Dataset`] live on disk, be opened
//!   without re-synthesis, and grow past memory (docs/STORAGE.md).

pub mod dataset;
mod lru;
pub mod partition;
pub mod predicate;
pub mod schema;
pub mod store;
pub mod synth;
pub mod value;
pub mod views;

pub use dataset::{Dataset, MutationError, RowDelta};
pub use lru::{BoundedLru, CacheStats};
pub use partition::{DomainPartition, PartitionError};
pub use predicate::{CmpOp, Predicate};
pub use schema::{Attribute, Domain, Schema, SchemaError};
pub use store::{PoolStats, StoreError};
pub use value::{DataType, Value};
pub use views::ViewStats;
