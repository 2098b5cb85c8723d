//! `apex-serve` — a multi-tenant HTTP/1.1 JSON query service over shared
//! APEx engines.
//!
//! The ROADMAP's multi-tenant north star needs a front end: analysts
//! open **sessions** against registered datasets, each session holding a
//! slice of that dataset's privacy budget, and submit exploration
//! queries in the paper's concrete syntax. The service is std-only — a
//! hand-rolled HTTP server over `std::net` ([`http`] parses, [`shard`]
//! serves), a zero-dependency JSON module ([`json`]), and no async
//! runtime — consistent with the repo's offline vendored-shim policy.
//!
//! Layering:
//!
//! * [`json`] — JSON values, parsing, rendering;
//! * [`http`] — the wire layer: the one incremental request parser and
//!   response serialization;
//! * [`wire`] — bodies ↔ engine types ([`apex_query::ExplorationQuery`],
//!   [`apex_core::EngineResponse`], …);
//! * [`wal`] — the write-ahead log and the one durability core: one
//!   record per budget-mutating event in a framed log
//!   (`apex_data::store::framed`), and the shared writer whose group
//!   commit makes a record durable before the client is acked (the only
//!   code here that syncs the log). Row mutations are not budget events:
//!   their one durable record is the dataset's own mutation log;
//! * [`snapshot`] — periodic compaction of the ledger + session table,
//!   the state-directory layout recovery reads, and the fold
//!   (`Snapshot::apply`) that replays a WAL record into an image;
//! * [`clock`] — injectable time, so session-TTL behavior is
//!   deterministic under test;
//! * [`state`] — four modules over that core: `ledger` (admission,
//!   charge, WAL ordering, compaction), `sessions` (budget slices with
//!   idle TTLs, pinning, the reaper), `registry` (tenants — one
//!   [`apex_core::SharedEngine`] per dataset, one shared translator
//!   cache with per-tenant stat scopes — and row mutations) and
//!   `recovery` (the directory lock, WAL-over-snapshot replay, and each
//!   resident tenant's mutation log under `rows/<tenant>/`);
//! * [`router`] — per-shard endpoint dispatch and status-code mapping (a
//!   *denied* query is 409, an *expired* session is 410, the admin plane
//!   checks a bearer token);
//! * [`shard`] — the shard layer: N shard workers each owning its own
//!   engines, ledger gate, WAL sequence, and `state-dir/shard-K/`
//!   directory; tenants routed by consistent hashing, each registered
//!   only on the shard the ring routes it to; a nonblocking
//!   accept/dispatch loop with bounded per-shard queues (full ⇒ 503 +
//!   `Retry-After`) and graceful shutdown; parallel per-shard recovery at
//!   boot; the cross-shard endpoints (`/healthz`, aggregated `/v1/stats`,
//!   admin list / shutdown);
//! * [`invariants`] — the whole correctness contract, checked in one
//!   place: a per-tenant wire model of what clients were acked, an
//!   in-process observation of the owning shard, and the invariants between
//!   them (`spent ≤ B`, spent == acked Σε, grant conservation, denials ==
//!   409s, applied == epoch, view == rescan) — every harness calls it;
//! * [`selftest`] — the end-to-end gate CI runs (`--self-test`): a
//!   scripted concurrent workload over real sockets, checked against
//!   [`invariants`] live and after an in-process restart, plus protocol
//!   discipline, cross-session cache sharing and group commit;
//! * [`client`] — the one client the self-test, the tests, the soak and
//!   the examples drive the server with (keep-alive, pipelining, `503`
//!   retry).
//!
//! Budget semantics under concurrency are documented in
//! `docs/SERVICE.md`; the one-line summary: submissions are two-phase —
//! the mechanism *evaluates* speculatively with no lock held, and the
//! *commit* re-validates the worst case against the session's slice
//! **and** the engine's remaining `B` atomically before charging, so no
//! interleaving of sessions can overshoot either (a commit that loses
//! the race is denied and charges nothing). Persistence semantics are
//! there too; *that* one-line summary: the WAL append happens at the
//! commit point, before the charge and before the ack, so a
//! kill-and-restart can only ever leave the recovered ledger **at or
//! above** the sum of acked responses — never below (spent budget is
//! the one thing the engine must never forget) — and a *failed* append
//! charges nothing at all.

pub mod client;
pub mod clock;
#[cfg(any(test, feature = "sched"))]
pub mod exerciser;
pub mod http;
pub mod invariants;
pub mod json;
pub(crate) mod lockx;
pub mod router;
pub mod selftest;
pub mod shard;
pub mod snapshot;
pub mod state;
pub mod wal;
pub mod wire;
#[cfg(test)]
mod yield_traces;

pub use clock::{Clock, ManualClock, SystemClock};
pub use http::{Request, Response};
pub use json::Json;
pub use selftest::{run as run_self_test, SelfTestConfig, SelfTestReport};
pub use shard::{serve_sharded, ServeConfig, ShardRing, ShardServerHandle, ShardSet};
pub use state::{
    start_reaper, PersistOptions, ReaperHandle, RecoverError, RecoveryReport, ServerState,
    ServerStateBuilder, SessionStatus, SubmitOutcome,
};

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;

    /// A unique scratch directory for one test (pid + thread id keep
    /// parallel test runs apart); any stale leftover is removed first,
    /// creation is left to the test (some exercise creation itself).
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "apex-serve-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}
