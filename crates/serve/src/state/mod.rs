//! Server-side registry: tenant datasets, their shared engines, the one
//! shared translator cache, live analyst sessions — and the durability
//! layer that makes the budget ledger survive restarts.
//!
//! One [`ServerState`] owns everything a request handler needs. Each
//! tenant dataset gets its own [`SharedEngine`](apex_core::SharedEngine)
//! (its own privacy budget `B`, transcript, and noise stream); all
//! engines share **one** LRU-bounded [`TranslatorCache`] through
//! per-tenant *scopes* ([`TranslatorCache::scoped`]), so `/v1/stats` can
//! attribute hits and misses per dataset while the storage — and the
//! warm-up — is global. Sharing is sound because cached artifacts are
//! data-independent (see `apex_mech::cache`).
//!
//! Sessions are budget slices ([`apex_core::EngineSession`]): a session
//! may spend at most its allowance, and all sessions of a tenant jointly
//! at most that tenant's `B`, no matter how requests interleave across
//! worker threads.
//!
//! The state is four modules over one durability core, the shared WAL
//! ([`crate::wal`], which owns group commit):
//!
//! * `ledger` — admission, charge and durability ordering: two-phase
//!   submission, the WAL append, compaction;
//! * `sessions` — the session table, TTLs, in-flight pinning and the
//!   reaper;
//! * `registry` — tenants, the builder, and row mutations;
//! * `recovery` — the state-directory lock and WAL-over-snapshot replay.
//!
//! ## Durability
//!
//! With persistence configured ([`ServerStateBuilder::build_recovered`]),
//! every budget-mutating event — session open, budget debit, denial,
//! session close — is appended to the WAL **before the client is
//! acked**, and the WAL is periodically compacted into a snapshot
//! ([`crate::snapshot`]). Recovery replays WAL-over-snapshot: a restart
//! re-imposes spent budget on fresh engines
//! ([`SharedEngine::import_ledger`](apex_core::SharedEngine::import_ledger))
//! and re-opens live sessions mid-slice.
//!
//! Submissions are **two-phase**
//! ([`EngineSession::evaluate`](apex_core::EngineSession::evaluate) +
//! [`EngineSession::commit_with`](apex_core::EngineSession::commit_with)):
//! the mechanism evaluates with *no* gate or engine lock held, and the
//! *ledger gate* (an outermost `RwLock`, shared side) covers only the
//! commit point — admission re-check, WAL append, charge — so compaction
//! (exclusive side) drains in microseconds instead of waiting out the
//! slowest in-flight query, and a snapshot still can never split an
//! event between itself and the next WAL generation (which would
//! double-count on replay). At the commit point the append happens
//! **before** the charge: a failed append leaves both ledgers untouched
//! (durable-or-nothing — in-memory `spent` can never run ahead of what
//! recovery will reconstruct), and a crash between append and charge
//! recovers a charge nobody was acked, the safe direction.
//!
//! ## TTLs
//!
//! Sessions carry a last-activity tick from an injectable [`Clock`];
//! [`ServerState::reap_expired`] (driven by [`start_reaper`] in
//! production, or called directly in tests) closes sessions idle past
//! the TTL. In-flight submissions **pin** their session: the reaper
//! skips a pinned session however stale its tick, and the tick is
//! re-stamped when the submission completes — a query slower than the
//! TTL can never have its session reaped underneath it (an *admin*
//! expiry is still forceful; the in-flight commit then observes the
//! close and denies without charging). Closing releases the **unspent
//! remainder of the slice exactly once** back to the tenant's grant
//! pool (visible as `reclaimed` in `/v1/stats`), and the session id
//! keeps answering `410 Gone` — distinct from 404 — for the rest of the
//! server's life.

mod ledger;
mod recovery;
mod registry;
mod sessions;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock};

use apex_core::TranslatorCache;

use crate::clock::Clock;
use crate::parse_memo::ParseMemo;
use crate::wal::SharedWal;

pub use crate::wal::WalStats;
pub use ledger::{SubmitError, SubmitOutcome};
#[cfg(any(test, feature = "sched"))]
pub(crate) use ledger::{SubmitInFlight, SubmitPhase};
#[cfg(any(test, feature = "sched"))]
pub(crate) use recovery::set_dirlock_settle_skip;
pub use recovery::{PersistOptions, RecoverError, RecoveryReport};
pub use registry::{MutateOutcome, ServerStateBuilder, Tenant};
pub use sessions::{start_reaper, ReaperHandle, SessionEntry, SessionInfo, SessionStatus};

/// A durable state's directory, its lock and its WAL.
#[derive(Debug)]
struct Persist {
    dir: PathBuf,
    snapshot_every: u64,
    sync: bool,
    /// Held for the lifetime of the state; dropping it releases the
    /// directory.
    _lock: recovery::DirLock,
    wal: SharedWal,
    /// Fault injection for tests and the schedule exerciser: the next N
    /// appends fail with an I/O error, exercising the
    /// durable-or-nothing commit contract.
    #[cfg(any(test, feature = "sched"))]
    fail_appends: AtomicU64,
}

/// Everything the request handlers share.
#[derive(Debug)]
pub struct ServerState {
    tenants: Vec<(String, Tenant)>,
    cache: TranslatorCache,
    /// Query text → its parse, shared by this shard's tenants.
    parses: ParseMemo,
    sessions: RwLock<HashMap<u64, SessionEntry>>,
    /// Ids are handed out sequentially from here, which doubles as the
    /// tombstone predicate: any id above [`ServerState::session_id_base`]
    /// and below this watermark that is not in the live map once existed
    /// and is now gone (`410`, not `404`) — no per-session tombstone
    /// storage, bounded for the life of the deployment, and it survives
    /// restarts because the watermark is persisted.
    next_session: AtomicU64,
    /// Offset under every id this state allocates (ids run from
    /// `base + 1`). Shard sets encode the owning shard in the high bits
    /// (`shard << 40`), so any session id names its shard and the
    /// per-shard sequences can never collide.
    session_id_base: u64,
    clock: Arc<dyn Clock>,
    ttl_millis: Option<u64>,
    admin_token: Option<String>,
    persist: Option<Persist>,
    /// The ledger gate: shared by every charge-then-append pair,
    /// exclusive during compaction — a snapshot can never observe a
    /// charge whose WAL record would land in the next generation.
    ledger_gate: RwLock<()>,
}

impl ServerState {
    /// Starts building a state whose tenants share one translator cache
    /// bounded to `cache_cap` entries.
    pub fn builder(cache_cap: usize) -> ServerStateBuilder {
        Self::builder_with_cache(TranslatorCache::with_capacity(cache_cap))
    }

    /// [`ServerState::builder`] over an existing translator cache handle.
    /// Shard sets hand one root cache to every shard's builder, so
    /// cross-tenant artifact sharing survives sharding (the cache is
    /// data-independent; only the stats scopes are per tenant).
    pub fn builder_with_cache(cache: TranslatorCache) -> ServerStateBuilder {
        ServerStateBuilder::new(cache)
    }

    /// The offset under every session id this state allocates (0 for an
    /// unsharded state, `shard << 40` inside a shard set).
    pub fn session_id_base(&self) -> u64 {
        self.session_id_base
    }

    /// The tenant registered under `name`.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All tenants, in registration order.
    pub fn tenants(&self) -> &[(String, Tenant)] {
        &self.tenants
    }

    /// The shared cache's root handle (global stats, capacity, size).
    pub fn cache(&self) -> &TranslatorCache {
        &self.cache
    }

    /// This shard's parse memo: the router parses every query text
    /// through it.
    pub fn parses(&self) -> &ParseMemo {
        &self.parses
    }

    /// The session TTL in milliseconds, when one is configured.
    pub fn ttl_millis(&self) -> Option<u64> {
        self.ttl_millis
    }

    /// The configured admin bearer token, when one is set.
    pub fn admin_token(&self) -> Option<&str> {
        self.admin_token.as_deref()
    }

    /// The clock sessions age against.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    fn wal(&self) -> Option<&SharedWal> {
        self.persist.as_ref().map(|p| &p.wal)
    }
}
