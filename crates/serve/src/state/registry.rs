//! Tenants: registration (the builder), their engines, audit
//! transcripts, and row mutations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use apex_core::{ApexEngine, EngineConfig, EngineResponse, SharedEngine, TranslatorCache};
use apex_data::store::{codec, TranscriptLog};
use apex_data::{Dataset, PoolStats, StoreError};

use super::{ServerState, SubmitError};
use crate::clock::{Clock, SystemClock};
use crate::lockx;
use crate::shard::{shard_id_base, ShardRing};

/// One tenant dataset: its engine plus its scope of the shared cache.
#[derive(Debug)]
pub struct Tenant {
    /// Thread-safe engine over the tenant's dataset.
    pub engine: SharedEngine,
    /// This tenant's scope of the shared translator cache (for
    /// per-dataset stats; storage is shared with every other tenant).
    pub cache: TranslatorCache,
    /// Unspent allowance released by closed/expired sessions — each
    /// slice's remainder counted exactly once.
    pub(super) reclaimed: Mutex<f64>,
    /// Durable per-tenant query transcript for audit replay (see
    /// docs/STORAGE.md). Best-effort: the WAL is the source of truth
    /// for *charges*; this log records what was asked and answered.
    transcript: Option<Mutex<TranscriptLog>>,
    /// Transcript appends dropped on storage errors (telemetry).
    transcript_dropped: AtomicU64,
}

impl Tenant {
    /// Total unspent allowance returned by closed/expired sessions.
    pub fn reclaimed(&self) -> f64 {
        *lockx::lock(&self.reclaimed)
    }

    /// Runs `op` on the audit transcript (no-op when the tenant has no
    /// transcript log), `adding` records. Best-effort: a failing
    /// transcript store must not take down query serving, so an error
    /// only counts every record it cost as dropped.
    fn with_transcript(
        &self,
        adding: u64,
        op: impl FnOnce(&mut TranscriptLog) -> Result<(), StoreError>,
    ) {
        let Some(log) = &self.transcript else {
            return;
        };
        let mut log = lockx::lock(log);
        let expected = log.record_count() + adding;
        if op(&mut log).is_err() {
            self.transcript_dropped
                .fetch_add(expected - log.record_count(), Ordering::Relaxed);
        }
    }

    /// Records one submission outcome in the audit transcript: staged in
    /// memory, no syscall on the query path.
    pub(super) fn record_transcript(&self, session: u64, response: &EngineResponse) {
        let line = match response {
            EngineResponse::Answered(a) => format!(
                "session={session} mechanism={} epsilon={:.9} epsilon_upper={:.9}",
                a.mechanism, a.epsilon, a.epsilon_upper
            ),
            EngineResponse::Denied => format!("session={session} denied"),
        };
        self.with_transcript(1, |log| log.append(line.as_bytes()));
    }

    /// Committed + pending transcript records (0 without a log).
    pub fn transcript_records(&self) -> u64 {
        self.transcript
            .as_ref()
            .map(|l| lockx::lock(l).record_count())
            .unwrap_or(0)
    }

    /// Appends dropped on transcript storage errors.
    pub fn transcript_dropped(&self) -> u64 {
        self.transcript_dropped.load(Ordering::Relaxed)
    }

    /// Buffer-pool counters of this tenant's dataset (None = resident).
    pub fn store_stats(&self) -> Option<PoolStats> {
        self.engine.with_engine(|e| e.dataset_pool_stats())
    }

    /// Counters of the histograms this tenant's dataset maintains.
    pub fn view_stats(&self) -> apex_data::ViewStats {
        self.engine.with_engine(|e| e.dataset_view_stats())
    }

    /// Storage epoch of this tenant's dataset (None = resident).
    pub fn dataset_epoch(&self) -> Option<u64> {
        self.engine.with_engine(|e| e.dataset_epoch())
    }
}

/// Largest row batch, in the row codec's bytes, one mutation may carry:
/// a bigger one is refused (`413`) before anything is logged or applied.
const MAX_MUTATION_BYTES: usize = 64 << 10;

/// What a row mutation through [`ServerState::mutate_rows`] produced.
#[derive(Debug)]
pub enum MutateOutcome {
    /// The batch is durable in the dataset's mutation log (with
    /// persistence) and applied; the delta carries the new dataset epoch
    /// for the response.
    Applied(apex_data::RowDelta),
    /// No tenant of that name: `404`.
    NoSuchDataset,
}

impl ServerState {
    /// Applies a row mutation (insert or delete batch) to `dataset`'s
    /// engine. The dataset makes the batch durable in its own mutation
    /// log **before it applies** (paged: the store's log; resident: the
    /// log recovery attached under `rows/<tenant>/`) — the mutation's one
    /// durable record, so this method takes no ledger gate and writes no
    /// WAL record. The engine bumps the dataset epoch, incrementally
    /// extends its compiled artifacts, and from that instant refuses to
    /// commit any in-flight query that evaluated against the old epoch
    /// ([`EngineError::StaleEpoch`](apex_core::EngineError::StaleEpoch)) —
    /// readers racing this call either charge against the pre-mutation
    /// data (their commit beat the apply) or are told to re-evaluate.
    ///
    /// # Errors
    /// [`SubmitError::BatchTooLarge`] for a batch over 64 KiB of encoded
    /// rows; [`SubmitError::Engine`] for schema violations, empty batches
    /// and storage faults. Either way nothing was logged or applied.
    pub fn mutate_rows(
        &self,
        dataset: &str,
        insert: bool,
        rows: &[Vec<apex_data::Value>],
    ) -> Result<MutateOutcome, SubmitError> {
        let Some(tenant) = self.tenant(dataset) else {
            return Ok(MutateOutcome::NoSuchDataset);
        };
        // Measured, not encoded: the rows are client-sized, and a row
        // wider than the codec's 16-bit arity field is over the cap long
        // before it could be encoded.
        let (bytes, limit) = (codec::rows_size(rows), MAX_MUTATION_BYTES);
        if bytes > limit {
            return Err(SubmitError::BatchTooLarge { bytes, limit });
        }
        let delta = if insert {
            tenant.engine.insert_rows(rows)
        } else {
            tenant.engine.delete_rows(rows)
        };
        Ok(MutateOutcome::Applied(delta.map_err(SubmitError::Engine)?))
    }

    /// Commits every tenant's audit transcript to disk (one write of the
    /// staged records + fsync). Best-effort, like every transcript
    /// operation. Called on every compaction and at shutdown.
    pub fn flush_transcripts(&self) {
        for (_, tenant) in &self.tenants {
            tenant.with_transcript(0, TranscriptLog::flush);
        }
    }
}

/// Builder for [`ServerState`] — register tenants, then
/// [`ServerStateBuilder::build`] (in-memory) or
/// [`ServerStateBuilder::build_recovered`] (durable).
#[derive(Debug)]
pub struct ServerStateBuilder {
    cache: TranslatorCache,
    tenants: Vec<(String, Tenant)>,
    clock: Arc<dyn Clock>,
    ttl: Option<Duration>,
    admin_token: Option<String>,
    /// `Some((k, ring))` inside a shard set: this is shard `k` of `ring`.
    pub(super) shard: Option<(usize, ShardRing)>,
}

impl ServerStateBuilder {
    pub(super) fn new(cache: TranslatorCache) -> Self {
        Self {
            cache,
            tenants: Vec::new(),
            clock: Arc::new(SystemClock::new()),
            ttl: None,
            admin_token: None,
            shard: None,
        }
    }

    /// Registers `data` as tenant `name`: a fresh engine with its own
    /// budget/mode/seed from `config`, drawing on the shared cache
    /// through its own stats scope. Re-registering a name replaces the
    /// previous tenant.
    pub fn dataset(mut self, name: &str, data: Dataset, config: EngineConfig) -> Self {
        let scope = self.cache.scoped();
        let engine = SharedEngine::new(ApexEngine::with_translator_cache(
            data,
            config,
            scope.clone(),
        ));
        let tenant = Tenant {
            engine,
            cache: scope,
            reclaimed: Mutex::new(0.0),
            transcript: None,
            transcript_dropped: AtomicU64::new(0),
        };
        self.tenants.retain(|(n, _)| n != name);
        self.tenants.push((name.to_string(), tenant));
        self
    }

    /// Attaches a durable audit transcript (`<root>/<tenant>/`) to every
    /// tenant registered **so far**, opening existing logs where present.
    /// Call after the last [`ServerStateBuilder::dataset`].
    ///
    /// # Errors
    /// Corrupt (or other-format) transcript logs, or I/O failures opening
    /// them.
    pub fn transcripts_under(mut self, root: &std::path::Path) -> Result<Self, StoreError> {
        for (name, tenant) in &mut self.tenants {
            let log = TranscriptLog::open(&root.join(name.as_str()))?;
            tenant.transcript = Some(Mutex::new(log));
        }
        Ok(self)
    }

    /// Injects the clock sessions age against (tests use
    /// [`crate::clock::ManualClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the idle TTL after which the reaper expires sessions.
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Requires `Authorization: Bearer <token>` on every `/v1/admin/*`
    /// endpoint.
    pub fn admin_token(mut self, token: &str) -> Self {
        self.admin_token = Some(token.to_string());
        self
    }

    /// Makes this builder shard `k` of `ring`. Session ids start above
    /// `k << 40`, so every id names its shard and the shards' sequences
    /// never collide; and the build keeps only the tenants the ring
    /// routes to `k`, so each tenant has one owner, one ledger and one
    /// copy of its data. Must be stable across restarts of the same state
    /// directory.
    pub(crate) fn shard(mut self, k: usize, ring: &ShardRing) -> Self {
        self.shard = Some((k, ring.clone()));
        self
    }

    /// Finishes an **in-memory** registry (no persistence) — also the
    /// state [`ServerStateBuilder::build_recovered`] replays into.
    pub fn build(mut self) -> ServerState {
        let mut session_id_base = 0;
        if let Some((k, ring)) = &self.shard {
            self.tenants.retain(|(name, _)| ring.shard_for(name) == *k);
            session_id_base = shard_id_base(*k);
        }
        ServerState {
            tenants: self.tenants,
            cache: self.cache,
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(session_id_base + 1),
            session_id_base,
            clock: self.clock,
            ttl_millis: self
                .ttl
                .map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
            admin_token: self.admin_token,
            persist: None,
            ledger_gate: RwLock::new(()),
        }
    }
}
