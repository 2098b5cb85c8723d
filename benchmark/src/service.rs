//! Starting the real service in-process: tenant data, `ShardSet`,
//! `serve_sharded` on a loopback port.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_core::{EngineConfig, Mode, TranslatorCache};
use apex_data::store::Manifest;
use apex_data::Dataset;
use apex_serve::{
    serve_sharded, PersistOptions, ServeConfig, ServerState, ShardServerHandle, ShardSet,
};

use crate::gen::{Catalog, Spec, TenantDef, TENANT_BUDGET};

/// Where a service instance keeps its files: `<root>/state` (per-shard
/// WALs and snapshots) and `<root>/data` (paged stores, transcripts).
pub fn state_dir(root: &Path) -> PathBuf {
    root.join("state")
}

pub fn data_dir(root: &Path) -> PathBuf {
    root.join("data")
}

/// `data` as a paged dataset in `dir` (ingested on first use), opened
/// through a pool of half its page count.
pub fn paged_half_pool(data: &Dataset, dir: &Path) -> Dataset {
    if !Manifest::exists(dir) {
        data.ingest_paged(dir, 1, 8).expect("ingest tenant");
    }
    let pages = Manifest::load(dir)
        .expect("manifest is committed")
        .page_count;
    Dataset::open_paged(dir, (pages as usize / 2).max(2)).expect("open paged tenant")
}

/// The dataset tenant `t` is served from under `root`: a copy of the
/// catalog's rows, or — for paged workloads — the store in
/// `<root>/data/<name>`, as every shard of a `--data-dir` deployment
/// opens its own.
pub fn tenant_dataset(spec: &Spec, t: &TenantDef, root: &Path) -> Dataset {
    if spec.paged {
        paged_half_pool(&t.data, &data_dir(root).join(&t.name))
    } else {
        t.data.clone()
    }
}

/// Builds the shard set of a workload under `root`. `durable` picks
/// between `ShardSet::recover` (fsync on every ack) over `<root>/state`
/// and the memory-only `ShardSet::build`; every set gets its own
/// translator cache of the workload's capacity.
pub fn build_set(
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    root: &Path,
    durable: bool,
) -> ShardSet {
    let cache = TranslatorCache::with_capacity(spec.cache_cap);
    if spec.paged {
        // Ingest once, up front; each shard then opens the committed store.
        for t in &catalog.tenants {
            tenant_dataset(spec, t, root);
        }
    }
    let mk = |shard: usize| {
        let mut b = ServerState::builder_with_cache(cache.clone());
        for (i, t) in catalog.tenants.iter().enumerate() {
            b = b.dataset(
                &t.name,
                tenant_dataset(spec, t, root),
                EngineConfig {
                    budget: TENANT_BUDGET,
                    mode: Mode::Optimistic,
                    seed: seed ^ 0xA9E5_0000 ^ ((shard as u64) << 32) ^ ((i as u64) << 8),
                },
            );
        }
        if spec.paged {
            // `--data-dir` deployments keep a shard-private audit transcript.
            let dir = data_dir(root)
                .join("transcripts")
                .join(format!("shard-{shard}"));
            b = b.transcripts_under(&dir).expect("open transcript logs");
        }
        b
    };
    if durable {
        ShardSet::recover(&state_dir(root), spec.shards, mk, |d| {
            PersistOptions::new(d)
        })
        .expect("recover shard set")
        .0
    } else {
        ShardSet::build(spec.shards, mk)
    }
}

/// A running service instance.
pub struct Service {
    pub set: Arc<ShardSet>,
    pub addr: SocketAddr,
    handle: ShardServerHandle,
}

impl Service {
    /// Builds the workload's shard set under `root` and serves it.
    pub fn start(spec: &Spec, catalog: &Catalog, seed: u64, root: &Path) -> Service {
        let set = Arc::new(build_set(spec, catalog, seed, root, spec.durable));
        let handle = serve_sharded(
            "127.0.0.1:0",
            set.clone(),
            ServeConfig {
                workers_per_shard: spec.workers_per_shard,
                ..ServeConfig::default()
            },
        )
        .expect("bind a loopback port");
        Service {
            set,
            addr: handle.addr(),
            handle,
        }
    }

    /// Stops the server, waits for its threads, and hands back the state
    /// for the live checks. Drop the returned set to release the state
    /// directory before recovering it.
    pub fn stop(self) -> Arc<ShardSet> {
        self.handle.stop();
        self.handle.join();
        self.set
    }
}
