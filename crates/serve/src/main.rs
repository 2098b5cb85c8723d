//! The `apex-serve` binary.
//!
//! Serve mode hosts the bundled synthetic datasets ("adult", "taxi")
//! behind the HTTP API, sharded: `--shards N` runs N shard workers,
//! each owning its own engines, ledger gate, WAL sequence, and
//! `state-dir/shard-K/` directory, with tenants routed by consistent
//! hashing and connections multiplexed through a nonblocking
//! accept/dispatch loop (bounded per-shard queues; a full queue answers
//! `503` with `Retry-After`). `--self-test` instead runs the scripted
//! concurrent workload on an ephemeral port and exits non-zero on any
//! violated invariant (the CI `service-smoke` gate). With `--state-dir`
//! the budget ledger is durable: each shard recovers
//! WAL-over-snapshot independently and in parallel on startup (refusing
//! a checksum-corrupt tail unless `--force-truncate-wal` consents to
//! cutting it at the last valid record), and the self-test additionally
//! restarts in-process from the same directory to verify
//! recovered-ledger-equals-wire equality.
//!
//! ```text
//! apex-serve [--addr 127.0.0.1:8787] [--shards N] [--workers-per-shard N]
//!            [--cache-cap N] [--budget B] [--rows N] [--state-dir DIR]
//!            [--snapshot-every N] [--ttl-secs N] [--admin-token TOK]
//!            [--force-truncate-wal]
//! apex-serve --self-test [--shards N] [--workers-per-shard N]
//!            [--sessions N] [--submits N] [--rows N] [--cache-cap N]
//!            [--state-dir DIR]
//! ```
//!
//! **Changing `--shards` against an existing `--state-dir`** moves
//! ~1/(N+1) of tenants to different shards (that is the consistent-hash
//! guarantee), but their *spent budget* stays in the old shard's ledger
//! files. A moved tenant's new owner would charge a fresh ledger and let
//! it spend B again, so startup refuses (`RecoverError::MovedSpend`,
//! naming the tenant, the shard and the ε spent there) whenever a tenant
//! has spent anything, holds a live session, or has logged row mutations
//! on a shard the new ring does not route it to (its new owner would
//! also serve the base rows). A smaller count leaves `shard-K` dirs past
//! the ring, and the same holds for every tenant they name. Keep the
//! shard count stable for a given state dir; tenants with none of these
//! may move freely.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use apex_core::{EngineConfig, Mode};
use apex_data::store::Manifest;
use apex_data::synth::{adult_dataset, nytaxi_dataset};
use apex_data::Dataset;
use apex_serve::shard::{serve_sharded, ServeConfig, ShardRing, ShardSet};
use apex_serve::state::{start_reaper, PersistOptions};
use apex_serve::{selftest, ServerState};

struct Args {
    addr: String,
    shards: usize,
    workers_per_shard: Option<usize>,
    cache_cap: usize,
    budget: f64,
    rows: usize,
    self_test: bool,
    sessions: usize,
    submits: usize,
    state_dir: Option<String>,
    data_dir: Option<String>,
    pool_frames: usize,
    snapshot_every: u64,
    ttl_secs: Option<u64>,
    admin_token: Option<String>,
    force_truncate_wal: bool,
}

impl Args {
    /// Worker threads per shard: the explicit flag, else a
    /// parallelism-derived default.
    fn workers(&self) -> usize {
        self.workers_per_shard.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4);
            (cores / self.shards.max(1)).clamp(2, 8)
        })
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: apex-serve [--addr HOST:PORT] [--shards N] [--workers-per-shard N] \
         [--cache-cap N] [--budget B] [--rows N] [--state-dir DIR] [--data-dir DIR] \
         [--pool-frames N] [--snapshot-every N] \
         [--ttl-secs N] [--admin-token TOKEN] [--force-truncate-wal] \
         [--self-test [--sessions N] [--submits N]]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8787".to_string(),
        shards: 1,
        workers_per_shard: None,
        cache_cap: 128,
        budget: 1.0,
        rows: 10_000,
        self_test: false,
        sessions: 8,
        submits: 6,
        state_dir: None,
        data_dir: None,
        pool_frames: 64,
        snapshot_every: 1024,
        ttl_secs: None,
        admin_token: None,
        force_truncate_wal: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = take("--addr"),
            "--shards" => args.shards = parse_num(&take("--shards"), "--shards"),
            "--workers-per-shard" => {
                args.workers_per_shard = Some(parse_num(
                    &take("--workers-per-shard"),
                    "--workers-per-shard",
                ))
            }
            "--cache-cap" => args.cache_cap = parse_num(&take("--cache-cap"), "--cache-cap"),
            "--rows" => args.rows = parse_num(&take("--rows"), "--rows"),
            "--sessions" => args.sessions = parse_num(&take("--sessions"), "--sessions"),
            "--submits" => args.submits = parse_num(&take("--submits"), "--submits"),
            "--state-dir" => args.state_dir = Some(take("--state-dir")),
            "--data-dir" => args.data_dir = Some(take("--data-dir")),
            "--pool-frames" => {
                args.pool_frames = parse_num(&take("--pool-frames"), "--pool-frames")
            }
            "--snapshot-every" => {
                args.snapshot_every =
                    parse_num(&take("--snapshot-every"), "--snapshot-every") as u64
            }
            "--ttl-secs" => {
                args.ttl_secs = Some(parse_num(&take("--ttl-secs"), "--ttl-secs") as u64)
            }
            "--admin-token" => args.admin_token = Some(take("--admin-token")),
            "--force-truncate-wal" => args.force_truncate_wal = true,
            "--budget" => {
                args.budget = parse_budget(&take("--budget")).unwrap_or_else(|| {
                    eprintln!("--budget must be a positive, finite number");
                    usage()
                })
            }
            "--self-test" => args.self_test = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.shards > apex_serve::shard::MAX_SHARDS {
        eprintln!("--shards must be at most {}", apex_serve::shard::MAX_SHARDS);
        usage()
    }
    args
}

fn parse_num(s: &str, flag: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} must be a positive integer");
            usage()
        }
    }
}

/// A privacy budget: a number, positive and finite (an engine refuses any
/// other, so the flag does too).
fn parse_budget(s: &str) -> Option<f64> {
    s.parse().ok().filter(|b: &f64| b.is_finite() && *b > 0.0)
}

/// How a tenant's durable store came to be at boot.
enum Ingested {
    /// First boot: synthesized and persisted.
    Fresh { rows: u64, pages: u32 },
    /// A committed store already existed; opened without re-synthesis.
    Opened { rows: u64, epoch: u64 },
}

/// Opens the committed store for `name` under `root`, synthesizing and
/// ingesting it first when no manifest exists. The open verifies the
/// manifest (checksum, format version, page coverage); to re-ingest —
/// e.g. after changing `--rows` — delete `root/<name>/`.
fn ensure_ingested(
    root: &Path,
    name: &str,
    synth: &dyn Fn() -> Dataset,
    pool_frames: usize,
) -> Result<Ingested, apex_data::StoreError> {
    let dir = root.join(name);
    if Manifest::exists(&dir) {
        let opened = Dataset::open_paged(&dir, pool_frames)?;
        return Ok(Ingested::Opened {
            rows: opened.len() as u64,
            epoch: opened.storage_epoch().unwrap_or(0),
        });
    }
    let data = synth();
    let paged = data.ingest_paged(&dir, 1, pool_frames)?;
    Ok(Ingested::Fresh {
        rows: paged.len() as u64,
        pages: Manifest::load(&dir)?.page_count,
    })
}

fn main() {
    let args = parse_args();

    if args.self_test {
        let cfg = selftest::SelfTestConfig {
            server_threads: args.workers(),
            shards: args.shards,
            sessions: args.sessions,
            submits: args.submits,
            rows: args.rows.min(5_000),
            cache_cap: args.cache_cap,
            state_dir: args.state_dir.clone().map(Into::into),
            data_dir: args.data_dir.clone().map(Into::into),
            ..selftest::SelfTestConfig::default()
        };
        println!(
            "self-test: {} shards x {} workers, {} sessions x {} submits, {} rows/dataset{}",
            cfg.shards,
            cfg.server_threads,
            cfg.sessions,
            cfg.submits,
            cfg.rows,
            cfg.state_dir
                .as_deref()
                .map(|d| format!(", state dir {}", d.display()))
                .unwrap_or_default()
        );
        match selftest::run(cfg) {
            Ok(report) => {
                println!(
                    "self-test PASS{}: answered={} denied={} cache hits={} misses={}",
                    if report.recovered_baseline {
                        " (recovered run)"
                    } else {
                        ""
                    },
                    report.answered,
                    report.denied,
                    report.cache_hits,
                    report.cache_misses
                );
                for (name, spent, budget) in &report.budgets {
                    println!("  {name}: spent {spent:.4} of B = {budget}");
                }
                println!(
                    "  store: {} ingested, {} opened from disk, pool hits {}, \
                     view hits {}, compile hits {}, transcript records {}",
                    report.datasets_synthesized,
                    report.datasets_opened,
                    report.store_pool_hits,
                    report.view_hits,
                    report.compile_hits,
                    report.transcript_records
                );
                println!(
                    "  mutations: {} row batches acked, epochs re-verified after restart",
                    report.mutations_acked
                );
                for (k, (records, syncs)) in report.wal_syncs.iter().enumerate() {
                    println!(
                        "  shard {k} group commit: {records} durable records in {syncs} syncs \
                         ({:.2} records/sync)",
                        *records as f64 / (*syncs).max(1) as f64
                    );
                }
                println!(
                    "  restart recovery: {} wal records replayed, ledgers re-verified",
                    report.recovery_replayed
                );
                println!(
                    "  compaction pause: max {} ms across {} forced rotations while a {} ms \
                     query was in flight",
                    report.compaction_pause_millis,
                    report.rotations_in_flight,
                    report.slow_query_millis
                );
            }
            Err(e) => {
                eprintln!("self-test FAIL: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // The bundled tenants: name, synthesizer, engine seed.
    let tenants: [(&str, &(dyn Fn() -> Dataset + Sync), u64); 2] = [
        ("adult", &|| adult_dataset(args.rows, 7), 0xA9E5_1001),
        ("taxi", &|| nytaxi_dataset(args.rows, 9), 0xA9E5_1002),
    ];
    // With --data-dir, tenants live on disk: synthesize-and-ingest on
    // the first boot, open-and-verify (no re-synthesis) afterward. Done
    // once, up front, on this thread — the owning shard then opens the
    // committed store through its own buffer pool.
    let data_root = args.data_dir.as_ref().map(PathBuf::from);
    if let Some(root) = &data_root {
        for (name, synth, _) in tenants {
            match ensure_ingested(root, name, synth, args.pool_frames) {
                Ok(Ingested::Fresh { rows, pages }) => {
                    println!(
                        "{name}: ingested {rows} rows into {} ({pages} pages)",
                        root.display()
                    )
                }
                Ok(Ingested::Opened { rows, epoch }) => println!(
                    "{name}: opened {rows} rows from {} (epoch {epoch}, no re-synthesis)",
                    root.display()
                ),
                Err(e) => {
                    eprintln!("refusing to start: dataset store for {name:?}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    // Each shard builds only the tenants the ring routes to it, so every
    // dataset exists once. Seeds keep the shard-distinct form, so a
    // tenant's noise stream on its owner is unchanged.
    let cache = apex_core::TranslatorCache::with_capacity(args.cache_cap);
    let ring = ShardRing::new(args.shards);
    let mk = |shard: usize| {
        let mut builder = ServerState::builder_with_cache(cache.clone());
        for (name, synth, seed) in tenants {
            if ring.shard_for(name) != shard {
                continue;
            }
            let data = match &data_root {
                Some(root) => Dataset::open_paged(&root.join(name), args.pool_frames)
                    .unwrap_or_else(|e| {
                        eprintln!("refusing to start: shard {shard} open {name:?}: {e}");
                        std::process::exit(1);
                    }),
                None => synth(),
            };
            let config = EngineConfig {
                budget: args.budget,
                mode: Mode::Optimistic,
                seed: seed ^ ((shard as u64) << 32),
            };
            builder = builder.dataset(name, data, config);
        }
        if let Some(root) = &data_root {
            // Shard-private transcript logs (one writer per log).
            let tdir = root.join("transcripts").join(format!("shard-{shard}"));
            builder = builder.transcripts_under(&tdir).unwrap_or_else(|e| {
                eprintln!("refusing to start: transcript log for shard {shard}: {e}");
                std::process::exit(1);
            });
        }
        if let Some(secs) = args.ttl_secs {
            builder = builder.session_ttl(Duration::from_secs(secs));
        }
        if let Some(token) = &args.admin_token {
            builder = builder.admin_token(token);
        }
        builder
    };

    let set = match &args.state_dir {
        Some(dir) => {
            let opts = |shard_dir: &std::path::Path| PersistOptions {
                snapshot_every: args.snapshot_every,
                truncate_corrupt: args.force_truncate_wal,
                ..PersistOptions::new(shard_dir)
            };
            match ShardSet::recover(std::path::Path::new(dir), args.shards, mk, opts) {
                Ok((set, reports)) => {
                    for (k, report) in reports.iter().enumerate() {
                        println!(
                            "shard {k} recovered from {dir}/shard-{k}: {} wal records \
                             replayed over the snapshot, {} live sessions restored{}",
                            report.replayed,
                            report.sessions,
                            report
                                .truncated
                                .map(|n| format!(", damaged tail truncated to {n} bytes"))
                                .unwrap_or_default()
                        );
                        for (name, spent) in &report.tenants {
                            if *spent > 0.0 {
                                println!("  {name}: resuming with spent = {spent:.6}");
                            }
                        }
                    }
                    Arc::new(set)
                }
                Err(e) => {
                    eprintln!("refusing to start: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Arc::new(ShardSet::build(args.shards, mk)),
    };

    // One TTL reaper per shard: each sweeps only its own sessions.
    let reapers: Vec<_> = args
        .ttl_secs
        .map(|secs| {
            // Sweep a few times per TTL so expiry lag stays small.
            let interval =
                Duration::from_millis((secs.saturating_mul(1000) / 4).clamp(250, 30_000));
            set.states()
                .iter()
                .map(|s| start_reaper(s.clone(), interval))
                .collect()
        })
        .unwrap_or_default();

    let cfg = ServeConfig {
        workers_per_shard: args.workers(),
        ..ServeConfig::default()
    };
    let handle = match serve_sharded(args.addr.as_str(), set.clone(), cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("could not bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "apex-serve listening on http://{} ({} shards x {} workers, cache cap {}, \
         B = {} per dataset{}{}; POST /v1/admin/shutdown to stop)",
        handle.addr(),
        set.shards(),
        args.workers(),
        args.cache_cap,
        args.budget,
        args.state_dir
            .as_deref()
            .map(|d| format!(", durable in {d}/shard-K"))
            .unwrap_or_default(),
        args.ttl_secs
            .map(|t| format!(", session TTL {t}s"))
            .unwrap_or_default()
    );
    handle.join();
    for reaper in reapers {
        reaper.stop();
    }
    // A clean shutdown compacts every shard, so the next start replays
    // nothing.
    if args.state_dir.is_some() {
        if let Err(e) = set.compact_all() {
            eprintln!("final compaction failed (next start will replay the WAL): {e}");
        }
    }
    // Commit the audit transcripts' tails (compact_all already flushes
    // when a state dir exists; this covers the data-dir-only setup).
    for s in set.states() {
        s.flush_transcripts();
    }
    println!("apex-serve: shut down cleanly");
}

#[cfg(test)]
mod tests {
    use super::parse_budget;

    #[test]
    fn budget_must_be_a_positive_finite_number() {
        assert_eq!(parse_budget("1"), Some(1.0));
        assert_eq!(parse_budget("0.25"), Some(0.25));
        assert_eq!(parse_budget("1e-3"), Some(1e-3));
        for bad in [
            "NaN", "nan", "0", "-0", "-1", "inf", "-inf", "infinity", "", "one",
        ] {
            assert_eq!(parse_budget(bad), None, "{bad:?}");
        }
    }
}
