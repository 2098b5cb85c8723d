//! `bench_dataset_store` — ingest/open/scan cost of the durable paged
//! dataset store (`apex_data::store`).
//!
//! Four measurements over the synthetic `adult` dataset, reported as
//! ns/op medians in the JSON shape `bench_gate` parses:
//!
//! * `ingest/<rows>` — synthesize-once, then time packing the rows into
//!   pages through the buffer pool, fsyncing, and committing the
//!   manifest (the first-boot path);
//! * `open/<rows>` — time `PagedRows::open`: manifest checksum +
//!   version check, schema decode, coverage check. This is the restart
//!   path and must stay O(manifest), not O(data);
//! * `scan_cold/<rows>` — full `for_each_chunk` pass through a 4-frame
//!   pool on a freshly opened store: every page comes off disk and
//!   through checksum verification;
//! * `scan_warm/<rows>` — the same pass with a pool big enough to hold
//!   the whole store, after a priming scan: every page is a pool hit.
//!   The cold/warm gap is what the buffer pool buys.
//! * `histogram_cold/<rows>` — one `DomainPartition::histogram` scan of
//!   a resident dataset, read with no view: the partition of 16 random
//!   ranges over a 4 096-value integer attribute that every query of the
//!   request benchmark's `cold_translate` workload scans. One sample
//!   scans each of 8 such partitions and reports the mean per scan, at
//!   least 8 samples are taken, and `median_ns / rows` is the scan's ns
//!   per row.
//!
//! The criterion shim's calibrated iteration loop would re-run ingest
//! inside one sample (each run needs a fresh scratch dir), so this
//! bench hand-rolls sampling like `serve_soak`: K timed runs per id,
//! median reported. `--quick` shrinks rows and samples for CI smoke and
//! never overwrites the committed `BENCH_dataset_store.json` unless
//! `APEX_BENCH_JSON` points elsewhere.

use std::path::PathBuf;
use std::time::Instant;

use apex_bench::json_escape as esc;
use apex_data::store::PagedRows;
use apex_data::synth::adult_dataset;
use apex_data::{Attribute, Dataset, Domain, DomainPartition, Predicate, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row-count domain points. The full run measures both; `--quick`
/// re-measures only the small one, so every smoke id exists in the
/// committed file and `bench_gate` compares like-for-like (the same
/// subset pattern `mc_translate` uses for its domain sweep).
const SMALL_ROWS: usize = 4_000;
const FULL_ROWS: usize = 200_000;

/// Timed runs per id (median reported).
const FULL_SAMPLES: usize = 9;
const QUICK_SAMPLES: usize = 3;

/// Frames for the cold scan — far fewer than the store's pages, so the
/// pool must evict and re-read continuously.
const COLD_POOL_FRAMES: usize = 4;

/// `histogram_cold`: the `cold_translate` shape — ranges per workload,
/// the attribute's domain size, and the partitions one sample scans.
const COLD_RANGES: usize = 16;
const COLD_DOMAIN: i64 = 4096;
const COLD_PARTITIONS: usize = 8;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "apex-bench-dataset-store-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct BenchResult {
    id: String,
    samples_ns: Vec<u64>,
    rows: usize,
}

impl BenchResult {
    fn median_ns(&self) -> u64 {
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        s[s.len() / 2]
    }
    fn mean_ns(&self) -> f64 {
        self.samples_ns.iter().sum::<u64>() as f64 / self.samples_ns.len() as f64
    }
    fn min_ns(&self) -> u64 {
        *self.samples_ns.iter().min().expect("at least one sample")
    }
}

fn measure(id: String, rows: usize, samples: usize, mut f: impl FnMut() -> u64) -> BenchResult {
    let samples_ns: Vec<u64> = (0..samples).map(|_| f()).collect();
    BenchResult {
        id,
        samples_ns,
        rows,
    }
}

fn main() {
    let quick = quick();
    let row_counts: &[usize] = if quick {
        &[SMALL_ROWS]
    } else {
        &[SMALL_ROWS, FULL_ROWS]
    };
    let samples = if quick { QUICK_SAMPLES } else { FULL_SAMPLES };
    let mut results = Vec::new();
    for &rows in row_counts {
        results.extend(bench_rows(rows, samples));
    }
    for r in &results {
        println!(
            "dataset_store {}: median {:.3} ms ({} samples, {:.1} Mrows/s)",
            r.id,
            r.median_ns() as f64 / 1e6,
            r.samples_ns.len(),
            r.rows as f64 * 1e3 / r.median_ns() as f64
        );
    }
    write_json(&results, quick);
}

fn bench_rows(rows: usize, samples: usize) -> Vec<BenchResult> {
    // Synthesis is not the store's cost: build the rows once, outside
    // every timed region.
    let data = adult_dataset(rows, 7);
    let schema = data.schema().clone();
    let row_vecs = data.to_rows();

    let mut results = Vec::new();

    // ingest: re-ingests into one scratch dir (the timed region includes
    // the fsync + manifest commit that make the store durable).
    let dir = scratch_dir(&format!("rows{rows}"));
    let mut epoch = 0u64;
    results.push(measure(format!("ingest/{rows}"), rows, samples, || {
        epoch += 1;
        let t0 = Instant::now();
        let store = PagedRows::ingest(
            &dir,
            &schema,
            row_vecs.iter().map(|r| r.as_slice()),
            epoch,
            64,
        )
        .expect("ingest succeeds");
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(store.row_count() as usize, rows);
        ns
    }));

    // The store the read-path measurements share (last ingest's output).
    let pages = PagedRows::open(&dir, COLD_POOL_FRAMES)
        .expect("scratch store opens")
        .page_count();

    results.push(measure(format!("open/{rows}"), rows, samples, || {
        let t0 = Instant::now();
        let store = PagedRows::open(&dir, COLD_POOL_FRAMES).expect("open succeeds");
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(store.row_count() as usize, rows);
        ns
    }));

    results.push(measure(format!("scan_cold/{rows}"), rows, samples, || {
        // A fresh open per sample: the pool starts empty every time.
        let store = PagedRows::open(&dir, COLD_POOL_FRAMES).expect("open succeeds");
        let mut n = 0u64;
        let t0 = Instant::now();
        store
            .for_each_chunk(|c| n += c.len() as u64)
            .expect("scan succeeds");
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(n as usize, rows);
        assert!(
            store.pool_stats().evictions > 0 || pages as usize <= COLD_POOL_FRAMES,
            "a cold scan through a tiny pool must evict"
        );
        ns
    }));

    {
        let store =
            PagedRows::open(&dir, pages as usize + 1).expect("open with a store-sized pool");
        let mut primed = 0u64;
        store
            .for_each_chunk(|c| primed += c.len() as u64)
            .expect("priming scan"); // fault everything in
        assert_eq!(primed as usize, rows);
        results.push(measure(format!("scan_warm/{rows}"), rows, samples, || {
            let mut n = 0u64;
            let t0 = Instant::now();
            store
                .for_each_chunk(|c| n += c.len() as u64)
                .expect("warm scan succeeds");
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(n as usize, rows);
            ns
        }));
        assert!(
            store.pool_stats().hits > 0,
            "warm scans must be served from the pool"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    results.push(histogram_cold(rows, samples));
    results
}

/// `histogram_cold/<rows>`: the scan a query without a maintained view
/// pays, per partition.
fn histogram_cold(rows: usize, samples: usize) -> BenchResult {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange {
            min: 0,
            max: COLD_DOMAIN - 1,
        },
    )])
    .expect("static schema");
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let values = (0..rows)
        .map(|_| vec![Value::Int(rng.gen_range(0..COLD_DOMAIN))])
        .collect();
    let data = Dataset::new(schema.clone(), values).expect("rows are in the domain");
    let partitions: Vec<DomainPartition> = (0..COLD_PARTITIONS)
        .map(|_| {
            let ranges: Vec<Predicate> = (0..COLD_RANGES)
                .map(|_| {
                    let (a, b) = (rng.gen_range(0..COLD_DOMAIN), rng.gen_range(0..COLD_DOMAIN));
                    Predicate::range("v", a.min(b) as f64, (a.max(b) + 1) as f64)
                })
                .collect();
            DomainPartition::build(&schema, &ranges).expect("a cold-shaped partition")
        })
        .collect();
    let samples = samples.max(8);
    measure(format!("histogram_cold/{rows}"), rows, samples, || {
        let mut counted = 0.0;
        let t0 = Instant::now();
        for p in &partitions {
            counted += p.histogram(&data).iter().sum::<f64>();
        }
        let ns = t0.elapsed().as_nanos() as u64 / COLD_PARTITIONS as u64;
        assert_eq!(counted, (rows * COLD_PARTITIONS) as f64);
        ns
    })
}

fn write_json(results: &[BenchResult], quick: bool) {
    let path = match std::env::var("APEX_BENCH_JSON") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            if quick {
                // Never let a smoke run overwrite the committed
                // full-run numbers.
                println!("--quick: skipping JSON write (set APEX_BENCH_JSON to force)");
                return;
            }
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_dataset_store.json"
            ))
        }
    };
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {}, \"mean_ns\": {:.1}, \
                 \"min_ns\": {}, \"samples\": {}, \"iters_per_sample\": 1, \"rows\": {}}}",
                esc("dataset_store"),
                esc(&r.id),
                r.median_ns(),
                r.mean_ns(),
                r.min_ns(),
                r.samples_ns.len(),
                r.rows,
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"bench\": \"dataset_store\",\n  \"quick\": {quick},\n  \"results\": [\n    {}\n  \
         ]\n}}\n",
        rows.join(",\n    "),
    );
    std::fs::write(&path, doc).expect("write dataset_store JSON");
    println!("wrote {}", path.display());
}
