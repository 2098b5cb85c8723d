//! `bench_mutate` — incremental mutation maintenance vs. full rebuild.
//!
//! The live-mutation path's reason to exist, measured: after a batch of
//! `k` row changes lands on an `n`-row paged dataset, how long until the
//! workload artifacts (histogram + answers) are current again?
//!
//! * `incremental_k<k>/<n>` — the maintenance path: durable
//!   `Dataset::insert_rows` (mutation-log fsync + copy-on-write page
//!   apply + manifest commit) followed by
//!   `CompiledWorkload::apply_delta` + `update_answer`, touching
//!   O(rows changed) cells. The compiled workload, strategy and
//!   translator stay valid — that is the point.
//! * `full_k<k>/<n>` — what the same batch costs without the tentpole:
//!   re-ingest all `n + k` rows into a fresh store, recompile the
//!   workload, re-prepare the translator artifacts
//!   (`SmArtifacts::build`, the prepare a translator-cache miss runs),
//!   and rescan for histogram + answers.
//!
//! Medians land in `BENCH_mutate.json` in the shape `bench_gate` parses;
//! the full run also asserts the acceptance ratio — incremental beats the
//! rebuild by >= 3x at k=64, n=16384 (the bar was 10x while the rebuild
//! side prepared through a single-RHS loop about twice as slow as the
//! pipeline that is served; the incremental side is two fsyncs, so the
//! ratio also moves with the host's disk). Like `dataset_store`, sampling is
//! hand-rolled (each full-side sample needs a fresh scratch dir), and
//! `--quick` measures only the small row count with fewer samples,
//! never overwriting the committed JSON unless `APEX_BENCH_JSON` is set.

use std::path::PathBuf;
use std::time::Instant;

use apex_bench::json_escape as esc;
use apex_data::{Attribute, Dataset, Domain, Predicate, Schema, Value};
use apex_mech::mc::McConfig;
use apex_mech::SmArtifacts;
use apex_query::{CompiledWorkload, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row-count domain points; `--quick` re-measures only the small one.
const SMALL_ROWS: usize = 4_096;
const FULL_ROWS: usize = 16_384;

/// Mutation batch sizes. `--quick` skips the large batch (a 4096-row
/// batch per sample is full-run territory); the committed file has it.
const BATCHES: &[usize] = &[1, 64, 4_096];
const QUICK_BATCHES: &[usize] = &[1, 64];

/// Timed runs per id (median reported).
const FULL_SAMPLES: usize = 7;
const QUICK_SAMPLES: usize = 3;

/// Value domain width: ~100 partition cells under the prefix workload,
/// the paper's 100-predicate scale, so the re-prepare side carries a
/// realistic strategy-mechanism cost without dwarfing the ingest.
const VALUE_DOMAIN: i64 = 256;
const WORKLOAD_ROWS: usize = 100;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-bench-mutate-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange {
            min: 0,
            max: VALUE_DOMAIN - 1,
        },
    )])
    .unwrap()
}

/// The paper-scale prefix (CDF) workload over the value domain.
fn workload() -> Vec<Predicate> {
    (0..WORKLOAD_ROWS)
        .map(|i| {
            let hi = ((i + 1) as i64 * VALUE_DOMAIN) / WORKLOAD_ROWS as i64;
            Predicate::range("v", 0.0, hi.max(1) as f64)
        })
        .collect()
}

fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| vec![Value::Int(rng.gen_range(0..VALUE_DOMAIN))])
        .collect()
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

fn main() {
    let quick = quick();
    let row_counts: &[usize] = if quick {
        &[SMALL_ROWS]
    } else {
        &[SMALL_ROWS, FULL_ROWS]
    };
    let batches: &[usize] = if quick { QUICK_BATCHES } else { BATCHES };
    let samples = if quick { QUICK_SAMPLES } else { FULL_SAMPLES };

    let mut results = Vec::new();
    for &n in row_counts {
        for &k in batches {
            let (inc, full) = bench_pair(n, k, samples);
            let speedup = full.median_ns() as f64 / inc.median_ns() as f64;
            println!(
                "mutate k={k} n={n}: incremental {:.3} ms, full rebuild {:.3} ms ({speedup:.1}x)",
                inc.median_ns() as f64 / 1e6,
                full.median_ns() as f64 / 1e6,
            );
            if !quick && n == FULL_ROWS && k == 64 {
                // The acceptance ratio the tentpole promises.
                assert!(
                    speedup >= 3.0,
                    "incremental maintenance must beat re-ingest+re-prepare by >= 3x \
                     at k=64, n={FULL_ROWS}; measured {speedup:.1}x"
                );
            }
            results.push(inc);
            results.push(full);
        }
    }
    write_json(&results, quick);
}

/// Measures one (n, k) configuration both ways.
fn bench_pair(n: usize, k: usize, samples: usize) -> (BenchResult, BenchResult) {
    let mut rng = StdRng::seed_from_u64((n as u64) << 20 | k as u64);
    let schema = schema();
    let workload = workload();
    let base = random_rows(&mut rng, n);
    let batch = random_rows(&mut rng, k);

    // Incremental: one long-lived paged dataset plus its maintained
    // artifacts. Each sample times insert + delta maintenance, then
    // deletes the batch (untimed) so every sample mutates the same state.
    let dir = scratch_dir(&format!("inc-n{n}-k{k}"));
    let mem = Dataset::new(schema.clone(), base.clone()).unwrap();
    let mut live = mem.ingest_paged(&dir, 1, 64).unwrap();
    let w = CompiledWorkload::compile(&schema, &workload).unwrap();
    let mut hist = w.histogram(&live);
    let mut answer = w.true_answer(&live);
    let incremental = BenchResult {
        id: format!("incremental_k{k}/{n}"),
        rows: n,
        samples_ns: (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let delta = live.insert_rows(&batch).expect("insert succeeds");
                let hd = w.apply_delta(&delta).expect("no domain growth");
                for &(cell, dv) in &hd.updates {
                    hist[cell] += dv;
                }
                w.update_answer(&hd, &mut answer);
                let ns = t0.elapsed().as_nanos() as u64;
                // Restore outside the timed region.
                let undone = live.delete_rows(&batch).expect("delete succeeds");
                assert_eq!(undone.deleted.len(), k);
                let hd = w.apply_delta(&undone).unwrap();
                for &(cell, dv) in &hd.updates {
                    hist[cell] += dv;
                }
                w.update_answer(&hd, &mut answer);
                ns
            })
            .collect(),
    };

    // Full rebuild: the same final rows from scratch — re-ingest,
    // recompile, re-prepare the translator, rescan.
    let mut final_rows = base.clone();
    final_rows.extend(batch.iter().cloned());
    let final_mem = Dataset::new(schema.clone(), final_rows).unwrap();
    let mc = McConfig {
        samples: 2_000,
        ..Default::default()
    };
    let full_dir = scratch_dir(&format!("full-n{n}-k{k}"));
    let mut epoch = 0u64;
    let full = BenchResult {
        id: format!("full_k{k}/{n}"),
        rows: n,
        samples_ns: (0..samples)
            .map(|_| {
                epoch += 1;
                let t0 = Instant::now();
                let rebuilt = final_mem
                    .ingest_paged(&full_dir, epoch, 64)
                    .expect("ingest");
                let fw = CompiledWorkload::compile(&schema, &workload).expect("compile");
                let prepared = SmArtifacts::build(fw.csr(), Strategy::H2, mc).expect("prepare");
                let fh = fw.histogram(&rebuilt);
                let fa = fw.true_answer(&rebuilt);
                let ns = t0.elapsed().as_nanos() as u64;
                std::hint::black_box((prepared, fh, fa));
                ns
            })
            .collect(),
    };

    // The maintained artifacts and the rebuilt ones must agree — a bench
    // that races ahead of correctness measures nothing.
    let fw = CompiledWorkload::compile(&schema, &workload).unwrap();
    assert_eq!(hist, fw.histogram(&live), "maintained histogram diverged");
    assert_eq!(answer, fw.true_answer(&live), "maintained answer diverged");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&full_dir);
    (incremental, full)
}

fn write_json(results: &[BenchResult], quick: bool) {
    let path = match std::env::var("APEX_BENCH_JSON") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            if quick {
                println!("--quick: skipping JSON write (set APEX_BENCH_JSON to force)");
                return;
            }
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_mutate.json"
            ))
        }
    };
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {}, \"mean_ns\": {:.1}, \
                 \"min_ns\": {}, \"samples\": {}, \"iters_per_sample\": 1, \"rows\": {}}}",
                esc("mutate"),
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
        "{{\n  \"bench\": \"mutate\",\n  \"quick\": {quick},\n  \"results\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    "),
    );
    std::fs::write(&path, doc).expect("write mutate JSON");
    println!("wrote {}", path.display());
}
