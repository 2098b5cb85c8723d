//! Shared experiment plumbing: records, JSON output, parallel sweeps.
//!
//! The build environment has no registry access, so records are serialized
//! with the service's JSON renderer (`apex_serve::json`) and the parallel
//! sweep uses `std::thread::scope` instead of an external thread pool.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use apex_query::WorkloadError;
use apex_serve::json::Json;

/// Errors surfaced by the benchmark harness. Benchmark binaries return
/// these from `main` instead of panicking, so a misconfigured query (or a
/// full disk) reports *which* step failed and exits nonzero — propagation,
/// not `panic!`, is the contract for the prepare path.
#[derive(Debug)]
pub enum BenchError {
    /// A benchmark query failed to compile against its dataset's schema.
    Prepare {
        /// Paper name of the query ("QW1" … "QT4").
        query: String,
        /// The underlying compilation failure.
        source: WorkloadError,
    },
    /// Writing experiment records failed.
    Io(std::io::Error),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Prepare { query, source } => {
                write!(f, "benchmark query {query} failed to prepare: {source}")
            }
            BenchError::Io(e) => write!(f, "benchmark i/o failed: {e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Prepare { source, .. } => Some(source),
            BenchError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// One measured data point, serialized as a JSON line so downstream
/// plotting is trivial.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment id ("fig2", "table2", …).
    pub experiment: String,
    /// The sweep's seed: datasets and every noise draw derive from it.
    pub seed: u64,
    /// Query or strategy name ("QW1", "BS2", …).
    pub subject: String,
    /// Mechanism name when applicable.
    pub mechanism: String,
    /// `|D|`: rows of the queried dataset, or record pairs for ER.
    pub rows: usize,
    /// Relative accuracy `α/|D|`.
    pub alpha: f64,
    /// Failure probability β.
    pub beta: f64,
    /// Privacy budget B when applicable (NaN otherwise).
    pub budget: f64,
    /// Worst-case translated privacy cost εᵘ.
    pub epsilon_upper: f64,
    /// Actual privacy cost ε.
    pub epsilon: f64,
    /// Empirical error (paper's scaled measure) or task quality.
    pub value: f64,
    /// What `value` measures ("error", "f1", "recall").
    pub measure: String,
    /// Run index within the repetition loop.
    pub run: usize,
}

impl ExperimentRecord {
    /// A mostly-empty record to fill in field by field.
    pub fn new(experiment: &str, subject: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            seed: 0,
            subject: subject.to_string(),
            mechanism: String::new(),
            rows: 0,
            alpha: f64::NAN,
            beta: f64::NAN,
            budget: f64::NAN,
            epsilon_upper: f64::NAN,
            epsilon: f64::NAN,
            value: f64::NAN,
            measure: String::new(),
            run: 0,
        }
    }

    /// The record as one JSON object (field order fixed, for diffability).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("experiment", self.experiment.as_str().into()),
            ("seed", self.seed.into()),
            ("subject", self.subject.as_str().into()),
            ("mechanism", self.mechanism.as_str().into()),
            ("rows", self.rows.into()),
            ("alpha", self.alpha.into()),
            ("beta", self.beta.into()),
            ("budget", self.budget.into()),
            ("epsilon_upper", self.epsilon_upper.into()),
            ("epsilon", self.epsilon.into()),
            ("value", self.value.into()),
            ("measure", self.measure.as_str().into()),
            ("run", self.run.into()),
        ])
        .render()
    }
}

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes and control characters). Shared by every hand-rolled JSON
/// emitter in the workspace — there is deliberately exactly one of these.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes records as JSON lines under `experiments/<name>.jsonl`
/// (creating the directory), and returns the path written.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_records(name: &str, records: &[ExperimentRecord]) -> std::io::Result<String> {
    let dir = Path::new("experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut f = std::fs::File::create(&path)?;
    for r in records {
        writeln!(f, "{}", r.to_json())?;
    }
    Ok(path.display().to_string())
}

/// Maps `f` over `items` across `threads` worker threads (std scoped
/// threads; no async runtime needed), preserving input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    // Work items behind a mutex-free claim counter; each worker claims the
    // next unprocessed index. Items are moved out via Option so `T` needs
    // neither Clone nor Default.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("no poisoning")
                    .take()
                    .expect("each index claimed once");
                let r = f(item);
                *slots[i].lock().expect("no poisoning") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no poisoning")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(vec![7], 4, |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn records_serialize_to_json() {
        let mut r = ExperimentRecord::new("fig2", "QW1");
        r.mechanism = "LM".into();
        r.epsilon = 0.5;
        let s = r.to_json();
        assert!(s.contains("\"experiment\":\"fig2\""));
        assert!(s.contains("\"mechanism\":\"LM\""));
        assert!(s.contains("\"epsilon\":0.5"));
        // Non-finite numbers become null (JSON has no NaN).
        assert!(s.contains("\"budget\":null"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut r = ExperimentRecord::new("e", "quote\"back\\slash\nnl");
        r.measure = "tab\there".into();
        let s = r.to_json();
        assert!(s.contains("quote\\\"back\\\\slash\\nnl"));
        assert!(s.contains("tab\\there"));
    }
}
