//! The 12 benchmark queries of Table 1, on the synthetic datasets.
//!
//! Workload shapes mirror the paper:
//!
//! | name | data | shape | sensitivity |
//! |------|------|-------|-------------|
//! | QW1 | Adult | 100-bin 1-D histogram of capital gain | 1 |
//! | QW2 | Adult | 100-bin prefix (CDF) of capital gain | 100 |
//! | QW3 | NYTaxi | 100-bin 1-D histogram of trip distance | 1 |
//! | QW4 | NYTaxi | 10×10 2-D histogram (total amount × passengers) | 1 |
//! | QI1 | Adult | prefix ICQ on capital gain, `c = 0.1·|D|` | 100 |
//! | QI2 | Adult | 2-D ICQ (gain range × sex), `c = 0.1·|D|` | 1 |
//! | QI3 | NYTaxi | fine histogram ICQ on fare amount | 1 |
//! | QI4 | NYTaxi | fine histogram ICQ on total amount | 1 |
//! | QT1 | Adult | TCQ over 100 age values, k = 10 | 1 |
//! | QT2 | Adult | TCQ over 100 *cumulative* predicates on 4 attributes, k = 10 | ~100 |
//! | QT3 | NYTaxi | TCQ over 10×10 zone pairs, k = 10 | 1 |
//! | QT4 | NYTaxi | TCQ over 100 cumulative predicates on 4 attributes, k = 10 | ~100 |
//!
//! QT2/QT4 use cumulative (overlapping) predicates to realize the paper's
//! "100 predicates on different attributes" with genuinely high workload
//! sensitivity — the regime where LTM dominates LM (Table 2).

use apex_data::synth::{adult_dataset, nytaxi_dataset, ADULT_SIZE};
use apex_data::{CmpOp, Dataset, Predicate};
use apex_mech::PreparedQuery;
use apex_query::ExplorationQuery;

use crate::runner::BenchError;

/// Which dataset a benchmark query runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// Synthetic Adult (32,561 rows by default).
    Adult,
    /// Synthetic NYTaxi (size configurable; the paper uses 9.7M).
    NyTaxi,
}

/// The two benchmark datasets, generated once and shared.
pub struct Datasets {
    /// Synthetic Adult.
    pub adult: Dataset,
    /// Synthetic NYTaxi.
    pub taxi: Dataset,
}

impl Datasets {
    /// Generates both datasets. `taxi_rows` trades fidelity for runtime
    /// (the paper's 9.7M rows only shift the absolute ε scale; see
    /// `repro`'s module doc, `crates/bench/src/bin/repro.rs`).
    pub fn generate(taxi_rows: usize, seed: u64) -> Self {
        Self {
            adult: adult_dataset(ADULT_SIZE, seed),
            taxi: nytaxi_dataset(taxi_rows, seed.wrapping_add(1)),
        }
    }

    /// The dataset for an id.
    pub fn get(&self, id: DatasetId) -> &Dataset {
        match id {
            DatasetId::Adult => &self.adult,
            DatasetId::NyTaxi => &self.taxi,
        }
    }
}

/// One named benchmark query.
pub struct BenchQuery {
    /// Paper name ("QW1" … "QT4").
    pub name: &'static str,
    /// Which dataset it runs on.
    pub dataset: DatasetId,
    /// The query itself. ICQ thresholds are expressed relative to `|D|`
    /// and filled in by [`benchmark_queries`].
    pub query: ExplorationQuery,
}

impl BenchQuery {
    /// Compiles the query against `schema`, annotating failures with the
    /// query's paper name so a bench run reports *which* of the 12 broke
    /// instead of panicking.
    ///
    /// # Errors
    /// [`BenchError::Prepare`] wrapping the workload-compilation failure.
    pub fn prepare(&self, schema: &apex_data::Schema) -> Result<PreparedQuery, BenchError> {
        PreparedQuery::prepare(schema, &self.query).map_err(|source| BenchError::Prepare {
            query: self.name.to_string(),
            source,
        })
    }
}

/// Builds all 12 queries of Table 1. ICQ thresholds are `0.1·|D|` as in
/// the paper; `adult_n` / `taxi_n` are the dataset sizes.
pub fn benchmark_queries(adult_n: usize, taxi_n: usize) -> Vec<BenchQuery> {
    let mut out = Vec::with_capacity(12);

    // ---- WCQ -----------------------------------------------------------
    out.push(BenchQuery {
        name: "QW1",
        dataset: DatasetId::Adult,
        query: ExplorationQuery::wcq(gain_histogram()),
    });
    out.push(BenchQuery {
        name: "QW2",
        dataset: DatasetId::Adult,
        query: ExplorationQuery::wcq(gain_prefix()),
    });
    out.push(BenchQuery {
        name: "QW3",
        dataset: DatasetId::NyTaxi,
        query: ExplorationQuery::wcq(fine_histogram("trip_distance")),
    });
    out.push(BenchQuery {
        name: "QW4",
        dataset: DatasetId::NyTaxi,
        query: ExplorationQuery::wcq(amount_by_passenger()),
    });

    // ---- ICQ (c = 0.1·|D|) ----------------------------------------------
    let c_adult = 0.1 * adult_n as f64;
    let c_taxi = 0.1 * taxi_n as f64;
    out.push(BenchQuery {
        name: "QI1",
        dataset: DatasetId::Adult,
        query: ExplorationQuery::icq(gain_prefix(), c_adult),
    });
    out.push(BenchQuery {
        name: "QI2",
        dataset: DatasetId::Adult,
        query: ExplorationQuery::icq(gain_by_sex(), c_adult),
    });
    out.push(BenchQuery {
        name: "QI3",
        dataset: DatasetId::NyTaxi,
        query: ExplorationQuery::icq(fine_histogram("fare_amount"), c_taxi),
    });
    out.push(BenchQuery {
        name: "QI4",
        dataset: DatasetId::NyTaxi,
        query: ExplorationQuery::icq(fine_histogram("total_amount"), c_taxi),
    });

    // ---- TCQ (k = 10) ----------------------------------------------------
    out.push(BenchQuery {
        name: "QT1",
        dataset: DatasetId::Adult,
        query: ExplorationQuery::tcq(age_values(), 10),
    });
    out.push(BenchQuery {
        name: "QT2",
        dataset: DatasetId::Adult,
        query: ExplorationQuery::tcq(adult_cumulative_multi(), 10),
    });
    out.push(BenchQuery {
        name: "QT3",
        dataset: DatasetId::NyTaxi,
        query: ExplorationQuery::tcq(zone_pairs(), 10),
    });
    out.push(BenchQuery {
        name: "QT4",
        dataset: DatasetId::NyTaxi,
        query: ExplorationQuery::tcq(taxi_cumulative_multi(), 10),
    });

    out
}

/// QW1: capital gain ∈ [0,50), [50,100), …, [4950,5000).
fn gain_histogram() -> Vec<Predicate> {
    (0..100)
        .map(|i| Predicate::range("capital_gain", 50.0 * i as f64, 50.0 * (i + 1) as f64))
        .collect()
}

/// QW2/QI1: capital gain ∈ [0,50), [0,100), …, [0,5000) — prefixes.
fn gain_prefix() -> Vec<Predicate> {
    (1..=100)
        .map(|i| Predicate::range("capital_gain", 0.0, 50.0 * i as f64))
        .collect()
}

/// QW3/QI3/QI4 template: 100 bins of width 0.1 over [0, 10).
fn fine_histogram(attr: &str) -> Vec<Predicate> {
    (0..100)
        .map(|i| Predicate::range(attr, 0.1 * i as f64, 0.1 * (i + 1) as f64))
        .collect()
}

/// QW4: (total amount decile) × (passenger count) — 10 × 10 disjoint bins.
fn amount_by_passenger() -> Vec<Predicate> {
    let mut v = Vec::with_capacity(100);
    for amt in 0..10 {
        for pass in 1..=10_i64 {
            v.push(
                Predicate::range("total_amount", amt as f64, (amt + 1) as f64)
                    .and(Predicate::eq("passenger_count", pass)),
            );
        }
    }
    v
}

/// QI2: (capital gain range) × (sex) — 50 × 2 disjoint bins.
fn gain_by_sex() -> Vec<Predicate> {
    let mut v = Vec::with_capacity(100);
    for i in 0..50 {
        for sex in ["M", "F"] {
            v.push(
                Predicate::range("capital_gain", 100.0 * i as f64, 100.0 * (i + 1) as f64)
                    .and(Predicate::eq("sex", sex)),
            );
        }
    }
    v
}

/// QT1: age = 0, 1, …, 99 (values outside the domain yield empty bins,
/// as in the paper's template).
fn age_values() -> Vec<Predicate> {
    (0..100).map(|i| Predicate::eq("age", i as i64)).collect()
}

/// QT2: 100 cumulative predicates over two Adult attributes (50
/// thresholds each) — overlapping thresholds give the workload high
/// sensitivity (a tuple with high age and hours satisfies most of them).
fn adult_cumulative_multi() -> Vec<Predicate> {
    let mut v = Vec::with_capacity(100);
    for i in 0..50 {
        v.push(Predicate::cmp("age", CmpOp::Ge, 17 + (73 * i / 50) as i64));
        v.push(Predicate::cmp(
            "hours_per_week",
            CmpOp::Ge,
            1 + 2 * i as i64,
        ));
    }
    v
}

/// QT3: (pickup zone) × (dropoff zone) for zones 1..10 — 100 disjoint bins.
fn zone_pairs() -> Vec<Predicate> {
    let mut v = Vec::with_capacity(100);
    for pu in 1..=10_i64 {
        for do_ in 1..=10_i64 {
            v.push(Predicate::eq("puid", pu).and(Predicate::eq("doid", do_)));
        }
    }
    v
}

/// QT4: 100 cumulative predicates over two taxi attributes.
fn taxi_cumulative_multi() -> Vec<Predicate> {
    let mut v = Vec::with_capacity(100);
    for i in 0..50 {
        v.push(Predicate::cmp("trip_distance", CmpOp::Ge, 0.2 * i as f64));
        v.push(Predicate::cmp("fare_amount", CmpOp::Ge, 1.0 * i as f64));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twelve_queries_compile_against_their_schemas() -> Result<(), BenchError> {
        let ds = Datasets::generate(2_000, 3);
        for bq in benchmark_queries(ds.adult.len(), ds.taxi.len()) {
            // Result propagation, not panic: a failure surfaces as
            // `BenchError::Prepare` naming the broken query.
            let p = bq.prepare(ds.get(bq.dataset).schema())?;
            assert_eq!(p.n_queries(), 100, "{} should have 100 predicates", bq.name);
        }
        Ok(())
    }

    #[test]
    fn prepare_error_names_the_query() {
        // An empty schema cannot host any benchmark query; the error must
        // carry the query's name for diagnosis.
        let ds = Datasets::generate(500, 3);
        let queries = benchmark_queries(ds.adult.len(), ds.taxi.len());
        let wrong_schema = ds.taxi.schema(); // QW1 is an Adult query
        let err = queries[0].prepare(wrong_schema).unwrap_err();
        assert!(matches!(&err, BenchError::Prepare { query, .. } if query == "QW1"));
        assert!(format!("{err}").contains("QW1"));
    }

    #[test]
    fn sensitivities_match_the_design_table() {
        let ds = Datasets::generate(2_000, 3);
        let expect = [
            ("QW1", 1.0),
            ("QW2", 100.0),
            ("QW3", 1.0),
            ("QW4", 1.0),
            ("QI1", 100.0),
            ("QI2", 1.0),
            ("QI3", 1.0),
            ("QI4", 1.0),
            ("QT1", 1.0),
            ("QT3", 1.0),
        ];
        let queries = benchmark_queries(ds.adult.len(), ds.taxi.len());
        for (name, sens) in expect {
            let bq = queries.iter().find(|q| q.name == name).unwrap();
            let p = PreparedQuery::prepare(ds.get(bq.dataset).schema(), &bq.query).unwrap();
            assert_eq!(p.sensitivity(), sens, "{name}");
        }
        // The cumulative multi-attribute TCQs have high sensitivity.
        for name in ["QT2", "QT4"] {
            let bq = queries.iter().find(|q| q.name == name).unwrap();
            let p = PreparedQuery::prepare(ds.get(bq.dataset).schema(), &bq.query).unwrap();
            assert!(
                p.sensitivity() >= 50.0,
                "{name} sensitivity {}",
                p.sensitivity()
            );
        }
    }
}
