//! Synthetic stand-in for the 1994 US Census *Adult* dataset.
//!
//! The real extract has 32,561 individuals and 15 attributes; the APEx
//! benchmarks (Table 1) touch `capital gain`, `age`, `sex`, `workclass`,
//! and a handful of other categoricals used by the 100-predicate TCQ
//! workloads. We generate those columns with the well-known qualitative
//! shapes: capital gain is ~91% zero with a heavy right tail, age is
//! roughly log-normal around the mid-30s, and the categoricals follow the
//! published marginal skews approximately.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Attribute, Dataset, Domain, Schema, Value};

/// Number of rows in the real Adult dataset (used as the default size).
pub const ADULT_SIZE: usize = 32_561;

/// The schema of the synthetic Adult dataset.
pub fn adult_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("age", Domain::IntRange { min: 17, max: 90 }),
        Attribute::new(
            "workclass",
            Domain::Categorical(
                [
                    "private",
                    "self-emp-not-inc",
                    "self-emp-inc",
                    "federal-gov",
                    "local-gov",
                    "state-gov",
                    "without-pay",
                    "never-worked",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ),
        ),
        Attribute::new("education_num", Domain::IntRange { min: 1, max: 16 }),
        Attribute::new(
            "marital_status",
            Domain::Categorical(
                [
                    "married",
                    "never-married",
                    "divorced",
                    "separated",
                    "widowed",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ),
        ),
        Attribute::new(
            "occupation",
            Domain::Categorical(
                [
                    "tech",
                    "craft",
                    "exec",
                    "admin",
                    "sales",
                    "service",
                    "machine-op",
                    "transport",
                    "handlers",
                    "farming",
                    "protective",
                    "armed-forces",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ),
        ),
        Attribute::new("sex", Domain::Categorical(vec!["M".into(), "F".into()])),
        Attribute::new("capital_gain", Domain::IntRange { min: 0, max: 4999 }),
        Attribute::new("hours_per_week", Domain::IntRange { min: 1, max: 99 }),
        Attribute::new("label", Domain::Boolean),
    ])
    .expect("adult schema is well-formed")
}

/// Generates `n` synthetic Adult rows with the given `seed`.
///
/// Pass [`ADULT_SIZE`] to mirror the paper's setup.
pub fn adult_dataset(n: usize, seed: u64) -> Dataset {
    let schema = adult_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let workclasses = ["private"; 70]
        .iter()
        .chain(["self-emp-not-inc"; 8].iter())
        .chain(["self-emp-inc"; 3].iter())
        .chain(["federal-gov"; 3].iter())
        .chain(["local-gov"; 7].iter())
        .chain(["state-gov"; 4].iter())
        .chain(["without-pay"; 3].iter())
        .chain(["never-worked"; 2].iter())
        .copied()
        .collect::<Vec<_>>();
    let maritals = ["married"; 46]
        .iter()
        .chain(["never-married"; 33].iter())
        .chain(["divorced"; 14].iter())
        .chain(["separated"; 3].iter())
        .chain(["widowed"; 4].iter())
        .copied()
        .collect::<Vec<_>>();
    let occupations = [
        "tech",
        "craft",
        "exec",
        "admin",
        "sales",
        "service",
        "machine-op",
        "transport",
        "handlers",
        "farming",
        "protective",
        "armed-forces",
    ];

    let rows = (0..n).map(|_| {
        // Age: clipped log-normal-ish around 37.
        let z: f64 = standard_normal(&mut rng);
        let age = (37.0 + 13.0 * z).round().clamp(17.0, 90.0) as i64;

        let workclass = workclasses[rng.gen_range(0..workclasses.len())];
        let education = (10.0 + 2.6 * standard_normal(&mut rng))
            .round()
            .clamp(1.0, 16.0) as i64;
        let marital = maritals[rng.gen_range(0..maritals.len())];
        // Occupation mildly skewed toward the first few categories.
        let occ_idx = (occupations.len() as f64 * rng.gen::<f64>().powf(1.35)).floor() as usize;
        let occupation = occupations[occ_idx.min(occupations.len() - 1)];
        let sex = if rng.gen::<f64>() < 0.669 { "M" } else { "F" };

        // Capital gain: 91% zeros, the rest right-skewed across [1, 5000).
        let capital_gain = if rng.gen::<f64>() < 0.91 {
            0
        } else {
            let u: f64 = rng.gen();
            (u.powf(0.45) * 4999.0).round().clamp(1.0, 4999.0) as i64
        };

        let hours = (40.0 + 12.0 * standard_normal(&mut rng))
            .round()
            .clamp(1.0, 99.0) as i64;
        let label = rng.gen::<f64>() < 0.24;

        vec![
            Value::Int(age),
            Value::from(workclass),
            Value::Int(education),
            Value::from(marital),
            Value::from(occupation),
            Value::from(sex),
            Value::Int(capital_gain),
            Value::Int(hours),
            Value::Bool(label),
        ]
    });
    Dataset::from_row_iter(schema, rows).expect("generated rows conform to schema")
}

/// Standard normal via Box–Muller (avoids pulling in `rand_distr`).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;

    #[test]
    fn generation_is_deterministic() {
        let a = adult_dataset(500, 7);
        let b = adult_dataset(500, 7);
        assert_eq!(a.to_rows(), b.to_rows());
        let c = adult_dataset(500, 8);
        assert_ne!(a.to_rows(), c.to_rows());
    }

    #[test]
    fn rows_conform_to_schema() {
        let d = adult_dataset(2_000, 42);
        assert_eq!(d.len(), 2_000);
        for row in &d.to_rows() {
            d.schema().validate_row(row).unwrap();
        }
    }

    #[test]
    fn capital_gain_is_zero_inflated() {
        let d = adult_dataset(5_000, 1);
        let zeros = d.count(&Predicate::eq("capital_gain", 0_i64)).unwrap();
        let frac = zeros as f64 / d.len() as f64;
        assert!(frac > 0.85 && frac < 0.96, "zero fraction {frac}");
    }

    #[test]
    fn sex_marginal_is_skewed_male() {
        let d = adult_dataset(5_000, 1);
        let m = d.count(&Predicate::eq("sex", "M")).unwrap() as f64;
        let frac = m / d.len() as f64;
        assert!(frac > 0.6 && frac < 0.75, "male fraction {frac}");
    }

    #[test]
    fn age_is_centered_in_thirties() {
        let d = adult_dataset(5_000, 3);
        let idx = d.schema().index_of("age").unwrap();
        let mean: f64 = d
            .to_rows()
            .iter()
            .map(|r| r[idx].as_f64().unwrap())
            .sum::<f64>()
            / d.len() as f64;
        assert!(mean > 33.0 && mean < 42.0, "mean age {mean}");
    }
}
