//! Synthetic stand-in for the NYC TLC yellow-taxi trip records.
//!
//! The real dataset has ~9.7M trips; generating that many rows is
//! possible but wasteful for unit tests, so the row count is a parameter
//! (the benchmark harness uses a few hundred thousand, which preserves the
//! property the paper leans on: at the same *relative* accuracy `α/|D|`,
//! the absolute α on taxi data is much larger than on Adult, so privacy
//! costs are orders of magnitude smaller).
//!
//! Shapes: trip distances and fares are heavily right-skewed (most trips
//! are short), passenger count is dominated by 1, and pickup/dropoff zone
//! ids follow a skewed popularity distribution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Attribute, Dataset, Domain, Schema, Value};

/// The schema of the synthetic NYTaxi dataset.
pub fn nytaxi_schema() -> Schema {
    Schema::new(vec![
        Attribute::new(
            "trip_distance",
            Domain::FloatRange {
                min: 0.0,
                max: 100.0,
            },
        ),
        Attribute::new(
            "fare_amount",
            Domain::FloatRange {
                min: 0.0,
                max: 500.0,
            },
        ),
        Attribute::new(
            "total_amount",
            Domain::FloatRange {
                min: 0.0,
                max: 600.0,
            },
        ),
        Attribute::new("passenger_count", Domain::IntRange { min: 1, max: 10 }),
        Attribute::new("puid", Domain::IntRange { min: 1, max: 60 }),
        Attribute::new("doid", Domain::IntRange { min: 1, max: 60 }),
        Attribute::new("pickup_day", Domain::IntRange { min: 1, max: 31 }),
        Attribute::new("pickup_hour", Domain::IntRange { min: 0, max: 23 }),
        Attribute::new("payment_type", Domain::IntRange { min: 1, max: 4 }),
    ])
    .expect("nytaxi schema is well-formed")
}

/// Generates `n` synthetic taxi trips with the given `seed`.
pub fn nytaxi_dataset(n: usize, seed: u64) -> Dataset {
    let schema = nytaxi_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n).map(|_| {
        // Exponential-ish trip distance, median ≈ 1.6 miles.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let dist = (-2.3 * u.ln()).min(99.9);
        // Fare grows roughly linearly with distance plus meter drop.
        let fare = (2.5 + 2.8 * dist + rng.gen::<f64>() * 2.0).min(499.0);
        // Total adds tip & taxes.
        let tip_rate = if rng.gen::<f64>() < 0.6 {
            rng.gen::<f64>() * 0.3
        } else {
            0.0
        };
        let total = (fare * (1.0 + tip_rate) + 0.8).min(599.0);

        let passenger = passenger_count(&mut rng);
        let puid = skewed_zone(&mut rng);
        let doid = skewed_zone(&mut rng);
        let day = rng.gen_range(1..=31);
        let hour = peaked_hour(&mut rng);
        let payment = if rng.gen::<f64>() < 0.7 {
            1
        } else {
            rng.gen_range(2..=4)
        };

        vec![
            Value::Float(dist),
            Value::Float(fare),
            Value::Float(total),
            Value::Int(passenger),
            Value::Int(puid),
            Value::Int(doid),
            Value::Int(day),
            Value::Int(hour),
            Value::Int(payment),
        ]
    });
    Dataset::from_row_iter(schema, rows).expect("generated rows conform to schema")
}

/// Passenger counts: ~72% singletons, geometric tail up to 10.
fn passenger_count(rng: &mut StdRng) -> i64 {
    let u: f64 = rng.gen();
    if u < 0.72 {
        1
    } else {
        let mut k = 2;
        let mut p = 0.72 + 0.14;
        while u > p && k < 10 {
            k += 1;
            p += 0.14 / (k - 1) as f64;
        }
        k
    }
}

/// Zone ids 1..=60 with a power-law popularity profile.
fn skewed_zone(rng: &mut StdRng) -> i64 {
    let u: f64 = rng.gen();
    let z = (60.0 * u.powf(2.0)).floor() as i64 + 1;
    z.min(60)
}

/// Pickup hour with morning and evening peaks.
fn peaked_hour(rng: &mut StdRng) -> i64 {
    // Mixture: 30% morning peak (N(8.5, 1.5)), 40% evening (N(18.5, 2)),
    // 30% uniform background.
    let u: f64 = rng.gen();
    let h = if u < 0.3 {
        8.5 + 1.5 * normal(rng)
    } else if u < 0.7 {
        18.5 + 2.0 * normal(rng)
    } else {
        rng.gen_range(0.0..24.0)
    };
    (h.rem_euclid(24.0)).floor() as i64
}

fn normal(rng: &mut StdRng) -> f64 {
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
        let a = nytaxi_dataset(300, 11);
        let b = nytaxi_dataset(300, 11);
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn rows_conform_to_schema() {
        let d = nytaxi_dataset(1_000, 5);
        for row in &d.to_rows() {
            d.schema().validate_row(row).unwrap();
        }
    }

    #[test]
    fn trips_are_short_skewed() {
        let d = nytaxi_dataset(5_000, 5);
        let short = d
            .count(&Predicate::range("trip_distance", 0.0, 3.0))
            .unwrap();
        let frac = short as f64 / d.len() as f64;
        assert!(frac > 0.6, "short-trip fraction {frac}");
    }

    #[test]
    fn singleton_passengers_dominate() {
        let d = nytaxi_dataset(5_000, 5);
        let singles = d.count(&Predicate::eq("passenger_count", 1_i64)).unwrap();
        let frac = singles as f64 / d.len() as f64;
        assert!(frac > 0.6 && frac < 0.85, "singleton fraction {frac}");
    }

    #[test]
    fn zones_are_skewed() {
        let d = nytaxi_dataset(5_000, 9);
        // The power-law profile concentrates pickups on low zone ids: the
        // bottom third should hold well over a third of pickups.
        let hot = d
            .count(&Predicate::cmp("puid", crate::CmpOp::Le, 20_i64))
            .unwrap();
        let frac = hot as f64 / d.len() as f64;
        assert!(frac > 0.45, "hot-zone fraction {frac}");
    }
}
