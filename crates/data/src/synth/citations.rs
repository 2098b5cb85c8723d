//! Synthetic stand-in for the Magellan `citations` record-pair benchmark.
//!
//! Each row of the case-study table (Section 8.1) is a *pair* of citation
//! records with a binary label saying whether they refer to the same
//! publication. Records have three text attributes (title, authors,
//! venue) and one integer attribute (year). Matching pairs are built by
//! duplicating a base record and perturbing it (typos, token drops, venue
//! abbreviation, off-by-one years, missing values); non-matching pairs
//! combine distinct base records.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Attribute, Dataset, Domain, Schema, Value};

/// Configuration for the citations generator.
#[derive(Debug, Clone)]
pub struct CitationsConfig {
    /// Number of record pairs to emit.
    pub n_pairs: usize,
    /// Fraction of pairs that are true matches.
    pub match_fraction: f64,
    /// Probability that any one field of a record is NULL.
    pub null_rate: f64,
    /// Typo/perturbation intensity for duplicates in `[0, 1]`.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CitationsConfig {
    fn default() -> Self {
        // ~10% true matches: labeled-pair benchmarks are match-sparse, and
        // the paper's blocking-cost cutoff (550 admitted pairs of 4000)
        // only makes sense when the match population fits under it.
        Self {
            n_pairs: 4_000,
            match_fraction: 0.10,
            null_rate: 0.03,
            noise: 0.25,
            seed: 13,
        }
    }
}

/// The schema of the citations pair table: the attributes of both records
/// side by side, plus the ground-truth match label.
pub fn citations_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("title_a", Domain::Text),
        Attribute::new("title_b", Domain::Text),
        Attribute::new("authors_a", Domain::Text),
        Attribute::new("authors_b", Domain::Text),
        Attribute::new("venue_a", Domain::Text),
        Attribute::new("venue_b", Domain::Text),
        Attribute::new(
            "year_a",
            Domain::IntRange {
                min: 1970,
                max: 2019,
            },
        ),
        Attribute::new(
            "year_b",
            Domain::IntRange {
                min: 1970,
                max: 2019,
            },
        ),
        Attribute::new("label", Domain::Boolean),
    ])
    .expect("citations schema is well-formed")
}

const TITLE_WORDS: &[&str] = &[
    "efficient",
    "scalable",
    "adaptive",
    "distributed",
    "parallel",
    "private",
    "robust",
    "incremental",
    "approximate",
    "optimal",
    "query",
    "processing",
    "join",
    "indexing",
    "learning",
    "mining",
    "streams",
    "graphs",
    "databases",
    "systems",
    "transactions",
    "storage",
    "networks",
    "integration",
    "cleaning",
    "entity",
    "resolution",
    "privacy",
    "differential",
    "sampling",
    "estimation",
    "optimization",
    "clustering",
    "classification",
];

const FIRST_NAMES: &[&str] = &[
    "alice", "bob", "carol", "david", "erin", "frank", "grace", "henry", "irene", "jack", "karen",
    "liam", "mona", "nathan", "olga", "peter", "quinn", "rachel", "sam", "tina",
];

const LAST_NAMES: &[&str] = &[
    "smith", "johnson", "lee", "chen", "garcia", "mueller", "ivanov", "tanaka", "kumar", "nguyen",
    "brown", "davis", "wilson", "moore", "taylor", "anderson", "thomas", "haas",
];

const VENUES: &[(&str, &str)] = &[
    ("sigmod conference", "sigmod"),
    ("vldb conference", "vldb"),
    ("icde conference", "icde"),
    ("kdd conference", "kdd"),
    ("acm transactions on database systems", "tods"),
    (
        "ieee transactions on knowledge and data engineering",
        "tkde",
    ),
    ("edbt conference", "edbt"),
    ("cidr conference", "cidr"),
];

/// A base (clean) citation record.
#[derive(Clone)]
struct Record {
    title: String,
    authors: String,
    venue_full: String,
    venue_abbr: String,
    year: i64,
}

fn base_record(rng: &mut StdRng) -> Record {
    let n_words = rng.gen_range(4..9);
    let title: Vec<&str> = (0..n_words)
        .map(|_| TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())])
        .collect();
    let n_auth = rng.gen_range(1..4);
    let authors: Vec<String> = (0..n_auth)
        .map(|_| {
            format!(
                "{} {}",
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
            )
        })
        .collect();
    let (full, abbr) = VENUES[rng.gen_range(0..VENUES.len())];
    Record {
        title: title.join(" "),
        authors: authors.join(", "),
        venue_full: full.to_string(),
        venue_abbr: abbr.to_string(),
        year: rng.gen_range(1975..=2018),
    }
}

/// Applies duplicate-style noise to a string: character typos and token
/// drops with intensity `noise`.
fn perturb_string(rng: &mut StdRng, s: &str, noise: f64) -> String {
    let mut tokens: Vec<String> = s.split(' ').map(|t| t.to_string()).collect();
    // Occasionally drop a token (but never all of them).
    if tokens.len() > 1 && rng.gen::<f64>() < noise * 0.6 {
        let i = rng.gen_range(0..tokens.len());
        tokens.remove(i);
    }
    // Character-level typos.
    for t in tokens.iter_mut() {
        if rng.gen::<f64>() < noise * 0.5 && t.len() > 2 {
            let bytes = t.as_bytes();
            let i = rng.gen_range(0..bytes.len() - 1);
            if bytes[i].is_ascii_lowercase() && bytes[i + 1].is_ascii_lowercase() {
                // Transpose two adjacent letters.
                let mut b = bytes.to_vec();
                b.swap(i, i + 1);
                *t = String::from_utf8(b).expect("ascii transposition stays utf8");
            }
        }
    }
    tokens.join(" ")
}

fn emit_field(rng: &mut StdRng, s: &str, null_rate: f64) -> Value {
    if rng.gen::<f64>() < null_rate {
        Value::Null
    } else {
        Value::from(s)
    }
}

/// Generates a labeled pair table per `cfg`.
pub fn citations_dataset(cfg: &CitationsConfig) -> Dataset {
    let schema = citations_schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // A pool of distinct base publications; every pair draws from it so
    // that non-matches still share vocabulary (realistic hardness).
    let pool_size = (cfg.n_pairs / 2).max(64);
    let pool: Vec<Record> = (0..pool_size).map(|_| base_record(&mut rng)).collect();

    let mut rows = Vec::with_capacity(cfg.n_pairs);
    for _ in 0..cfg.n_pairs {
        let is_match = rng.gen::<f64>() < cfg.match_fraction;
        let a = pool[rng.gen_range(0..pool.len())].clone();
        let (b_title, b_authors, b_venue, b_year);
        if is_match {
            b_title = perturb_string(&mut rng, &a.title, cfg.noise);
            b_authors = perturb_string(&mut rng, &a.authors, cfg.noise);
            // Duplicates often cite the abbreviated venue.
            b_venue = if rng.gen::<f64>() < 0.5 {
                a.venue_abbr.clone()
            } else {
                a.venue_full.clone()
            };
            b_year = if rng.gen::<f64>() < 0.1 {
                a.year + 1
            } else {
                a.year
            };
        } else {
            // A different publication from the pool.
            let mut other = pool[rng.gen_range(0..pool.len())].clone();
            if other.title == a.title {
                other = base_record(&mut rng);
            }
            b_title = other.title;
            b_authors = other.authors;
            b_venue = other.venue_full;
            b_year = other.year;
        }
        let venue_a = a.venue_full.clone();
        rows.push(vec![
            emit_field(&mut rng, &a.title, cfg.null_rate),
            emit_field(&mut rng, &b_title, cfg.null_rate),
            emit_field(&mut rng, &a.authors, cfg.null_rate),
            emit_field(&mut rng, &b_authors, cfg.null_rate),
            emit_field(&mut rng, &venue_a, cfg.null_rate),
            emit_field(&mut rng, &b_venue, cfg.null_rate),
            Value::Int(a.year.clamp(1970, 2019)),
            Value::Int(b_year.clamp(1970, 2019)),
            Value::Bool(is_match),
        ]);
    }
    Dataset::new(schema, rows).expect("generated rows conform to schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CitationsConfig {
            n_pairs: 200,
            ..Default::default()
        };
        let a = citations_dataset(&cfg);
        let b = citations_dataset(&cfg);
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn match_fraction_is_respected() {
        let cfg = CitationsConfig {
            n_pairs: 4_000,
            match_fraction: 0.25,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        let matches = d.count(&Predicate::eq("label", true)).unwrap() as f64;
        let frac = matches / d.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "match fraction {frac}");
    }

    #[test]
    fn nulls_appear_at_roughly_the_configured_rate() {
        let cfg = CitationsConfig {
            n_pairs: 3_000,
            null_rate: 0.05,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        let nulls = d.count(&Predicate::is_null("title_a")).unwrap() as f64;
        let frac = nulls / d.len() as f64;
        assert!(frac > 0.02 && frac < 0.09, "null fraction {frac}");
    }

    #[test]
    fn matching_pairs_share_most_title_tokens() {
        let cfg = CitationsConfig {
            n_pairs: 500,
            null_rate: 0.0,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        let (ia, ib, il) = (
            d.schema().index_of("title_a").unwrap(),
            d.schema().index_of("title_b").unwrap(),
            d.schema().index_of("label").unwrap(),
        );
        let mut sims = Vec::new();
        for row in &d.to_rows() {
            if row[il] == Value::Bool(true) {
                let a: std::collections::HashSet<&str> =
                    row[ia].as_str().unwrap().split(' ').collect();
                let b: std::collections::HashSet<&str> =
                    row[ib].as_str().unwrap().split(' ').collect();
                let j = a.intersection(&b).count() as f64 / a.union(&b).count() as f64;
                sims.push(j);
            }
        }
        let mean = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(mean > 0.6, "mean jaccard of matches {mean}");
    }

    #[test]
    fn rows_conform_to_schema() {
        let cfg = CitationsConfig {
            n_pairs: 300,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        for row in &d.to_rows() {
            d.schema().validate_row(row).unwrap();
        }
    }
}
