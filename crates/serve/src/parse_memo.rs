//! The parse memo: each shard lexes and parses a query text once.
//!
//! An analyst explores by asking the same few statements again and again,
//! at a handful of accuracies. The engine already compiles each workload
//! once (`apex_core::memo`); [`ParseMemo`] puts the same idea in front of
//! it, mapping a statement's text to its `Arc<ParsedQuery>` so that the
//! router parses only on a miss and evaluates straight from the shared
//! tree on a hit.
//!
//! * **Key.** The whole `"query"` text, `ERROR … CONFIDENCE …` included:
//!   an analyst who changes α pays one parse. Explicit `"alpha"`/`"beta"`
//!   fields are applied after the lookup
//!   ([`wire::decode_query_request`](crate::wire::decode_query_request)),
//!   so they never split an entry.
//! * **Bounds.** [`MAX_PARSES`] entries and [`MAX_PARSE_BYTES`] bytes per
//!   shard, least-recently-used out first. An entry is charged its text
//!   plus a bound on its parsed tree's heap (`tree_bytes`). A text whose
//!   charge exceeds the byte cap is parsed and not kept; a parse error is
//!   never kept. The parse runs outside the lock; two racing misses both
//!   parse, identically.
//! * **Privacy.** Whether a lookup hits depends only on the texts sent to
//!   this shard, never on `D`. The memo is shared by the shard's tenants,
//!   as the translator cache is.
//!
//! Outside test modules nothing else in the service calls `parse_query`
//! directly (a CI step checks it): the router reads every query text
//! through this memo, and `wire::parse_query_request`, kept for callers
//! outside the service, hands the parser to the envelope decoder
//! uncached.

use std::mem::size_of;
use std::sync::{Arc, Mutex};

use apex_data::{BoundedLru, CacheStats, Predicate, Value};
use apex_query::parser::{parse_query, ParseError, ParsedQuery};

use crate::lockx;

/// Most parsed statements one shard keeps.
pub const MAX_PARSES: usize = 256;

/// Most bytes (texts plus trees) one shard's parsed statements may hold
/// together. The 50 texts of the Table-1 exploration mix (6 shapes × 2
/// tenants × 4 α, plus a must-deny text per tenant) take about 1 MB.
pub const MAX_PARSE_BYTES: usize = 4 << 20;

/// Counters and sizes of one shard's parse memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Parsed statements currently held.
    pub entries: usize,
    /// Bytes they account for.
    pub bytes: usize,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that parsed (refused and oversized texts included).
    pub misses: u64,
}

/// Statement text → its parse.
type Memo = BoundedLru<Box<str>, Arc<ParsedQuery>>;

/// One shard's parse memo (see the module docs).
#[derive(Debug)]
pub struct ParseMemo(Mutex<Memo>);

impl Default for ParseMemo {
    fn default() -> Self {
        Self::with_caps(MAX_PARSES, MAX_PARSE_BYTES)
    }
}

impl ParseMemo {
    fn with_caps(max_entries: usize, max_bytes: usize) -> Self {
        Self(Mutex::new(Memo::new(max_entries, max_bytes)))
    }

    /// [`parse_query`], parsing only when `text` was not parsed before.
    ///
    /// # Errors
    /// The parser's, which are not memoised.
    pub fn parse(&self, text: &str) -> Result<Arc<ParsedQuery>, ParseError> {
        if let Some(hit) = lockx::lock(&self.0).get(text, |_| true) {
            return Ok(hit.clone());
        }
        let parsed = Arc::new(parse_query(text)?);
        let bytes = text.len() + tree_bytes(&parsed);
        lockx::lock(&self.0).insert(text.into(), parsed.clone(), bytes);
        Ok(parsed)
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> ParseStats {
        let memo = lockx::lock(&self.0);
        let CacheStats { hits, misses, .. } = memo.stats();
        ParseStats {
            entries: memo.len(),
            bytes: memo.bytes(),
            hits,
            misses,
        }
    }
}

/// What an entry holds on the heap beyond its text's bytes: each
/// allocation at its requested size plus [`ALLOC_SLACK`]. They are the
/// shared statement (`Arc` counts included), the workload vector, one
/// `Predicate` per boxed `NOT`/`AND`/`OR` operand, each attribute name or
/// string literal, and the key's copy of the text (its slack only). The
/// walk recurses on the trees, which the parser bounds to
/// `apex_query::parser::MAX_PREDICATE_DEPTH` levels.
fn tree_bytes(parsed: &ParsedQuery) -> usize {
    fn alloc(bytes: usize) -> usize {
        if bytes == 0 {
            0
        } else {
            bytes + ALLOC_SLACK
        }
    }
    fn node(p: &Predicate) -> usize {
        let boxed = alloc(size_of::<Predicate>());
        match p {
            Predicate::True => 0,
            Predicate::Range { attr, .. } | Predicate::IsNull { attr } => alloc(attr.capacity()),
            Predicate::Cmp { attr, value, .. } => {
                let literal = match value {
                    Value::Str(s) => s.capacity(),
                    _ => 0,
                };
                alloc(attr.capacity()) + alloc(literal)
            }
            Predicate::Not(a) => boxed + node(a),
            Predicate::And(a, b) | Predicate::Or(a, b) => 2 * boxed + node(a) + node(b),
        }
    }
    let workload = &parsed.query.workload;
    alloc(2 * size_of::<usize>() + size_of::<ParsedQuery>())
        + alloc(workload.capacity() * size_of::<Predicate>())
        + workload.iter().map(node).sum::<usize>()
        + ALLOC_SLACK
}

/// What the allocator may add to one allocation: glibc `malloc` keeps an
/// 8-byte header and rounds each chunk up to 16 bytes, at least 32.
const ALLOC_SLACK: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;

    fn text(i: usize) -> String {
        format!("BIN d ON COUNT(*) WHERE {{ v IN [0, {i}) }} ERROR 8 CONFIDENCE 0.95;")
    }

    #[test]
    fn a_hit_shares_the_first_parse() {
        let memo = ParseMemo::default();
        let first = memo.parse(&text(1)).unwrap();
        let again = memo.parse(&text(1)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
        assert_eq!(stats.bytes, text(1).len() + tree_bytes(&first));
    }

    #[test]
    fn parse_errors_are_never_kept() {
        let memo = ParseMemo::default();
        for _ in 0..3 {
            assert!(memo
                .parse("BIN d ON COUNT(*) WHERE { v IN [0, 1 };")
                .is_err());
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!((stats.hits, stats.misses), (0, 3));
    }

    #[test]
    fn the_byte_cap_evicts_the_least_recently_used_text() {
        let one = text(1).len() + tree_bytes(&parse_query(&text(1)).unwrap());
        // Room for two entries of this size, not three.
        let memo = ParseMemo::with_caps(MAX_PARSES, 2 * one + one / 2);
        memo.parse(&text(1)).unwrap();
        memo.parse(&text(2)).unwrap();
        memo.parse(&text(1)).unwrap(); // 2 is now the oldest
        memo.parse(&text(3)).unwrap();
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (2, 1, 3));
        memo.parse(&text(1)).unwrap();
        assert_eq!(memo.stats().hits, 2, "1 stayed");
        memo.parse(&text(2)).unwrap();
        assert_eq!(memo.stats().hits, 2, "2 was evicted");
    }

    #[test]
    fn a_text_over_the_byte_cap_is_parsed_and_never_kept() {
        let big = format!(
            "BIN d ON COUNT(*) WHERE {{ {} }} ERROR 8 CONFIDENCE 0.95;",
            vec!["v IN [0, 1)"; 200].join(", ")
        );
        let memo = ParseMemo::with_caps(MAX_PARSES, big.len());
        memo.parse(&text(1)).unwrap();
        for _ in 0..2 {
            assert_eq!(memo.parse(&big).unwrap().query.len(), 200);
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 0, 3));
    }

    #[test]
    fn the_charge_covers_every_node() {
        let flat = parse_query("BIN d ON COUNT(*) WHERE { v = 1 };").unwrap();
        let nested = parse_query("BIN d ON COUNT(*) WHERE { NOT (v = 1 AND w = 'x') };").unwrap();
        // Three boxed operands, one more name and a string literal.
        let boxed = size_of::<Predicate>() + ALLOC_SLACK;
        assert!(tree_bytes(&nested) >= tree_bytes(&flat) + 3 * boxed + 2 * (1 + ALLOC_SLACK));
    }

    fn range(attr: &str, lo: impl std::fmt::Display, hi: impl std::fmt::Display) -> String {
        format!("{attr} IN [{lo}, {hi})")
    }

    fn tenths(i: usize) -> String {
        format!("{}.{}", i / 10, i % 10)
    }

    fn shape(table: &str, preds: &[String], tail: &str) -> String {
        let preds = preds.join(", ");
        format!("BIN {table} ON COUNT(*) WHERE W = {{ {preds} }}{tail}")
    }

    fn having(n: usize, share: f64) -> String {
        format!(" HAVING COUNT(*) > {}", share * n as f64)
    }

    fn top(k: usize) -> String {
        format!(" ORDER BY COUNT(*) DESC LIMIT {k}")
    }

    /// `a AND b` over every pair of `outer` × `inner`.
    fn crossed(
        outer: impl Iterator<Item = usize>,
        inner: std::ops::RangeInclusive<usize>,
        pred: impl Fn(usize, usize) -> String,
    ) -> Vec<String> {
        outer
            .flat_map(|a| inner.clone().map(move |b| (a, b)))
            .map(|(a, b)| pred(a, b))
            .collect()
    }

    /// `a >= ·` and `b >= ·` for `n` steps.
    fn cumulative(
        n: usize,
        a: impl Fn(usize) -> String,
        b: impl Fn(usize) -> String,
    ) -> Vec<String> {
        (0..n).flat_map(|i| [a(i), b(i)]).collect()
    }

    /// The request benchmark's repeating statements (its generator's
    /// Table-1 shapes, copied): `explore_hot`'s 50 texts — 6 shapes × 2
    /// tenants × 4 α plus a must-deny text per tenant — and
    /// `paged_mutating`'s 8 shapes × 4 α.
    pub(crate) fn table1_texts() -> (Vec<String>, Vec<String>) {
        let n = apex_data::synth::ADULT_SIZE;
        let hist: Vec<_> = (0..100)
            .map(|i| range("capital_gain", 50 * i, 50 * (i + 1)))
            .collect();
        let prefix: Vec<_> = (1..=100)
            .map(|i| range("capital_gain", 0, 50 * i))
            .collect();
        let by_sex = crossed(0..50, 0..=1, |i, s| {
            let bin = range("capital_gain", 100 * i, 100 * (i + 1));
            format!("{bin} AND sex = '{}'", ["M", "F"][s])
        });
        let ages: Vec<_> = (0..100).map(|i| format!("age = {i}")).collect();
        let steps = cumulative(
            50,
            |i| format!("age >= {}", 17 + 73 * i / 50),
            |i| format!("hours_per_week >= {}", 1 + 2 * i),
        );
        let adult = [
            shape("adult", &hist, ""),
            shape("adult", &prefix, ""),
            shape("adult", &prefix, &having(n, 0.1)),
            shape("adult", &by_sex, &having(n, 0.1)),
            shape("adult", &ages, &top(10)),
            shape("adult", &steps, &top(10)),
        ];

        let m = 100_000;
        let fine = |attr: &str| -> Vec<String> {
            (0..100)
                .map(|i| range(attr, tenths(i), tenths(i + 1)))
                .collect()
        };
        let by_passenger = crossed(0..10, 1..=10, |a, p| {
            let bin = range("total_amount", a, a + 1);
            format!("{bin} AND passenger_count = {p}")
        });
        let zone_pairs = crossed(1..11, 1..=10, |pu, d| format!("puid = {pu} AND doid = {d}"));
        let steps = cumulative(
            50,
            |i| format!("trip_distance >= {}", tenths(2 * i)),
            |i| format!("fare_amount >= {i}"),
        );
        let taxi = [
            shape("taxi", &fine("trip_distance"), ""),
            shape("taxi", &by_passenger, ""),
            shape("taxi", &fine("fare_amount"), &having(m, 0.1)),
            shape("taxi", &fine("total_amount"), &having(m, 0.1)),
            shape("taxi", &zone_pairs, &top(10)),
            shape("taxi", &steps, &top(10)),
        ];

        let p = 20_000;
        let bins = |attr: &str, w: usize| -> Vec<String> {
            (0..25)
                .map(|i| range(attr, tenths(w * i), tenths(w * (i + 1))))
                .collect()
        };
        let prefix =
            |attr: &str| -> Vec<String> { (1..=20).map(|i| range(attr, 0, 2 * i)).collect() };
        let by_passenger = crossed(0..5, 1..=5, |a, p| {
            let bin = range("total_amount", 4 * a, 4 * (a + 1));
            format!("{bin} AND passenger_count = {p}")
        });
        let zones: Vec<_> = (1..=30).map(|z| format!("puid = {z}")).collect();
        let zone_pairs = crossed(1..6, 1..=5, |pu, d| format!("puid = {pu} AND doid = {d}"));
        let steps = cumulative(
            12,
            |i| format!("trip_distance >= {}", tenths(5 * i)),
            |i| format!("fare_amount >= {}", 3 * i),
        );
        let paged = [
            shape("taxi", &bins("trip_distance", 4), ""),
            shape("taxi", &prefix("fare_amount"), ""),
            shape("taxi", &by_passenger, ""),
            shape("taxi", &bins("fare_amount", 8), &having(p, 0.02)),
            shape("taxi", &prefix("total_amount"), &having(p, 0.02)),
            shape("taxi", &zones, &top(5)),
            shape("taxi", &zone_pairs, &top(5)),
            shape("taxi", &steps, &top(5)),
        ];

        let statement =
            |shape: &str, alpha: f64| format!("{shape} ERROR {alpha} CONFIDENCE {};", 1.0 - 5e-4);
        let levels = [0.01, 0.02, 0.04, 0.08];
        let mut explore = Vec::new();
        for (shapes, size) in [(&adult, n), (&taxi, m)] {
            for shape in shapes {
                explore.extend(levels.iter().map(|l| statement(shape, l * size as f64)));
            }
            explore.push(statement(&shapes[0], 1e-6 * size as f64));
        }
        let paged = paged
            .iter()
            .flat_map(|shape| levels.iter().map(|l| statement(shape, l * p as f64)))
            .collect();
        (explore, paged)
    }

    #[test]
    fn a_hit_is_the_fresh_parse_for_every_benchmark_statement() {
        let (explore, paged) = table1_texts();
        assert_eq!(explore.len(), 50);
        let memo = ParseMemo::default();
        for text in explore.iter().chain(&paged) {
            let fresh = parse_query(text).unwrap();
            memo.parse(text).unwrap();
            let hit = memo.parse(text).unwrap();
            assert_eq!(
                apex_core::memo::key_of(&hit.query.workload),
                apex_core::memo::key_of(&fresh.query.workload)
            );
            assert_eq!(hit.query.kind, fresh.query.kind);
            assert_eq!(hit.accuracy, fresh.accuracy);
            assert!(hit.accuracy.is_some());
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, explore.len() + paged.len());
        assert_eq!(
            (stats.hits, stats.misses),
            (stats.entries as u64, stats.entries as u64)
        );
    }

    #[test]
    fn the_caps_hold_the_exploration_mix_twice_over() {
        let (explore, _) = table1_texts();
        let memo = ParseMemo::default();
        for text in &explore {
            memo.parse(text).unwrap();
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, explore.len());
        assert!(2 * stats.entries <= MAX_PARSES);
        assert!(2 * stats.bytes <= MAX_PARSE_BYTES, "{} bytes", stats.bytes);
    }
}
