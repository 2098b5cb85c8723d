//! The compile memo: each engine compiles a workload once.
//!
//! The compile step `W ← T(W)` of Section 5 reads only the public schema
//! and the workload, never `D`, and an exploration session asks the same
//! few workloads again and again. [`CompileMemo`] maps a workload's
//! predicate list to its `Arc<CompiledWorkload>`, so
//! [`EvalContext::evaluate`](crate::EvalContext::evaluate) compiles only on
//! a miss — pay the preprocessing once per query, then constant work per
//! evaluation (Berkholz et al., PAPERS.md).
//!
//! * **Key.** The predicates as bytes, every `f64` by its bits: a hit is
//!   only ever a byte-identical workload. The query kind is not in the
//!   key, so WCQ, ICQ and TCQ over one workload share one compile.
//! * **Schema.** An entry keeps the `Arc<Schema>` it was compiled against
//!   and hits only for that very pointer ([`Dataset::schema_arc`]). A
//!   widening insert installs a new `Arc`, so a compile from before it
//!   never matches after it — not even one that an evaluate racing the
//!   widening inserts late. The entry owns its `Arc`, so the address
//!   cannot be reused while the entry lives.
//! * **Bounds.** [`MAX_COMPILES`] entries and [`MAX_COMPILE_BYTES`] bytes
//!   per engine, least-recently-used out first. The compile itself runs
//!   outside the lock; two racing misses both compile, identically.
//! * **Privacy.** Whether a lookup hits depends only on the query text and
//!   the public schema.
//!
//! [`Dataset::schema_arc`]: apex_data::Dataset::schema_arc

use std::sync::Arc;

use apex_data::{BoundedLru, CacheStats, Predicate, Schema, Value};
use apex_mech::PreparedQuery;
use apex_query::{CompiledWorkload, ExplorationQuery, WorkloadError};
use parking_lot::Mutex;

/// Most compiled workloads one engine keeps.
pub const MAX_COMPILES: usize = 64;

/// Most bytes (partition tables, CSR and key) one engine's compiled
/// workloads may hold together. The six Table-1 shapes of one tenant take
/// about 3.3 MB.
pub const MAX_COMPILE_BYTES: usize = 8 << 20;

/// Counters and sizes of one engine's compile memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Compiled workloads currently held.
    pub entries: usize,
    /// Bytes they account for.
    pub bytes: usize,
    /// Prepares answered from the memo.
    pub hits: u64,
    /// Prepares that compiled.
    pub misses: u64,
}

/// Predicate-list key → the schema compiled against, and the compile.
type Memo = BoundedLru<Vec<u8>, (Arc<Schema>, Arc<CompiledWorkload>)>;

/// A cloneable handle to one engine's compile memo (see the module docs).
#[derive(Debug, Clone)]
pub struct CompileMemo(Arc<Mutex<Memo>>);

impl Default for CompileMemo {
    fn default() -> Self {
        let memo = Memo::new(MAX_COMPILES, MAX_COMPILE_BYTES);
        Self(Arc::new(Mutex::new(memo)))
    }
}

impl CompileMemo {
    /// [`PreparedQuery::prepare`], compiling only when this workload was
    /// not compiled against this very `schema` before.
    ///
    /// # Errors
    /// Compilation failures, which are not memoised.
    pub fn prepare(
        &self,
        schema: &Arc<Schema>,
        query: &ExplorationQuery,
    ) -> Result<PreparedQuery, WorkloadError> {
        let key = key_of(&query.workload);
        let hit = self
            .0
            .lock()
            .get(&key, |(s, _)| Arc::ptr_eq(s, schema))
            .map(|(_, c)| c.clone());
        if let Some(compiled) = hit {
            return Ok(PreparedQuery::new(compiled, query.kind));
        }
        let prepared = PreparedQuery::prepare(schema, query)?;
        // The partition's tables plus the CSR's index and value per nonzero.
        let compiled = prepared.compiled();
        let bytes = key.len() + compiled.partition().heap_bytes() + 16 * compiled.csr().nnz();
        let entry = (schema.clone(), compiled.clone());
        self.0.lock().insert(key, entry, bytes);
        Ok(prepared)
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> CompileStats {
        let memo = self.0.lock();
        let CacheStats { hits, misses, .. } = memo.stats();
        CompileStats {
            entries: memo.len(),
            bytes: memo.bytes(),
            hits,
            misses,
        }
    }
}

/// The predicates as bytes — the memo's key. A node is a tag, a
/// length-prefixed string and the 64-bit words its tag implies (floats by
/// their bits), so nodes delimit themselves and equal keys are
/// byte-identical workloads.
pub fn key_of(workload: &[Predicate]) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, tag: u8, text: &str, words: &[u64]) {
        out.push(tag);
        out.extend((text.len() as u32).to_le_bytes());
        out.extend(text.as_bytes());
        words.iter().for_each(|w| out.extend(w.to_le_bytes()));
    }
    fn node(out: &mut Vec<u8>, p: &Predicate) {
        match p {
            Predicate::True => put(out, 0, "", &[]),
            Predicate::Range { attr, low, high } => {
                put(out, 1, attr, &[low.to_bits(), high.to_bits()]);
            }
            Predicate::IsNull { attr } => put(out, 2, attr, &[]),
            Predicate::Cmp { attr, op, value } => {
                put(out, 3, attr, &[*op as u64]);
                match value {
                    Value::Int(i) => put(out, 0, "", &[*i as u64]),
                    Value::Float(f) => put(out, 1, "", &[f.to_bits()]),
                    Value::Str(s) => put(out, 2, s, &[]),
                    Value::Bool(b) => put(out, 3, "", &[u64::from(*b)]),
                    Value::Null => put(out, 4, "", &[]),
                }
            }
            Predicate::Not(a) => {
                put(out, 4, "", &[]);
                node(out, a);
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                let tag = if matches!(p, Predicate::And(..)) {
                    5
                } else {
                    6
                };
                put(out, tag, "", &[]);
                node(out, a);
                node(out, b);
            }
        }
    }
    let mut out = Vec::new();
    workload.iter().for_each(|p| node(&mut out, p));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::{Attribute, CmpOp, Domain};

    fn schema(max: i64) -> Arc<Schema> {
        Arc::new(Schema::new(vec![Attribute::new("v", Domain::IntRange { min: 0, max })]).unwrap())
    }

    /// Prefix ranges plus an open end, whose cell grows with the domain.
    fn workload() -> Vec<Predicate> {
        (1..=8)
            .map(|i| Predicate::range("v", 0.0, (8 * i) as f64))
            .chain([Predicate::cmp("v", CmpOp::Ge, 64_i64)])
            .collect()
    }

    #[test]
    fn the_three_kinds_over_one_workload_share_one_compile() {
        let (memo, s) = (CompileMemo::default(), schema(63));
        let w = workload();
        let queries = [
            ExplorationQuery::wcq(w.clone()),
            ExplorationQuery::icq(w.clone(), 10.0),
            ExplorationQuery::tcq(w, 3),
        ];
        let prepared: Vec<_> = queries
            .iter()
            .map(|q| memo.prepare(&s, q).unwrap())
            .collect();
        for (p, q) in prepared.iter().zip(&queries) {
            assert!(Arc::ptr_eq(p.compiled(), prepared[0].compiled()));
            assert_eq!(p.kind(), q.kind);
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 2, 1));
        assert!(stats.bytes >= prepared[0].compiled().partition().heap_bytes());
    }

    #[test]
    fn keys_compare_floats_by_their_bits() {
        let key = |low: f64| key_of(&[Predicate::range("v", low, 1.0)]);
        assert_eq!(key(0.5), key(0.5));
        assert_ne!(key(0.0), key(-0.0));
        let cmp = |v: Value| key_of(&[Predicate::cmp("v", CmpOp::Eq, v)]);
        assert_ne!(cmp(Value::Int(1)), cmp(Value::Float(1.0)));
        // Node boundaries are unambiguous: (a AND b) OR c ≠ a AND (b OR c).
        let (a, b, c) = (Predicate::True, Predicate::is_null("v"), Predicate::True);
        assert_ne!(
            key_of(&[a.clone().and(b.clone()).or(c.clone())]),
            key_of(&[a.and(b.or(c))])
        );
    }

    #[test]
    fn a_schema_version_never_hits_another_ones_compile() {
        // Threads prepare against two schema versions at once (as evaluates
        // racing a widening insert do); every answer must be the compile
        // for the schema asked with, and the memo ends up serving both.
        let memo = CompileMemo::default();
        let versions = [schema(63), schema(500)];
        let query = ExplorationQuery::wcq(workload());
        let fresh: Vec<_> = versions
            .iter()
            .map(|s| CompiledWorkload::compile(s, &query.workload).unwrap())
            .collect();
        assert_ne!(fresh[0].signature(), fresh[1].signature());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (memo, versions, query, fresh) = (&memo, &versions, &query, &fresh);
                scope.spawn(move || {
                    for i in 0..200 {
                        let v = (i * 7 + t) % 2;
                        let p = memo.prepare(&versions[v], query).unwrap();
                        let c = p.compiled();
                        assert_eq!(c.schema(), &*versions[v]);
                        assert_eq!(c.signature(), fresh[v].signature());
                        assert!(c.partition().same_mapping(fresh[v].partition()));
                    }
                });
            }
        });
        let stats = memo.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert_eq!(stats.entries, 1);
    }
}
