//! Workload-driven domain partitioning — the transformation
//! `W ← T(W), x ← T_W(D)` of Section 5.
//!
//! Given a workload `W = {φ₁, …, φ_L}`, the full domain `dom(R)` is
//! partitioned into the coarsest set of cells such that every predicate is
//! a union of cells; the workload then becomes an `L × |dom_W(R)|` 0/1
//! incidence structure and the dataset becomes a histogram `x` over the
//! cells. The paper notes the naive partition can have `2^L` classes; like
//! the paper we build it bottom-up from the *elementary* cells induced by
//! the atomic conditions of the predicates and then merge cells with
//! identical predicate signatures, which minimizes the cell count.
//!
//! The construction is data-independent (only the public schema and the
//! workload are consulted), which is essential: the matrix `W` and its
//! sensitivity `‖W‖₁` must not leak anything about `D`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::predicate::CmpOp;
use crate::{Dataset, Domain, Predicate, Schema, SchemaError, Value};

/// Errors raised while partitioning a domain against a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// A predicate references an attribute missing from the schema.
    Schema(SchemaError),
    /// The elementary cell grid would exceed [`DomainPartition::MAX_CELLS`],
    /// or cells × predicates [`DomainPartition::MAX_CELL_EVALS`].
    TooManyCells {
        /// Number of elementary cells the workload would induce.
        cells: usize,
        /// Number of predicates evaluated on each of them.
        predicates: usize,
    },
    /// The workload is empty.
    EmptyWorkload,
}

impl From<SchemaError> for PartitionError {
    fn from(e: SchemaError) -> Self {
        PartitionError::Schema(e)
    }
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Schema(e) => write!(f, "schema error: {e}"),
            PartitionError::TooManyCells { cells, predicates } => write!(
                f,
                "workload of {predicates} predicates induces {cells} elementary cells \
                 (over the limit)"
            ),
            PartitionError::EmptyWorkload => write!(f, "workload has no predicates"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Per-attribute elementary segmentation.
#[derive(Debug, Clone, PartialEq)]
enum AttrSegments {
    /// Numeric attribute: sorted cut positions `c₁ < … < c_k` partitioning
    /// the domain into `[min, c₁), [c₁, c₂), …, [c_k, end)`, plus one NULL
    /// segment at index `cuts.len() + 1`. Segment `i < cuts.len()+1` starts
    /// at `starts[i]`.
    Numeric { starts: Vec<f64>, is_int: bool },
    /// Categorical/text attribute: one segment per mentioned value, one
    /// "other" segment, one NULL segment (last).
    Categorical {
        mentioned: Vec<String>,
        /// Representative string for the "other" segment — a value outside
        /// `mentioned` (and for finite categorical domains, a real unused
        /// category when one exists).
        other_rep: Option<String>,
    },
    /// Boolean: segments `[false, true, NULL]`.
    Boolean,
}

impl AttrSegments {
    fn len(&self) -> usize {
        match self {
            AttrSegments::Numeric { starts, .. } => starts.len() + 1, // + NULL
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            } => mentioned.len() + usize::from(other_rep.is_some()) + 1,
            AttrSegments::Boolean => 3,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            AttrSegments::Numeric { starts, .. } => std::mem::size_of_val(starts.as_slice()),
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            } => mentioned
                .iter()
                .chain(other_rep)
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum(),
            AttrSegments::Boolean => 0,
        }
    }

    /// Representative value of segment `i` (the NULL segment is last).
    fn representative(&self, i: usize) -> Value {
        match self {
            AttrSegments::Numeric { starts, is_int } => {
                if i == starts.len() {
                    Value::Null
                } else if *is_int {
                    Value::Int(starts[i] as i64)
                } else {
                    Value::Float(starts[i])
                }
            }
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            } => {
                if i < mentioned.len() {
                    Value::Str(mentioned[i].clone())
                } else if i == mentioned.len() && other_rep.is_some() {
                    Value::Str(other_rep.clone().unwrap())
                } else {
                    Value::Null
                }
            }
            AttrSegments::Boolean => match i {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                _ => Value::Null,
            },
        }
    }

    /// Segment index of a concrete value.
    fn locate(&self, v: &Value) -> usize {
        match self {
            AttrSegments::Numeric { starts, .. } => match v.as_f64() {
                None => starts.len(), // NULL segment
                Some(x) => {
                    // Largest i with starts[i] <= x; starts[0] is the domain
                    // minimum so x < starts[0] clamps to 0.
                    match starts.binary_search_by(|s| s.partial_cmp(&x).unwrap()) {
                        Ok(i) => i,
                        Err(0) => 0,
                        Err(i) => i - 1,
                    }
                }
            },
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            } => match v {
                Value::Str(s) => mentioned
                    .iter()
                    .position(|m| m == s)
                    .unwrap_or(mentioned.len()),
                _ => mentioned.len() + usize::from(other_rep.is_some()), // NULL segment
            },
            AttrSegments::Boolean => match v {
                Value::Bool(false) => 0,
                Value::Bool(true) => 1,
                _ => 2,
            },
        }
    }
}

/// Collected atomic conditions for one attribute.
#[derive(Debug, Default)]
struct AttrConditions {
    /// Numeric cut positions in half-open normal form: every comparison is
    /// rewritten so a cut at `c` means "cells split into `< c` and `>= c`".
    cuts: Vec<f64>,
    /// Mentioned categorical/text constants.
    strings: Vec<String>,
    /// Whether any boolean constant is compared against.
    boolean: bool,
}

/// The result of partitioning `dom(R)` against a workload.
///
/// `incidence[i]` lists, for predicate `φᵢ`, the cell indices it covers;
/// [`DomainPartition::histogram`] turns a dataset into the cell-count
/// vector `x`. The workload answer is then `W x` with
/// `W[i][j] = 1 ⇔ j ∈ incidence[i]`.
#[derive(Debug, Clone)]
pub struct DomainPartition {
    n_cells: usize,
    n_predicates: usize,
    /// `incidence[i]` = sorted cell ids covered by predicate `i`.
    incidence: Vec<Vec<usize>>,
    /// Attributes (schema indices) that drive the partition.
    attrs: Vec<usize>,
    /// Per-attribute segmentations, parallel to `attrs`.
    segments: Vec<AttrSegments>,
    /// elementary cell id (mixed radix over segments) → merged cell id.
    elementary_to_cell: Vec<usize>,
    /// Hash of the row→cell mapping (see [`Self::mapping_hash`]).
    mapping_hash: u64,
}

impl DomainPartition {
    /// Upper bound on the elementary cell grid, guarding against predicate
    /// sets whose cross-product blows up.
    pub const MAX_CELLS: usize = 4_000_000;

    /// Upper bound on elementary cells × predicates — the predicate
    /// evaluations a build costs (≈ 40 ns each), checked before anything
    /// is allocated. The largest workloads in the repository's tests,
    /// figures and benchmark are Table 1's QT2 and QT4 (2 601 × 100 =
    /// 260 100); this allows 32× that, about 0.3 s of build.
    pub const MAX_CELL_EVALS: usize = 1 << 23;

    /// Builds the minimal partition of `dom(R)` for `workload`.
    ///
    /// # Errors
    /// * [`PartitionError::EmptyWorkload`] for an empty workload.
    /// * [`PartitionError::Schema`] if a predicate references an unknown
    ///   attribute.
    /// * [`PartitionError::TooManyCells`] if the elementary grid exceeds
    ///   [`Self::MAX_CELLS`], or grid × predicates exceeds
    ///   [`Self::MAX_CELL_EVALS`].
    pub fn build(schema: &Schema, workload: &[Predicate]) -> Result<Self, PartitionError> {
        if workload.is_empty() {
            return Err(PartitionError::EmptyWorkload);
        }

        // 1. Collect atomic conditions per referenced attribute.
        let mut conds: HashMap<usize, AttrConditions> = HashMap::new();
        for pred in workload {
            collect_conditions(schema, pred, &mut conds)?;
        }

        let mut attrs: Vec<usize> = conds.keys().copied().collect();
        attrs.sort_unstable();

        // 2. Build per-attribute elementary segmentations.
        let mut segments = Vec::with_capacity(attrs.len());
        for &ai in &attrs {
            let attr = &schema.attributes()[ai];
            let c = conds.remove(&ai).unwrap_or_default();
            segments.push(build_segments(&attr.domain, c));
        }

        // 3. Size check on the elementary grid.
        let (grid, predicates) = (
            segments.iter().fold(1, |g, s| s.len().saturating_mul(g)),
            workload.len(),
        );
        if grid > Self::MAX_CELLS || grid.saturating_mul(predicates) > Self::MAX_CELL_EVALS {
            return Err(PartitionError::TooManyCells {
                cells: grid,
                predicates,
            });
        }

        // 4. Evaluate every predicate on every elementary cell's
        //    representative tuple, then merge cells by signature.
        let arity = schema.arity();
        let mut rep_row: Vec<Value> = vec![Value::Null; arity];
        let mut radix_idx = vec![0usize; segments.len()];
        let words = workload.len().div_ceil(64);

        let mut signature_to_cell: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut elementary_to_cell = Vec::with_capacity(grid);
        let mut incidence: Vec<Vec<usize>> = vec![Vec::new(); workload.len()];
        let mut n_cells = 0usize;

        for _ in 0..grid {
            for (k, &ai) in attrs.iter().enumerate() {
                rep_row[ai] = segments[k].representative(radix_idx[k]);
            }
            let mut sig = vec![0u64; words];
            for (pi, pred) in workload.iter().enumerate() {
                if pred.eval(schema, &rep_row)? {
                    sig[pi / 64] |= 1 << (pi % 64);
                }
            }
            let cell = *signature_to_cell.entry(sig.clone()).or_insert_with(|| {
                let id = n_cells;
                n_cells += 1;
                for (pi, inc) in incidence.iter_mut().enumerate() {
                    if sig[pi / 64] >> (pi % 64) & 1 == 1 {
                        inc.push(id);
                    }
                }
                id
            });
            elementary_to_cell.push(cell);

            // Advance mixed-radix counter.
            for k in 0..segments.len() {
                radix_idx[k] += 1;
                if radix_idx[k] < segments[k].len() {
                    break;
                }
                radix_idx[k] = 0;
            }
        }

        Ok(Self {
            n_cells,
            n_predicates: workload.len(),
            incidence,
            attrs,
            segments,
            elementary_to_cell,
            mapping_hash: 0,
        }
        .with_mapping_hash())
    }

    fn with_mapping_hash(mut self) -> Self {
        let mut h = DefaultHasher::new();
        (self.n_cells, &self.attrs, &self.elementary_to_cell).hash(&mut h);
        // Floats print round-trip exact, so equal text is equal boundaries.
        format!("{:?}", self.segments).hash(&mut h);
        self.mapping_hash = h.finish();
        self
    }

    /// The first attribute, an integer, cut at every value of `0..cells`, each
    /// segment (and NULL) its own cell — what `build` yields for a
    /// `cells`-bin unit histogram, minus the predicates. Lets cache-cap
    /// tests make a partition of a chosen size without compiling one.
    #[cfg(test)]
    pub(crate) fn identity_grid(cells: usize) -> Self {
        Self {
            n_cells: cells + 1,
            n_predicates: 0,
            incidence: Vec::new(),
            attrs: vec![0],
            segments: vec![AttrSegments::Numeric {
                starts: (0..cells).map(|c| c as f64).collect(),
                is_int: true,
            }],
            elementary_to_cell: (0..=cells).collect(),
            mapping_hash: 0,
        }
        .with_mapping_hash()
    }

    /// Number of merged cells `|dom_W(R)|`.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Number of predicates `L` in the workload this partition serves.
    pub fn n_predicates(&self) -> usize {
        self.n_predicates
    }

    /// Sorted cell ids covered by predicate `i`.
    pub fn cells_of(&self, i: usize) -> &[usize] {
        &self.incidence[i]
    }

    /// The `L × n_cells` 0/1 workload rows (dense).
    pub fn incidence_rows(&self) -> Vec<Vec<f64>> {
        self.incidence
            .iter()
            .map(|cells| {
                let mut row = vec![0.0; self.n_cells];
                for &c in cells {
                    row[c] = 1.0;
                }
                row
            })
            .collect()
    }

    /// Merged cell id of one concrete row.
    ///
    /// Public so the query layer can fold a row mutation into an existing
    /// histogram in O(1) per row instead of rescanning the dataset. The
    /// row must lie within the domain this partition was built over
    /// (values below/above the numeric coverage clamp to the edge cells —
    /// callers maintaining histograms incrementally must check domain
    /// membership first and extend the partition when it grows).
    pub fn cell_of_row(&self, row: &[Value]) -> usize {
        let mut idx = 0usize;
        let mut stride = 1usize;
        for (k, &ai) in self.attrs.iter().enumerate() {
            idx += stride * self.segments[k].locate(&row[ai]);
            stride *= self.segments[k].len();
        }
        self.elementary_to_cell[idx]
    }

    /// The histogram `x = T_W(D)` by a full scan: counts of `D`'s tuples
    /// per merged cell. This is the miss path of the dataset's maintained
    /// views and the reference they are audited against — serving code
    /// asks [`Dataset::histogram`], which scans only for a partition it
    /// has not seen.
    ///
    /// Streams rows (page-by-page for a paged dataset), so memory is
    /// bounded by the buffer pool even when `D` exceeds RAM.
    pub fn histogram(&self, data: &Dataset) -> Vec<f64> {
        let mut x = vec![0.0; self.n_cells];
        data.for_each_row(|row| {
            x[self.cell_of_row(row)] += 1.0;
        });
        x
    }

    /// The fold primitive of incremental maintenance: reports `(cell, +1)`
    /// for every inserted row and `(cell, −1)` for every deleted one, in
    /// O(rows). Folding these into a histogram of the pre-mutation rows
    /// yields, bit for bit, the histogram of the post-mutation rows —
    /// provided every row lies inside the domain this partition was built
    /// over (see [`Self::cell_of_row`]).
    pub fn fold_rows(
        &self,
        inserted: &[Vec<Value>],
        deleted: &[Vec<Value>],
        mut f: impl FnMut(usize, f64),
    ) {
        for row in inserted {
            f(self.cell_of_row(row), 1.0);
        }
        for row in deleted {
            f(self.cell_of_row(row), -1.0);
        }
    }

    /// Whether `other` sends every row to the same cell as `self`: same
    /// driving attributes, same segment boundaries, same elementary→merged
    /// table. This — not the predicates, and not the incidence matrix,
    /// which prefix workloads with different cuts share — is what makes
    /// two partitions' histograms interchangeable.
    pub fn same_mapping(&self, other: &DomainPartition) -> bool {
        self.n_cells == other.n_cells
            && self.attrs == other.attrs
            && self.segments == other.segments
            && self.elementary_to_cell == other.elementary_to_cell
    }

    /// A 64-bit hash of the row→cell mapping, computed once at build:
    /// partitions with [`Self::same_mapping`] and bit-equal boundaries
    /// hash alike. Finds a maintained view; `same_mapping` confirms it.
    pub fn mapping_hash(&self) -> u64 {
        self.mapping_hash
    }

    /// Approximate heap footprint of the partition's own tables, for the
    /// byte cap on cached views.
    pub fn heap_bytes(&self) -> usize {
        let words = self.attrs.len()
            + self.elementary_to_cell.len()
            + self.incidence.iter().map(Vec::len).sum::<usize>();
        words * std::mem::size_of::<usize>()
            + self
                .segments
                .iter()
                .map(AttrSegments::heap_bytes)
                .sum::<usize>()
    }

    /// Maps every merged cell of `self` to the merged cell of `new` that
    /// contains it, when `new` was built from the **same workload** over a
    /// (possibly widened) domain. Returns `None` if the partitions are
    /// structurally incompatible — some old cell straddles two new cells —
    /// which cannot happen for pure domain growth (widening only adds
    /// boundaries outside the old coverage) but is checked rather than
    /// assumed.
    ///
    /// With this map, a histogram over the old partition carries over to
    /// the new one in O(n_cells) (`x_new[map[c]] += x_old[c]`) instead of
    /// an O(|D|) rescan: every old row lies inside the old domain, so its
    /// old cell's representative locates it correctly in the new grid.
    pub fn remap_to(&self, new: &DomainPartition) -> Option<Vec<usize>> {
        if self.attrs != new.attrs || self.n_predicates != new.n_predicates {
            return None;
        }
        let arity = self.attrs.iter().max().map_or(0, |&a| a + 1);
        let mut rep_row: Vec<Value> = vec![Value::Null; arity];
        let mut radix_idx = vec![0usize; self.segments.len()];
        let mut map: Vec<Option<usize>> = vec![None; self.n_cells];
        for &old_cell in &self.elementary_to_cell {
            for (k, &ai) in self.attrs.iter().enumerate() {
                rep_row[ai] = self.segments[k].representative(radix_idx[k]);
            }
            let new_cell = new.cell_of_row(&rep_row);
            match map[old_cell] {
                None => map[old_cell] = Some(new_cell),
                Some(prev) if prev == new_cell => {}
                Some(_) => return None, // old cell straddles two new cells
            }
            for (idx, seg) in radix_idx.iter_mut().zip(&self.segments) {
                *idx += 1;
                if *idx < seg.len() {
                    break;
                }
                *idx = 0;
            }
        }
        map.into_iter().collect()
    }
}

/// Recursively collects atomic conditions of `pred` into `conds`.
fn collect_conditions(
    schema: &Schema,
    pred: &Predicate,
    conds: &mut HashMap<usize, AttrConditions>,
) -> Result<(), SchemaError> {
    match pred {
        Predicate::True => Ok(()),
        Predicate::Cmp { attr, op, value } => {
            let ai = schema.index_of(attr)?;
            let entry = conds.entry(ai).or_default();
            match value {
                Value::Int(c) => {
                    let c = *c as f64;
                    // Normalize to half-open cuts over the integers.
                    match op {
                        CmpOp::Lt | CmpOp::Ge => entry.cuts.push(c),
                        CmpOp::Le | CmpOp::Gt => entry.cuts.push(c + 1.0),
                        CmpOp::Eq | CmpOp::Ne => {
                            entry.cuts.push(c);
                            entry.cuts.push(c + 1.0);
                        }
                    }
                }
                Value::Float(c) => {
                    match op {
                        CmpOp::Lt | CmpOp::Ge => entry.cuts.push(*c),
                        // For continuous domains `<= c` differs from `< c`
                        // only on the measure-zero point c; cut just above.
                        CmpOp::Le | CmpOp::Gt => entry.cuts.push(next_up(*c)),
                        CmpOp::Eq | CmpOp::Ne => {
                            entry.cuts.push(*c);
                            entry.cuts.push(next_up(*c));
                        }
                    }
                }
                Value::Str(s) => entry.strings.push(s.clone()),
                Value::Bool(_) => entry.boolean = true,
                Value::Null => {}
            }
            Ok(())
        }
        Predicate::Range { attr, low, high } => {
            let ai = schema.index_of(attr)?;
            let entry = conds.entry(ai).or_default();
            entry.cuts.push(*low);
            entry.cuts.push(*high);
            Ok(())
        }
        Predicate::IsNull { attr } => {
            // NULL segments always exist; just ensure the attribute is
            // registered as participating.
            let ai = schema.index_of(attr)?;
            conds.entry(ai).or_default();
            Ok(())
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            collect_conditions(schema, a, conds)?;
            collect_conditions(schema, b, conds)
        }
        Predicate::Not(a) => collect_conditions(schema, a, conds),
    }
}

/// Builds the elementary segmentation of one attribute's domain.
fn build_segments(domain: &Domain, c: AttrConditions) -> AttrSegments {
    match domain {
        Domain::IntRange { min, max } => {
            let lo = *min as f64;
            let hi = *max as f64 + 1.0; // exclusive end over the integers
            AttrSegments::Numeric {
                starts: numeric_starts(lo, hi, c.cuts),
                is_int: true,
            }
        }
        Domain::FloatRange { min, max } => AttrSegments::Numeric {
            starts: numeric_starts(*min, *max, c.cuts),
            is_int: false,
        },
        Domain::Categorical(cats) => {
            let mut mentioned: Vec<String> =
                c.strings.into_iter().filter(|s| cats.contains(s)).collect();
            mentioned.sort();
            mentioned.dedup();
            // "other" exists only if some category is unmentioned.
            let other_rep = cats.iter().find(|c| !mentioned.contains(c)).cloned();
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            }
        }
        Domain::Text => {
            let mut mentioned = c.strings;
            mentioned.sort();
            mentioned.dedup();
            // Free text always has unmentioned strings; synthesize a
            // representative guaranteed not to collide.
            let mut other = String::from("\u{1}__other__");
            while mentioned.contains(&other) {
                other.push('_');
            }
            AttrSegments::Categorical {
                mentioned,
                other_rep: Some(other),
            }
        }
        Domain::Boolean => AttrSegments::Boolean,
    }
}

/// Sorted, deduplicated segment start positions within `[lo, hi)`.
fn numeric_starts(lo: f64, hi: f64, mut cuts: Vec<f64>) -> Vec<f64> {
    cuts.retain(|&c| c > lo && c < hi);
    cuts.push(lo);
    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cuts.dedup();
    cuts
}

/// The smallest f64 strictly greater than `x` (finite inputs).
fn next_up(x: f64) -> f64 {
    // f64::next_up is stable only since 1.86; implement via bit tricks to
    // honour the workspace MSRV.
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, Domain};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("age", Domain::IntRange { min: 0, max: 99 }),
            Attribute::new("sex", Domain::Categorical(vec!["M".into(), "F".into()])),
            Attribute::new(
                "gain",
                Domain::FloatRange {
                    min: 0.0,
                    max: 5000.0,
                },
            ),
        ])
        .unwrap()
    }

    fn dataset() -> Dataset {
        let mut d = Dataset::empty(schema());
        let rows = [
            (25, "M", 10.0),
            (60, "F", 100.0),
            (60, "F", 2500.0),
            (70, "M", 4999.0),
            (5, "M", 0.0),
        ];
        for (a, s, g) in rows {
            d.push(vec![Value::Int(a), Value::from(s), Value::Float(g)])
                .unwrap();
        }
        d
    }

    #[test]
    fn disjoint_histogram_bins() {
        // Age decades: 10 disjoint bins covering the whole domain.
        let workload: Vec<Predicate> = (0..10)
            .map(|i| Predicate::range("age", (i * 10) as f64, ((i + 1) * 10) as f64))
            .collect();
        let p = DomainPartition::build(&schema(), &workload).unwrap();
        // 10 bins + NULL cell = 11 cells.
        assert_eq!(p.n_cells(), 11);
        // Each predicate covers exactly one cell → sensitivity 1.
        for i in 0..10 {
            assert_eq!(p.cells_of(i).len(), 1);
        }
        let x = p.histogram(&dataset());
        assert_eq!(x.iter().sum::<f64>(), 5.0);
        // Bin [60,70) holds the two 60-year-olds.
        let i6 = p.cells_of(6)[0];
        assert_eq!(x[i6], 2.0);
    }

    #[test]
    fn prefix_workload_is_nested() {
        let workload: Vec<Predicate> = (1..=5)
            .map(|i| Predicate::cmp("age", CmpOp::Lt, (i * 20) as i64))
            .collect();
        let p = DomainPartition::build(&schema(), &workload).unwrap();
        // Nested bins: cells_of(i) ⊂ cells_of(i+1).
        for i in 0..4 {
            let a: std::collections::HashSet<_> = p.cells_of(i).iter().collect();
            let b: std::collections::HashSet<_> = p.cells_of(i + 1).iter().collect();
            assert!(a.is_subset(&b), "prefix bins must be nested");
        }
        // Sensitivity of a prefix workload is L (max column coverage).
        let rows = p.incidence_rows();
        let mut max_col = 0.0;
        for j in 0..p.n_cells() {
            let s: f64 = rows.iter().map(|r| r[j]).sum();
            max_col = f64::max(max_col, s);
        }
        assert_eq!(max_col, 5.0);
    }

    #[test]
    fn two_dimensional_workload() {
        let workload = vec![
            Predicate::cmp("age", CmpOp::Gt, 50_i64).and(Predicate::eq("sex", "M")),
            Predicate::cmp("age", CmpOp::Gt, 50_i64).and(Predicate::eq("sex", "F")),
        ];
        let p = DomainPartition::build(&schema(), &workload).unwrap();
        let x = p.histogram(&dataset());
        let w = p.incidence_rows();
        let answers: Vec<f64> = w
            .iter()
            .map(|r| r.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        assert_eq!(answers, vec![1.0, 2.0]); // (70,M) and two (60,F)
    }

    #[test]
    fn workload_answers_match_direct_counts() {
        let workload = vec![
            Predicate::range("gain", 0.0, 50.0),
            Predicate::range("gain", 0.0, 500.0),
            Predicate::cmp("gain", CmpOp::Ge, 2500.0),
            Predicate::eq("sex", "M").or(Predicate::cmp("age", CmpOp::Lt, 30_i64)),
        ];
        let d = dataset();
        let p = DomainPartition::build(&schema(), &workload).unwrap();
        let x = p.histogram(&d);
        for (i, pred) in workload.iter().enumerate() {
            let via_cells: f64 = p.cells_of(i).iter().map(|&c| x[c]).sum();
            let direct = d.count(pred).unwrap() as f64;
            assert_eq!(via_cells, direct, "predicate {i} mismatch");
        }
    }

    #[test]
    fn null_rows_fall_into_null_cell() {
        let s = Schema::new(vec![Attribute::new("t", Domain::Text)]).unwrap();
        let mut d = Dataset::empty(s.clone());
        d.push(vec![Value::from("a")]).unwrap();
        d.push(vec![Value::Null]).unwrap();
        let workload = vec![Predicate::is_null("t"), Predicate::eq("t", "a")];
        let p = DomainPartition::build(&s, &workload).unwrap();
        let x = p.histogram(&d);
        let null_count: f64 = p.cells_of(0).iter().map(|&c| x[c]).sum();
        assert_eq!(null_count, 1.0);
        let a_count: f64 = p.cells_of(1).iter().map(|&c| x[c]).sum();
        assert_eq!(a_count, 1.0);
    }

    #[test]
    fn le_and_lt_on_floats_are_distinguished() {
        let s = Schema::new(vec![Attribute::new(
            "x",
            Domain::FloatRange {
                min: 0.0,
                max: 10.0,
            },
        )])
        .unwrap();
        let mut d = Dataset::empty(s.clone());
        d.push(vec![Value::Float(5.0)]).unwrap();
        let workload = vec![
            Predicate::cmp("x", CmpOp::Lt, 5.0),
            Predicate::cmp("x", CmpOp::Le, 5.0),
        ];
        let p = DomainPartition::build(&s, &workload).unwrap();
        let x = p.histogram(&d);
        let lt: f64 = p.cells_of(0).iter().map(|&c| x[c]).sum();
        let le: f64 = p.cells_of(1).iter().map(|&c| x[c]).sum();
        assert_eq!(lt, 0.0);
        assert_eq!(le, 1.0);
    }

    #[test]
    fn empty_workload_rejected() {
        assert!(matches!(
            DomainPartition::build(&schema(), &[]),
            Err(PartitionError::EmptyWorkload)
        ));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let workload = vec![Predicate::eq("nope", 1_i64)];
        assert!(matches!(
            DomainPartition::build(&schema(), &workload),
            Err(PartitionError::Schema(_))
        ));
    }

    #[test]
    fn boolean_attribute_partition() {
        let s = Schema::new(vec![Attribute::new("flag", Domain::Boolean)]).unwrap();
        let mut d = Dataset::empty(s.clone());
        d.push(vec![Value::Bool(true)]).unwrap();
        d.push(vec![Value::Bool(false)]).unwrap();
        d.push(vec![Value::Bool(true)]).unwrap();
        let workload = vec![Predicate::eq("flag", true)];
        let p = DomainPartition::build(&s, &workload).unwrap();
        let x = p.histogram(&d);
        let t: f64 = p.cells_of(0).iter().map(|&c| x[c]).sum();
        assert_eq!(t, 2.0);
    }

    #[test]
    fn negation_and_ne_are_cell_constant() {
        let d = dataset();
        let workload = vec![
            Predicate::cmp("sex", CmpOp::Ne, "M"),
            Predicate::range("age", 0.0, 50.0).not(),
        ];
        let p = DomainPartition::build(&schema(), &workload).unwrap();
        let x = p.histogram(&d);
        for (i, pred) in workload.iter().enumerate() {
            let via: f64 = p.cells_of(i).iter().map(|&c| x[c]).sum();
            assert_eq!(via, d.count(pred).unwrap() as f64, "predicate {i}");
        }
    }
}
