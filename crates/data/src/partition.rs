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
//!
//! **Cuts.** A predicate compares numbers as `f64`, whatever the
//! literal's type (`Value::partial_cmp_sql`), so every numeric condition
//! becomes a real threshold `c` that splits `< c` from `>= c`: `<` and
//! `>=` cut at `c`, `<=` and `>` at the next `f64` above `c`, `=` and `!=`
//! at both, `[low, high)` at `low` and `high`. The attribute's domain
//! type, not the literal's, then decides the split:
//!
//! * `IntRange`: the cut moves to the smallest `i64` whose `as f64`
//!   reaches `c` — `⌈c⌉` below 2⁵³, and past it the first integer that
//!   rounds up to `c` — so `v >= 2.5` splits at 3 and `v <= 5` at 6. The
//!   segments keep `i64` starts and a row's `i64` is compared with them
//!   directly.
//! * `FloatRange`: the cut stays at `c`, `-0.0` taken as `+0.0`, so
//!   `x <= 5` over `0.0, 0.1, …` splits just above 5.0, not at 6. A cell
//!   that arrived as `Value::Int` is compared as `i as f64`.
//!
//! A cut outside the domain splits nothing and is dropped.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::chunk::{Bits, Cells};
use crate::predicate::CmpOp;
use crate::{Dataset, Domain, Predicate, Schema, SchemaError, Value, ValueRef};

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

/// Per-attribute elementary segmentation. Every variant ends in one NULL
/// segment, at index `len() - 1`.
#[derive(Debug, Clone, PartialEq)]
enum AttrSegments {
    /// `IntRange` attribute: integer segment starts `t₀ < t₁ < … < t_k`,
    /// `t₀` the domain minimum; segment `i` holds the integers in
    /// `[tᵢ, tᵢ₊₁)`. Each `tᵢ` is the smallest `i64` whose `as f64`
    /// reaches its cut ([`int_threshold`]), so comparing a row's `i64`
    /// with `tᵢ` decides exactly what a predicate's `f64` comparison does.
    Int { starts: Vec<i64> },
    /// `FloatRange` attribute: segment starts `c₀ < c₁ < … < c_k`, `c₀`
    /// the domain minimum, a zero always `+0.0`; segment `i` holds
    /// `[cᵢ, cᵢ₊₁)`.
    Float { starts: Vec<f64> },
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

/// Boundaries hash by their bits. A float zero is always `+0.0`, so two
/// segmentations equal by `==` (what [`DomainPartition::same_mapping`]
/// compares) hash alike.
impl Hash for AttrSegments {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            AttrSegments::Int { starts } => starts.hash(h),
            AttrSegments::Float { starts } => {
                starts.len().hash(h);
                starts.iter().for_each(|s| s.to_bits().hash(h));
            }
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            } => (mentioned, other_rep).hash(h),
            AttrSegments::Boolean => {}
        }
    }
}

impl AttrSegments {
    fn len(&self) -> usize {
        match self {
            AttrSegments::Int { starts } => starts.len() + 1, // + NULL
            AttrSegments::Float { starts } => starts.len() + 1,
            AttrSegments::Categorical {
                mentioned,
                other_rep,
            } => mentioned.len() + usize::from(other_rep.is_some()) + 1,
            AttrSegments::Boolean => 3,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            AttrSegments::Int { starts } => std::mem::size_of_val(starts.as_slice()),
            AttrSegments::Float { starts } => std::mem::size_of_val(starts.as_slice()),
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

    /// Representative value of segment `i` (the NULL segment is last):
    /// a member of the segment, so a predicate evaluated on it holds for
    /// the whole segment.
    fn representative(&self, i: usize) -> Value {
        match self {
            AttrSegments::Int { starts } => starts.get(i).map_or(Value::Null, |&t| Value::Int(t)),
            AttrSegments::Float { starts } => {
                starts.get(i).map_or(Value::Null, |&c| Value::Float(c))
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

    /// Segment index of one value — the locate behind both the views'
    /// fold ([`DomainPartition::cell_of_row`]) and, per category, the
    /// typed scan ([`Self::locate_column`]). An integer is compared with
    /// the `i64` starts, a float (or an `Int` in a float attribute, as
    /// `i as f64`) with the `f64` starts. NULL, and a value outside the
    /// attribute's type (never a validated row's), go to the NULL
    /// segment.
    fn locate(&self, v: ValueRef<'_>) -> usize {
        match (self, v) {
            (AttrSegments::Int { starts }, ValueRef::Int(i)) => segment_of(starts, i),
            (AttrSegments::Float { starts }, ValueRef::Float(x)) => segment_of(starts, x),
            (AttrSegments::Float { starts }, ValueRef::Int(i)) => segment_of(starts, i as f64),
            (AttrSegments::Categorical { mentioned, .. }, ValueRef::Str(s)) => mentioned
                .iter()
                .position(|m| m == s)
                .unwrap_or(mentioned.len()),
            (AttrSegments::Boolean, ValueRef::Bool(b)) => usize::from(b),
            _ => self.len() - 1,
        }
    }

    /// Calls `f(r, segment)` for each of a chunk column's `rows`, in one
    /// tight loop per column type over its typed cells, segment for
    /// segment what [`Self::locate`] gives each cell. The null bitmap is
    /// asked once per chunk; only a chunk with NULLs reads it per row, to
    /// send just those rows to the NULL segment. `cat` maps a categorical
    /// column's codes to segments.
    #[inline]
    fn locate_column(
        &self,
        (cells, nulls): (&Cells, &Bits),
        rows: usize,
        cat: &[usize],
        mut f: impl FnMut(usize, usize),
    ) {
        let null = self.len() - 1;
        let has_nulls = nulls.any();
        let mut put = |r: usize, seg: usize| {
            f(r, if has_nulls && nulls.get(r) { null } else { seg });
        };
        match (self, cells) {
            (AttrSegments::Int { starts }, Cells::Int(v)) => {
                for (r, &i) in v.iter().enumerate() {
                    put(r, segment_of(starts, i));
                }
            }
            (AttrSegments::Float { starts }, Cells::Float { bits, ints }) => {
                let has_ints = ints.any();
                for (r, &b) in bits.iter().enumerate() {
                    let x = if has_ints && ints.get(r) {
                        b as i64 as f64
                    } else {
                        f64::from_bits(b)
                    };
                    put(r, segment_of(starts, x));
                }
            }
            (AttrSegments::Categorical { .. }, Cells::Cat(codes)) => {
                for (r, &c) in codes.iter().enumerate() {
                    put(r, cat[c as usize]);
                }
            }
            (AttrSegments::Categorical { .. }, Cells::Text { ends, arena }) => {
                let mut start = 0;
                for (r, &end) in ends.iter().enumerate() {
                    put(r, self.locate(ValueRef::Str(&arena[start..end as usize])));
                    start = end as usize;
                }
            }
            (AttrSegments::Boolean, Cells::Bool(b)) => {
                for r in 0..rows {
                    put(r, usize::from(b.get(r)));
                }
            }
            _ => unreachable!("a partition scans the columns of the schema it was built over"),
        }
    }
}

/// Segment of `v` among sorted segment starts: the last start `<= v`; a
/// value below the first start (outside the domain) clamps to segment 0.
#[inline]
fn segment_of<T: PartialOrd>(starts: &[T], v: T) -> usize {
    starts.partition_point(|t| *t <= v).saturating_sub(1)
}

/// Collected atomic conditions for one attribute.
#[derive(Debug, Default)]
struct AttrConditions {
    /// Numeric cuts as real thresholds: a cut at `c` splits `< c` from
    /// `>= c` (see the module doc for how each comparison maps to one).
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
        (
            self.n_cells,
            &self.attrs,
            &self.elementary_to_cell,
            &self.segments,
        )
            .hash(&mut h);
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
            segments: vec![AttrSegments::Int {
                starts: (0..cells as i64).collect(),
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

    /// Merged cell id of one concrete row, by the same per-attribute
    /// locate as the typed scan ([`Self::histogram`]).
    ///
    /// The row must lie within the domain this partition was built over:
    /// values below/above the numeric coverage clamp to the edge cells. A
    /// dataset therefore clears its views on a widening insert instead of
    /// folding it (see [`Self::fold_rows`]).
    pub(crate) fn cell_of_row(&self, row: &[Value]) -> usize {
        let mut idx = 0usize;
        let mut stride = 1usize;
        for (k, &ai) in self.attrs.iter().enumerate() {
            idx += stride * self.segments[k].locate(ValueRef::from(&row[ai]));
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
    /// Reads the rows chunk by chunk ([`Dataset::for_each_chunk`]; page by
    /// page for a paged dataset, so memory is bounded by the buffer pool
    /// even when `D` exceeds RAM). Each driving column runs one typed
    /// loop over its cells ([`Chunk::column`](crate::Chunk)): an `i64`
    /// column against the integer starts, a float column against the
    /// `f64` starts, a categorical column through a code → segment table
    /// built once per scan. Each row's mixed-radix elementary id
    /// accumulates in a per-chunk buffer, so a row lands where
    /// [`Self::cell_of_row`] puts it, and a second pass counts the
    /// buffer into its merged cells. Counts are integers until the end,
    /// so `x` holds exact counts.
    pub fn histogram(&self, data: &Dataset) -> Vec<f64> {
        let attrs = data.schema().attributes();
        let cat: Vec<Vec<usize>> = self
            .attrs
            .iter()
            .zip(&self.segments)
            .map(|(&ai, seg)| match &attrs[ai].domain {
                Domain::Categorical(cats) => {
                    cats.iter().map(|c| seg.locate(ValueRef::Str(c))).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        let cell = &self.elementary_to_cell;
        let mut counts = vec![0u64; self.n_cells];
        let mut idx = Vec::new();
        data.for_each_chunk(|chunk| {
            let rows = chunk.len();
            idx.clear();
            idx.resize(rows, 0usize);
            let mut stride = 1usize;
            for (k, (&ai, seg)) in self.attrs.iter().zip(&self.segments).enumerate() {
                seg.locate_column(chunk.column(ai), rows, &cat[k], |r, s| idx[r] += stride * s);
                stride *= seg.len();
            }
            for &i in &idx {
                counts[cell[i]] += 1;
            }
        });
        counts.into_iter().map(|n| n as f64).collect()
    }

    /// The fold primitive of incremental maintenance: reports `(cell, +1)`
    /// for every inserted row and `(cell, −1)` for every deleted one, in
    /// O(rows). Folding these into a histogram of the pre-mutation rows
    /// yields, bit for bit, the histogram of the post-mutation rows —
    /// provided every row lies inside the domain this partition was built
    /// over (see [`Self::cell_of_row`]).
    pub(crate) fn fold_rows(
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
                // A numeric literal compares as an `f64` whatever its own
                // type, so the cut is a real threshold; the attribute's
                // domain decides how it splits (`build_segments`).
                Value::Int(_) | Value::Float(_) => {
                    let c = value.as_f64().expect("a numeric literal");
                    match op {
                        CmpOp::Lt | CmpOp::Ge => entry.cuts.push(c),
                        CmpOp::Le | CmpOp::Gt => entry.cuts.push(next_up(c)),
                        CmpOp::Eq | CmpOp::Ne => entry.cuts.extend([c, next_up(c)]),
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
            // A cut splits the domain's integers when its threshold lies
            // in `(min, max]`.
            let mut starts: Vec<i64> = c
                .cuts
                .into_iter()
                .filter_map(int_threshold)
                .filter(|t| t > min && t <= max)
                .collect();
            starts.push(*min);
            starts.sort_unstable();
            starts.dedup();
            AttrSegments::Int { starts }
        }
        Domain::FloatRange { min, max } => {
            // `-0.0 == 0.0`: one zero, so equal boundaries have equal bits.
            let plus_zero = |c: f64| if c == 0.0 { 0.0 } else { c };
            let mut starts: Vec<f64> = c
                .cuts
                .into_iter()
                .filter(|c| c > min && c < max)
                .map(plus_zero)
                .collect();
            starts.push(plus_zero(*min));
            starts.sort_by(f64::total_cmp);
            starts.dedup();
            AttrSegments::Float { starts }
        }
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

/// The smallest `i64` whose `as f64` is at least `c`: an integer row
/// `v` is on the `>= c` side of a cut exactly when `v >= int_threshold(c)`.
/// Below 2⁵³ this is `⌈c⌉` (over the integers `v < c ⇔ v < ⌈c⌉`); beyond,
/// the integers just below `⌈c⌉` that `as f64` rounds up to it count too.
/// `None` when no `i64` reaches `c`, or `c` is NaN.
fn int_threshold(c: f64) -> Option<i64> {
    if c.is_nan() || c > i64::MAX as f64 {
        return None;
    }
    let reaches = |v: i64| v as f64 >= c;
    // `⌈c⌉` saturates into range and reaches `c`. The integers that round
    // up to it lie within half an `f64` ulp below, under 2¹⁰ of them.
    let mut t = c.ceil() as i64;
    let mut step = 1 << 10;
    while step > 0 {
        if t.checked_sub(step).is_some_and(reaches) {
            t -= step;
        }
        step /= 2;
    }
    Some(t)
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
    use std::sync::Arc;

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

    /// The rows a predicate's cells hold, per predicate.
    fn covered(p: &DomainPartition, x: &[f64]) -> Vec<f64> {
        (0..p.n_predicates())
            .map(|i| p.cells_of(i).iter().map(|&c| x[c]).sum())
            .collect()
    }

    /// `x` over `[min, max)` holding `values`.
    fn floats(min: f64, max: f64, values: impl IntoIterator<Item = f64>) -> Dataset {
        let s = Schema::new(vec![Attribute::new("x", Domain::FloatRange { min, max })]).unwrap();
        let rows = values.into_iter().map(|v| vec![Value::Float(v)]).collect();
        Dataset::new(s, rows).unwrap()
    }

    #[test]
    fn an_int_literal_cuts_a_float_attribute_at_its_real_value() {
        // 0.0, 0.1, …, 9.9: an integral literal parses as `Value::Int`.
        let d = floats(0.0, 10.0, (0..100).map(|i| f64::from(i) / 10.0));
        let workload: Vec<Predicate> = [CmpOp::Le, CmpOp::Gt, CmpOp::Eq, CmpOp::Ne, CmpOp::Lt]
            .into_iter()
            .map(|op| Predicate::cmp("x", op, 5_i64))
            .collect();
        let p = DomainPartition::build(d.schema(), &workload).unwrap();
        let got = covered(&p, &p.histogram(&d));
        assert_eq!(got, [51.0, 49.0, 1.0, 99.0, 50.0]);
        for (pred, n) in workload.iter().zip(&got) {
            assert_eq!(*n, d.count(pred).unwrap() as f64, "{pred:?}");
        }
    }

    #[test]
    fn a_fractional_cut_on_an_int_attribute_rounds_up() {
        let s = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 99 },
        )])
        .unwrap();
        let d = Dataset::new(s.clone(), (0..100).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let workload = vec![
            Predicate::cmp("v", CmpOp::Ge, 2.5),
            Predicate::cmp("v", CmpOp::Lt, 2.5),
            Predicate::range("v", 2.5, 10.0),
            Predicate::cmp("v", CmpOp::Le, 2.5),
            Predicate::cmp("v", CmpOp::Eq, 2.5),
            Predicate::cmp("v", CmpOp::Gt, -0.5),
        ];
        let p = DomainPartition::build(&s, &workload).unwrap();
        let got = covered(&p, &p.histogram(&d));
        assert_eq!(got, [97.0, 3.0, 7.0, 3.0, 0.0, 100.0]);
        for (pred, n) in workload.iter().zip(&got) {
            assert_eq!(*n, d.count(pred).unwrap() as f64, "{pred:?}");
        }
    }

    #[test]
    fn signed_zero_cuts_share_one_mapping_and_one_view() {
        let d = floats(-1.0, 1.0, (-10..10).map(|i| f64::from(i) / 10.0));
        let neg = Arc::new(
            DomainPartition::build(d.schema(), &[Predicate::range("x", -0.0, 0.5)]).unwrap(),
        );
        let pos = Arc::new(
            DomainPartition::build(d.schema(), &[Predicate::range("x", 0.0, 0.5)]).unwrap(),
        );
        assert!(neg.same_mapping(&pos));
        assert_eq!(neg.mapping_hash(), pos.mapping_hash());
        assert_eq!(d.histogram(&neg), d.histogram(&pos));
        let stats = d.view_stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 1));
    }

    #[test]
    fn int_thresholds_are_the_smallest_i64_reaching_the_cut() {
        let two53 = 1_i64 << 53;
        let centres = [0, two53, -two53, 1 << 62, -(1 << 62), i64::MAX, i64::MIN];
        let mut cuts = vec![2.5, -2.5, 0.5, -0.5, 0.0, -0.0, f64::NEG_INFINITY];
        for c in centres {
            for d in -2100..=2100_i64 {
                let f = c.saturating_add(d) as f64;
                cuts.extend([f, next_up(f), -next_up(-f), f + 0.5, f - 0.5]);
            }
        }
        for c in cuts {
            let Some(t) = int_threshold(c) else {
                assert!(c > i64::MAX as f64, "no threshold for {c}");
                continue;
            };
            assert!(t as f64 >= c, "{t} does not reach {c}");
            assert!(
                t == i64::MIN || ((t - 1) as f64) < c,
                "{} reaches {c}",
                t - 1
            );
        }
        for c in [f64::NAN, f64::INFINITY, 2.0 * i64::MAX as f64] {
            assert_eq!(int_threshold(c), None, "{c}");
        }
        assert_eq!(int_threshold(i64::MAX as f64), Some(i64::MAX - 511));
    }

    /// The typed scan against its reference: `cell_of_row` folded over
    /// every row, bit for bit, resident and paged, for random workloads
    /// over one to three driving attributes of every column type — with
    /// and without NULLs, float cells that arrived as `Int`, fractional
    /// cuts, integer domains across ±2⁵³ and at `i64::MIN`/`MAX` — at
    /// chunk-edge row counts.
    #[test]
    fn typed_scan_equals_the_per_row_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let two53 = 1_i64 << 53;
        let cats: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        let s = Schema::new(vec![
            Attribute::new("i", Domain::IntRange { min: -50, max: 50 }),
            Attribute::new(
                "f",
                Domain::FloatRange {
                    min: -5.0,
                    max: 5.0,
                },
            ),
            Attribute::new("c", Domain::Categorical(cats.clone())),
            Attribute::new("b", Domain::Boolean),
            Attribute::new("t", Domain::Text),
            Attribute::new(
                "near",
                Domain::IntRange {
                    min: -two53 - 64,
                    max: two53 + 64,
                },
            ),
            Attribute::new(
                "wide",
                Domain::IntRange {
                    min: i64::MIN,
                    max: i64::MAX,
                },
            ),
        ])
        .unwrap();
        let names = ["i", "f", "c", "b", "t", "near", "wide"];
        let words = ["x", "y", "zz", ""];
        let mut rng = StdRng::seed_from_u64(47);
        fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
            xs[rng.gen_range(0..xs.len())].clone()
        }
        // An integer near one of the domains' edges or ±2⁵³.
        fn edge(rng: &mut StdRng, min: i64, max: i64) -> i64 {
            let two53 = 1_i64 << 53;
            let c = pick(rng, &[min, max, two53, -two53, 0]);
            c.saturating_add(rng.gen_range(-40..=40)).clamp(min, max)
        }
        let numeric = |rng: &mut StdRng, name: &str| -> Value {
            let v = match name {
                "i" => rng.gen_range(-60..=60),
                "f" => rng.gen_range(-6..=6),
                "near" => edge(rng, -two53 - 64, two53 + 64),
                _ => edge(rng, i64::MIN, i64::MAX),
            };
            match rng.gen_range(0..3) {
                0 => Value::Int(v),
                1 => Value::Float(v as f64),
                _ => Value::Float(v as f64 + pick(rng, &[0.5, -0.25, 0.1])),
            }
        };
        let dir = std::env::temp_dir().join(format!("apex-typed-scan-{}", std::process::id()));
        for (case, rows) in [1023, 1024, 1025].into_iter().enumerate() {
            for with_nulls in [false, true] {
                let mut data = Dataset::empty(s.clone());
                for _ in 0..rows {
                    let mut row = vec![
                        Value::Int(rng.gen_range(-50..=50)),
                        if rng.gen_bool(0.3) {
                            Value::Int(rng.gen_range(-5..5))
                        } else {
                            Value::Float(rng.gen_range(-50..50) as f64 / 10.0)
                        },
                        Value::Str(pick(&mut rng, &cats)),
                        Value::Bool(rng.gen_bool(0.5)),
                        Value::from(pick(&mut rng, &words)),
                        Value::Int(edge(&mut rng, -two53 - 64, two53 + 64)),
                        Value::Int(edge(&mut rng, i64::MIN, i64::MAX)),
                    ];
                    for v in &mut row {
                        if with_nulls && rng.gen_bool(0.1) {
                            *v = Value::Null;
                        }
                    }
                    data.push(row).unwrap();
                }
                let at = dir.join(format!("{case}-{with_nulls}"));
                let paged = data.ingest_paged(&at, 1, 4).unwrap();
                for _ in 0..12 {
                    let mut driving: Vec<&str> = names.to_vec();
                    let k = rng.gen_range(1..=3);
                    for j in 0..k {
                        let pick = rng.gen_range(j..driving.len());
                        driving.swap(j, pick);
                    }
                    driving.truncate(k);
                    let workload: Vec<Predicate> = (0..rng.gen_range(1..5))
                        .map(|_| {
                            let conds = driving.iter().map(|&a| match a {
                                "c" => Predicate::eq(a, pick(&mut rng, &["a", "c", "q"])),
                                "b" => Predicate::eq(a, rng.gen_bool(0.5)),
                                "t" => Predicate::eq(a, pick(&mut rng, &words)),
                                _ if rng.gen_bool(0.2) => Predicate::is_null(a),
                                _ => {
                                    let ops = [
                                        CmpOp::Eq,
                                        CmpOp::Ne,
                                        CmpOp::Lt,
                                        CmpOp::Le,
                                        CmpOp::Gt,
                                        CmpOp::Ge,
                                    ];
                                    Predicate::cmp(a, pick(&mut rng, &ops), numeric(&mut rng, a))
                                }
                            });
                            conds.reduce(Predicate::and).expect("one driving attribute")
                        })
                        .collect();
                    let p = DomainPartition::build(&s, &workload).unwrap();
                    for d in [&data, &paged] {
                        let mut reference = vec![0.0; p.n_cells()];
                        d.for_each_row(|row| reference[p.cell_of_row(row)] += 1.0);
                        let x = p.histogram(d);
                        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&x), bits(&reference), "{workload:?} over {rows} rows");
                        for (pred, n) in workload.iter().zip(covered(&p, &x)) {
                            assert_eq!(n, d.count(pred).unwrap() as f64, "{pred:?}");
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
