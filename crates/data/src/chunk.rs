//! The row store: an `Arc`'d list of immutable chunks of typed columns
//! (docs/STORAGE.md, "Resident rows: typed chunks").
//!
//! A resident [`Dataset`](crate::Dataset) keeps its rows as a
//! [`RowStore`], and a paged one decodes each page into the same
//! [`Chunk`] type, so every scan — histogram, count, take, the integrity
//! probe — reads chunks through one path. A column is typed by its
//! attribute's domain (`i64`, 8-byte floats, category indices, bits, one
//! string arena) with a null bitmap; a cell reads as a borrowed
//! [`ValueRef`], so a scan allocates nothing per row.
//!
//! A built chunk is never changed once shared. Cloning a store copies
//! the list of `Arc`s, not the rows: a reader's snapshot and a dataset
//! clone share every chunk. A mutation replaces only what it touches —
//! an insert the tail chunk (in place when no one else holds it), a
//! delete the chunks that held a deleted row — so its cost is bounded by
//! [`CHUNK_ROWS`] per touched chunk, not by `|D|`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::{Domain, Schema, Value, ValueRef};

/// Rows per resident chunk: a constant, not a knob. An insert under a
/// held reader copies at most one chunk (1 024 rows of taxi's 9 columns
/// is ≈ 80 KB, a few µs), and a delete rewrites only the chunks it hits,
/// so smaller is cheaper to mutate; the scan pays one column dispatch
/// and one category table per chunk, which at 1 024 rows is well under
/// 1 % of the per-row work, and its row-index buffer (8 KiB) stays in L1.
pub const CHUNK_ROWS: usize = 1024;

/// A bit set over a chunk's rows: null bitmaps, booleans, a float
/// column's "arrived as `Int`" flags. Only set bits are written: words
/// past the last set bit are never allocated, so a column without NULLs
/// keeps an empty null bitmap and a clear bit costs nothing to append.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn set(&mut self, i: usize) {
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Copies bits `range` of `src` to `at..`.
    fn copy_from(&mut self, src: &Bits, range: std::ops::Range<usize>, at: usize) {
        for (i, to) in range.zip(at..) {
            if src.get(i) {
                self.set(to);
            }
        }
    }

    /// Whether any bit is set: a scan asks once per chunk, then reads
    /// bits per row only where one is.
    pub(crate) fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// One column's cells, typed by the attribute's domain. A NULL cell
/// holds a placeholder (0, `false`, "") and is set in the null bitmap.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    /// `IntRange`.
    Int(Vec<i64>),
    /// `FloatRange`: an `f64`'s bits, or, where `ints` is set, the bits
    /// of the `i64` that arrived as `Value::Int` (`Domain::contains`
    /// admits one there). Kept, not cast, so |i| > 2⁵³ survives.
    Float { bits: Vec<u64>, ints: Bits },
    /// `Categorical`: the index into the domain's own category list,
    /// which is the dictionary.
    Cat(Vec<u32>),
    /// `Boolean`.
    Bool(Bits),
    /// `Text`: one arena; row `r`'s string ends at `ends[r]`.
    Text { ends: Vec<u32>, arena: String },
}

#[derive(Debug, Clone)]
struct Column {
    cells: Cells,
    nulls: Bits,
}

impl Column {
    fn new(domain: &Domain, cap: usize) -> Self {
        let cells = match domain {
            Domain::IntRange { .. } => Cells::Int(Vec::with_capacity(cap)),
            Domain::FloatRange { .. } => Cells::Float {
                bits: Vec::with_capacity(cap),
                ints: Bits::default(),
            },
            Domain::Categorical(_) => Cells::Cat(Vec::with_capacity(cap)),
            Domain::Boolean => Cells::Bool(Bits::default()),
            Domain::Text => Cells::Text {
                ends: Vec::with_capacity(cap),
                arena: String::new(),
            },
        };
        Self {
            cells,
            nulls: Bits::default(),
        }
    }

    #[inline]
    fn get<'a>(&'a self, domain: &'a Domain, r: usize) -> ValueRef<'a> {
        if self.nulls.get(r) {
            return ValueRef::Null;
        }
        match &self.cells {
            Cells::Int(v) => ValueRef::Int(v[r]),
            Cells::Float { bits, ints } if ints.get(r) => ValueRef::Int(bits[r] as i64),
            Cells::Float { bits, .. } => ValueRef::Float(f64::from_bits(bits[r])),
            Cells::Cat(v) => match domain {
                Domain::Categorical(cats) => ValueRef::Str(&cats[v[r] as usize]),
                _ => unreachable!("a categorical column has a categorical domain"),
            },
            Cells::Bool(b) => ValueRef::Bool(b.get(r)),
            Cells::Text { ends, arena } => {
                let start = if r == 0 { 0 } else { ends[r - 1] as usize };
                ValueRef::Str(&arena[start..ends[r] as usize])
            }
        }
    }

    /// Appends one cell as row `row`; `codes` maps a category name to
    /// its index.
    #[inline]
    fn push(&mut self, codes: Option<&CodeMap>, row: usize, v: ValueRef<'_>) -> Result<(), String> {
        match (&mut self.cells, v) {
            (Cells::Int(c), ValueRef::Int(i)) => c.push(i),
            (Cells::Float { bits, .. }, ValueRef::Float(f)) => bits.push(f.to_bits()),
            (Cells::Float { bits, ints }, ValueRef::Int(i)) => {
                bits.push(i as u64);
                ints.set(row);
            }
            (Cells::Cat(c), ValueRef::Str(s)) => {
                let code = codes.and_then(|m| m.get(s));
                c.push(*code.ok_or_else(|| format!("{s:?} is not a category"))?);
            }
            (Cells::Bool(b), ValueRef::Bool(x)) => {
                if x {
                    b.set(row);
                }
            }
            (Cells::Text { ends, arena }, ValueRef::Str(s)) => {
                arena.push_str(s);
                let end = u32::try_from(arena.len()).map_err(|_| "text arena over 4 GiB")?;
                ends.push(end);
            }
            (cells, ValueRef::Null) => {
                match cells {
                    Cells::Int(c) => c.push(0),
                    Cells::Float { bits, .. } => bits.push(0),
                    Cells::Cat(c) => c.push(0),
                    Cells::Bool(_) => {}
                    Cells::Text { ends, arena } => ends.push(arena.len() as u32),
                }
                self.nulls.set(row);
            }
            (_, v) => return Err(format!("{v:?} does not fit the column's type")),
        }
        Ok(())
    }

    /// Appends rows `range` of `src`, a column of the same type, as rows
    /// `at..` of this one.
    fn extend_from(&mut self, src: &Column, range: std::ops::Range<usize>, at: usize) {
        match (&mut self.cells, &src.cells) {
            (Cells::Int(d), Cells::Int(s)) => d.extend_from_slice(&s[range.clone()]),
            (Cells::Float { bits: d, ints: di }, Cells::Float { bits: s, ints: si }) => {
                d.extend_from_slice(&s[range.clone()]);
                di.copy_from(si, range.clone(), at);
            }
            (Cells::Cat(d), Cells::Cat(s)) => d.extend_from_slice(&s[range.clone()]),
            (Cells::Bool(d), Cells::Bool(s)) => d.copy_from(s, range.clone(), at),
            (
                Cells::Text { ends, arena },
                Cells::Text {
                    ends: se,
                    arena: sa,
                },
            ) => {
                let start = |r: usize| if r == 0 { 0 } else { se[r - 1] as usize };
                let (from, to) = (start(range.start), start(range.end));
                let shift = arena.len() as i64 - from as i64;
                arena.push_str(&sa[from..to]);
                ends.extend(se[range.clone()].iter().map(|&e| (e as i64 + shift) as u32));
            }
            _ => unreachable!("columns of one schema keep their types"),
        }
        self.nulls.copy_from(&src.nulls, range, at);
    }

    fn heap_bytes(&self) -> usize {
        self.nulls.heap_bytes()
            + match &self.cells {
                Cells::Int(v) => v.capacity() * 8,
                Cells::Float { bits, ints } => bits.capacity() * 8 + ints.heap_bytes(),
                Cells::Cat(v) => v.capacity() * 4,
                Cells::Bool(b) => b.heap_bytes(),
                Cells::Text { ends, arena } => ends.capacity() * 4 + arena.capacity(),
            }
    }
}

type CodeMap<'s> = FastMap<&'s str, u32>;

/// Category name → index for every categorical column of a schema: how
/// an incoming string finds its code.
pub(crate) struct Codes<'s>(Vec<Option<CodeMap<'s>>>);

impl<'s> Codes<'s> {
    pub(crate) fn new(schema: &'s Schema) -> Self {
        Self(
            schema
                .attributes()
                .iter()
                .map(|a| match &a.domain {
                    Domain::Categorical(cats) => Some(
                        cats.iter()
                            .enumerate()
                            .map(|(i, c)| (c.as_str(), i as u32))
                            .collect(),
                    ),
                    _ => None,
                })
                .collect(),
        )
    }
}

/// Up to [`CHUNK_ROWS`] rows of one schema, column by column (a decoded
/// page holds one page's rows). Shared behind an `Arc` once built and
/// never changed after; a mutation builds a new chunk instead.
#[derive(Debug, Clone)]
pub struct Chunk {
    len: usize,
    cols: Vec<Column>,
}

impl Chunk {
    /// An empty chunk with room for `cap` rows of `schema`.
    pub(crate) fn new(schema: &Schema, cap: usize) -> Self {
        Self {
            len: 0,
            cols: schema
                .attributes()
                .iter()
                .map(|a| Column::new(&a.domain, cap))
                .collect(),
        }
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cell `(row, col)`, borrowed. `schema` is the dataset's: it holds
    /// the category lists a categorical cell indexes.
    pub fn get<'a>(&'a self, schema: &'a Schema, row: usize, col: usize) -> ValueRef<'a> {
        self.cols[col].get(&schema.attributes()[col].domain, row)
    }

    /// Row `r` as owned values.
    pub fn row(&self, schema: &Schema, r: usize) -> Vec<Value> {
        (0..self.cols.len())
            .map(|c| self.get(schema, r, c).to_value())
            .collect()
    }

    /// Overwrites `buf` with every row, row-major (`len × width` values),
    /// a column at a time; a string cell reuses the buffer of the string
    /// already in its slot.
    pub(crate) fn write_rows(&self, schema: &Schema, buf: &mut Vec<Value>) {
        fn set_str(out: &mut Value, s: &str) {
            match out {
                Value::Str(o) => {
                    o.clear();
                    o.push_str(s);
                }
                out => *out = Value::Str(s.to_string()),
            }
        }
        let w = self.cols.len();
        buf.resize(self.len * w, Value::Null);
        for (c, (col, attr)) in self.cols.iter().zip(schema.attributes()).enumerate() {
            let slots = buf[c..].iter_mut().step_by(w);
            match (&col.cells, &attr.domain) {
                (Cells::Int(v), _) => slots.zip(v).for_each(|(out, &i)| *out = Value::Int(i)),
                (Cells::Float { bits, ints }, _) => {
                    for (r, (out, &b)) in slots.zip(bits).enumerate() {
                        *out = if ints.get(r) {
                            Value::Int(b as i64)
                        } else {
                            Value::Float(f64::from_bits(b))
                        };
                    }
                }
                (Cells::Cat(v), Domain::Categorical(cats)) => {
                    slots
                        .zip(v)
                        .for_each(|(out, &i)| set_str(out, &cats[i as usize]));
                }
                (Cells::Cat(_), _) => unreachable!("a categorical column has a categorical domain"),
                (Cells::Bool(b), _) => {
                    slots
                        .enumerate()
                        .for_each(|(r, out)| *out = Value::Bool(b.get(r)));
                }
                (Cells::Text { ends, arena }, _) => {
                    let mut start = 0;
                    for (out, &end) in slots.zip(ends) {
                        set_str(out, &arena[start..end as usize]);
                        start = end as usize;
                    }
                }
            }
            if col.nulls.any() {
                let slots = buf[c..].iter_mut().step_by(w).enumerate();
                slots
                    .filter(|(r, _)| col.nulls.get(*r))
                    .for_each(|(_, out)| *out = Value::Null);
            }
        }
    }

    /// Whether row `r` equals `want`, by [`Value`]'s equality.
    fn row_eq(&self, schema: &Schema, r: usize, want: &[Value]) -> bool {
        want.len() == self.cols.len()
            && want
                .iter()
                .enumerate()
                .all(|(c, w)| ValueRef::from(w) == self.get(schema, r, c))
    }

    /// Column `col`'s typed cells and its null bitmap, borrowed: what a
    /// scan kernel loops over directly, one tight loop per column type,
    /// instead of reading a [`ValueRef`] per row. A NULL row holds its
    /// type's placeholder in the cells.
    pub(crate) fn column(&self, col: usize) -> (&Cells, &Bits) {
        let c = &self.cols[col];
        (&c.cells, &c.nulls)
    }

    /// Calls `f(r, key(cell))` for every row `r` of column `col`. A
    /// categorical column evaluates `key` once per category and NULL,
    /// not once per row; integer and float columns are read straight
    /// from their cells. This loop carries a delete's row hashing; the
    /// histogram scan reads [`Self::column`] instead.
    pub(crate) fn map_column<K: Copy>(
        &self,
        domain: &Domain,
        col: usize,
        key: impl Fn(ValueRef<'_>) -> K,
        mut f: impl FnMut(usize, K),
    ) {
        let c = &self.cols[col];
        match (&c.cells, domain) {
            (Cells::Cat(codes), Domain::Categorical(cats)) => {
                let null = key(ValueRef::Null);
                let table: Vec<K> = cats.iter().map(|s| key(ValueRef::Str(s))).collect();
                for (r, &i) in codes.iter().enumerate() {
                    f(
                        r,
                        if c.nulls.get(r) {
                            null
                        } else {
                            table[i as usize]
                        },
                    );
                }
            }
            (Cells::Int(v), _) => {
                let null = key(ValueRef::Null);
                for (r, &i) in v.iter().enumerate() {
                    f(
                        r,
                        if c.nulls.get(r) {
                            null
                        } else {
                            key(ValueRef::Int(i))
                        },
                    );
                }
            }
            (Cells::Float { bits, ints }, _) => {
                let null = key(ValueRef::Null);
                for (r, &b) in bits.iter().enumerate() {
                    let v = if c.nulls.get(r) {
                        null
                    } else if ints.get(r) {
                        key(ValueRef::Int(b as i64))
                    } else {
                        key(ValueRef::Float(f64::from_bits(b)))
                    };
                    f(r, v);
                }
            }
            _ => (0..self.len).for_each(|r| f(r, key(c.get(domain, r)))),
        }
    }

    /// Columns in the chunk (the schema's arity).
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Appends one cell, column `col`, of the row being built;
    /// [`Self::end_row`] closes the row once every column has one. On
    /// `Err` (the value does not fit the column's type) the chunk is left
    /// part-written and must be dropped.
    #[inline]
    pub(crate) fn push_cell(
        &mut self,
        codes: &Codes<'_>,
        col: usize,
        v: ValueRef<'_>,
    ) -> Result<(), String> {
        self.cols[col].push(codes.0[col].as_ref(), self.len, v)
    }

    /// Closes the row whose cells [`Self::push_cell`] appended.
    pub(crate) fn end_row(&mut self) {
        self.len += 1;
    }

    /// A new chunk holding every row except the (sorted) `drop` rows.
    fn without(&self, schema: &Schema, drop: &[usize]) -> Chunk {
        let mut out = Chunk::new(schema, self.len - drop.len());
        out.len = self.len - drop.len();
        // The kept rows are the runs between dropped ones.
        let mut runs = Vec::with_capacity(drop.len() + 1);
        let mut from = 0;
        for &d in drop.iter().chain([&self.len]) {
            if d > from {
                runs.push(from..d);
            }
            from = d + 1;
        }
        for (d, s) in out.cols.iter_mut().zip(&self.cols) {
            let mut at = 0;
            for run in &runs {
                d.extend_from(s, run.clone(), at);
                at += run.len();
            }
        }
        out
    }

    /// Heap bytes of the chunk's columns plus its own header.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Chunk>()
            + self.cols.capacity() * std::mem::size_of::<Column>()
            + self.cols.iter().map(Column::heap_bytes).sum::<usize>()
    }

    /// The rows `matcher` still wants, in order, each consuming one
    /// wanted copy. Row hashes ([`hash_row`]'s value) are computed a
    /// column at a time; a hit is confirmed by exact comparison.
    pub(crate) fn take_matches(&self, schema: &Schema, matcher: &mut RowMatcher<'_>) -> Vec<usize> {
        let mut hashes = vec![HASH_SEED; self.len];
        for (c, a) in schema.attributes().iter().enumerate() {
            self.map_column(&a.domain, c, key_of, |r, k| hashes[r] = mix(hashes[r], k));
        }
        let mut hit = Vec::new();
        for (r, &h) in hashes.iter().enumerate() {
            if matcher.take(h, |w| self.row_eq(schema, r, w)) {
                hit.push(r);
            }
        }
        hit
    }
}

/// A dataset's resident rows: the chunk list. Cloning it shares every
/// chunk.
#[derive(Debug, Clone, Default)]
pub struct RowStore {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl RowStore {
    /// Rows in the store.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunks, in storage order.
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// Resident heap bytes of the rows (chunks plus the list).
    pub fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Arc<Chunk>>()
            + self.chunks.iter().map(|c| c.heap_bytes()).sum::<usize>()
    }

    /// Appends `rows` (which must fit `schema`'s column types; a
    /// validated row always does), consuming them one at a time. Only the
    /// tail chunk is rewritten: in place when this store alone holds it,
    /// as a copy when a clone or a reader shares it.
    pub(crate) fn append<R: AsRef<[Value]>>(
        &mut self,
        schema: &Schema,
        rows: impl IntoIterator<Item = R>,
    ) {
        let codes = Codes::new(schema);
        let mut rows = rows.into_iter();
        let mut tail: Option<Chunk> = None;
        while let Some(row) = rows.next() {
            if tail.as_ref().is_none_or(|t| t.len == CHUNK_ROWS) {
                let cap = (rows.size_hint().0 + 1).min(CHUNK_ROWS);
                tail = Some(match tail.take() {
                    Some(full) => {
                        self.chunks.push(Arc::new(full));
                        Chunk::new(schema, cap)
                    }
                    None if self.chunks.last().is_some_and(|t| t.len < CHUNK_ROWS) => {
                        let t = self.chunks.pop().expect("a last chunk");
                        Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone())
                    }
                    None => Chunk::new(schema, cap),
                });
            }
            let t = tail.as_mut().expect("a tail chunk with room");
            for (col, v) in row.as_ref().iter().enumerate() {
                t.push_cell(&codes, col, v.into())
                    .expect("validated rows fit their columns");
            }
            t.end_row();
            self.len += 1;
        }
        self.chunks.extend(tail.map(Arc::new));
    }

    /// Deletes the first occurrence, in storage order, of each row of
    /// `want` and returns the rows removed (as stored), in storage order.
    /// The wanted rows are hashed once; only chunks that held a deleted
    /// row are rewritten, and a chunk left empty is dropped.
    pub(crate) fn delete(&mut self, schema: &Schema, want: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut matcher = RowMatcher::new(want);
        let mut deleted = Vec::new();
        for slot in &mut self.chunks {
            if matcher.is_done() {
                break;
            }
            let hit = slot.take_matches(schema, &mut matcher);
            if !hit.is_empty() {
                deleted.extend(hit.iter().map(|&r| slot.row(schema, r)));
                *slot = Arc::new(slot.without(schema, &hit));
            }
        }
        self.chunks.retain(|c| !c.is_empty());
        self.len -= deleted.len();
        deleted
    }
}

const HASH_SEED: u64 = 0x243f_6a88_85a3_08d3;

fn mix(h: u64, k: u64) -> u64 {
    (h.rotate_left(5) ^ k).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A cell's hash key. Equal cells (by [`Value`]'s equality, so `-0.0`
/// and `0.0` alike) get equal keys; unequal ones may collide, which
/// costs only an exact comparison.
fn key_of(v: ValueRef<'_>) -> u64 {
    match v {
        ValueRef::Null => 0x6e75_6c6c,
        ValueRef::Int(i) => i as u64,
        // `-0.0 == 0.0`, so both zeros take one key.
        ValueRef::Float(f) => 0x0f10 ^ if f == 0.0 { 0 } else { f.to_bits() },
        ValueRef::Bool(b) => 0xb001 ^ b as u64,
        ValueRef::Str(s) => hash_bytes(s.as_bytes()),
    }
}

/// [`mix`] over `bytes`, eight at a time.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(0x5354 ^ bytes.len() as u64, |h, w| {
        mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    mix(h, u64::from_le_bytes(last))
}

/// The hash a delete matches rows by: [`key_of`] each cell, folded in
/// column order. [`Chunk::take_matches`] computes the same value column
/// by column.
fn hash_row<'a>(row: impl IntoIterator<Item = ValueRef<'a>>) -> u64 {
    row.into_iter().fold(HASH_SEED, |h, v| mix(h, key_of(v)))
}

/// The hasher of the maps a scan or a delete probes per row (category
/// names, row hashes): [`mix`] over the bytes, unkeyed. Their keys are
/// the public schema's and one request's own rows.
#[derive(Default)]
struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix(self.0, hash_bytes(bytes));
    }
    fn write_u8(&mut self, k: u8) {
        self.0 = mix(self.0, k as u64);
    }
    fn write_u64(&mut self, k: u64) {
        self.0 = mix(self.0, k);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The wanted rows of one delete, hashed once. Equal wanted rows form
/// one class with a count; [`Self::take`] asks whether a stored row is
/// still wanted and, if so, consumes one copy — "first occurrence in
/// storage order" when the caller walks the rows in order. Resident
/// chunks and decoded pages delete through it alike
/// ([`Chunk::take_matches`]).
pub(crate) struct RowMatcher<'w> {
    classes: Vec<(&'w [Value], usize)>,
    by_hash: FastMap<u64, Vec<usize>>,
    left: usize,
}

impl<'w> RowMatcher<'w> {
    pub(crate) fn new(want: &'w [Vec<Value>]) -> Self {
        let mut m = Self {
            classes: Vec::new(),
            by_hash: HashMap::default(),
            left: 0,
        };
        for w in want {
            // NaN equals nothing, so such a row matches no stored row.
            if w.iter().any(|v| matches!(v, Value::Float(f) if f.is_nan())) {
                continue;
            }
            let ids = m
                .by_hash
                .entry(hash_row(w.iter().map(ValueRef::from)))
                .or_default();
            match ids.iter().find(|&&i| m.classes[i].0 == w.as_slice()) {
                Some(&i) => m.classes[i].1 += 1,
                None => {
                    ids.push(m.classes.len());
                    m.classes.push((w, 1));
                }
            }
            m.left += 1;
        }
        m
    }

    /// Whether every wanted row has been matched.
    pub(crate) fn is_done(&self) -> bool {
        self.left == 0
    }

    /// Consumes one wanted copy of the stored row whose [`hash_row`] is
    /// `hash`, if one is left; `eq` compares a wanted row with it.
    pub(crate) fn take(&mut self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> bool {
        let Some(ids) = self.by_hash.get(&hash) else {
            return false;
        };
        for &i in ids {
            let (w, n) = &mut self.classes[i];
            if *n > 0 && eq(w) {
                *n -= 1;
                self.left -= 1;
                return true;
            }
        }
        false
    }
}
