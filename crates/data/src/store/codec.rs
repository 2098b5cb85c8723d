//! Row, value and schema (de)serialization for page payloads.
//!
//! All integers little-endian, matching the WAL's conventions. Rows never
//! span pages: a page payload is `row_count:u16` followed by that many
//! rows, each `value_count:u16` then tagged values:
//!
//! ```text
//! value := 0x00                        Null
//!        | 0x01 i64                    Int
//!        | 0x02 f64-bits               Float
//!        | 0x03 len:u32 utf8           Str
//!        | 0x04 u8                     Bool
//! ```
//!
//! Decoding is strict — trailing bytes, short buffers and unknown tags
//! are codec errors, so a page whose checksum verifies but whose payload
//! was mis-assembled still fails loudly.

use super::StoreError;
use crate::{Attribute, Domain, Schema, Value};

fn err(m: impl Into<String>) -> StoreError {
    StoreError::Codec(m.into())
}

// ---------------------------------------------------------------- values

fn push_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
    }
}

fn take<'a>(b: &'a [u8], n: usize, what: &str) -> Result<(&'a [u8], &'a [u8]), StoreError> {
    b.split_at_checked(n)
        .ok_or_else(|| err(format!("short buffer reading {what}")))
}

fn take_value(b: &[u8]) -> Result<(Value, &[u8]), StoreError> {
    let (tag, rest) = take(b, 1, "value tag")?;
    match tag[0] {
        0 => Ok((Value::Null, rest)),
        1 => {
            let (head, rest) = take(rest, 8, "int")?;
            Ok((
                Value::Int(i64::from_le_bytes(head.try_into().expect("8 bytes"))),
                rest,
            ))
        }
        2 => {
            let (head, rest) = take(rest, 8, "float")?;
            let bits = u64::from_le_bytes(head.try_into().expect("8 bytes"));
            Ok((Value::Float(f64::from_bits(bits)), rest))
        }
        3 => {
            let (head, rest) = take(rest, 4, "string length")?;
            let len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
            let (s, rest) = take(rest, len, "string bytes")?;
            let s = std::str::from_utf8(s).map_err(|_| err("invalid utf8 in string value"))?;
            Ok((Value::Str(s.to_string()), rest))
        }
        4 => {
            let (head, rest) = take(rest, 1, "bool")?;
            Ok((Value::Bool(head[0] != 0), rest))
        }
        t => Err(err(format!("unknown value tag {t}"))),
    }
}

// ------------------------------------------------------------------ rows

/// Appends one encoded row to `out`. Returns the encoded size.
pub fn push_row(out: &mut Vec<u8>, row: &[Value]) -> usize {
    let before = out.len();
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        push_value(out, v);
    }
    out.len() - before
}

/// Size [`push_row`] would append, without appending.
pub fn row_size(row: &[Value]) -> usize {
    2 + row
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bool(_) => 2,
        })
        .sum::<usize>()
}

/// Decodes one row from the front of `b`, returning the remainder.
fn take_row(b: &[u8]) -> Result<(Vec<Value>, &[u8]), StoreError> {
    let (head, mut rest) = take(b, 2, "row arity")?;
    let n = u16::from_le_bytes(head.try_into().expect("2 bytes")) as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let (v, r) = take_value(rest)?;
        row.push(v);
        rest = r;
    }
    Ok((row, rest))
}

/// Appends a row batch to `out`: `count:u32` then the rows. The one batch
/// framing of the mutation log, the WAL's mutation record and the
/// snapshot's mutation journal.
pub fn push_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        push_row(out, row);
    }
}

/// Size [`push_rows`] would append, without appending — client-sized
/// batches are measured against a frame cap before they are encoded.
pub fn rows_size(rows: &[Vec<Value>]) -> usize {
    4 + rows.iter().map(|row| row_size(row)).sum::<usize>()
}

/// Decodes a [`push_rows`] batch from the front of `b`, returning the
/// remainder.
pub fn take_rows(b: &[u8]) -> Result<(Vec<Vec<Value>>, &[u8]), StoreError> {
    let (head, mut rest) = take(b, 4, "row batch count")?;
    let n = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
    // A declared count that cannot fit in the payload (a row is at least
    // its two arity bytes) is a damaged field — refuse before allocating.
    if n > rest.len() / 2 {
        return Err(err(format!("row batch count {n} cannot fit the payload")));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let (row, r) = take_row(rest)?;
        rows.push(row);
        rest = r;
    }
    Ok((rows, rest))
}

/// Decodes a page payload (`row_count:u16` + rows), invoking `f` per row.
/// Strict: the payload must be consumed exactly.
pub fn decode_rows(payload: &[u8], mut f: impl FnMut(&[Value])) -> Result<u64, StoreError> {
    let (head, mut rest) = take(payload, 2, "page row count")?;
    let n = u16::from_le_bytes(head.try_into().expect("2 bytes")) as u64;
    for _ in 0..n {
        let (row, r) = take_row(rest)?;
        f(&row);
        rest = r;
    }
    if !rest.is_empty() {
        return Err(err(format!("{} trailing bytes after last row", rest.len())));
    }
    Ok(n)
}

// ---------------------------------------------------------------- schema

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_string(b: &[u8]) -> Result<(String, &[u8]), StoreError> {
    let (head, rest) = take(b, 4, "string length")?;
    let len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
    let (s, rest) = take(rest, len, "string bytes")?;
    let s = std::str::from_utf8(s).map_err(|_| err("invalid utf8"))?;
    Ok((s.to_string(), rest))
}

/// Encodes a schema for the manifest payload.
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(schema.arity() as u16).to_le_bytes());
    for attr in schema.attributes() {
        push_str(&mut out, &attr.name);
        match &attr.domain {
            Domain::IntRange { min, max } => {
                out.push(0);
                out.extend_from_slice(&min.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
            }
            Domain::FloatRange { min, max } => {
                out.push(1);
                out.extend_from_slice(&min.to_bits().to_le_bytes());
                out.extend_from_slice(&max.to_bits().to_le_bytes());
            }
            Domain::Categorical(cats) => {
                out.push(2);
                out.extend_from_slice(&(cats.len() as u32).to_le_bytes());
                for c in cats {
                    push_str(&mut out, c);
                }
            }
            Domain::Text => out.push(3),
            Domain::Boolean => out.push(4),
        }
    }
    out
}

/// Decodes a schema from a manifest payload. Strict on trailing bytes.
pub fn decode_schema(bytes: &[u8]) -> Result<Schema, StoreError> {
    let (head, mut rest) = take(bytes, 2, "attribute count")?;
    let n = u16::from_le_bytes(head.try_into().expect("2 bytes")) as usize;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let (name, r) = take_string(rest)?;
        let (tag, r) = take(r, 1, "domain tag")?;
        let (domain, r) = match tag[0] {
            0 => {
                let (a, r) = take(r, 8, "int min")?;
                let (b, r) = take(r, 8, "int max")?;
                (
                    Domain::IntRange {
                        min: i64::from_le_bytes(a.try_into().expect("8 bytes")),
                        max: i64::from_le_bytes(b.try_into().expect("8 bytes")),
                    },
                    r,
                )
            }
            1 => {
                let (a, r) = take(r, 8, "float min")?;
                let (b, r) = take(r, 8, "float max")?;
                (
                    Domain::FloatRange {
                        min: f64::from_bits(u64::from_le_bytes(a.try_into().expect("8 bytes"))),
                        max: f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))),
                    },
                    r,
                )
            }
            2 => {
                let (head, mut r) = take(r, 4, "category count")?;
                let k = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
                let mut cats = Vec::with_capacity(k);
                for _ in 0..k {
                    let (c, rr) = take_string(r)?;
                    cats.push(c);
                    r = rr;
                }
                (Domain::Categorical(cats), r)
            }
            3 => (Domain::Text, r),
            4 => (Domain::Boolean, r),
            t => return Err(err(format!("unknown domain tag {t}"))),
        };
        attrs.push(Attribute::new(name, domain));
        rest = r;
    }
    if !rest.is_empty() {
        return Err(err("trailing bytes after schema"));
    }
    Schema::new(attrs).map_err(|e| err(format!("schema rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            Attribute::new("age", Domain::IntRange { min: 0, max: 120 }),
            Attribute::new("sex", Domain::Categorical(vec!["M".into(), "F".into()])),
            Attribute::new(
                "dist",
                Domain::FloatRange {
                    min: 0.0,
                    max: 50.0,
                },
            ),
            Attribute::new("note", Domain::Text),
            Attribute::new("ok", Domain::Boolean),
        ])
        .unwrap()
    }

    #[test]
    fn row_round_trip_all_types() {
        let rows: Vec<Vec<Value>> = vec![
            vec![
                Value::Int(42),
                Value::from("M"),
                Value::Float(3.25),
                Value::from("free text"),
                Value::Bool(true),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        ];
        let mut payload = vec![0u8; 2];
        payload[..2].copy_from_slice(&(rows.len() as u16).to_le_bytes());
        for row in &rows {
            let sz = push_row(&mut payload, row);
            assert_eq!(sz, row_size(row));
        }
        let mut back = Vec::new();
        let n = decode_rows(&payload, |r| back.push(r.to_vec())).unwrap();
        assert_eq!(n, 2);
        assert_eq!(back, rows);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = vec![0u8; 2]; // zero rows
        payload.push(7);
        assert!(decode_rows(&payload, |_| {}).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u16.to_le_bytes()); // one row
        payload.extend_from_slice(&1u16.to_le_bytes()); // one value
        payload.push(9); // bogus tag
        assert!(decode_rows(&payload, |_| {}).is_err());
    }

    #[test]
    fn schema_round_trip() {
        let s = demo_schema();
        let enc = encode_schema(&s);
        assert_eq!(decode_schema(&enc).unwrap(), s);
    }

    #[test]
    fn schema_truncations_are_rejected() {
        let enc = encode_schema(&demo_schema());
        for cut in 0..enc.len() {
            assert!(decode_schema(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }
}
