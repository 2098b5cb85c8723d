//! Typed cell values.

use std::cmp::Ordering;

/// The data types supported by the single-table schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (used for continuous attributes like trip distance).
    Float,
    /// UTF-8 string (categorical or free text).
    Str,
    /// Boolean.
    Bool,
}

/// A single cell value. `Null` is a first-class member because the entity
/// resolution case study (Section 8) issues `A IS NULL` workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
    /// SQL-style NULL (unknown).
    Null,
}

impl Value {
    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Null => None,
        }
    }

    /// Whether this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: `Int` and `Float` coerce to `f64`, everything else is
    /// `None`. Comparison predicates use this so `age > 50` works whether
    /// `age` is stored as an int or a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view for `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: `Null` compares as unknown
    /// (`None`), numerics compare numerically (ints and floats mix), other
    /// types compare only against the same type.
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// SQL-style equality: `Null = anything` is unknown (`None`).
    pub fn eq_sql(&self, other: &Value) -> Option<bool> {
        self.partial_cmp_sql(other).map(|o| o == Ordering::Equal)
    }
}

/// A borrowed view of one cell: what a scan over the row store hands
/// out, so reading a row allocates nothing. Equality is [`Value`]'s
/// (`Float` compares with `==`, so `-0.0 == 0.0` and NaN equals
/// nothing), and [`ValueRef::to_value`] gives back the stored value
/// exactly, bits included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// String value.
    Str(&'a str),
    /// Boolean value.
    Bool(bool),
    /// SQL-style NULL.
    Null,
}

impl ValueRef<'_> {
    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_string()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Null => Value::Null,
        }
    }

    /// Numeric view, as [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            _ => None,
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Null => ValueRef::Null,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Int(3).partial_cmp_sql(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Float(2.0).eq_sql(&Value::Int(2)), Some(true));
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.partial_cmp_sql(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).eq_sql(&Value::Null), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(
            Value::from("AL").partial_cmp_sql(&Value::from("WY")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mixed_incomparable_types_are_unknown() {
        assert_eq!(Value::from("x").partial_cmp_sql(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).partial_cmp_sql(&Value::Int(1)), None);
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3_i64), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
    }

    #[test]
    fn data_type_reporting() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
    }
}
