//! Materialization of similarity predicates as boolean columns.
//!
//! APEx's query language is structural (comparisons, ranges, boolean
//! combinators) so a similarity predicate — an arbitrary function of two
//! text cells — cannot be pushed into the engine's partitioner directly.
//! Instead, the case study *derives* a table: one boolean column per
//! candidate predicate, one per null indicator, plus the ground-truth
//! label. The derivation is a deterministic per-tuple map of the pair
//! table, so differential privacy over the derived table equals
//! differential privacy over the pair table (adding/removing one pair
//! adds/removes exactly one derived row).

use apex_data::{Attribute, Dataset, Domain, Schema, SchemaError, Value};

use crate::SimilarityPredicate;

/// Errors raised while materializing the derived table.
#[derive(Debug)]
pub enum DerivedError {
    /// The pair table is missing a `{attr}_a` / `{attr}_b` column pair.
    MissingAttribute(String),
    /// The pair table has no `label` column.
    MissingLabel,
    /// Schema construction failed (duplicate predicate columns).
    Schema(SchemaError),
}

impl std::fmt::Display for DerivedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerivedError::MissingAttribute(a) => {
                write!(f, "pair table lacks columns {a}_a / {a}_b")
            }
            DerivedError::MissingLabel => write!(f, "pair table lacks a label column"),
            DerivedError::Schema(e) => write!(f, "derived schema error: {e}"),
        }
    }
}

impl std::error::Error for DerivedError {}

impl From<SchemaError> for DerivedError {
    fn from(e: SchemaError) -> Self {
        DerivedError::Schema(e)
    }
}

/// The materialized table plus its column map.
#[derive(Debug, Clone)]
pub struct MaterializedPairs {
    /// The derived dataset: `null_{attr}` booleans, one boolean per
    /// candidate predicate, and `label`.
    pub table: Dataset,
    /// Base attributes with null-indicator columns, in column order.
    pub null_attrs: Vec<String>,
    /// The candidate predicates, parallel to their columns.
    pub predicates: Vec<SimilarityPredicate>,
}

impl MaterializedPairs {
    /// Column name of the null indicator for a base attribute.
    pub fn null_column(attr: &str) -> String {
        format!("null_{attr}")
    }

    /// Column name of candidate predicate `i`.
    pub fn predicate_column(&self, i: usize) -> String {
        self.predicates[i].column_name()
    }
}

/// Materializes `predicates` (and null indicators for `null_attrs`) over
/// the pair table.
///
/// # Errors
/// Fails when the pair table lacks the referenced columns or when two
/// predicates collide on a column name.
pub fn materialize(
    pairs: &Dataset,
    null_attrs: &[String],
    predicates: &[SimilarityPredicate],
) -> Result<MaterializedPairs, DerivedError> {
    // Resolve all source columns up front.
    let label_idx = pairs
        .schema()
        .index_of("label")
        .map_err(|_| DerivedError::MissingLabel)?;
    let mut null_sources = Vec::with_capacity(null_attrs.len());
    for attr in null_attrs {
        let ia = pairs
            .schema()
            .index_of(&format!("{attr}_a"))
            .map_err(|_| DerivedError::MissingAttribute(attr.clone()))?;
        let ib = pairs
            .schema()
            .index_of(&format!("{attr}_b"))
            .map_err(|_| DerivedError::MissingAttribute(attr.clone()))?;
        null_sources.push((ia, ib));
    }
    for p in predicates {
        for side in ["a", "b"] {
            pairs
                .schema()
                .index_of(&format!("{}_{side}", p.attr))
                .map_err(|_| DerivedError::MissingAttribute(p.attr.clone()))?;
        }
    }

    let mut attrs: Vec<Attribute> = Vec::with_capacity(null_attrs.len() + predicates.len() + 1);
    for attr in null_attrs {
        attrs.push(Attribute::new(
            MaterializedPairs::null_column(attr),
            Domain::Boolean,
        ));
    }
    for p in predicates {
        attrs.push(Attribute::new(p.column_name(), Domain::Boolean));
    }
    attrs.push(Attribute::new("label", Domain::Boolean));
    let schema = Schema::new(attrs)?;

    let mut rows = Vec::with_capacity(pairs.len());
    pairs.for_each_row(|row| {
        let mut out = Vec::with_capacity(schema.arity());
        for &(ia, ib) in &null_sources {
            out.push(Value::Bool(row[ia].is_null() || row[ib].is_null()));
        }
        for p in predicates {
            out.push(Value::Bool(p.eval_pair(pairs, row)));
        }
        out.push(match &row[label_idx] {
            Value::Bool(b) => Value::Bool(*b),
            _ => Value::Bool(false),
        });
        rows.push(out);
    });

    let table = Dataset::new(schema, rows)?;
    Ok(MaterializedPairs {
        table,
        null_attrs: null_attrs.to_vec(),
        predicates: predicates.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Similarity, Transformation};
    use apex_data::synth::{citations_dataset, CitationsConfig};
    use apex_data::Predicate;

    fn pairs() -> Dataset {
        citations_dataset(&CitationsConfig {
            n_pairs: 300,
            ..Default::default()
        })
    }

    fn preds() -> Vec<SimilarityPredicate> {
        vec![
            SimilarityPredicate::new(
                "title",
                Transformation::SpaceTokenization,
                Similarity::Jaccard,
                0.6,
            ),
            SimilarityPredicate::new("venue", Transformation::TwoGrams, Similarity::Cosine, 0.7),
        ]
    }

    #[test]
    fn materializes_expected_schema() {
        let m = materialize(&pairs(), &["title".into(), "venue".into()], &preds()).unwrap();
        assert_eq!(m.table.len(), 300);
        // 2 null cols + 2 predicate cols + label.
        assert_eq!(m.table.schema().arity(), 5);
        assert!(m.table.schema().index_of("null_title").is_ok());
        assert!(m.table.schema().index_of("label").is_ok());
    }

    #[test]
    fn predicate_columns_separate_matches_from_non_matches() {
        let m = materialize(&pairs(), &[], &preds()).unwrap();
        let col = m.predicate_column(0);
        // The title-Jaccard predicate should fire far more often on true
        // matches than on non-matches.
        let and_match = m
            .table
            .count(&Predicate::eq(col.as_str(), true).and(Predicate::eq("label", true)))
            .unwrap() as f64;
        let matches = m.table.count(&Predicate::eq("label", true)).unwrap() as f64;
        let and_non = m
            .table
            .count(&Predicate::eq(col.as_str(), true).and(Predicate::eq("label", false)))
            .unwrap() as f64;
        let nons = m.table.count(&Predicate::eq("label", false)).unwrap() as f64;
        assert!(
            and_match / matches > 0.5,
            "recall on matches {}",
            and_match / matches
        );
        assert!(and_non / nons < 0.1, "false-fire rate {}", and_non / nons);
    }

    #[test]
    fn null_indicators_count_nulls() {
        let cfg = CitationsConfig {
            n_pairs: 500,
            null_rate: 0.1,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        let m = materialize(&d, &["title".into()], &[]).unwrap();
        let n = m.table.count(&Predicate::eq("null_title", true)).unwrap();
        // P(any of two sides null) ≈ 0.19 at rate 0.1.
        let frac = n as f64 / 500.0;
        assert!(frac > 0.1 && frac < 0.3, "{frac}");
    }

    #[test]
    fn missing_attribute_is_an_error() {
        let p = vec![SimilarityPredicate::new(
            "nonexistent",
            Transformation::TwoGrams,
            Similarity::Jaccard,
            0.5,
        )];
        assert!(matches!(
            materialize(&pairs(), &[], &p),
            Err(DerivedError::MissingAttribute(_))
        ));
    }
}
