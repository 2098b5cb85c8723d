//! Similarity predicates `p ≡ sim(t(r₁.A), t(r₂.A)) > θ`.

use apex_data::{Dataset, Value};

use crate::{Similarity, Transformation};

/// A similarity predicate over a record *pair*: compare attribute `attr`
/// of the two sides (columns `{attr}_a` / `{attr}_b` of the pair table)
/// after transformation, against a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityPredicate {
    /// Base attribute name (e.g. `"title"`).
    pub attr: String,
    /// Token transformation `t`.
    pub transform: Transformation,
    /// Similarity function `sim`.
    pub sim: Similarity,
    /// Threshold `θ` — the predicate is `sim > θ`.
    pub theta: f64,
}

impl SimilarityPredicate {
    /// Convenience constructor.
    pub fn new(
        attr: impl Into<String>,
        transform: Transformation,
        sim: Similarity,
        theta: f64,
    ) -> Self {
        Self {
            attr: attr.into(),
            transform,
            sim,
            theta,
        }
    }

    /// Stable column name for the materialized truth value of this
    /// predicate (see [`crate::derived`]).
    pub fn column_name(&self) -> String {
        format!(
            "p_{}_{}_{}_{}",
            self.attr,
            self.transform.name(),
            self.sim.name(),
            // Thresholds come from a small grid; 3 decimals are plenty
            // and keep names readable.
            format!("{:.3}", self.theta).replace('.', "_")
        )
    }

    /// Evaluates the predicate on one pair row of `pairs`. A NULL on
    /// either side makes the predicate false (unknown ⇒ not similar).
    ///
    /// # Panics
    /// Panics if the pair table lacks the `{attr}_a` / `{attr}_b`
    /// columns — the derived-table builder validates this up front.
    pub fn eval_pair(&self, pairs: &Dataset, row: &[Value]) -> bool {
        let ia = pairs
            .schema()
            .index_of(&format!("{}_a", self.attr))
            .expect("pair table has _a column");
        let ib = pairs
            .schema()
            .index_of(&format!("{}_b", self.attr))
            .expect("pair table has _b column");
        let (Some(sa), Some(sb)) = (value_as_text(&row[ia]), value_as_text(&row[ib])) else {
            return false;
        };
        let ta = self.transform.apply(&sa);
        let tb = self.transform.apply(&sb);
        self.sim.eval(&ta, &tb) > self.theta
    }
}

/// Text view of a cell: strings pass through, numbers are formatted (the
/// `year` attribute is an integer but still participates in similarity
/// predicates), NULL is `None`.
fn value_as_text(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        Value::Int(i) => Some(i.to_string()),
        Value::Float(f) => Some(f.to_string()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Null => None,
    }
}

impl std::fmt::Display for SimilarityPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}({}({})) > {:.3}",
            self.sim.name(),
            self.transform.name(),
            self.attr,
            self.theta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_data::synth::{citations_dataset, CitationsConfig};

    #[test]
    fn eval_on_identical_titles_is_true_at_moderate_threshold() {
        let cfg = CitationsConfig {
            n_pairs: 50,
            null_rate: 0.0,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        let p = SimilarityPredicate::new(
            "title",
            Transformation::SpaceTokenization,
            Similarity::Jaccard,
            0.95,
        );
        // Find a matching pair with unperturbed title (exists with high
        // probability in 50 pairs); its Jaccard is 1 > 0.95.
        let il = d.schema().index_of("label").unwrap();
        let ia = d.schema().index_of("title_a").unwrap();
        let ib = d.schema().index_of("title_b").unwrap();
        let any_true = d
            .to_rows()
            .iter()
            .filter(|r| r[il] == Value::Bool(true) && r[ia] == r[ib])
            .any(|r| p.eval_pair(&d, r));
        assert!(any_true);
    }

    #[test]
    fn null_side_is_false() {
        let cfg = CitationsConfig {
            n_pairs: 400,
            null_rate: 0.5,
            ..Default::default()
        };
        let d = citations_dataset(&cfg);
        let p =
            SimilarityPredicate::new("title", Transformation::TwoGrams, Similarity::Cosine, 0.0);
        let ia = d.schema().index_of("title_a").unwrap();
        d.for_each_row(|row| {
            if row[ia].is_null() {
                assert!(!p.eval_pair(&d, row));
            }
        });
    }

    #[test]
    fn column_names_are_distinct_and_stable() {
        let p1 =
            SimilarityPredicate::new("title", Transformation::TwoGrams, Similarity::Jaccard, 0.5);
        let p2 =
            SimilarityPredicate::new("title", Transformation::TwoGrams, Similarity::Jaccard, 0.6);
        assert_ne!(p1.column_name(), p2.column_name());
        assert_eq!(p1.column_name(), p1.clone().column_name());
        assert_eq!(p1.column_name(), "p_title_2grams_jaccard_0_500");
    }

    #[test]
    fn display_is_readable() {
        let p =
            SimilarityPredicate::new("venue", Transformation::ThreeGrams, Similarity::Edit, 0.75);
        assert_eq!(format!("{p}"), "edit(3grams(venue)) > 0.750");
    }
}
