//! Task-quality metrics: recall / precision / F1 and blocking cost.
//!
//! These are evaluated on the *ground truth* pair table — they measure
//! the quality of the boolean formula a strategy produced, mirroring how
//! the paper scores 100 cleaner runs per configuration. They are not
//! visible to the analyst during exploration.

use apex_data::{Dataset, Value};

use crate::MaterializedPairs;

/// Precision / recall / F1 of a selected predicate-set formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskQuality {
    /// Fraction of predicted matches that are true matches.
    pub precision: f64,
    /// Fraction of true matches that are predicted.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Evaluates a boolean formula over the materialized table. `selected`
/// are predicate indices; `conjunction = false` means OR (blocking),
/// `true` means AND (matching). An empty selection predicts nothing.
fn predictions(m: &MaterializedPairs, selected: &[usize], conjunction: bool) -> Vec<bool> {
    let cols: Vec<usize> = selected
        .iter()
        .map(|&i| {
            m.table
                .schema()
                .index_of(&m.predicate_column(i))
                .expect("materialized predicate column exists")
        })
        .collect();
    let mut out = Vec::with_capacity(m.table.len());
    m.table.for_each_row(|row| {
        let mut vals = cols.iter().map(|&c| row[c] == Value::Bool(true));
        out.push(
            !cols.is_empty()
                && if conjunction {
                    vals.all(|b| b)
                } else {
                    vals.any(|b| b)
                },
        );
    });
    out
}

fn labels(table: &Dataset) -> Vec<bool> {
    let il = table.schema().index_of("label").expect("label column");
    let mut out = Vec::with_capacity(table.len());
    table.for_each_row(|r| out.push(r[il] == Value::Bool(true)));
    out
}

/// Precision and recall of the formula `∨/∧ selected` against the labels.
pub fn precision_recall(
    m: &MaterializedPairs,
    selected: &[usize],
    conjunction: bool,
) -> TaskQuality {
    let preds = predictions(m, selected, conjunction);
    let labs = labels(&m.table);
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fn_ = 0.0;
    for (&p, &l) in preds.iter().zip(&labs) {
        match (p, l) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fn_ += 1.0,
            (false, false) => {}
        }
    }
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
    TaskQuality {
        precision,
        recall,
        f1: f1_score(precision, recall),
    }
}

/// Harmonic mean of precision and recall (0 when both are 0).
pub fn f1_score(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Blocking cost: the number of pairs the disjunction admits (the paper
/// cuts blocking formulas off at a hardware-motivated limit, 550 for
/// `|D| = 4000`).
pub fn blocking_cost(m: &MaterializedPairs, selected: &[usize]) -> usize {
    predictions(m, selected, false)
        .iter()
        .filter(|&&p| p)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{materialize, Similarity, SimilarityPredicate, Transformation};
    use apex_data::synth::{citations_dataset, CitationsConfig};

    fn materialized() -> MaterializedPairs {
        let pairs = citations_dataset(&CitationsConfig {
            n_pairs: 400,
            ..Default::default()
        });
        let preds = vec![
            // Good predicate: title Jaccard.
            SimilarityPredicate::new(
                "title",
                Transformation::SpaceTokenization,
                Similarity::Jaccard,
                0.6,
            ),
            // Bad predicate: venue cosine at a tiny threshold fires on
            // nearly everything (venues repeat across publications).
            SimilarityPredicate::new("venue", Transformation::TwoGrams, Similarity::Cosine, 0.01),
        ];
        materialize(&pairs, &[], &preds).unwrap()
    }

    #[test]
    fn f1_degenerate_cases() {
        assert_eq!(f1_score(0.0, 0.0), 0.0);
        assert_eq!(f1_score(1.0, 1.0), 1.0);
        assert!((f1_score(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn good_predicate_scores_well() {
        let m = materialized();
        let q = precision_recall(&m, &[0], true);
        assert!(q.recall > 0.5, "recall {}", q.recall);
        assert!(q.precision > 0.8, "precision {}", q.precision);
        assert!(q.f1 > 0.6);
    }

    #[test]
    fn indiscriminate_predicate_has_low_precision() {
        let m = materialized();
        let q = precision_recall(&m, &[1], true);
        assert!(
            q.recall > 0.6,
            "fires on nearly everything: recall {}",
            q.recall
        );
        assert!(q.precision < 0.5, "precision {}", q.precision);
    }

    #[test]
    fn empty_selection_predicts_nothing() {
        let m = materialized();
        let q = precision_recall(&m, &[], false);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f1, 0.0);
        assert_eq!(blocking_cost(&m, &[]), 0);
    }

    #[test]
    fn disjunction_widens_conjunction_narrows() {
        let m = materialized();
        let or_cost = blocking_cost(&m, &[0, 1]);
        let q_and = precision_recall(&m, &[0, 1], true);
        let q_or = precision_recall(&m, &[0, 1], false);
        assert!(or_cost >= 1);
        assert!(q_or.recall >= q_and.recall);
        assert!(q_and.precision >= q_or.precision);
    }
}
