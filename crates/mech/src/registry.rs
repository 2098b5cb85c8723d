//! The mechanism registry: which mechanisms apply to each query type
//! (Algorithm 1, Line 4).

use apex_query::QueryKind;

use crate::cache::TranslatorCache;
use crate::mc::McConfig;
use crate::{
    LaplaceMechanism, LaplaceTopKMechanism, Mechanism, MultiPokingMechanism, StrategyMechanism,
};

/// Returns APEx's full mechanism suite for a query type, in the order the
/// paper's Table 2 lists them:
///
/// * WCQ — `LM`, `SM` (H2)
/// * ICQ — `LM`, `SM` (H2), `MPM`
/// * TCQ — `LM`, `LTM`
///
/// The strategy mechanism takes its artifacts (strategy operator +
/// Monte-Carlo translator) from `cache`, so repeated queries over the same
/// domain partition skip the MC resampling.
pub fn mechanisms_for(kind: QueryKind, cache: &TranslatorCache) -> Vec<Box<dyn Mechanism>> {
    let sm = || -> Box<dyn Mechanism> {
        Box::new(StrategyMechanism::new(
            apex_query::Strategy::H2,
            McConfig::default(),
            cache.clone(),
        ))
    };
    let mut out: Vec<Box<dyn Mechanism>> = vec![Box::new(LaplaceMechanism)];
    match kind {
        QueryKind::Wcq => out.push(sm()),
        QueryKind::Icq { .. } => {
            out.push(sm());
            out.push(Box::new(MultiPokingMechanism::default()));
        }
        QueryKind::Tcq { .. } => out.push(Box::new(LaplaceTopKMechanism)),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedQuery;
    use apex_data::{Attribute, Domain, Predicate, Schema};
    use apex_query::{AccuracySpec, ExplorationQuery};

    fn suite(kind: QueryKind) -> Vec<Box<dyn Mechanism>> {
        mechanisms_for(kind, &TranslatorCache::new())
    }

    #[test]
    fn wcq_suite() {
        let ms = suite(QueryKind::Wcq);
        let names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LM", "SM"]);
        assert!(ms.iter().all(|m| m.supports(QueryKind::Wcq)));
    }

    #[test]
    fn icq_suite() {
        let ms = suite(QueryKind::Icq { threshold: 1.0 });
        let names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LM", "SM", "MPM"]);
    }

    #[test]
    fn every_suite_builds_into_the_given_cache() {
        // The WCQ and the ICQ over one workload share its artifacts: the
        // first translation builds them, the second hits.
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 15 },
        )])
        .unwrap();
        let w: Vec<Predicate> = (1..=4)
            .map(|i| Predicate::range("v", 0.0, (4 * i) as f64))
            .collect();
        let acc = AccuracySpec::new(8.0, 0.05).unwrap();
        let cache = TranslatorCache::new();
        for q in [
            ExplorationQuery::wcq(w.clone()),
            ExplorationQuery::icq(w, 1.0),
        ] {
            let q = PreparedQuery::prepare(&schema, &q).unwrap();
            let suite = mechanisms_for(q.kind(), &cache);
            let sm = suite.iter().find(|m| m.name() == "SM").unwrap();
            sm.translate(&q, &acc).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, cache.len()), (1, 1, 1));
    }

    #[test]
    fn tcq_suite() {
        let ms = suite(QueryKind::Tcq { k: 3 });
        let names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LM", "LTM"]);
        assert!(ms.iter().all(|m| m.supports(QueryKind::Tcq { k: 3 })));
    }
}
