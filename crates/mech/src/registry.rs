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
pub fn mechanisms_for(kind: QueryKind) -> Vec<Box<dyn Mechanism>> {
    mechanisms_for_cached(kind, None)
}

/// [`mechanisms_for`], with the strategy mechanism wired to a shared
/// artifact cache (strategy operator + Monte-Carlo translator) when one is
/// provided. The engine in `apex-core` passes its cache here so repeated
/// queries over the same domain partition skip the MC resampling.
pub fn mechanisms_for_cached(
    kind: QueryKind,
    cache: Option<TranslatorCache>,
) -> Vec<Box<dyn Mechanism>> {
    let sm = || -> Box<dyn Mechanism> {
        match &cache {
            Some(c) => Box::new(StrategyMechanism::with_cache(
                apex_query::Strategy::H2,
                McConfig::default(),
                c.clone(),
            )),
            None => Box::new(StrategyMechanism::h2()),
        }
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

    #[test]
    fn wcq_suite() {
        let ms = mechanisms_for(QueryKind::Wcq);
        let names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LM", "SM"]);
        assert!(ms.iter().all(|m| m.supports(QueryKind::Wcq)));
    }

    #[test]
    fn icq_suite() {
        let ms = mechanisms_for(QueryKind::Icq { threshold: 1.0 });
        let names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LM", "SM", "MPM"]);
    }

    #[test]
    fn cached_suite_matches_uncached() {
        let cache = TranslatorCache::new();
        for kind in [
            QueryKind::Wcq,
            QueryKind::Icq { threshold: 1.0 },
            QueryKind::Tcq { k: 2 },
        ] {
            let plain: Vec<_> = mechanisms_for(kind).iter().map(|m| m.name()).collect();
            let cached: Vec<_> = mechanisms_for_cached(kind, Some(cache.clone()))
                .iter()
                .map(|m| m.name())
                .collect();
            assert_eq!(plain, cached);
        }
    }

    #[test]
    fn tcq_suite() {
        let ms = mechanisms_for(QueryKind::Tcq { k: 3 });
        let names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LM", "LTM"]);
        assert!(ms.iter().all(|m| m.supports(QueryKind::Tcq { k: 3 })));
    }
}
