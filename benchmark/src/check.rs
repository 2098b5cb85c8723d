//! Correctness checks: the paper's promises (Σε ≤ B, a denial charges
//! nothing, every answer meets (α, β)) and the system's (acked ⇒
//! durable, recovered spent == acked Σε, acked mutations are the data),
//! checked against what the clients saw on the wire. Every failed check
//! counts as a failed operation and makes the run exit non-zero.

use std::collections::HashMap;

use apex_query::CompiledWorkload;
use apex_serve::{json, wire, ShardSet};

use crate::client::{Acked, Client, WcqSample};
use crate::gen::{Catalog, Kind, MUTATION_ROWS, TENANT_BUDGET};

/// One named check and what it found.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

fn check(name: impl Into<String>, ok: bool, detail: String) -> Check {
    Check {
        name: name.into(),
        ok,
        detail,
    }
}

/// Per-tenant sums of what every client was acked.
pub fn wire_ledger(catalog: &Catalog, clients: &[Client]) -> Vec<Acked> {
    (0..catalog.tenants.len())
        .map(|t| {
            clients.iter().fold(Acked::default(), |mut sum, c| {
                sum.epsilon += c.acked[t].epsilon;
                sum.denied += c.acked[t].denied;
                sum
            })
        })
        .collect()
}

/// Budget invariants of `set` against the wire ledger: `spent ≤ B`, and
/// engine spent == Σε acked within 1e-9 relative — which also proves
/// every `409` charged nothing. `when` labels live vs recovered state.
pub fn ledger_checks(set: &ShardSet, catalog: &Catalog, wire: &[Acked], when: &str) -> Vec<Check> {
    let mut over = Vec::new();
    let mut drift = Vec::new();
    for (t, acked) in catalog.tenants.iter().zip(wire) {
        let spent = set.spent(&t.name);
        let tol = 1e-9 * acked.epsilon.max(1.0);
        if spent > TENANT_BUDGET + tol {
            over.push(format!("{}: spent {spent} > B", t.name));
        }
        if (spent - acked.epsilon).abs() > tol {
            drift.push(format!(
                "{}: spent {spent} != acked {}",
                t.name, acked.epsilon
            ));
        }
    }
    vec![
        check(
            format!("{when}.spent_within_budget"),
            over.is_empty(),
            over.join("; "),
        ),
        check(
            format!("{when}.spent_equals_acked_epsilon"),
            drift.is_empty(),
            drift.join("; "),
        ),
    ]
}

/// The live engines recorded exactly the denials the wire saw (a denial
/// that charged would already have failed the ledger check; this pins
/// the count). Transcripts do not survive a restart, so live state only.
pub fn denial_check(set: &ShardSet, catalog: &Catalog, wire: &[Acked]) -> Check {
    let mut off = Vec::new();
    for (t, acked) in catalog.tenants.iter().zip(wire) {
        let denied: usize = set
            .states()
            .iter()
            .filter_map(|s| s.tenant(&t.name))
            .map(|tenant| tenant.engine.export_ledger().denied)
            .sum();
        if denied as u64 != acked.denied {
            off.push(format!(
                "{}: engine denied {denied}, wire saw {}",
                t.name, acked.denied
            ));
        }
    }
    check("live.denials_match_409s", off.is_empty(), off.join("; "))
}

/// The data is exactly the acked mutations applied to the tenant's
/// base: row count (by a real scan) and epoch. Only tenant 0 is ever
/// mutated; `base_epoch` is 0 for resident and 1 for paged tenants.
pub fn mutation_check(set: &ShardSet, catalog: &Catalog, clients: &[Client], when: &str) -> Check {
    let t = &catalog.tenants[0];
    let sum = |f: fn(&Client) -> u64| clients.iter().map(f).sum::<u64>();
    let want_rows = t.data.len() as u64 + sum(|c| c.rows_inserted) - sum(|c| c.rows_deleted);
    let acked = sum(|c| c.mutations_acked);
    let tenant = set
        .owner(&t.name)
        .tenant(&t.name)
        .expect("tenant 0 is registered");
    let (rows, epoch, base_epoch) = tenant.engine.with_engine(|e| {
        let base = if e.dataset_epoch().is_some() { 1 } else { 0 };
        (e.dataset_scan_rows(), e.epoch(), base)
    });
    let ok = rows == want_rows && epoch == base_epoch + acked;
    check(
        format!("{when}.data_equals_acked_mutations"),
        ok,
        format!(
            "rows {rows} (want {want_rows}), epoch {epoch} (want {})",
            base_epoch + acked
        ),
    )
}

/// What the accuracy check measured.
pub struct Accuracy {
    pub check: Check,
    pub checked: u64,
    pub violations: u64,
}

/// Most one-off workloads (those without a repeating shape) compiled
/// for the accuracy check — each costs a compile and a scan.
const ONE_OFF_LIMIT: usize = 300;

/// Compares answered WCQs with `CompiledWorkload::true_answer` over the
/// benchmark's own copy of the data: an answer violates its requirement
/// when any count is off by more than α. At most a β share may, plus a
/// binomial 4σ slack. On `paged_mutating` up to one insert batch is
/// outstanding at any time, so the comparison against the base data
/// allows α + that many rows.
pub fn accuracy_check(catalog: &Catalog, samples: &[&WcqSample]) -> Accuracy {
    let slack = match catalog.kind {
        Kind::PagedMutating => MUTATION_ROWS as f64,
        _ => 0.0,
    };
    let mut truths: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    let mut one_offs = 0;
    let (mut checked, mut violations, mut allowed_share) = (0u64, 0u64, 0.0);
    for s in samples {
        let data = &catalog.tenants[s.tenant].data;
        let compute = || {
            let body = json::parse(&s.query.body).expect("generated body is JSON");
            let (query, _) = wire::parse_query_request(&body).expect("generated query parses");
            CompiledWorkload::compile(data.schema(), &query.workload)
                .expect("generated workload compiles")
                .true_answer(data)
        };
        let one_off;
        let truth = match s.query.shape {
            Some(shape) => truths.entry((s.tenant, shape)).or_insert_with(compute),
            None if one_offs < ONE_OFF_LIMIT => {
                one_offs += 1;
                one_off = compute();
                &one_off
            }
            None => continue,
        };
        let worst = truth
            .iter()
            .zip(&s.counts)
            .map(|(t, c)| (t - c).abs())
            .fold(0.0, f64::max);
        checked += 1;
        allowed_share = s.query.beta;
        if s.counts.len() != truth.len() || worst > s.query.alpha + slack {
            violations += 1;
        }
    }
    let n = checked as f64;
    let allowed = n * allowed_share + 4.0 * (n * allowed_share * (1.0 - allowed_share)).sqrt();
    Accuracy {
        check: check(
            "answers_meet_alpha_beta",
            violations as f64 <= allowed,
            format!("{violations} of {checked} answered WCQs off by more than alpha (allowed {allowed:.1})"),
        ),
        checked,
        violations,
    }
}
