//! The service's whole correctness contract, checked in one place.
//!
//! Every harness generates a history, HISTEX-style (PAPERS.md), records
//! what its clients were told in an [`Acked`], reads the server into an
//! [`Observed`] before and after, and lets [`check`] report any broken
//! invariant as `"<invariant>: <seen>"`. Drivers check on every response
//! (the exerciser: every step), on the live server (L), after a restart
//! (R), after a kill at every yield point (R+, with [`Slack`]):
//!
//! | invariant | statement | `--self-test` | exerciser | `tests/service.rs` | `serve_soak` |
//! |---|---|---|---|---|---|
//! | `protocol` | every response is a `201` open, a `200` (answer, mutation ack, budget read, close) or a `409`, with every field its kind carries | each | each | each | each |
//! | `ε ≤ εᵘ` | an answer's charged loss is within the worst case its admission checked | each | each | each | each |
//! | `spent ≤ B` | the tenant ledger never passes `B`; a budget read shows neither it nor the session past its slice | each, L, R | each, R+ | L, R | L, R |
//! | `spent == acked Σε` | the ledger moved by exactly the acked ε, plus at most the εᵘ of commits charged but not acked (live: a failed covering sync; recovered: the commit a kill cut) | L, R | each, R+ | L, R | L, R |
//! | `grant conservation` | granted == live allowances + spend of closed sessions + reclaimed | L, R | each, R+ | L, R | L, R |
//! | `denials == 409s` | the engine recorded exactly the denials clients saw (transcripts do not survive a restart) | L | each | L | L |
//! | `applied == epoch` | the epoch moved with every applied mutation, those are the acked ones (plus in-flight slack), rows are the base plus the net acked rows, the acked epoch is served | L, R | each, R+ | L, R | L, R |
//! | `view == rescan` | every maintained histogram equals a rescan of its rows | L, R | each, R+ | L, R | L, R |
//!
//! Comparing `after − base` lets a driver start from a recovered,
//! non-empty state (the self-test's second pass) without a special case.

use std::sync::Arc;

use crate::json::Json;
use crate::state::ServerState;

/// The one tolerance of every float comparison: `1e-9 × max(1, |x|)`.
pub fn tol(expected: f64) -> f64 {
    1e-9 * expected.abs().max(1.0)
}

/// Per-tenant wire model: what the clients were acked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Acked {
    /// Sessions opened (`201`) and the Σ allowance they were granted.
    pub opened: u64,
    pub granted: f64,
    /// Answers (`200` with an ε) and their Σε.
    pub answered: u64,
    pub epsilon: f64,
    /// Denials (`409`).
    pub denied: u64,
    /// Mutation batches acked, net rows inserted, highest epoch acked.
    pub mutations: u64,
    pub rows: i64,
    pub epoch: u64,
}

impl Acked {
    /// Turns one response into model updates. A budget read is checked on
    /// the spot; a close changes nothing tracked. Fails `protocol` on a
    /// status outside `{200, 201, 409}` or a missing field (named).
    pub fn record(&mut self, status: u16, body: &Json) -> Result<(), String> {
        let num = |path: &str| {
            path.split('.')
                .try_fold(body, |v, key| v.get(key))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("protocol: {status} without `{path}`: {body:?}"))
        };
        match status {
            201 => {
                self.granted += num("allowance")?;
                self.opened += 1;
            }
            409 => self.denied += 1,
            200 if body.get("epsilon").is_some() => {
                let (epsilon, upper) = (num("epsilon")?, num("epsilon_upper")?);
                if epsilon.is_nan() || epsilon > upper + tol(upper) {
                    return Err(format!("ε ≤ εᵘ: answered ε {epsilon}, εᵘ {upper}"));
                }
                self.epsilon += epsilon;
                self.answered += 1;
            }
            200 if body.get("epoch").is_some() => {
                self.rows += num("inserted")? as i64 - num("deleted")? as i64;
                self.epoch = self.epoch.max(num("epoch")? as u64);
                self.mutations += 1;
            }
            200 if body.get("engine").is_some() => {
                for (spent, cap) in [("spent", "allowance"), ("engine.spent", "engine.budget")] {
                    let (spent, cap) = (num(spent)?, num(cap)?);
                    if spent > cap + tol(cap) {
                        return Err(format!("spent ≤ B: budget read {spent} > {cap}"));
                    }
                }
            }
            200 if body.get("released").is_some() => {}
            _ => return Err(format!("protocol: unexpected {status}: {body:?}")),
        }
        Ok(())
    }

    /// Folds another client's model of the same tenant into this one.
    pub fn merge(&mut self, other: &Acked) {
        self.opened += other.opened;
        self.granted += other.granted;
        self.answered += other.answered;
        self.epsilon += other.epsilon;
        self.denied += other.denied;
        self.mutations += other.mutations;
        self.rows += other.rows;
        self.epoch = self.epoch.max(other.epoch);
    }
}

/// Per-tenant server state, read in process and summed over shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// Ledger spend, the budget `B`, and closed sessions' remainders.
    pub spent: f64,
    pub budget: f64,
    pub reclaimed: f64,
    /// Σ allowance and Σ spend of the live sessions.
    pub live_allowance: f64,
    pub live_spent: f64,
    /// Denials in the engines' transcripts.
    pub denied: u64,
    /// From the owning shard's copy, the one that serves: epoch, mutations
    /// applied, scanned rows, the first view differing from a rescan.
    pub epoch: u64,
    pub applied: u64,
    pub rows: u64,
    pub view_divergence: Option<String>,
}

impl Observed {
    /// Reads `tenant`'s ledger from every state (`ShardSet::states`)
    /// serving it, and its data from `states[owner]`
    /// (`ShardSet::ring().shard_for`).
    pub fn read(states: &[Arc<ServerState>], owner: usize, tenant: &str) -> Observed {
        let mut o = Observed::default();
        for (state, t) in states.iter().filter_map(|s| Some((s, s.tenant(tenant)?))) {
            let ledger = t.engine.export_ledger();
            (o.spent, o.budget) = (o.spent + ledger.spent, ledger.budget);
            o.denied += ledger.denied as u64;
            o.reclaimed += t.reclaimed();
            for s in state.list_sessions().iter().map(|s| &s.session) {
                if s.dataset == tenant {
                    o.live_allowance += s.allowance;
                    o.live_spent += s.spent;
                }
            }
        }
        if let Some(t) = states[owner].tenant(tenant) {
            t.engine.with_engine(|e| {
                (o.epoch, o.applied, o.rows) =
                    (e.epoch(), e.mutations_applied(), e.dataset_scan_rows());
                o.view_divergence = e.audit_dataset_views().err();
            });
        }
        o
    }
}

/// Whether `after` is the live server or a state recovered from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    Live,
    Recovered,
}

/// Un-acked operations that may or may not have landed: a commit charged
/// but never acked — a kill cut it, or its covering sync failed — (its
/// εᵘ), mutation batches never acked (`rows_per_mutation` each).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slack {
    pub epsilon: f64,
    pub mutations: u64,
    pub rows_per_mutation: i64,
}

/// Compares what moved from `base` to `after` against `acked`; the error
/// names every broken invariant, in table order, `"; "`-joined.
pub fn check(
    when: When,
    base: &Observed,
    after: &Observed,
    acked: &Acked,
    slack: Slack,
) -> Result<(), String> {
    let (b, o, a, s, live) = (base, after, acked, slack, when == When::Live);
    let mut out = Vec::new();
    if o.spent > o.budget + tol(o.budget) {
        out.push(format!("spent ≤ B: spent {} > B {}", o.spent, o.budget));
    }
    let (spent, lo, hi) = (o.spent - b.spent, a.epsilon, a.epsilon + s.epsilon);
    if !(spent >= lo - tol(lo) && spent <= hi + tol(hi)) {
        let (name, slack) = (if live { "live" } else { "recovered" }, s.epsilon);
        let seen = format!("{name} spent {spent}, acked Σε {lo}, in-flight εᵘ {slack}");
        out.push(format!("spent == acked Σε: {seen}"));
    }
    let held = |o: &Observed| o.live_allowance + (o.spent - o.live_spent) + o.reclaimed;
    let (held, granted) = (held(o) - held(b), a.granted);
    if (held - granted).abs() > tol(granted) {
        let seen = format!("granted {granted}, held {held}");
        out.push(format!("grant conservation: {seen}"));
    }
    let denied = o.denied.wrapping_sub(b.denied);
    if live && denied != a.denied {
        let wire = a.denied;
        out.push(format!("denials == 409s: engine {denied}, wire {wire}"));
    }
    let applied = o.applied.wrapping_sub(b.applied);
    let extra = applied.wrapping_sub(a.mutations) as i64;
    let rows = b.rows as i64 + a.rows + extra * s.rows_per_mutation;
    if o.epoch.wrapping_sub(b.epoch) != applied
        || !(0..=s.mutations as i64).contains(&extra)
        || o.rows as i64 != rows
        || a.mutations > 0 && !(a.epoch..=a.epoch + extra.max(0) as u64).contains(&o.epoch)
    {
        out.push(format!("applied == epoch: {b:?} → {o:?}, {a:?} + {s:?}"));
    }
    if let Some(divergence) = &o.view_divergence {
        out.push(format!("view == rescan: {divergence}"));
    }
    out.is_empty().then_some(()).ok_or_else(|| out.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A consistent history: one open granting 0.4, one answer of 0.2,
    /// two denials, one two-row insert landing at epoch 4.
    fn history() -> (Observed, Observed, Acked) {
        let base = Observed {
            spent: 0.1,
            budget: 1.0,
            live_allowance: 0.5,
            live_spent: 0.1,
            denied: 1,
            epoch: 3,
            applied: 3,
            rows: 10,
            ..Observed::default()
        };
        let after = Observed {
            spent: 0.3,
            live_allowance: 0.9,
            live_spent: 0.3,
            denied: 3,
            epoch: 4,
            applied: 4,
            rows: 12,
            ..base.clone()
        };
        let acked = Acked {
            opened: 1,
            granted: 0.4,
            answered: 1,
            epsilon: 0.2,
            denied: 2,
            mutations: 1,
            rows: 2,
            epoch: 4,
        };
        (base, after, acked)
    }

    /// The invariants `check` names for `after` against [`history`].
    fn named(when: When, after: &Observed, slack: Slack) -> Vec<String> {
        let (base, _, acked) = history();
        let err = check(when, &base, after, &acked, slack).err();
        let err = err.unwrap_or_default();
        err.split("; ")
            .filter_map(|v| Some(v[..v.find(':')?].into()))
            .collect()
    }

    #[test]
    fn every_crafted_violation_names_only_its_own_invariant() {
        let (_, good, _) = history();
        assert_eq!(named(When::Live, &good, Slack::default()), [""; 0]);
        type Craft = (&'static str, fn(&mut Observed));
        let crafted: [Craft; 9] = [
            ("spent ≤ B", |o| o.budget = 0.25),
            // Charged without an ack, and held by the live session.
            ("spent == acked Σε", |o| {
                o.spent += 0.05;
                o.live_spent += 0.05;
            }),
            // A close whose remainder was never reclaimed.
            ("grant conservation", |o| o.live_allowance = 0.8),
            ("denials == 409s", |o| o.denied = 2),
            ("applied == epoch", |o| o.rows = 13),
            // The epoch moved without a mutation being applied…
            ("applied == epoch", |o| o.epoch = 5),
            // …an acked mutation was lost…
            ("applied == epoch", |o| {
                (o.epoch, o.applied, o.rows) = (3, 3, 10)
            }),
            // …or one landed that nobody was acked.
            ("applied == epoch", |o| (o.epoch, o.applied) = (5, 5)),
            ("view == rescan", |o| o.view_divergence = Some("x".into())),
        ];
        for (invariant, craft) in crafted {
            let mut after = good.clone();
            craft(&mut after);
            assert_eq!(named(When::Live, &after, Slack::default()), [invariant]);
        }
        // Transcripts do not survive a restart: no denial count there.
        let mut recovered = good.clone();
        recovered.denied = 0;
        assert!(named(When::Recovered, &recovered, Slack::default()).is_empty());
    }

    #[test]
    fn recovered_slack_admits_exactly_the_in_flight_operations() {
        let (_, good, _) = history();
        let mut over = good.clone();
        over.spent += 0.05;
        over.live_spent += 0.05;
        let none = Slack::default();
        assert_eq!(named(When::Recovered, &over, none), ["spent == acked Σε"]);
        let eps = Slack {
            epsilon: 0.05,
            ..none
        };
        assert_eq!(named(When::Recovered, &over, eps), [""; 0]);
        // Live, the same slack covers a charge whose sync failed.
        assert_eq!(named(When::Live, &over, none), ["spent == acked Σε"]);
        assert_eq!(named(When::Live, &over, eps), [""; 0]);
        // Never below what was acked, whatever the slack.
        let mut under = good.clone();
        under.spent -= 0.05;
        under.live_spent -= 0.05;
        assert_eq!(named(When::Recovered, &under, eps), ["spent == acked Σε"]);

        // One durable-but-unacked insert of three rows.
        let mut landed = good.clone();
        (landed.epoch, landed.applied, landed.rows) = (5, 5, 15);
        assert_eq!(named(When::Recovered, &landed, none), ["applied == epoch"]);
        let mutation = Slack {
            mutations: 1,
            rows_per_mutation: 3,
            ..none
        };
        assert_eq!(named(When::Recovered, &landed, mutation), [""; 0]);
        assert_eq!(named(When::Recovered, &good, mutation), [""; 0]);
    }

    fn record(status: u16, body: &str) -> Result<Acked, String> {
        let mut acked = Acked::default();
        acked.record(status, &json::parse(body).unwrap())?;
        Ok(acked)
    }

    #[test]
    fn record_models_every_ack_and_names_what_is_missing() {
        let open = record(201, r#"{"session":1,"allowance":0.5}"#).unwrap();
        assert_eq!((open.opened, open.granted), (1, 0.5));
        assert_eq!(record(409, r#"{"status":"denied"}"#).unwrap().denied, 1);
        let answer = record(200, r#"{"epsilon":0.1,"epsilon_upper":0.2}"#).unwrap();
        assert_eq!((answer.answered, answer.epsilon), (1, 0.1));
        let insert = record(200, r#"{"inserted":2,"deleted":0,"epoch":7}"#).unwrap();
        assert_eq!((insert.mutations, insert.rows, insert.epoch), (1, 2, 7));
        let read = r#"{"spent":0.1,"allowance":0.2,"engine":{"spent":0.3,"budget":0.6}}"#;
        assert_eq!(record(200, read).unwrap(), Acked::default());
        assert_eq!(record(200, r#"{"released":0.1}"#), Ok(Acked::default()));

        let fails = |status, body: &str| record(status, body).unwrap_err();
        for status in [400, 404, 410, 500, 503] {
            assert!(fails(status, "{}").starts_with("protocol: "));
        }
        // A renamed field is an error that names it, never a vacuous pass.
        let renamed = r#"{"spent":0.1,"allowance":0.2,"engine":{"budget":0.6}}"#;
        let renamed = fails(200, renamed);
        assert!(
            renamed.starts_with("protocol: 200 without `engine.spent`"),
            "{renamed}"
        );
        let missing = fails(200, r#"{"epsilon":0.1}"#);
        assert!(missing.contains("`epsilon_upper`"), "{missing}");
        let slice = r#"{"spent":0.3,"allowance":0.2,"engine":{"spent":0.3,"budget":0.6}}"#;
        assert!(fails(200, slice).starts_with("spent ≤ B: "));
        let engine = r#"{"spent":0.1,"allowance":0.2,"engine":{"spent":0.7,"budget":0.6}}"#;
        assert!(fails(200, engine).starts_with("spent ≤ B: "));
        for over in ["0.3", "1e999"] {
            let body = format!(r#"{{"epsilon":{over},"epsilon_upper":0.2}}"#);
            assert!(fails(200, &body).starts_with("ε ≤ εᵘ: "), "{over}");
        }
    }
}
