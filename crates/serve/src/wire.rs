//! Wire types: how API bodies map to and from engine types.
//!
//! Queries travel as the paper's **concrete syntax** (the repo already
//! owns a parser for it — `apex_query::parser`), wrapped in a small JSON
//! envelope:
//!
//! ```json
//! {"query": "BIN adult ON COUNT(*) WHERE W = { age IN [17, 40) } ERROR 150 CONFIDENCE 0.99;"}
//! ```
//!
//! The `ERROR … CONFIDENCE …` clause may be replaced (or overridden) by
//! explicit `"alpha"` / `"beta"` fields. Responses serialize
//! [`EngineResponse`] — a denial is not an error, it is a first-class
//! response (HTTP 409 at the transport layer).

use std::borrow::Borrow;

use apex_core::{Answered, EngineResponse};
use apex_query::parser::{parse_query, ParseError, ParsedQuery};
use apex_query::{AccuracySpec, ExplorationQuery, QueryAnswer};

use crate::json::Json;

/// A decoded `POST /v1/sessions` body.
#[derive(Debug, Clone)]
pub struct CreateSession {
    /// Name of the registered dataset to bind to.
    pub dataset: String,
    /// The session's budget slice.
    pub budget: f64,
}

/// Decodes a session-creation body.
///
/// # Errors
/// A human-readable message naming the offending field.
pub fn parse_create_session(body: &Json) -> Result<CreateSession, String> {
    let dataset = body
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or("missing string field \"dataset\"")?
        .to_string();
    let budget = body
        .get("budget")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"budget\"")?;
    if !(budget.is_finite() && budget > 0.0) {
        return Err(format!(
            "\"budget\" must be positive and finite, got {budget}"
        ));
    }
    Ok(CreateSession { dataset, budget })
}

/// Decodes a query-submission body into the engine's input types.
///
/// # Errors
/// A human-readable message: missing fields, syntax errors from the
/// query parser, or an invalid/missing accuracy requirement.
pub fn parse_query_request(body: &Json) -> Result<(ExplorationQuery, AccuracySpec), String> {
    let (parsed, accuracy) = decode_query_request(body, parse_query)?;
    Ok((parsed.query, accuracy))
}

/// The one query-envelope decoder: takes the statement from `"query"`,
/// parses it with `parse` (a shard's router passes its parse memo's,
/// every other caller [`parse_query`]), then applies any explicit
/// `"alpha"`/`"beta"` fields over the statement's own clause. The
/// override follows the parse, so a memoised parse serves every request's
/// own accuracy.
///
/// # Errors
/// As [`parse_query_request`].
pub fn decode_query_request<P: Borrow<ParsedQuery>>(
    body: &Json,
    parse: impl FnOnce(&str) -> Result<P, ParseError>,
) -> Result<(P, AccuracySpec), String> {
    let text = body
        .get("query")
        .and_then(Json::as_str)
        .ok_or("missing string field \"query\"")?;
    let parsed = parse(text).map_err(|e| format!("query syntax: {e}"))?;

    let alpha = body.get("alpha").and_then(Json::as_f64);
    let beta = body.get("beta").and_then(Json::as_f64);
    let accuracy = match (alpha, beta, parsed.borrow().accuracy) {
        // Explicit fields override the statement's clause wholesale.
        (Some(a), Some(b), _) => AccuracySpec::new(a, b).map_err(|e| e.to_string())?,
        (Some(a), None, Some(acc)) => acc.with_alpha(a).map_err(|e| e.to_string())?,
        (None, Some(b), Some(acc)) => {
            AccuracySpec::new(acc.alpha(), b).map_err(|e| e.to_string())?
        }
        (None, None, Some(acc)) => acc,
        _ => {
            return Err(
                "no accuracy requirement: give an ERROR … CONFIDENCE … clause or \
                 \"alpha\"/\"beta\" fields"
                    .to_string(),
            )
        }
    };
    Ok((parsed, accuracy))
}

/// A decoded `POST /v1/datasets/{name}/rows` body.
#[derive(Debug, Clone)]
pub struct MutateRequest {
    /// `true` for an insert batch, `false` for a delete batch.
    pub insert: bool,
    /// The requested rows, decoded into engine values.
    pub rows: Vec<Vec<apex_data::Value>>,
}

/// Decodes one JSON cell into an engine [`apex_data::Value`].
///
/// Numbers with no fractional part that fit `i64` become `Int`; all other
/// finite numbers become `Float`. This matches the ingest path's notion
/// of an integer column, so mutations land in the same domain as loads.
fn parse_value(cell: &Json) -> Result<apex_data::Value, String> {
    Ok(match cell {
        Json::Null => apex_data::Value::Null,
        Json::Bool(b) => apex_data::Value::Bool(*b),
        Json::Str(s) => apex_data::Value::Str(s.clone()),
        Json::Num(n) => {
            if !n.is_finite() {
                return Err("non-finite number in row".to_string());
            }
            if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) {
                apex_data::Value::Int(*n as i64)
            } else {
                apex_data::Value::Float(*n)
            }
        }
        Json::Arr(_) | Json::Obj(_) => {
            return Err("row cells must be scalars (number, string, bool, null)".to_string())
        }
    })
}

/// Decodes a mutation body.
///
/// ```json
/// {"op": "insert", "rows": [[39, "State-gov", 13], [50, "Private", 9]]}
/// ```
///
/// # Errors
/// A human-readable message naming the offending field; an empty batch
/// or an empty row is refused here so the engine never sees one.
pub fn parse_mutate_rows(body: &Json) -> Result<MutateRequest, String> {
    let insert = match body.get("op").and_then(Json::as_str) {
        Some("insert") => true,
        Some("delete") => false,
        Some(other) => {
            return Err(format!(
                "\"op\" must be \"insert\" or \"delete\", got \"{other}\""
            ))
        }
        None => return Err("missing string field \"op\" (\"insert\" or \"delete\")".to_string()),
    };
    let rows_json = body
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"rows\"")?;
    if rows_json.is_empty() {
        return Err("\"rows\" must be a non-empty array of rows".to_string());
    }
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, row) in rows_json.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| format!("row {i} is not an array"))?;
        if cells.is_empty() {
            return Err(format!("row {i} is empty"));
        }
        let mut decoded = Vec::with_capacity(cells.len());
        for cell in cells {
            decoded.push(parse_value(cell).map_err(|e| format!("row {i}: {e}"))?);
        }
        rows.push(decoded);
    }
    Ok(MutateRequest { insert, rows })
}

/// The `POST /v1/datasets/{name}/rows` success body: what was applied
/// and where the dataset's epoch landed.
pub fn mutation_json(
    dataset: &str,
    insert: bool,
    delta: &apex_data::RowDelta,
    mutations_applied: u64,
) -> Json {
    Json::obj(vec![
        ("dataset", Json::from(dataset)),
        ("op", Json::from(if insert { "insert" } else { "delete" })),
        ("inserted", Json::from(delta.inserted.len() as u64)),
        ("deleted", Json::from(delta.deleted.len() as u64)),
        ("epoch", Json::from(delta.epoch)),
        ("mutations_applied", Json::from(mutations_applied)),
    ])
}

fn answer_json(answer: &QueryAnswer) -> Json {
    match answer {
        QueryAnswer::Counts(counts) => Json::obj(vec![(
            "counts",
            Json::Arr(counts.iter().map(|&c| Json::Num(c)).collect()),
        )]),
        QueryAnswer::Bins(bins) => Json::obj(vec![(
            "bins",
            Json::Arr(bins.iter().map(|&b| Json::from(b)).collect()),
        )]),
    }
}

fn answered_json(a: &Answered) -> Json {
    Json::obj(vec![
        ("status", Json::from("answered")),
        ("mechanism", Json::from(a.mechanism)),
        ("epsilon", Json::Num(a.epsilon)),
        ("epsilon_upper", Json::Num(a.epsilon_upper)),
        ("answer", answer_json(&a.answer)),
    ])
}

/// Serializes an [`EngineResponse`]; the caller picks the status code
/// (200 for answered, 409 for denied).
pub fn engine_response_json(resp: &EngineResponse) -> Json {
    match resp {
        EngineResponse::Answered(a) => answered_json(a),
        EngineResponse::Denied => Json::obj(vec![
            ("status", Json::from("denied")),
            (
                "reason",
                Json::from("no mechanism fits the remaining budget"),
            ),
        ]),
    }
}

/// The `GET /v1/sessions/{id}/budget` body: the session's slice next to
/// the engine-wide (tenant) budget state.
pub fn budget_json(
    id: u64,
    dataset: &str,
    allowance: f64,
    spent: f64,
    engine_budget: f64,
    engine_spent: f64,
) -> Json {
    Json::obj(vec![
        ("session", Json::from(id)),
        ("dataset", Json::from(dataset)),
        ("allowance", Json::Num(allowance)),
        ("spent", Json::Num(spent)),
        ("remaining", Json::Num((allowance - spent).max(0.0))),
        (
            "engine",
            Json::obj(vec![
                ("budget", Json::Num(engine_budget)),
                ("spent", Json::Num(engine_spent)),
                (
                    "remaining",
                    Json::Num((engine_budget - engine_spent).max(0.0)),
                ),
            ]),
        ),
    ])
}

/// Renders one admin-plane session row (`GET /v1/admin/sessions`).
pub fn session_info_json(info: crate::state::SessionInfo) -> Json {
    Json::obj(vec![
        ("session", Json::from(info.session.id)),
        ("dataset", Json::from(info.session.dataset)),
        ("allowance", Json::Num(info.session.allowance)),
        ("spent", Json::Num(info.session.spent)),
        ("idle_millis", Json::from(info.idle_millis)),
    ])
}

/// Renders cache counters.
pub fn cache_stats_json(stats: apex_mech::CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("evictions", Json::from(stats.evictions)),
    ])
}

/// Renders one dataset's maintained-histogram counters (`/v1/stats`
/// `views`). Hits and misses follow the query history and the public
/// `|D|` only, so the object says nothing about row values.
pub fn view_stats_json(stats: apex_data::ViewStats) -> Json {
    Json::obj(vec![
        ("entries", Json::from(stats.entries)),
        ("bytes", Json::from(stats.bytes)),
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("folds", Json::from(stats.folds)),
        ("cleared", Json::from(stats.cleared)),
    ])
}

/// Renders one dataset's compile-memo counters (`/v1/stats` `compile`).
/// Hits and misses follow the query text and the public schema only.
pub fn compile_stats_json(stats: apex_core::CompileStats) -> Json {
    Json::obj(vec![
        ("entries", Json::from(stats.entries)),
        ("bytes", Json::from(stats.bytes)),
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
    ])
}

/// Renders one shard's parse-memo counters (`/v1/stats`
/// `shards[k].parse`). Hits and misses follow the query texts sent to the
/// shard only.
pub fn parse_stats_json(stats: crate::parse_memo::ParseStats) -> Json {
    Json::obj(vec![
        ("entries", Json::from(stats.entries)),
        ("bytes", Json::from(stats.bytes)),
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
    ])
}

/// Renders one shard's group-commit counters (`/v1/stats`
/// `shards[k].wal`): `durable_records / syncs` is records per sync.
pub fn wal_stats_json(stats: crate::state::WalStats) -> Json {
    Json::obj(vec![
        ("durable_records", Json::from(stats.durable_records)),
        ("covered", Json::from(stats.covered)),
        ("syncs", Json::from(stats.syncs)),
        ("gathers", Json::from(stats.gathers)),
        ("gather_timeouts", Json::from(stats.gather_timeouts)),
        ("present", Json::from(stats.present)),
    ])
}

/// A uniform error body.
pub fn error_json(msg: &str) -> String {
    Json::obj(vec![("error", Json::from(msg))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn create_session_bodies_are_validated() {
        let ok = json::parse(r#"{"dataset":"adult","budget":0.5}"#).unwrap();
        let c = parse_create_session(&ok).unwrap();
        assert_eq!(c.dataset, "adult");
        assert_eq!(c.budget, 0.5);
        for bad in [
            r#"{"budget":0.5}"#,
            r#"{"dataset":"adult"}"#,
            r#"{"dataset":"adult","budget":-1}"#,
            r#"{"dataset":"adult","budget":"x"}"#,
        ] {
            assert!(parse_create_session(&json::parse(bad).unwrap()).is_err());
        }
    }

    #[test]
    fn query_bodies_parse_the_concrete_syntax() {
        let body = json::parse(
            r#"{"query":"BIN d ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 10 CONFIDENCE 0.95;"}"#,
        )
        .unwrap();
        let (q, acc) = parse_query_request(&body).unwrap();
        assert_eq!(q.len(), 2);
        assert!((acc.alpha() - 10.0).abs() < 1e-12);
        assert!((acc.beta() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn explicit_accuracy_fields_override_the_clause() {
        let body = json::parse(
            r#"{"query":"BIN d ON COUNT(*) WHERE { v IN [0, 4) } ERROR 10 CONFIDENCE 0.95;","alpha":20,"beta":0.01}"#,
        )
        .unwrap();
        let (_, acc) = parse_query_request(&body).unwrap();
        assert_eq!(acc.alpha(), 20.0);
        assert_eq!(acc.beta(), 0.01);
        // Alpha-only override keeps the clause's beta.
        let body = json::parse(
            r#"{"query":"BIN d ON COUNT(*) WHERE { v IN [0, 4) } ERROR 10 CONFIDENCE 0.95;","alpha":20}"#,
        )
        .unwrap();
        let (_, acc) = parse_query_request(&body).unwrap();
        assert_eq!(acc.alpha(), 20.0);
        assert!((acc.beta() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn each_request_gets_its_own_accuracy_from_one_memoised_parse() {
        let memo = crate::parse_memo::ParseMemo::default();
        let stmt = "BIN d ON COUNT(*) WHERE { v IN [0, 4) } ERROR 10 CONFIDENCE 0.95;";
        for (fields, alpha, beta) in [
            ("", 10.0, 0.05),
            (r#","alpha":20"#, 20.0, 0.05),
            (r#","beta":0.01"#, 10.0, 0.01),
            (r#","alpha":5,"beta":0.2"#, 5.0, 0.2),
            ("", 10.0, 0.05),
        ] {
            let body = json::parse(&format!(r#"{{"query":"{stmt}"{fields}}}"#)).unwrap();
            let (parsed, acc) = decode_query_request(&body, |t| memo.parse(t)).unwrap();
            assert_eq!(acc.alpha(), alpha, "{fields}");
            assert!((acc.beta() - beta).abs() < 1e-12, "{fields}");
            // The shared parse keeps the statement's own clause.
            assert_eq!(parsed.accuracy.map(|a| a.alpha()), Some(10.0));
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 4, 1));
    }

    #[test]
    fn missing_accuracy_is_an_error() {
        let body = json::parse(r#"{"query":"BIN d ON COUNT(*) WHERE { v IN [0, 4) };"}"#).unwrap();
        assert!(parse_query_request(&body).is_err());
        let body = json::parse(r#"{}"#).unwrap();
        assert!(parse_query_request(&body).is_err());
    }

    #[test]
    fn mutate_bodies_decode_and_validate() {
        let body = json::parse(
            r#"{"op":"insert","rows":[[39,"State-gov",13.5,true,null],[50,"Private",9,false,null]]}"#,
        )
        .unwrap();
        let m = parse_mutate_rows(&body).unwrap();
        assert!(m.insert);
        assert_eq!(m.rows.len(), 2);
        assert_eq!(
            m.rows[0],
            vec![
                apex_data::Value::Int(39),
                apex_data::Value::Str("State-gov".into()),
                apex_data::Value::Float(13.5),
                apex_data::Value::Bool(true),
                apex_data::Value::Null,
            ]
        );
        let del = json::parse(r#"{"op":"delete","rows":[[1]]}"#).unwrap();
        assert!(!parse_mutate_rows(&del).unwrap().insert);
        for bad in [
            r#"{"rows":[[1]]}"#,
            r#"{"op":"upsert","rows":[[1]]}"#,
            r#"{"op":"insert"}"#,
            r#"{"op":"insert","rows":[]}"#,
            r#"{"op":"insert","rows":[[]]}"#,
            r#"{"op":"insert","rows":[3]}"#,
            r#"{"op":"insert","rows":[[[1]]]}"#,
        ] {
            assert!(
                parse_mutate_rows(&json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn mutation_responses_report_the_delta() {
        let delta = apex_data::RowDelta {
            inserted: vec![vec![apex_data::Value::Int(1)]],
            deleted: vec![],
            epoch: 7,
        };
        let body = mutation_json("adult", true, &delta, 4).render();
        assert!(body.contains("\"op\":\"insert\""), "{body}");
        assert!(body.contains("\"inserted\":1"), "{body}");
        assert!(body.contains("\"deleted\":0"), "{body}");
        assert!(body.contains("\"epoch\":7"), "{body}");
        assert!(body.contains("\"mutations_applied\":4"), "{body}");
    }

    #[test]
    fn responses_serialize_both_variants() {
        let denied = engine_response_json(&EngineResponse::Denied).render();
        assert!(denied.contains("\"denied\""));
        let answered = engine_response_json(&EngineResponse::Answered(Answered {
            answer: QueryAnswer::Counts(vec![1.5, 2.0]),
            epsilon: 0.25,
            epsilon_upper: 0.5,
            mechanism: "SM",
        }))
        .render();
        assert!(answered.contains("\"counts\":[1.5,2]"), "{answered}");
        assert!(answered.contains("\"mechanism\":\"SM\""));
        let bins = engine_response_json(&EngineResponse::Answered(Answered {
            answer: QueryAnswer::Bins(vec![0, 3]),
            epsilon: 0.1,
            epsilon_upper: 0.1,
            mechanism: "LTM",
        }))
        .render();
        assert!(bins.contains("\"bins\":[0,3]"), "{bins}");
    }
}
