//! Per-shard endpoint dispatch: path + method → handler, against one
//! shard's [`ServerState`].
//!
//! | Endpoint                              | Meaning                                  |
//! |---------------------------------------|------------------------------------------|
//! | `POST /v1/sessions`                   | open a session (dataset + budget slice)  |
//! | `POST /v1/sessions/{id}/query`        | submit a query (200 answered, 409 denied)|
//! | `GET  /v1/sessions/{id}/budget`       | session + engine budget state            |
//! | `POST /v1/sessions/{id}/close`        | close a session, reclaim its remainder   |
//! | `POST /v1/datasets/{name}/rows`       | admin: insert/delete rows (live dataset) |
//! | `POST /v1/admin/sessions/{id}/expire` | admin: force-expire a session            |
//!
//! The cross-shard endpoints — `GET /healthz`, `GET /v1/stats`,
//! `GET /v1/admin/sessions`, `POST /v1/admin/shutdown` — never reach this
//! router: the shard layer answers them on its event thread over every
//! shard's state (`shard::target_for` decides which is which).
//!
//! Status mapping: malformed bodies and engine-rejected queries (unknown
//! attributes, empty workloads) are 400; unknown datasets/sessions 404;
//! an **expired** session is 410 (it once lived — distinct from 404); a
//! **denied** query is 409 — denial is part of the privacy protocol, not
//! a server fault, so it gets its own signal distinct from 4xx client
//! errors and 2xx answers. A mutation batch over the batch bound is 413
//! (refused before anything is logged or applied). A failed write-ahead
//! append is 500: the charge is never acked without its log record. So
//! is a failed mutation-log append (a storage fault, not the client's):
//! the mutation is neither acked nor applied.
//!
//! Row mutations live under `/v1/datasets/...` rather than `/v1/admin/...`
//! so shard routing can key them by dataset name, but they carry the same
//! bearer-token gate as the admin plane: changing the data every session
//! queries is an operator action, not an analyst one.
//!
//! The admin plane (`/v1/admin/*`) checks `Authorization: Bearer <token>`
//! when the state carries an admin token (`--admin-token`); without one
//! it is open (development mode — see `docs/SERVICE.md`).

use std::sync::Arc;

use apex_core::{EngineError, EngineResponse};
use apex_data::MutationError;

use crate::http::{Request, Response};
use crate::json::Json;
use crate::state::{ServerState, SessionStatus, SubmitError, SubmitOutcome};
use crate::wire;

/// Routes one request. Pure: all side effects go through `state`.
pub fn route(state: &Arc<ServerState>, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "sessions"] => method(req, "POST", || create_session(state, req)),
        ["v1", "sessions", id, "query"] => {
            with_session_id(id, |id| method(req, "POST", || submit(state, id, req)))
        }
        ["v1", "sessions", id, "budget"] => {
            with_session_id(id, |id| method(req, "GET", || budget(state, id)))
        }
        ["v1", "sessions", id, "close"] => {
            with_session_id(id, |id| method(req, "POST", || close_session(state, id)))
        }
        ["v1", "datasets", name, "rows"] => match admin_auth(state, req) {
            Ok(()) => method(req, "POST", || mutate(state, name, req)),
            Err(resp) => resp,
        },
        ["v1", "admin", rest @ ..] => match admin_auth(state, req) {
            Ok(()) => admin(state, req, rest),
            Err(resp) => resp,
        },
        _ => Response::json(404, wire::error_json("no such endpoint")),
    }
}

/// Admin sub-router (auth already checked).
fn admin(state: &Arc<ServerState>, req: &Request, segments: &[&str]) -> Response {
    match segments {
        ["sessions", id, "expire"] => {
            with_session_id(id, |id| method(req, "POST", || admin_expire(state, id)))
        }
        _ => Response::json(404, wire::error_json("no such admin endpoint")),
    }
}

/// Checks the bearer token when one is configured. Constant-time
/// comparison: the verdict leaks nothing about how much of the token
/// matched. `pub(crate)` so the shard layer can guard its aggregated
/// admin endpoints with the same rule.
pub(crate) fn admin_auth(state: &ServerState, req: &Request) -> Result<(), Response> {
    let Some(expected) = state.admin_token() else {
        return Ok(());
    };
    let presented = req
        .header("authorization")
        .and_then(|v| v.strip_prefix("Bearer "))
        .map(str::trim)
        .unwrap_or("");
    if constant_time_eq(presented.as_bytes(), expected.as_bytes()) {
        Ok(())
    } else {
        Err(Response::json(
            401,
            wire::error_json("admin endpoints require Authorization: Bearer <token>"),
        ))
    }
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

fn method(req: &Request, want: &str, handler: impl FnOnce() -> Response) -> Response {
    if req.method == want {
        handler()
    } else {
        Response::json(405, wire::error_json(&format!("use {want}")))
    }
}

fn with_session_id(raw: &str, f: impl FnOnce(u64) -> Response) -> Response {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => Response::json(400, wire::error_json("session id must be an integer")),
    }
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = req
        .body_str()
        .ok_or_else(|| Response::json(400, wire::error_json("body must be UTF-8 JSON")))?;
    crate::json::parse(text).map_err(|e| Response::json(400, wire::error_json(&e.to_string())))
}

fn create_session(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let create = match wire::parse_create_session(&body) {
        Ok(c) => c,
        Err(msg) => return Response::json(400, wire::error_json(&msg)),
    };
    let id = match state.create_session(&create.dataset, create.budget) {
        Ok(Some(id)) => id,
        Ok(None) => {
            return Response::json(
                404,
                wire::error_json(&format!("no dataset named \"{}\"", create.dataset)),
            )
        }
        Err(e) => return wal_failed(&e),
    };
    let body = Json::obj(vec![
        ("session", Json::from(id)),
        ("dataset", Json::from(create.dataset)),
        ("allowance", Json::Num(create.budget)),
    ]);
    Response::json(201, body.render())
}

fn gone() -> Response {
    Response::json(410, wire::error_json("session expired"))
}

/// The write-ahead append failed, so the budget event was not acked (see
/// `state::SubmitError`).
fn wal_failed(e: &std::io::Error) -> Response {
    Response::json(
        500,
        wire::error_json(&format!("write-ahead log append failed: {e}")),
    )
}

fn submit(state: &ServerState, id: u64, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    // The shard's parse memo parses a text only the first time it sees it.
    let parsed = wire::decode_query_request(&body, |text| state.parses().parse(text));
    let (parsed, accuracy) = match parsed {
        Ok(pa) => pa,
        Err(msg) => return Response::json(400, wire::error_json(&msg)),
    };
    // The state layer resolves the session without holding the map lock
    // during the (possibly slow) mechanism run, and WAL-logs the outcome
    // before returning — this response is the ack.
    match state.submit(id, &parsed.query, &accuracy) {
        Ok(SubmitOutcome::Response(resp)) => {
            let status = match resp {
                EngineResponse::Answered(_) => 200,
                EngineResponse::Denied => 409,
            };
            Response::json(status, wire::engine_response_json(&resp).render())
        }
        Ok(SubmitOutcome::Gone) => gone(),
        Ok(SubmitOutcome::NoSuchSession) => {
            Response::json(404, wire::error_json("no such session"))
        }
        // A mechanism overshooting its declared worst case is an engine
        // fault, not a client error — the charge was refused (nothing
        // spent), and the client should see a server-side failure.
        Err(SubmitError::Engine(e @ EngineError::LossAboveWorstCase { .. })) => {
            Response::json(500, wire::error_json(&e.to_string()))
        }
        Err(SubmitError::Engine(e)) => Response::json(400, wire::error_json(&e.to_string())),
        Err(SubmitError::Wal(e)) => wal_failed(&e),
        // Queries never build mutation batches; unreachable here, mapped
        // anyway so the error enum stays total.
        Err(e @ SubmitError::BatchTooLarge { .. }) => {
            Response::json(413, wire::error_json(&e.to_string()))
        }
    }
}

/// `POST /v1/datasets/{name}/rows`: apply a row mutation batch. The
/// response is the ack — with persistence enabled, the dataset's
/// mutation-log record is durable before the batch applies. Pending
/// charges make racing queries safe: an evaluate that straddles the
/// mutation is refused at commit with a stale-epoch error (mapped to 400
/// via the query path) and nothing is charged.
fn mutate(state: &ServerState, name: &str, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let m = match wire::parse_mutate_rows(&body) {
        Ok(m) => m,
        Err(msg) => return Response::json(400, wire::error_json(&msg)),
    };
    match state.mutate_rows(name, m.insert, &m.rows) {
        Ok(crate::state::MutateOutcome::Applied(delta)) => {
            let applied = state
                .tenant(name)
                .map(|t| t.engine.mutations_applied())
                .unwrap_or(0);
            Response::json(
                200,
                wire::mutation_json(name, m.insert, &delta, applied).render(),
            )
        }
        Ok(crate::state::MutateOutcome::NoSuchDataset) => Response::json(
            404,
            wire::error_json(&format!("no dataset named \"{name}\"")),
        ),
        Err(e @ SubmitError::BatchTooLarge { .. }) => {
            Response::json(413, wire::error_json(&e.to_string()))
        }
        // The mutation log or the page store failed: nothing applied.
        Err(SubmitError::Engine(e @ EngineError::Mutation(MutationError::Store(_)))) => {
            Response::json(500, wire::error_json(&e.to_string()))
        }
        // Arity/type mismatches, empty-batch refusals: client errors.
        Err(SubmitError::Engine(e)) => Response::json(400, wire::error_json(&e.to_string())),
        Err(SubmitError::Wal(e)) => wal_failed(&e),
    }
}

fn budget(state: &ServerState, id: u64) -> Response {
    let Some((dataset, session)) =
        state.with_session(id, |s| (s.dataset.clone(), s.session.clone()))
    else {
        return match state.session_status(id) {
            SessionStatus::Expired => gone(),
            _ => Response::json(404, wire::error_json("no such session")),
        };
    };
    let engine = session.engine();
    let body = wire::budget_json(
        id,
        &dataset,
        session.allowance(),
        session.spent(),
        engine.budget(),
        engine.spent(),
    );
    Response::json(200, body.render())
}

fn admin_expire(state: &ServerState, id: u64) -> Response {
    close_session(state, id)
}

/// Closing a session (analyst `close` or admin `expire`): removes it,
/// reclaims the unspent slice remainder, and reports what was released.
fn close_session(state: &ServerState, id: u64) -> Response {
    match state.expire_session(id) {
        Ok(Some(released)) => Response::json(
            200,
            Json::obj(vec![
                ("session", Json::from(id)),
                ("released", Json::Num(released)),
            ])
            .render(),
        ),
        Ok(None) => match state.session_status(id) {
            SessionStatus::Expired => gone(),
            _ => Response::json(404, wire::error_json("no such session")),
        },
        Err(e) => wal_failed(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::shard::ShardSet;
    use crate::state::ServerStateBuilder;
    use apex_core::EngineConfig;
    use apex_data::{Attribute, Dataset, Domain, Schema, Value};
    use std::time::Duration;

    fn demo_dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 7 },
        )])
        .unwrap();
        let mut d = Dataset::empty(schema);
        for i in 0..8_i64 {
            for _ in 0..4 {
                d.push(vec![Value::Int(i)]).unwrap();
            }
        }
        d
    }

    /// A one-shard set over `builder`: the tests drive the server's own
    /// dispatch decision (`shard::dispatch`), so the cross-shard
    /// endpoints are reachable exactly as they are over a socket.
    fn set_of(builder: ServerStateBuilder) -> ShardSet {
        let builder = std::cell::RefCell::new(Some(builder));
        ShardSet::build(1, |_| builder.borrow_mut().take().expect("one shard"))
    }

    fn state() -> ShardSet {
        set_of(ServerState::builder(16).dataset("demo", demo_dataset(), EngineConfig::default()))
    }

    fn route(set: &ShardSet, req: &Request) -> Response {
        crate::shard::dispatch(set, req)
    }

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request::new(method, path, body)
    }

    fn req_auth(method: &str, path: &str, body: &str, token: &str) -> Request {
        let mut r = Request::new(method, path, body);
        r.headers
            .push(("authorization".into(), format!("Bearer {token}")));
        r
    }

    fn open_session(s: &ShardSet, body: &str) -> u64 {
        let r = route(s, &req("POST", "/v1/sessions", body));
        assert_eq!(r.status, 201, "{}", r.body);
        crate::json::parse(&r.body)
            .unwrap()
            .get("session")
            .and_then(Json::as_u64)
            .unwrap()
    }

    #[test]
    fn full_session_lifecycle_over_the_router() {
        let s = state();
        let r = route(&s, &req("GET", "/healthz", ""));
        assert_eq!(r.status, 200);

        let id = open_session(&s, r#"{"dataset":"demo","budget":0.8}"#);

        let q = r#"{"query":"BIN demo ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;
        let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), q));
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed = crate::json::parse(&r.body).unwrap();
        assert_eq!(
            parsed.get("status").and_then(Json::as_str),
            Some("answered")
        );
        assert_eq!(
            parsed
                .get("answer")
                .and_then(|a| a.get("counts"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );

        let r = route(&s, &req("GET", &format!("/v1/sessions/{id}/budget"), ""));
        assert_eq!(r.status, 200);
        let parsed = crate::json::parse(&r.body).unwrap();
        let spent = parsed.get("spent").and_then(Json::as_f64).unwrap();
        assert!(spent > 0.0);

        let r = route(&s, &req("GET", "/v1/stats", ""));
        assert_eq!(r.status, 200);
        let parsed = crate::json::parse(&r.body).unwrap();
        assert!(
            parsed
                .get("cache")
                .and_then(|c| c.get("global"))
                .and_then(|g| g.get("misses"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn a_tiny_beta_is_answered_not_a_500() {
        // β = 1e-15, as a field and as a CONFIDENCE clause: valid specs
        // whose SM cost once panicked the translator.
        let s = state();
        let id = open_session(&s, r#"{"dataset":"demo","budget":0.8}"#);
        for q in [
            r#"{"query":"BIN demo ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 100 CONFIDENCE 0.95;","beta":1e-15}"#,
            r#"{"query":"BIN demo ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 100 CONFIDENCE 0.999999999999999;"}"#,
        ] {
            let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), q));
            assert_eq!(r.status, 200, "{}", r.body);
        }
    }

    #[test]
    fn denial_maps_to_409() {
        let s = state();
        let id = open_session(&s, r#"{"dataset":"demo","budget":0.000001}"#);
        let q =
            r#"{"query":"BIN demo ON COUNT(*) WHERE { v IN [0, 8) } ERROR 4 CONFIDENCE 0.99;"}"#;
        let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), q));
        assert_eq!(r.status, 409, "{}", r.body);
        assert!(r.body.contains("denied"));
    }

    #[test]
    fn error_paths_get_the_right_codes() {
        let s = state();
        // Unknown endpoint / wrong method.
        assert_eq!(route(&s, &req("GET", "/nope", "")).status, 404);
        assert_eq!(route(&s, &req("DELETE", "/v1/sessions", "")).status, 405);
        // Bad JSON, bad dataset, bad session ids.
        assert_eq!(route(&s, &req("POST", "/v1/sessions", "{")).status, 400);
        assert_eq!(
            route(
                &s,
                &req("POST", "/v1/sessions", r#"{"dataset":"x","budget":1}"#)
            )
            .status,
            404
        );
        assert_eq!(
            route(&s, &req("GET", "/v1/sessions/abc/budget", "")).status,
            400
        );
        assert_eq!(
            route(&s, &req("GET", "/v1/sessions/999/budget", "")).status,
            404
        );
        // A syntactically broken query.
        let id = open_session(&s, r#"{"dataset":"demo","budget":1}"#);
        let r = route(
            &s,
            &req(
                "POST",
                &format!("/v1/sessions/{id}/query"),
                r#"{"query":"SELECT nope"}"#,
            ),
        );
        assert_eq!(r.status, 400, "{}", r.body);
        // A well-formed query over an unknown attribute is 400, not 500.
        let r = route(
            &s,
            &req(
                "POST",
                &format!("/v1/sessions/{id}/query"),
                r#"{"query":"BIN d ON COUNT(*) WHERE { nope IN [0, 1) } ERROR 4 CONFIDENCE 0.99;"}"#,
            ),
        );
        assert_eq!(r.status, 400, "{}", r.body);
    }

    #[test]
    fn expired_sessions_answer_410_not_404() {
        let clock = ManualClock::new();
        let s = set_of(
            ServerState::builder(16)
                .dataset("demo", demo_dataset(), EngineConfig::default())
                .clock(Arc::new(clock.clone()))
                .session_ttl(Duration::from_millis(10)),
        );
        let id = open_session(&s, r#"{"dataset":"demo","budget":0.5}"#);
        clock.advance(11);
        s.state(0).reap_expired().unwrap();

        let q =
            r#"{"query":"BIN demo ON COUNT(*) WHERE { v IN [0, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;
        let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), q));
        assert_eq!(r.status, 410, "{}", r.body);
        let r = route(&s, &req("GET", &format!("/v1/sessions/{id}/budget"), ""));
        assert_eq!(r.status, 410, "{}", r.body);
        // A never-issued id still 404s.
        let r = route(&s, &req("GET", "/v1/sessions/12345/budget", ""));
        assert_eq!(r.status, 404);
        // Stats surface the tombstone and the reclaimed slice.
        let r = route(&s, &req("GET", "/v1/stats", ""));
        let parsed = crate::json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("expired").and_then(Json::as_u64), Some(1));
        let reclaimed = parsed
            .get("datasets")
            .and_then(|d| d.get("demo"))
            .and_then(|d| d.get("budget"))
            .and_then(|b| b.get("reclaimed"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((reclaimed - 0.5).abs() < 1e-12, "nothing was spent");
    }

    #[test]
    fn admin_plane_requires_the_bearer_token() {
        let s = set_of(
            ServerState::builder(16)
                .dataset("demo", demo_dataset(), EngineConfig::default())
                .admin_token("s3cret"),
        );
        let id = open_session(&s, r#"{"dataset":"demo","budget":0.5}"#);

        // No token / wrong token: 401 on every admin endpoint.
        for (method_, path) in [
            ("GET", "/v1/admin/sessions".to_string()),
            ("POST", format!("/v1/admin/sessions/{id}/expire")),
            ("POST", "/v1/admin/shutdown".to_string()),
        ] {
            assert_eq!(route(&s, &req(method_, &path, "")).status, 401);
            assert_eq!(
                route(&s, &req_auth(method_, &path, "", "wrong")).status,
                401
            );
        }
        // Non-admin endpoints are untouched by the token requirement.
        assert_eq!(route(&s, &req("GET", "/healthz", "")).status, 200);

        // With the token: list shows the session, expire releases it.
        let r = route(&s, &req_auth("GET", "/v1/admin/sessions", "", "s3cret"));
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed = crate::json::parse(&r.body).unwrap();
        let listed = parsed.get("sessions").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("session").and_then(Json::as_u64), Some(id));

        let r = route(
            &s,
            &req_auth(
                "POST",
                &format!("/v1/admin/sessions/{id}/expire"),
                "",
                "s3cret",
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let released = crate::json::parse(&r.body)
            .unwrap()
            .get("released")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(released, 0.5);
        // Re-expiring is 410; a never-issued id is 404.
        let r = route(
            &s,
            &req_auth(
                "POST",
                &format!("/v1/admin/sessions/{id}/expire"),
                "",
                "s3cret",
            ),
        );
        assert_eq!(r.status, 410);
        let r = route(
            &s,
            &req_auth("POST", "/v1/admin/sessions/777/expire", "", "s3cret"),
        );
        assert_eq!(r.status, 404);
    }

    #[test]
    fn mutation_endpoint_applies_and_reports_the_new_epoch() {
        let s = state();
        // Insert four rows of v=3.
        let r = route(
            &s,
            &req(
                "POST",
                "/v1/datasets/demo/rows",
                r#"{"op":"insert","rows":[[3],[3],[3],[3]]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed = crate::json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("inserted").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed.get("mutations_applied").and_then(Json::as_u64),
            Some(1)
        );

        // A fresh query sees the mutated data (8 + 4 rows in [0, 4)).
        let id = open_session(&s, r#"{"dataset":"demo","budget":5}"#);
        let q = r#"{"query":"BIN demo ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;
        let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), q));
        assert_eq!(r.status, 200, "{}", r.body);

        // Delete two of them back out; deletes count only real matches.
        let r = route(
            &s,
            &req(
                "POST",
                "/v1/datasets/demo/rows",
                r#"{"op":"delete","rows":[[3],[3]]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed = crate::json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("deleted").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("epoch").and_then(Json::as_u64), Some(2));

        // Stats surface the per-tenant epoch and mutation count.
        let r = route(&s, &req("GET", "/v1/stats", ""));
        let parsed = crate::json::parse(&r.body).unwrap();
        let demo = parsed.get("datasets").and_then(|d| d.get("demo")).unwrap();
        assert_eq!(demo.get("epoch").and_then(Json::as_u64), Some(2));
        assert_eq!(
            demo.get("mutations_applied").and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn mutation_endpoint_error_codes() {
        let s = state();
        // Unknown dataset: 404. Wrong method: 405. Malformed body: 400.
        assert_eq!(
            route(
                &s,
                &req(
                    "POST",
                    "/v1/datasets/nope/rows",
                    r#"{"op":"insert","rows":[[1]]}"#
                )
            )
            .status,
            404
        );
        assert_eq!(
            route(&s, &req("GET", "/v1/datasets/demo/rows", "")).status,
            405
        );
        assert_eq!(
            route(&s, &req("POST", "/v1/datasets/demo/rows", "{")).status,
            400
        );
        assert_eq!(
            route(
                &s,
                &req(
                    "POST",
                    "/v1/datasets/demo/rows",
                    r#"{"op":"insert","rows":[]}"#
                )
            )
            .status,
            400
        );
        // Arity mismatch on delete is an engine rejection: 400.
        let r = route(
            &s,
            &req(
                "POST",
                "/v1/datasets/demo/rows",
                r#"{"op":"delete","rows":[[1,2]]}"#,
            ),
        );
        assert_eq!(r.status, 400, "{}", r.body);
        // An oversized batch is refused with 413 before anything applies.
        let big_row = format!("[{}]", vec!["1"; 40_000].join(","));
        let r = route(
            &s,
            &req(
                "POST",
                "/v1/datasets/demo/rows",
                &format!(r#"{{"op":"insert","rows":[{big_row}]}}"#),
            ),
        );
        assert_eq!(r.status, 413, "{}", r.body);
        assert_eq!(
            s.state(0).tenant("demo").unwrap().engine.epoch(),
            0,
            "nothing applied"
        );
    }

    #[test]
    fn a_failed_mutation_log_append_is_500_and_applies_nothing() {
        // A durable resident tenant whose mutation log is `/dev/null`:
        // the lazy open reads it as an empty log, the append's write
        // lands, and its fsync fails (EINVAL) — a storage fault.
        // (`/dev/full` cannot stand in: the open reads the file first,
        // and `/dev/full` reads as endless zeros.)
        let root = crate::testutil::temp_dir("mutation-log-fault");
        let (s, _) = ShardSet::recover(
            &root,
            1,
            |_| ServerState::builder(16).dataset("demo", demo_dataset(), EngineConfig::default()),
            |dir| crate::state::PersistOptions {
                sync: false,
                ..crate::state::PersistOptions::new(dir)
            },
        )
        .unwrap();
        let rows = crate::snapshot::shard_dir(&root, 0).join("rows/demo");
        std::fs::create_dir_all(&rows).unwrap();
        std::os::unix::fs::symlink("/dev/null", rows.join("mutations.log")).unwrap();
        // One answered query, so the tenant maintains a view to fold.
        let id = open_session(&s, r#"{"dataset":"demo","budget":5}"#);
        let q = r#"{"query":"BIN demo ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;
        let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), q));
        assert_eq!(r.status, 200, "{}", r.body);
        let engine = &s.state(0).tenant("demo").unwrap().engine;
        let seen = || {
            engine.with_engine(|e| {
                let views = e.dataset_view_stats();
                let rows = e.dataset_scan_rows();
                (
                    e.epoch(),
                    e.mutations_applied(),
                    rows,
                    views.entries,
                    views.folds,
                )
            })
        };
        let before = seen();
        assert_eq!(before.3, 1, "one view to fold");

        for body in [
            r#"{"op":"insert","rows":[[3],[3]]}"#,
            r#"{"op":"delete","rows":[[3]]}"#,
        ] {
            let r = route(&s, &req("POST", "/v1/datasets/demo/rows", body));
            assert_eq!(r.status, 500, "{}", r.body);
            assert!(r.body.contains("mutation failed in store"), "{}", r.body);
        }
        assert_eq!(seen(), before, "a refused append must apply nothing");
        // A client error is still a client error.
        let r = route(
            &s,
            &req(
                "POST",
                "/v1/datasets/demo/rows",
                r#"{"op":"delete","rows":[[1,2]]}"#,
            ),
        );
        assert_eq!(r.status, 400, "{}", r.body);
        drop(s);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_cells_and_rows_are_413_not_a_panic() {
        // Both fit the 1 MiB body cap but not the 64 KiB row-batch
        // bound, which is measured with `codec::rows_size` rather than
        // by encoding (the codec's length casts would assert).
        let s = state();
        let big_cell = format!(r#"[["{}"]]"#, "x".repeat(70_000));
        let wide_row = format!("[[{}]]", vec!["null"; 70_000].join(","));
        for (op, rows) in [
            ("insert", &big_cell),
            ("delete", &big_cell),
            ("insert", &wide_row),
        ] {
            let r = route(
                &s,
                &req(
                    "POST",
                    "/v1/datasets/demo/rows",
                    &format!(r#"{{"op":"{op}","rows":{rows}}}"#),
                ),
            );
            assert_eq!(r.status, 413, "{op}: {}", r.body);
        }
        let engine = &s.state(0).tenant("demo").unwrap().engine;
        assert_eq!((engine.epoch(), engine.mutations_applied()), (0, 0));
    }

    #[test]
    fn mutation_endpoint_honors_the_admin_token() {
        let s = set_of(
            ServerState::builder(16)
                .dataset("demo", demo_dataset(), EngineConfig::default())
                .admin_token("s3cret"),
        );
        let body = r#"{"op":"insert","rows":[[1]]}"#;
        assert_eq!(
            route(&s, &req("POST", "/v1/datasets/demo/rows", body)).status,
            401
        );
        assert_eq!(
            route(
                &s,
                &req_auth("POST", "/v1/datasets/demo/rows", body, "wrong")
            )
            .status,
            401
        );
        let r = route(
            &s,
            &req_auth("POST", "/v1/datasets/demo/rows", body, "s3cret"),
        );
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn a_workload_too_costly_to_compile_is_400_at_once_and_charges_nothing() {
        // 2 000 predicates over two float attributes, each cut at 1 000
        // points: a 1 002 001-cell grid (under the cell cap) whose build
        // would evaluate 2·10⁹ predicates — over a minute of one worker.
        let float = |name: &str| {
            let domain = Domain::FloatRange {
                min: 0.0,
                max: 1000.0,
            };
            Attribute::new(name, domain)
        };
        let schema = Schema::new(vec![float("x"), float("y")]).unwrap();
        let data = Dataset::new(schema, vec![vec![Value::Float(1.0), Value::Float(2.0)]]).unwrap();
        let s = set_of(ServerState::builder(16).dataset("grid", data, EngineConfig::default()));
        let id = open_session(&s, r#"{"dataset":"grid","budget":1}"#);
        let preds: Vec<String> = (0..2000)
            .map(|i| {
                let (x, y) = (i % 1000, i / 2);
                format!("x IN [{x}, {}) AND y IN [{y}, {})", x + 1, y + 1)
            })
            .collect();
        let q = format!(
            r#"{{"query":"BIN grid ON COUNT(*) WHERE W = {{ {} }} ERROR 10 CONFIDENCE 0.95;"}}"#,
            preds.join(", ")
        );
        let t0 = std::time::Instant::now();
        let r = route(&s, &req("POST", &format!("/v1/sessions/{id}/query"), &q));
        let took = t0.elapsed();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("elementary cells"), "{}", r.body);
        assert!(took < Duration::from_millis(50), "refused after {took:?}");
        let r = route(&s, &req("GET", &format!("/v1/sessions/{id}/budget"), ""));
        let parsed = crate::json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("spent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(s.state(0).tenant("grid").unwrap().engine.spent(), 0.0);
    }

    fn parse_stats(s: &ShardSet) -> (u64, u64, u64) {
        let stats = crate::json::parse(&route(s, &req("GET", "/v1/stats", "")).body).unwrap();
        let parse = stats
            .get("shards")
            .and_then(Json::as_arr)
            .and_then(|shards| shards[0].get("parse"))
            .cloned()
            .unwrap();
        let field = |name| parse.get(name).and_then(Json::as_u64).unwrap();
        (field("entries"), field("hits"), field("misses"))
    }

    #[test]
    fn nesting_past_the_depth_limit_is_400_and_the_shard_keeps_serving() {
        // Both bodies fit the 1 MiB body cap, and without the parser's
        // depth limit each aborted the whole process with a stack
        // overflow on a 2 MiB worker stack.
        let s = state();
        let id = open_session(&s, r#"{"dataset":"demo","budget":5}"#);
        let query = |workload: &str| {
            format!(
                r#"{{"query":"BIN demo ON COUNT(*) WHERE {{ {workload} }} ERROR 30 CONFIDENCE 0.95;"}}"#
            )
        };
        let deep_not = query(&format!("{}v = 1", "NOT ".repeat(10_000)));
        let long_and = query(&vec!["v = 1"; 80_000].join(" AND "));
        assert!(long_and.len() < 1 << 20);
        let ok = query("v IN [0, 4), v IN [4, 8)");
        let path = format!("/v1/sessions/{id}/query");
        for body in [&deep_not, &long_and] {
            let r = route(&s, &req("POST", &path, body));
            assert_eq!(r.status, 400, "{}", r.body);
            assert!(r.body.contains("deeper than 256"), "{}", r.body);
            let r = route(&s, &req("POST", &path, &ok));
            assert_eq!(r.status, 200, "{}", r.body);
        }
        // The refusals charged nothing: two answers' worth was spent.
        let engine = &s.state(0).tenant("demo").unwrap().engine;
        assert_eq!(engine.with_engine(|e| e.transcript().len()), 2);

        // A predicate exactly at the limit is served: 255 NOTs over an
        // atom, and a 256-term AND chain.
        let at_limit = [
            format!("{}v IN [0, 4)", "NOT ".repeat(255)),
            vec!["v IN [0, 4)"; 256].join(" AND "),
        ];
        let r = route(&s, &req("POST", &path, &query(&at_limit.join(", "))));
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn a_repeated_text_is_parsed_once_and_errors_never_stay() {
        let s = state();
        let id = open_session(&s, r#"{"dataset":"demo","budget":5}"#);
        let path = format!("/v1/sessions/{id}/query");
        let bad =
            r#"{"query":"BIN demo ON COUNT(*) WHERE { v IN [0, 4) ERROR 8 CONFIDENCE 0.95;"}"#;
        for _ in 0..3 {
            let r = route(&s, &req("POST", &path, bad));
            assert_eq!(r.status, 400, "{}", r.body);
            assert!(r.body.contains("query syntax"), "{}", r.body);
        }
        assert_eq!(parse_stats(&s), (0, 0, 3));
        // The same text at two accuracies set by fields: one parse, and
        // each answer is charged for its own α.
        let q = |alpha: f64| {
            format!(
                r#"{{"query":"BIN demo ON COUNT(*) WHERE {{ v IN [0, 8) }} ERROR 8 CONFIDENCE 0.95;","alpha":{alpha}}}"#
            )
        };
        let mut eps = Vec::new();
        for alpha in [4.0, 16.0] {
            let r = route(&s, &req("POST", &path, &q(alpha)));
            assert_eq!(r.status, 200, "{}", r.body);
            let body = crate::json::parse(&r.body).unwrap();
            eps.push(body.get("epsilon_upper").and_then(Json::as_f64).unwrap());
        }
        assert_eq!(parse_stats(&s), (1, 1, 4));
        assert!(eps[0] > eps[1], "a tighter α costs more: {eps:?}");
    }

    #[test]
    fn shutdown_endpoint_flags_the_response() {
        let s = state();
        let r = route(&s, &req("POST", "/v1/admin/shutdown", ""));
        assert_eq!(r.status, 202);
        assert!(r.shutdown);
    }
}
