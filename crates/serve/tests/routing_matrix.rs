//! The golden routing matrix: every endpoint path — plus an unknown path,
//! a non-integer session id and a session id past the shard count — ×
//! {GET, POST, DELETE} × {1, 2 shards} × {admin token set and sent, set
//! and missing, unset}, over real sockets. Each row pins the status and
//! the `error` text of its response; `routing_matrix.golden` holds the
//! table, one row per line. A routing change shows up as a diff of that
//! file, row by row.

use std::sync::Arc;

use apex_core::EngineConfig;
use apex_data::{Attribute, Dataset, Domain, Schema, Value};
use apex_serve::client::Conn;
use apex_serve::shard::shard_id_base;
use apex_serve::{serve_sharded, Json, ServeConfig, ServerState, ShardSet};

const TOKEN: &str = "s3cret";

/// The admin-token configurations.
#[derive(Clone, Copy)]
enum Admin {
    /// A token is set and every request carries it.
    Sent,
    /// A token is set and no request carries it.
    Missing,
    /// No token is set: the admin plane is open.
    Unset,
}

impl Admin {
    fn name(self) -> &'static str {
        match self {
            Admin::Sent => "token-sent",
            Admin::Missing => "token-missing",
            Admin::Unset => "token-unset",
        }
    }
}

fn demo_dataset() -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange { min: 0, max: 7 },
    )])
    .unwrap();
    let mut d = Dataset::empty(schema);
    for i in 0..32_i64 {
        d.push(vec![Value::Int(i % 8)]).unwrap();
    }
    d
}

/// The paths of the matrix, in the order they are sent: `{id}` is a live
/// session (closed by its own `close` row), `abc` is not an integer and
/// `{ghost}` names the first shard past the ring. Shutdown goes last,
/// since an accepted one stops the server, and POST is the last method
/// of every path.
const PATHS: [(&str, &str); 19] = [
    ("/v1/sessions", r#"{"dataset":"demo","budget":5}"#),
    ("/v1/sessions/{id}/query", QUERY),
    ("/v1/sessions/abc/query", QUERY),
    ("/v1/sessions/{ghost}/query", QUERY),
    ("/v1/sessions/{id}/budget", ""),
    ("/v1/sessions/abc/budget", ""),
    ("/v1/sessions/{ghost}/budget", ""),
    ("/v1/sessions/{id}/close", "{}"),
    ("/v1/sessions/abc/close", "{}"),
    ("/v1/sessions/{ghost}/close", "{}"),
    ("/v1/admin/sessions/{id}/expire", ""),
    ("/v1/admin/sessions/abc/expire", ""),
    ("/v1/admin/sessions/{ghost}/expire", ""),
    ("/v1/datasets/demo/rows", r#"{"op":"insert","rows":[[1]]}"#),
    ("/healthz", ""),
    ("/v1/stats", ""),
    ("/v1/admin/sessions", ""),
    ("/nope", ""),
    ("/v1/admin/shutdown", ""),
];

const QUERY: &str = r#"{"query":"BIN demo ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;"}"#;

/// Serves one configuration and returns its rows.
fn rows_for(shards: usize, admin: Admin) -> Vec<String> {
    let set = ShardSet::build(shards, |_| {
        let b = ServerState::builder(16).dataset("demo", demo_dataset(), EngineConfig::default());
        match admin {
            Admin::Unset => b,
            Admin::Sent | Admin::Missing => b.admin_token(TOKEN),
        }
    });
    let handle = serve_sharded("127.0.0.1:0", Arc::new(set), ServeConfig::default()).unwrap();
    let mut conn = Conn::connect(handle.addr()).unwrap();
    let auth = match admin {
        Admin::Sent => format!("Authorization: Bearer {TOKEN}\r\n"),
        Admin::Missing | Admin::Unset => String::new(),
    };
    let mut exchange = |method: &str, path: &str, body: &str| {
        let len = body.len();
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: apex\r\n{auth}Content-Length: {len}\r\n\r\n{body}"
        );
        conn.send(&[raw]).unwrap();
        let reply = conn.recv().unwrap();
        (reply.status, reply.json().unwrap())
    };

    // The live session the `{id}` rows name: on a 2-shard set its id
    // names whichever shard the ring gives `demo`.
    let (status, created) = exchange("POST", "/v1/sessions", PATHS[0].1);
    assert_eq!(status, 201, "{created:?}");
    let live = created
        .get("session")
        .and_then(Json::as_u64)
        .unwrap()
        .to_string();
    let ghost = (shard_id_base(shards) + 1).to_string();

    let mut rows = Vec::new();
    for (template, body) in PATHS {
        let path = template.replace("{id}", &live).replace("{ghost}", &ghost);
        for method in ["GET", "DELETE", "POST"] {
            let (status, reply) = exchange(method, &path, body);
            let error = reply.get("error").and_then(Json::as_str).unwrap_or("-");
            rows.push(format!(
                "{shards} {} {method} {template} -> {status} {error}",
                admin.name()
            ));
        }
    }
    match admin {
        // An accepted shutdown stopped the server already.
        Admin::Sent | Admin::Unset => {}
        Admin::Missing => handle.stop(),
    }
    handle.join();
    rows
}

#[test]
fn every_endpoint_method_shard_count_and_admin_token_routes_as_pinned() {
    let mut rows = Vec::new();
    for shards in [1, 2] {
        for admin in [Admin::Sent, Admin::Missing, Admin::Unset] {
            rows.extend(rows_for(shards, admin));
        }
    }
    let got = rows.join("\n") + "\n";
    let want = include_str!("routing_matrix.golden");
    if got != want {
        let changed: Vec<String> = got
            .lines()
            .zip(want.lines())
            .filter(|(g, w)| g != w)
            .map(|(g, w)| format!("  want {w}\n  got  {g}"))
            .collect();
        panic!(
            "{} of {} rows differ (or the row count changed: {} vs {}):\n{}\nthe whole table:\n{got}",
            changed.len(),
            rows.len(),
            got.lines().count(),
            want.lines().count(),
            changed.join("\n")
        );
    }
}
