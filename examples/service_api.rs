//! Drive the `apex-serve` HTTP API in-process: start the service on an
//! ephemeral port, open two analyst sessions against different tenant
//! datasets, submit queries in the paper's concrete syntax, and read the
//! budget and cache statistics back — the whole multi-tenant loop over
//! real sockets.
//!
//! Run with: `cargo run --example service_api`

use std::sync::Arc;

use apex_core::{EngineConfig, Mode};
use apex_data::synth::{adult_dataset, nytaxi_dataset};
use apex_serve::{client, serve_sharded, Json, ServeConfig, ServerState, ShardSet};

fn main() {
    // One shared translator cache (cap 64) behind two tenant datasets,
    // each with its own privacy budget B.
    let config = |seed: u64| EngineConfig {
        budget: 1.0,
        mode: Mode::Optimistic,
        seed,
    };
    let set = ShardSet::build(1, |_| {
        ServerState::builder(64)
            .dataset("adult", adult_dataset(5_000, 7), config(1))
            .dataset("taxi", nytaxi_dataset(5_000, 9), config(2))
    });
    let handle = serve_sharded("127.0.0.1:0", Arc::new(set), ServeConfig::default())
        .expect("bind ephemeral port");
    let addr = handle.addr();
    println!("serving on http://{addr}\n");

    // Open a session per tenant, each holding a slice of that tenant's B.
    let mut sessions = Vec::new();
    for dataset in ["adult", "taxi"] {
        let (status, body) = client::request(
            addr,
            "POST",
            "/v1/sessions",
            Some(&format!("{{\"dataset\":\"{dataset}\",\"budget\":0.5}}")),
        )
        .unwrap();
        let id = body.get("session").and_then(Json::as_u64).unwrap();
        println!("POST /v1/sessions ({dataset}) -> {status}: session {id}");
        sessions.push((dataset, id));
    }

    // Submit a histogram to each; the ERROR/CONFIDENCE clause carries
    // the (α, β) accuracy requirement.
    let queries = [
        "BIN adult ON COUNT(*) WHERE W = { age IN [17, 40), age IN [40, 60), age IN [60, 91) } \
         ERROR 200 CONFIDENCE 0.99;",
        "BIN taxi ON COUNT(*) WHERE W = { pickup_hour IN [0, 12), pickup_hour IN [12, 24) } \
         ERROR 200 CONFIDENCE 0.99;",
    ];
    for ((dataset, id), query) in sessions.iter().zip(&queries) {
        let body = format!("{{\"query\":{}}}", Json::from(*query).render());
        let (status, resp) = client::request(
            addr,
            "POST",
            &format!("/v1/sessions/{id}/query"),
            Some(&body),
        )
        .unwrap();
        println!(
            "POST /v1/sessions/{id}/query ({dataset}) -> {status}: mechanism {}, spent eps = {}",
            resp.get("mechanism").and_then(Json::as_str).unwrap_or("-"),
            resp.get("epsilon").and_then(Json::as_f64).unwrap_or(0.0),
        );

        let (_, budget) =
            client::request(addr, "GET", &format!("/v1/sessions/{id}/budget"), None).unwrap();
        println!(
            "GET  /v1/sessions/{id}/budget -> slice {} of {}, engine {} of {}",
            budget.get("spent").and_then(Json::as_f64).unwrap(),
            budget.get("allowance").and_then(Json::as_f64).unwrap(),
            budget
                .get("engine")
                .and_then(|e| e.get("spent"))
                .and_then(Json::as_f64)
                .unwrap(),
            budget
                .get("engine")
                .and_then(|e| e.get("budget"))
                .and_then(Json::as_f64)
                .unwrap(),
        );
    }

    // Cache statistics: global plus per-tenant scopes.
    let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    println!("\nGET /v1/stats -> {}", stats.render());

    // Graceful shutdown through the admin endpoint.
    let (status, _) = client::request(addr, "POST", "/v1/admin/shutdown", Some("{}")).unwrap();
    println!("\nPOST /v1/admin/shutdown -> {status}");
    handle.join();
    println!("server drained and stopped");
}
