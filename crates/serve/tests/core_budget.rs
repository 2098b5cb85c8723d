//! A shard worker holds a busy mark in the translator's core budget
//! (`apex_mech::par`) only while it routes a request. The count is
//! process-wide, so this check runs in a binary of its own: nothing else
//! here marks a thread busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use apex_core::{EngineConfig, Mode};
use apex_data::{Attribute, Dataset, Domain, Schema, Value};
use apex_mech::par;
use apex_serve::{client, serve_sharded, Clock, Json, ServeConfig, ServerState, ShardSet};

/// A clock that panics the request reading it while its flag is set.
#[derive(Debug)]
struct FaultyClock(AtomicBool);

impl Clock for FaultyClock {
    fn now_millis(&self) -> u64 {
        if self.0.load(Ordering::SeqCst) {
            std::panic::panic_any(apex_core::sched::SimulatedCrash);
        }
        0
    }
}

fn demo(domain: i64) -> Dataset {
    let schema = Schema::new(vec![Attribute::new(
        "v",
        Domain::IntRange {
            min: 0,
            max: domain - 1,
        },
    )])
    .unwrap();
    let mut d = Dataset::empty(schema);
    for i in 0..256 {
        d.push(vec![Value::Int(i % domain)]).unwrap();
    }
    d
}

#[test]
fn routed_requests_and_a_panicking_route_leave_no_worker_busy() {
    apex_core::sched::silence_simulated_crashes();
    let clock = Arc::new(FaultyClock(AtomicBool::new(false)));
    let set = Arc::new(ShardSet::build(1, |_| {
        ServerState::builder(16)
            .dataset(
                "demo",
                demo(64),
                EngineConfig {
                    budget: 10.0,
                    mode: Mode::Optimistic,
                    seed: 0xB05,
                },
            )
            .clock(clock.clone())
    }));
    let handle = serve_sharded(
        "127.0.0.1:0",
        set,
        ServeConfig {
            workers_per_shard: 2,
        },
    )
    .unwrap();
    let addr = handle.addr();
    let open = || {
        client::request(
            addr,
            "POST",
            "/v1/sessions",
            Some(r#"{"dataset":"demo","budget":5}"#),
        )
        .unwrap()
    };

    // A query whose workload misses the translator cache. The response is
    // written after the route returns, so reading it is enough.
    let (status, opened) = open();
    assert_eq!(status, 201, "{opened:?}");
    let id = opened.get("session").and_then(Json::as_u64).unwrap();
    let ranges: Vec<String> = (0..16)
        .map(|i| format!("v IN [{}, {})", 4 * i, 4 * i + 4))
        .collect();
    let body = format!(
        r#"{{"query":"BIN demo ON COUNT(*) WHERE {{ {} }} ERROR 30 CONFIDENCE 0.95;"}}"#,
        ranges.join(", ")
    );
    let path = format!("/v1/sessions/{id}/query");
    let (status, resp) = client::request(addr, "POST", &path, Some(&body)).unwrap();
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(par::busy_threads(), 0);

    // The 500 path: the route panics and the worker catches it.
    clock.0.store(true, Ordering::SeqCst);
    let (status, resp) = open();
    assert_eq!(status, 500, "{resp:?}");
    clock.0.store(false, Ordering::SeqCst);
    assert_eq!(par::busy_threads(), 0);
    let (status, resp) = open();
    assert_eq!(status, 201, "{resp:?}");
    assert_eq!(par::busy_threads(), 0);

    handle.stop();
    handle.join();
}
