//! Quickstart: ask accuracy-bounded questions about a sensitive table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The analyst writes queries in the paper's declarative syntax with an
//! `ERROR α CONFIDENCE 1−β` clause; APEx picks the cheapest private
//! mechanism, answers, and accounts the privacy loss against the owner's
//! budget.

use apex_core::{ApexEngine, EngineConfig, EngineResponse, Mode};
use apex_data::synth::adult_dataset;
use apex_query::parse_query;

fn main() {
    // The data owner loads the sensitive table and sets the budget B.
    let data = adult_dataset(32_561, 7);
    let n = data.len() as f64;
    let mut engine = ApexEngine::new(
        data,
        EngineConfig {
            budget: 1.0,
            mode: Mode::Optimistic,
            seed: 42,
        },
    );

    // The analyst asks for a histogram of capital gain with a guaranteed
    // max error of 0.5% of the table size, 99.95% of the time.
    let alpha = 0.005 * n;
    let stmt = format!(
        "BIN D ON COUNT(*) WHERE W = {{ capital_gain IN [0, 1000), capital_gain IN [1000, 2000), \
         capital_gain IN [2000, 3000), capital_gain IN [3000, 4000), capital_gain IN [4000, 5000) }} \
         ERROR {alpha} CONFIDENCE 0.9995;"
    );
    let parsed = parse_query(&stmt).expect("statement parses");
    let accuracy = parsed.accuracy.expect("statement has an accuracy clause");

    match engine
        .submit(&parsed.query, &accuracy)
        .expect("query is well-formed")
    {
        EngineResponse::Answered(a) => {
            println!(
                "mechanism: {}   privacy spent: ε = {:.5}",
                a.mechanism, a.epsilon
            );
            for (i, c) in a.answer.as_counts().expect("WCQ").iter().enumerate() {
                println!("  gain in [{}k, {}k): ~{:.0} people", i, i + 1, c.max(0.0));
            }
        }
        EngineResponse::Denied => println!("query denied — budget too small for this accuracy"),
    }

    // A follow-up iceberg query: which bins hold more than 2% of people?
    let stmt = format!(
        "BIN D ON COUNT(*) WHERE W = {{ capital_gain IN [0, 1000), capital_gain IN [1000, 2000), \
         capital_gain IN [2000, 3000), capital_gain IN [3000, 4000), capital_gain IN [4000, 5000) }} \
         HAVING COUNT(*) > {} ERROR {alpha} CONFIDENCE 0.9995;",
        0.02 * n
    );
    let parsed = parse_query(&stmt).expect("parses");
    let accuracy = parsed.accuracy.expect("has accuracy");
    if let EngineResponse::Answered(a) = engine.submit(&parsed.query, &accuracy).expect("ok") {
        println!(
            "bins over 2%: {:?}   (mechanism {}, ε = {:.5})",
            a.answer.as_bins().expect("ICQ"),
            a.mechanism,
            a.epsilon
        );
    }

    println!(
        "total spent: {:.5} of budget {:.1}  ({} answered, {} denied)",
        engine.spent(),
        engine.budget(),
        engine.transcript().answered(),
        engine.transcript().denied()
    );
    assert!(engine.transcript().is_valid(engine.budget()));
}
