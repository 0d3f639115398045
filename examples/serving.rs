//! Serving: a multi-client TCP front end over one shared session.
//!
//! Boots a `cej-server` on a loopback port, then acts as three clients of
//! it: one prepares and repeatedly runs a semantic join (plan-once /
//! execute-many — the warm runs reuse the shared embedding cache), one
//! re-binds the similarity threshold without replanning, and one sends
//! ad-hoc probe text through a prepared probe template (the "user query
//! string" path).  Finishes with the server's `STATS` line: admission
//! counters, latency percentiles, and the persistent worker pool's
//! task, queued-token and wakeup counters.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serving
//! ```

use cej::core::{ContextJoinSession, JoinStrategy, TensorJoinConfig};
use cej::embedding::{FastTextConfig, FastTextModel};
use cej::server::{Client, Response, Server, ServerConfig};
use cej::storage::TableBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A session with a photo table, a product table, and a model —
    //    exactly the quickstart setup, but served.
    let mut session = ContextJoinSession::new();
    session.register_table(
        "photos",
        TableBuilder::new()
            .int64("photo_id", vec![1, 2, 3, 4])
            .utf8(
                "caption",
                vec![
                    "grilling burgers on the barbecue".into(),
                    "laptop on a conference table".into(),
                    "sunset over the beach".into(),
                    "database systems lecture notes".into(),
                ],
            )
            .build()?,
    );
    session.register_table(
        "products",
        TableBuilder::new()
            .int64("product_id", vec![10, 20, 30])
            .utf8(
                "title",
                vec![
                    "charcoal barbecue grill".into(),
                    "ergonomic laptop stand".into(),
                    "intro to database management".into(),
                ],
            )
            .build()?,
    );
    session.register_model(
        "ft",
        FastTextModel::new(FastTextConfig {
            dim: 64,
            ..FastTextConfig::default()
        })?,
    );
    session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));

    // 2. Serve it.
    let mut server = Server::start(session, ServerConfig::default())?;
    println!("serving on {}", server.local_addr());

    // 3. Client one: prepare once, run many (warm runs pay zero model calls).
    let mut client = Client::connect(server.local_addr())?;
    client.request("PREPARE match QUERY photos EJOIN products ON caption~title MODEL ft TOPK 1")?;
    for round in 1..=3 {
        if let Response::Rows { lines, checksum } = client.request("RUN match")? {
            println!(
                "round {round}: {} matched rows (checksum {checksum:016x})",
                lines.len() - 1
            );
            if round == 1 {
                for line in &lines[1..] {
                    println!("  {line}");
                }
            }
        }
    }

    // 4. Client two: a threshold join, re-bound without replanning.
    let mut binder = Client::connect(server.local_addr())?;
    binder.request("PREPARE sim QUERY photos EJOIN products ON caption~title MODEL ft SIM 0.9")?;
    binder.request("BIND sim simlo 0.3")?;
    for id in ["sim", "simlo"] {
        if let Response::Rows { lines, .. } = binder.request(&format!("RUN {id}"))? {
            println!("threshold statement {id}: {} pairs", lines.len() - 1);
        }
    }

    // 5. Client three: ad-hoc probe text through a prepared template.
    let mut prober = Client::connect(server.local_addr())?;
    prober.request("PREPARE find PROBE products.title MODEL ft TOPK 2")?;
    if let Response::Rows { lines, .. } =
        prober.request("PROBE find cast iron grill for the garden")?
    {
        println!("probe results:");
        for line in &lines[1..] {
            println!("  {line}");
        }
    }

    // 6. What the server saw.
    if let Response::Ok(stats) = prober.request("STATS")? {
        println!("server stats: {stats}");
    }
    server.shutdown();
    println!("server stopped cleanly");
    Ok(())
}
