//! The `cej-server` binary: boots a demo session (workload tables + a
//! FastText-style model) and serves it over TCP until interrupted.
//!
//! ```sh
//! cej-server [addr]            # default 127.0.0.1:7878
//! CEJ_THREADS=8 cej-server     # worker-pool sizing, as everywhere
//! CEJ_SCALE=0.5 cej-server     # scales the demo tables
//! ```
//!
//! Try it:
//!
//! ```text
//! $ printf 'PREPARE j1 QUERY r EJOIN s ON word~word MODEL ft TOPK 2\nRUN j1\nQUIT\n' | nc 127.0.0.1 7878
//! ```

#![forbid(unsafe_code)]

use cej_core::ContextJoinSession;
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_server::{Server, ServerConfig};
use cej_workload::{scaled, JoinWorkload, RelationSpec};

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());

    let workload = JoinWorkload::generate(
        RelationSpec::with_rows(scaled(2_000).max(8)),
        RelationSpec::with_rows(scaled(8_000).max(8)),
        42,
    );
    let model = FastTextModel::new(FastTextConfig {
        dim: 32,
        ..FastTextConfig::default()
    })
    .expect("model construction");

    let mut session = ContextJoinSession::new();
    session.register_table("r", workload.outer.clone());
    session.register_table("s", workload.inner.clone());
    session.register_model("ft", model);

    let config = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    let server = Server::start(session, config).expect("bind");
    println!(
        "cej-server listening on {} (tables: r={} rows, s={} rows; model: ft; \
         commands: PREPARE/BIND/RUN/PROBE/EXPLAIN/ANALYZE/STATS/METRICS/TRACE/\
         SUBSCRIBE/UNSUBSCRIBE/APPLY/PING/QUIT)",
        server.local_addr(),
        workload.outer.num_rows(),
        workload.inner.num_rows(),
    );
    // Serve until the process is killed; the acceptor and connections run on
    // their own threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
