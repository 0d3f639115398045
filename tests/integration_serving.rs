//! End-to-end tests of the `cej-server` front end: boot a server over a
//! shared session, drive the text protocol through real TCP clients, and
//! assert on statement reuse, concurrency, admission, and shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

use cej_core::{ContextJoinSession, JoinStrategy, TensorJoinConfig};
use cej_embedding::{Embedder, FastTextConfig, FastTextModel};
use cej_server::{Client, Response, Server, ServerConfig};
use cej_workload::{JoinWorkload, RelationSpec};

fn demo_session() -> ContextJoinSession {
    let workload = JoinWorkload::generate(
        RelationSpec {
            rows: 20,
            clusters: 4,
            variants_per_cluster: 4,
        },
        RelationSpec {
            rows: 60,
            clusters: 4,
            variants_per_cluster: 4,
        },
        7,
    );
    let mut session = ContextJoinSession::new();
    session.register_table("r", workload.outer.clone());
    session.register_table("s", workload.inner.clone());
    session.register_model(
        "ft",
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 2_000,
            ..FastTextConfig::default()
        })
        .unwrap(),
    );
    // tensor join is byte-deterministic for any thread count, which the
    // result-equality assertions below rely on
    session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    session
}

fn start_server() -> Server {
    Server::start(demo_session(), ServerConfig::default()).expect("bind server")
}

#[test]
fn prepare_run_explain_bind_over_tcp() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert_eq!(client.request("PING").unwrap(), Response::Ok("pong".into()));
    assert!(matches!(
        client
            .request("PREPARE j1 QUERY r EJOIN s ON word~word MODEL ft TOPK 2")
            .unwrap(),
        Response::Ok(_)
    ));
    let Response::Rows { lines, checksum } = client.request("RUN j1").unwrap() else {
        panic!("expected rows");
    };
    assert!(lines[0].contains("l_word") && lines[0].contains("similarity"));
    assert_eq!(lines.len() - 1, 40, "top-2 join over 20 outer rows");
    // the served bytes are the same whatever the worker-pool budget: CI runs
    // this suite under CEJ_THREADS=1 and 2 against this one constant
    assert_eq!(
        checksum, 0xed6d_e44b_1cd1_6ce0,
        "RUN j1 over the fixed 20 x 60 workload answered {checksum:#018x}"
    );
    // repeat runs are byte-identical (warm prepared statement)
    let Response::Rows {
        checksum: warm_checksum,
        ..
    } = client.request("RUN j1").unwrap()
    else {
        panic!("expected rows");
    };
    assert_eq!(checksum, warm_checksum);

    // EXPLAIN renders the plan without executing
    let Response::Text(explain) = client.request("EXPLAIN j1").unwrap() else {
        panic!("expected text");
    };
    assert!(explain.iter().any(|l| l.contains("Join")));

    // ANALYZE renders estimated-vs-actual rows plus the scheduler line
    let Response::Text(analyze) = client.request("ANALYZE j1").unwrap() else {
        panic!("expected text");
    };
    assert!(analyze.iter().any(|l| l.contains("actual")));
    assert!(
        analyze.iter().any(|l| l.starts_with("scheduler:")),
        "explain analyze must surface scheduler metrics: {analyze:?}"
    );

    // a threshold statement can be re-bound without replanning
    assert!(matches!(
        client
            .request("PREPARE t1 QUERY r EJOIN s ON word~word MODEL ft SIM 0.9")
            .unwrap(),
        Response::Ok(_)
    ));
    assert!(matches!(
        client.request("BIND t1 t1lo 0.2").unwrap(),
        Response::Ok(_)
    ));
    let Response::Rows { lines: hi, .. } = client.request("RUN t1").unwrap() else {
        panic!()
    };
    let Response::Rows { lines: lo, .. } = client.request("RUN t1lo").unwrap() else {
        panic!()
    };
    assert!(
        lo.len() >= hi.len(),
        "a lower threshold keeps at least as many pairs"
    );

    // errors come back as ERR without killing the connection
    assert!(matches!(
        client.request("RUN missing").unwrap(),
        Response::Err(_)
    ));
    assert!(matches!(
        client.request("GIBBERISH").unwrap(),
        Response::Err(_)
    ));
    assert!(matches!(
        client
            .request("PREPARE bad QUERY r EJOIN s ON nope~word MODEL ft TOPK 1")
            .unwrap(),
        Response::Err(_),
    ));
    assert_eq!(client.request("QUIT").unwrap(), Response::Ok("bye".into()));

    // per-query latency was recorded
    assert!(server.latency().count() >= 4);
    server.shutdown();
}

#[test]
fn probe_template_joins_adhoc_text() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client
            .request("PREPARE p PROBE s.word MODEL ft TOPK 3")
            .unwrap(),
        Response::Ok(_)
    ));
    let Response::Rows { lines, .. } = client.request("PROBE p some fresh text").unwrap() else {
        panic!("expected rows");
    };
    assert_eq!(lines.len() - 1, 3, "top-3 neighbours for one probe row");
    assert!(lines[0].contains("l_text") && lines[0].contains("r_word"));
    // identical probe text → identical bytes
    let Response::Rows { checksum: a, .. } = client.request("PROBE p some fresh text").unwrap()
    else {
        panic!()
    };
    let Response::Rows { checksum: b, .. } = client.request("PROBE p some fresh text").unwrap()
    else {
        panic!()
    };
    assert_eq!(a, b);
    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_session_and_agree() {
    let mut server = start_server();
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client
                .request("PREPARE j QUERY r EJOIN s ON word~word MODEL ft TOPK 2")
                .unwrap();
            let mut checksums = Vec::new();
            for _ in 0..5 {
                let Response::Rows { checksum, .. } = client.request("RUN j").unwrap() else {
                    panic!("expected rows");
                };
                checksums.push(checksum);
            }
            client.request("QUIT").unwrap();
            checksums
        }));
    }
    let all: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let reference = all[0][0];
    for per_client in &all {
        for &checksum in per_client {
            assert_eq!(checksum, reference, "all clients must see identical bytes");
        }
    }
    // the shared embedding cache was warmed once, not once per client
    let session = server.session();
    let stats = session.embedding_caches().stats();
    assert!(
        stats.model_calls <= 80,
        "distinct strings must be embedded once across all clients, got {}",
        stats.model_calls
    );
    assert!(stats.cache_hits > 0);
    server.shutdown();
}

/// A model whose next call, once armed, announces itself and then blocks
/// until the test lets it go — so a test can *hold* a query mid-execution
/// instead of hoping two runs overlap.
struct GatedModel {
    model: FastTextModel,
    armed: AtomicBool,
    entered: SyncSender<()>,
    release: Mutex<Receiver<()>>,
}

impl Embedder for GatedModel {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn embed(&self, input: &str) -> cej_vector::Vector {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.entered.send(()).expect("test is listening");
            let release = self.release.lock().expect("gate lock");
            release.recv().expect("test releases the gate");
        }
        self.model.embed(input)
    }
}

#[test]
fn admission_gate_rejects_overload_with_busy() {
    // a 1-slot, 0-queue server: while one query runs, any other RUN is
    // rejected as busy.  The first query is held inside its first model call,
    // so the overlap is a fact, not a race.
    let (entered_tx, entered_rx) = sync_channel(1);
    let (release_tx, release_rx) = sync_channel(1);
    let mut session = demo_session();
    session.register_model(
        "gated",
        GatedModel {
            model: FastTextModel::new(FastTextConfig {
                dim: 16,
                buckets: 2_000,
                ..FastTextConfig::default()
            })
            .unwrap(),
            armed: AtomicBool::new(true),
            entered: entered_tx,
            release: Mutex::new(release_rx),
        },
    );
    let mut server = Server::start(
        session,
        ServerConfig {
            max_inflight: 1,
            max_queued: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut blocker = Client::connect(addr).unwrap();
    blocker
        .request("PREPARE slow QUERY r EJOIN s ON word~word MODEL gated TOPK 4")
        .unwrap();
    let mut prober = Client::connect(addr).unwrap();
    prober
        .request("PREPARE q QUERY r EJOIN s ON word~word MODEL ft TOPK 1")
        .unwrap();

    let holder = std::thread::spawn(move || blocker.request("RUN slow").unwrap());
    // the blocker's run is inside the model now: it owns the only slot
    entered_rx.recv().unwrap();
    assert_eq!(server.admission().inflight, 1);
    for rejected in 1..=3u64 {
        match prober.request("RUN q").unwrap() {
            Response::Err(e) => assert!(e.starts_with("busy"), "unexpected error {e}"),
            other => panic!("a full gate must refuse, got {other:?}"),
        }
        assert_eq!(server.admission().rejected, rejected);
    }
    release_tx.send(()).unwrap();
    assert!(
        matches!(holder.join().unwrap(), Response::Rows { .. }),
        "the held query finishes normally"
    );
    // the slot is free again: the refused client is served on retry
    assert!(matches!(
        prober.request("RUN q").unwrap(),
        Response::Rows { .. }
    ));
    let admission = server.admission();
    assert_eq!(admission.admitted, 2);
    assert_eq!(admission.rejected, 3);
    assert_eq!(admission.peak_inflight, 1);
    server.shutdown();
}

#[test]
fn stats_reports_server_and_pool_state() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .request("PREPARE j QUERY r EJOIN s ON word~word MODEL ft TOPK 1")
        .unwrap();
    client.request("RUN j").unwrap();
    let Response::Ok(stats) = client.request("STATS").unwrap() else {
        panic!("expected OK stats");
    };
    for key in [
        "queries=",
        "admitted=",
        "p95_us=",
        "index_builds=",
        "embed_calls=",
        "pool_tasks=",
        "pool_workers=",
    ] {
        assert!(stats.contains(key), "STATS must report {key}: {stats}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_joins_all_threads() {
    let mut server = start_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .request("PREPARE j QUERY r EJOIN s ON word~word MODEL ft TOPK 1")
        .unwrap();
    client.request("RUN j").unwrap();
    // shutdown with the client still connected: the server must not hang
    server.shutdown();
    // second shutdown is a no-op
    server.shutdown();
    // new connections are refused (or dropped without response)
    assert!(
        Client::connect(addr)
            .and_then(|mut c| c.request("PING"))
            .is_err(),
        "a stopped server must not serve"
    );
}
