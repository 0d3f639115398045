//! Integration tests of the concurrent serving contract on a shared
//! session: many threads running prepared queries against the same state
//! must observe exactly one index build per cold key, no eviction of in-use
//! entries, isolated per-run reports, and byte-identical results — also
//! while another thread clears the embedding cache and re-registers the
//! model under screened tensor joins that read the codes kept per slot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cej_core::{
    ContextJoinSession, ExecutionReport, IndexJoinConfig, IndexPath, JoinStrategy, PreparedQuery,
    TensorJoinConfig,
};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_index::HnswParams;
use cej_relational::{LogicalPlan, SimilarityPredicate};
use cej_workload::{JoinWorkload, RelationSpec};

fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 2_000,
        ..FastTextConfig::default()
    })
    .unwrap()
}

fn shared_session() -> ContextJoinSession {
    session_over(80)
}

/// Rows of [`walking_session`]'s inner table: so many against
/// [`walking_params`]' narrow graph that an index join over all of them
/// walks it — the priced walk (`IndexJoin::route`) undercuts the scan.
const WALKING_ROWS: usize = 3_000;

fn walking_params() -> HnswParams {
    HnswParams {
        m: 4,
        m0: 8,
        ef_construction: 32,
        ef_search: 8,
        ..HnswParams::tiny()
    }
}

/// [`shared_session`] over a [`WALKING_ROWS`]-row inner table, its index
/// joins on [`walking_params`].
fn walking_session() -> ContextJoinSession {
    let mut session = session_over(WALKING_ROWS);
    session.with_strategy(JoinStrategy::Index(IndexJoinConfig {
        params: walking_params(),
        range_probe_k: 4,
    }));
    session
}

fn session_over(inner_rows: usize) -> ContextJoinSession {
    let workload = JoinWorkload::generate(
        RelationSpec {
            rows: 24,
            clusters: 4,
            variants_per_cluster: 4,
        },
        RelationSpec {
            rows: inner_rows,
            clusters: 4,
            variants_per_cluster: 4,
        },
        99,
    );
    let mut session = ContextJoinSession::new();
    session.register_table("r", workload.outer.clone());
    session.register_table("s", workload.inner.clone());
    session.register_model("ft", model());
    session
}

fn join_plan() -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::scan("r"),
        LogicalPlan::scan("s"),
        "word",
        "word",
        "ft",
        SimilarityPredicate::TopK(2),
    )
}

/// Canonical fingerprint of a join result for equality checks.
type Fingerprint = Vec<(String, String)>;

fn fingerprint(report: &cej_core::ExecutionReport) -> Fingerprint {
    let l = report
        .table
        .column_by_name("l_word")
        .unwrap()
        .as_utf8()
        .unwrap()
        .to_vec();
    let r = report
        .table
        .column_by_name("r_word")
        .unwrap()
        .as_utf8()
        .unwrap()
        .to_vec();
    let mut pairs: Vec<(String, String)> = l.into_iter().zip(r).collect();
    pairs.sort();
    pairs
}

#[test]
fn concurrent_prepared_runs_share_one_index_build() {
    let session = walking_session(); // frozen configuration

    const THREADS: usize = 8;
    const RUNS_PER_THREAD: usize = 5;
    let prepared: Arc<PreparedQuery<'static>> =
        Arc::new(session.prepare(&join_plan()).unwrap().detach());

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let prepared = prepared.clone();
        handles.push(std::thread::spawn(move || {
            let mut builds = 0u64;
            let mut fingerprints = Vec::new();
            for _ in 0..RUNS_PER_THREAD {
                let report = prepared.run().unwrap();
                let route = report.join_stats.index_route.map(|r| r.path);
                assert_eq!(route, Some(IndexPath::Walk));
                builds += report.index_builds;
                fingerprints.push(fingerprint(&report));
            }
            (builds, fingerprints)
        }));
    }
    let results: Vec<(u64, Vec<Fingerprint>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // exactly one build across all threads and runs (single-flight)…
    let total_builds: u64 = results.iter().map(|(b, _)| b).sum();
    assert_eq!(total_builds, 1, "the cold key must be built exactly once");
    let stats = session.index_manager().stats();
    assert_eq!(stats.builds, 1);
    // …and the hit counter accounts for every other run
    assert_eq!(
        stats.hits,
        (THREADS * RUNS_PER_THREAD) as u64 - 1,
        "every non-building run must register as a hit"
    );
    assert_eq!(stats.resident, 1);

    // byte-identical results across every thread and run
    let reference = &results[0].1[0];
    for (_, fingerprints) in &results {
        for f in fingerprints {
            assert_eq!(f, reference, "concurrent runs must agree exactly");
        }
    }
}

#[test]
fn concurrent_runs_report_isolated_embedding_stats() {
    let session = shared_session();
    let prepared: Arc<PreparedQuery<'static>> =
        Arc::new(session.prepare(&join_plan()).unwrap().detach());
    // Warm the caches once: afterwards *every* run everywhere must report
    // exactly zero model calls — under the old snapshot-diff accounting a
    // run overlapping a cold run would have absorbed its calls.
    let warmup = prepared.run().unwrap();
    assert!(warmup.embedding_stats.model_calls > 0);

    let mut handles = Vec::new();
    for _ in 0..6 {
        let prepared = prepared.clone();
        handles.push(std::thread::spawn(move || {
            (0..4)
                .map(|_| prepared.run().unwrap().embedding_stats.model_calls)
                .collect::<Vec<u64>>()
        }));
    }
    for handle in handles {
        for calls in handle.join().unwrap() {
            assert_eq!(calls, 0, "warm runs must report zero model calls");
        }
    }
}

#[test]
fn session_handles_share_state_across_threads() {
    let session = shared_session();
    // clones are handles: a prepared query on one handle warms the caches
    // observed through every other handle
    let other = session.clone();
    let report = session.execute(&join_plan()).unwrap();
    assert!(report.embedding_stats.model_calls > 0);
    let t = std::thread::spawn(move || other.execute(&join_plan()).unwrap());
    let warm = t.join().unwrap();
    assert_eq!(
        warm.embedding_stats.model_calls, 0,
        "handle clones must share the embedding caches"
    );
    assert_eq!(fingerprint(&report), fingerprint(&warm));
}

#[test]
fn in_use_index_survives_concurrent_eviction_pressure() {
    let session = walking_session();
    let prepared = session.prepare(&join_plan()).unwrap();
    let cold = prepared.run().unwrap();
    assert_eq!(
        cold.join_stats.index_route.map(|r| r.path),
        Some(IndexPath::Walk)
    );
    assert_eq!(session.index_manager().stats().resident, 1);

    // hold the resident index in use, then apply crushing budget pressure
    // from another thread: the held entry must survive
    let key = cej_core::IndexKey::new("s", "word", "ft", walking_params());
    let held = session.index_manager().get(&key).expect("index resident");
    session.index_manager().set_budget(Some(1));
    assert_eq!(
        session.index_manager().stats().resident,
        1,
        "in-use entry must not be evicted by the budget"
    );
    // runs keep reusing it — zero rebuilds under pressure — and walk it
    let report = prepared.run().unwrap();
    assert_eq!(report.index_builds, 0);
    assert_eq!(report.index_reuses, 1);
    assert!(report.join_stats.probe_stats.distance_computations > 0);
    drop(held);
    drop(prepared);
}

/// The similarity column's bits, row by row.
fn score_bits(report: &ExecutionReport) -> Vec<u64> {
    let column = report.table.column_by_name("similarity").unwrap();
    column
        .as_float64()
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

#[test]
fn screened_runs_equal_a_serial_run_while_caches_clear_and_models_swap() {
    // every tensor join screens (on a CPU with AVX-512 VNNI) from the codes
    // the pool keeps per slot
    let mut session = shared_session();
    session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    let session = session;
    let serial = session.execute(&join_plan()).unwrap();
    let expected = (serial.table.clone(), score_bits(&serial));
    // held across the swaps: it keeps the model it was planned with
    let held = session.prepare(&join_plan()).unwrap().detach();

    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mutator = scope.spawn(|| {
                let mut handle = session.clone();
                for i in 0..24 {
                    if i % 3 == 2 {
                        // the same model again: the pool drops its cache,
                        // slot maps and codes with the entry
                        handle.register_model("ft", model());
                    } else {
                        let cache = session.embedding_caches();
                        let cache = cache.cache("ft", &session.model_registry()).unwrap();
                        cache.clear_cache();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                stop.store(true, Ordering::Relaxed);
            });
            let runners: Vec<_> = (0..3)
                .map(|t| {
                    let (session, held, stop) = (&session, &held, &stop);
                    scope.spawn(move || {
                        let mut runs = Vec::new();
                        while runs.len() < 6 || !stop.load(Ordering::Relaxed) {
                            let report = if (runs.len() + t) % 2 == 0 {
                                session.execute(&join_plan()).unwrap()
                            } else {
                                held.run().unwrap()
                            };
                            runs.push((report.table.clone(), score_bits(&report)));
                        }
                        runs
                    })
                })
                .collect();
            mutator.join().unwrap();
            let runs: Vec<_> = runners
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            done.send(runs).unwrap();
        });
    });
    let runs = finished
        .recv_timeout(Duration::from_secs(120))
        .expect("screened runs and cache invalidations must not deadlock");
    worker.join().unwrap();
    assert!(runs.len() >= 18);
    for (i, run) in runs.iter().enumerate() {
        assert!(*run == expected, "run {i} differs from the serial run");
    }
}
