//! Integration tests for the observability substrate: span-tree shape of a
//! traced multi-join query at every thread budget, byte-identity of traced
//! vs untraced execution across all four join strategies, registry
//! concurrency through the public API, and slow-query capture.

use cej_core::{ContextJoinSession, IndexJoinConfig, JoinStrategy, NljConfig, TensorJoinConfig};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_index::HnswParams;
use cej_obs::Trace;
use cej_relational::{LogicalPlan, SimilarityPredicate};
use cej_workload::{JoinWorkload, RelationSpec};
use proptest::prelude::*;

/// Star session for the span-tree tests: fact ⋈ dimension feeding a
/// similarity join, so the trace covers HashJoin, ejoin, and scan spans.
fn star_session() -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    s.register_table(
        "photos",
        cej_storage::TableBuilder::new()
            .int64("id", (0..12).collect())
            .int64("owner_fk", (0..12).map(|i| (i % 3 + 1) * 100).collect())
            .utf8(
                "caption",
                (0..12).map(|i| format!("caption topic {i}")).collect(),
            )
            .build()
            .expect("photos table"),
    );
    s.register_table(
        "owners",
        cej_storage::TableBuilder::new()
            .int64("owner_id", vec![100, 200, 300])
            .utf8("region", vec!["west".into(), "east".into(), "north".into()])
            .build()
            .expect("owners table"),
    );
    s.register_table(
        "products",
        cej_storage::TableBuilder::new()
            .int64("product_id", vec![1, 2, 3])
            .utf8(
                "title",
                vec![
                    "caption topic 1".into(),
                    "caption topic 7".into(),
                    "something else".into(),
                ],
            )
            .build()
            .expect("products table"),
    );
    s.register_model(
        "ft",
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .expect("model construction"),
    );
    s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    s
}

/// `(photos ⋈ owners) ⋈_sim products`, top-1.
fn multi_join_plan() -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("owners"),
            "owner_fk",
            "owner_id",
        ),
        LogicalPlan::scan("products"),
        "caption",
        "title",
        "ft",
        SimilarityPredicate::TopK(1),
    )
}

#[test]
fn traced_multi_join_records_a_complete_span_tree_under_both_executors() {
    let s = star_session();
    let prepared = s.prepare(&multi_join_plan()).expect("prepare");
    // both ways `cej-exec` runs the interpreter's morsels: inline at a budget
    // of one thread, on the work-stealing scheduler above it (every table
    // here fits one morsel, so this is the whole-table cut)
    for threads in [1usize, 2] {
        let trace = Trace::forced("integration multi-join");
        let report = prepared
            .run_traced_with(&trace, cej_exec::ExecPool::new(threads))
            .expect("traced run");
        assert!(report.table.num_rows() > 0, "query produced no rows");
        let trace_id = trace.finish().expect("forced trace has an id");
        assert_eq!(report.trace_id, Some(trace_id));

        let finished = cej_obs::trace_by_id(trace_id).expect("trace in the capture ring");
        assert_eq!(finished.label, "integration multi-join");
        assert_ne!(finished.fingerprint, 0, "plan fingerprint must be set");

        let position = |name: &str| {
            finished
                .spans
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| {
                    panic!(
                        "span `{name}` missing at {threads} thread(s); got {:?}",
                        finished
                            .spans
                            .iter()
                            .map(|s| s.name.as_str())
                            .collect::<Vec<_>>()
                    )
                })
        };
        // the planning phases and the execute phase hang off the root
        let root = position("integration multi-join");
        for phase in [
            "phase.rewrite",
            "phase.order",
            "phase.lower",
            "phase.execute",
        ] {
            assert_eq!(finished.spans[position(phase)].parent, Some(root as u32));
        }
        // operator spans mirror the physical plan's shape: the ejoin under
        // the execute phase, the hash join under the ejoin, the scans under
        // their joins
        let execute = position("phase.execute");
        let ejoin = position("TensorJoin caption~title");
        let hash = position("HashJoin owner_fk=owner_id");
        assert_eq!(finished.spans[ejoin].parent, Some(execute as u32));
        assert_eq!(finished.spans[hash].parent, Some(ejoin as u32));
        assert_eq!(
            finished.spans[position("TableScan photos")].parent,
            Some(hash as u32)
        );
        assert_eq!(
            finished.spans[position("TableScan owners")].parent,
            Some(hash as u32)
        );
        assert_eq!(
            finished.spans[position("TableScan products")].parent,
            Some(ejoin as u32)
        );
        // the execute span carries the row-count attribute
        let rows_attr = finished.spans[execute]
            .attrs
            .iter()
            .find(|(key, _)| *key == "rows")
            .unwrap_or_else(|| panic!("no rows attr on phase.execute: {:?}", finished.spans));
        assert_eq!(rows_attr.1.to_string(), report.table.num_rows().to_string());
        // and the rendered tree indents children under their parents
        let rendered = finished.render();
        assert!(
            rendered.contains("  phase.execute") && rendered.contains("    TensorJoin"),
            "unexpected rendering:\n{rendered}"
        );
    }
}

#[test]
fn registry_counters_and_histograms_sum_exactly_under_parallel_load() {
    let registry = cej_obs::Registry::new();
    let counter = registry.counter("it_ops_total", "operations");
    let histogram = registry.histogram("it_latency_us", "latencies");
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let counter = counter.clone();
        let histogram = histogram.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..10_000u64 {
                counter.inc();
                histogram.observe(t * 10_000 + i);
            }
        }));
    }
    for handle in handles {
        handle.join().expect("incrementer thread");
    }
    assert_eq!(counter.get(), 80_000);
    assert_eq!(registry.value("it_ops_total"), Some(80_000));
    assert_eq!(histogram.count(), 80_000);
    let rendered = registry.render();
    assert!(rendered.contains("it_ops_total 80000"), "{rendered}");
    assert!(rendered.contains("it_latency_us_count 80000"), "{rendered}");
}

#[test]
fn slow_query_threshold_captures_untraced_runs() {
    let s = star_session();
    let prepared = s.prepare(&multi_join_plan()).expect("prepare");
    // threshold 0: every untraced query counts as slow
    cej_obs::set_slow_query_ms(Some(0));
    let before = cej_obs::slow_query_count();
    let report = prepared
        .run_traced_with(&Trace::disabled(), cej_exec::ExecPool::new(1))
        .expect("untraced run");
    cej_obs::set_slow_query_ms(None);
    assert!(
        cej_obs::slow_query_count() > before,
        "slow-query log did not grow"
    );
    // the post-hoc forced trace is reachable through the report
    let trace_id = report.trace_id.expect("slow query captured a trace");
    let finished = cej_obs::trace_by_id(trace_id).expect("trace in the ring");
    assert_eq!(finished.label, "slow query");
    assert!(
        finished.spans.iter().any(|s| s.name == "phase.execute"),
        "{:?}",
        finished.spans
    );
}

fn workload_session(
    outer_rows: usize,
    inner_rows: usize,
    strategy: JoinStrategy,
) -> ContextJoinSession {
    let workload = JoinWorkload::generate(
        RelationSpec::with_rows(outer_rows),
        RelationSpec::with_rows(inner_rows),
        11,
    );
    let mut s = ContextJoinSession::new();
    s.register_table("r", workload.outer.clone());
    s.register_table("s", workload.inner.clone());
    s.register_model(
        "ft",
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 2_000,
            ..FastTextConfig::default()
        })
        .expect("model construction"),
    );
    s.with_strategy(strategy);
    s
}

fn strategy_for(idx: usize) -> JoinStrategy {
    match idx {
        0 => JoinStrategy::NaiveNlj,
        1 => JoinStrategy::PrefetchNlj(NljConfig::default()),
        2 => JoinStrategy::Tensor(TensorJoinConfig::default()),
        _ => JoinStrategy::Index(IndexJoinConfig {
            params: HnswParams::tiny(),
            range_probe_k: 3,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing is pure observation: for every join strategy, executing the
    /// same prepared query with tracing disabled and under a forced trace
    /// produces bit-identical tables and identical operator actuals.
    #[test]
    fn traced_execution_is_byte_identical_to_untraced(
        outer_rows in 1usize..8,
        inner_rows in 1usize..24,
        strategy_idx in 0usize..4,
        use_topk in any::<bool>(),
        k in 1usize..3,
        threshold in -0.5f32..0.9,
    ) {
        let s = workload_session(outer_rows, inner_rows, strategy_for(strategy_idx));
        // the naive E-NLJ only supports threshold predicates
        let predicate = if use_topk && strategy_idx != 0 {
            SimilarityPredicate::TopK(k)
        } else {
            SimilarityPredicate::Threshold(threshold)
        };
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "word",
            "word",
            "ft",
            predicate,
        );
        let prepared = s.prepare(&plan).expect("prepare");
        let pool = cej_exec::ExecPool::new(2);
        let untraced = prepared
            .run_traced_with(&Trace::disabled(), pool)
            .expect("untraced run");
        let trace = Trace::forced("byte-identity probe");
        let traced = prepared
            .run_traced_with(&trace, pool)
            .expect("traced run");
        trace.finish();

        prop_assert!(untraced.trace_id.is_none());
        prop_assert!(traced.trace_id.is_some());
        prop_assert_eq!(&untraced.table, &traced.table);
        prop_assert_eq!(&untraced.operator_rows, &traced.operator_rows);
        prop_assert_eq!(untraced.matched_pairs, traced.matched_pairs);
    }
}
