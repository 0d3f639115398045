//! Property test: the vectorized batch executor is byte-identical to the
//! row-at-a-time reference executor — at every thread budget.
//!
//! For randomly sized workloads, random relational filter predicates, all
//! four join strategies, and batch sizes straddling the table sizes
//! (1, 7, 1024), executing the *same* physical plan under
//! [`ExecMode::Row`] and [`ExecMode::Batch`] must produce the same output
//! table (rows, order, and similarity scores bit-for-bit), the same
//! per-operator row actuals, and the same matched-pair count.
//!
//! The sweep runs every batch configuration under worker-pool budgets of
//! 1, 2, and 4 threads (explicit [`cej_exec::ExecPool`]s, so one process
//! covers all budgets regardless of `CEJ_THREADS`): morsel-driven parallel
//! execution must not change a single byte relative to the serial pull
//! loop, only timing.
//!
//! A second deterministic sweep pins the *embedding* side of the contract:
//! the batch executor embeds base-table columns by row id (slot maps) and
//! keeps a join's inner side a selection, the row executor embeds strings —
//! and both must report the same table **and** the same
//! `ExecutionReport::embedding_stats`, on the first (cold) and the second
//! (warm) run, whether the inner side is unfiltered, filtered, projected or
//! renamed.
//!
//! A deterministic tensor-join sweep adds the cardinalities the random cases
//! rarely hit together: outer sizes ≡ 1, 2, 3 (mod 4) and odd inner sizes, so
//! that the whole-table GEMM of the row executor and the 1/7/1024-row morsels
//! of the batch executor all put pairs on both sides of the AVX2 kernel's
//! 4 × 2 register-block edges — a score must not depend on which side.

use cej_core::{
    ContextJoinSession, ExecContext, ExecMode, IndexJoinConfig, InnerInput, JoinStrategy,
    NljConfig, PhysicalJoinOp, TensorJoinConfig,
};
use cej_embedding::{EmbeddingStats, FastTextConfig, FastTextModel};
use cej_index::HnswParams;
use cej_relational::{col, lit_i64, LogicalPlan, SimilarityPredicate};
use cej_storage::Table;
use cej_workload::{JoinWorkload, RelationSpec};
use proptest::prelude::*;

fn session(outer_rows: usize, inner_rows: usize, strategy: JoinStrategy) -> ContextJoinSession {
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

/// Executes the session's physical plan for `plan` under `mode` with an
/// explicit worker-pool budget, returning everything the equivalence
/// property compares.
fn run_mode(
    s: &ContextJoinSession,
    plan: &LogicalPlan,
    mode: ExecMode,
    threads: usize,
) -> (Table, Vec<u64>, usize) {
    let prepared = s.prepare(plan).expect("prepare");
    let registry = s.model_registry();
    let ctx = ExecContext {
        catalog: s.catalog(),
        registry: &registry,
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: cej_exec::ExecPool::new(threads),
    };
    let out = prepared
        .physical_plan()
        .execute_with(&ctx, mode)
        .expect("execute");
    (out.table, out.operator_rows, out.stats.matched_pairs)
}

/// Runs `plan` twice on a **fresh** session — so the first run is cold for
/// this executor, whatever ran before — returning table and embedding
/// counters of both runs, and the number of slot maps the session ended up
/// with next to the number of scanned join columns a batch run embeds by row
/// (the outer one, and the inner one unless a persistent index stands in for
/// it: index builds embed through strings).
fn cold_then_warm(
    strategy: JoinStrategy,
    plan: &LogicalPlan,
    mode: ExecMode,
    threads: usize,
) -> ([(Table, EmbeddingStats); 2], (usize, usize)) {
    let s = session(9, 33, strategy);
    let prepared = s.prepare(plan).expect("prepare");
    let join = prepared.physical_plan().join_nodes()[0];
    let by_row_columns = match (&join.op, &join.inner) {
        // the naive NLJ embeds inside its pair loop, by string
        (PhysicalJoinOp::NaiveNlj, _) => 0,
        (_, InnerInput::Indexed(_)) => 1,
        (_, InnerInput::Plan(_)) => 2,
    };
    let registry = s.model_registry();
    let ctx = ExecContext {
        catalog: s.catalog(),
        registry: &registry,
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: cej_exec::ExecPool::new(threads),
    };
    let run = || {
        let out = prepared
            .physical_plan()
            .execute_with(&ctx, mode)
            .expect("execute");
        (out.table, out.stats.embedding_stats)
    };
    let runs = [run(), run()];
    (runs, (s.embedding_caches().slot_maps(), by_row_columns))
}

#[test]
fn embedding_by_row_matches_embedding_by_string_cold_and_warm() {
    let filtered = || LogicalPlan::scan("s").select(col("filter").lt(lit_i64(40)));
    let inner_sides: [(&str, LogicalPlan, &str); 4] = [
        ("unfiltered", LogicalPlan::scan("s"), "word"),
        ("filtered", filtered(), "word"),
        ("projected", filtered().project(&["word", "id"]), "word"),
        (
            "renamed",
            filtered().rename(&[("id", "sid"), ("word", "text")]),
            "text",
        ),
    ];
    for (shape, inner, right_column) in inner_sides {
        for strategy_idx in 0..4 {
            let strategy = strategy_for(strategy_idx);
            // the naive NLJ only takes thresholds
            let predicate = if strategy_idx == 0 {
                SimilarityPredicate::Threshold(0.1)
            } else {
                SimilarityPredicate::TopK(2)
            };
            let plan = LogicalPlan::e_join(
                LogicalPlan::scan("r"),
                inner.clone(),
                "word",
                right_column,
                "ft",
                predicate,
            );
            // the optimizer must leave the shape for the executor to see
            // (a persistent-index inner carries its projection in the probe)
            let explain = session(9, 33, strategy).explain(&plan).expect("plan");
            match shape {
                "projected" => assert!(explain.to_lowercase().contains("project"), "{explain}"),
                "renamed" => assert!(explain.contains("Rename"), "{explain}"),
                _ => {}
            }
            let (by_string, (row_maps, _)) = cold_then_warm(strategy, &plan, ExecMode::Row, 1);
            assert_eq!(row_maps, 0, "the row executor embeds strings");
            let [(_, cold), (_, warm)] = &by_string;
            assert!(cold.model_calls > 0, "{shape}: the first run is cold");
            assert_eq!(warm.model_calls, 0, "{shape}: the second run is warm");
            assert!(warm.cache_hits > 0);
            for batch_rows in [1usize, 7, 1024] {
                for threads in [1usize, 2] {
                    let (by_row, (maps, expected_maps)) =
                        cold_then_warm(strategy, &plan, ExecMode::Batch { batch_rows }, threads);
                    let what =
                        format!("{shape} {strategy:?} batch_rows {batch_rows} threads {threads}");
                    assert_eq!(by_string, by_row, "{what}");
                    assert_eq!(maps, expected_maps, "{what}");
                }
            }
        }
    }
}

#[test]
fn tensor_join_scores_do_not_depend_on_register_block_edges() {
    // (outer, inner): outer covers 1, 2, 3 (mod 4), inner is odd; 13 outer
    // rows split into 7 + 6 under the 7-row morsel
    for (outer_rows, inner_rows) in [(5usize, 9usize), (6, 7), (7, 11), (13, 5), (9, 33)] {
        let s = session(
            outer_rows,
            inner_rows,
            JoinStrategy::Tensor(TensorJoinConfig::default()),
        );
        for predicate in [
            SimilarityPredicate::TopK(2),
            SimilarityPredicate::Threshold(0.1),
        ] {
            // unfiltered, so the GEMM sees exactly these cardinalities
            let plan = LogicalPlan::e_join(
                LogicalPlan::scan("r"),
                LogicalPlan::scan("s"),
                "word",
                "word",
                "ft",
                predicate,
            );
            let (row_table, row_actuals, row_pairs) = run_mode(&s, &plan, ExecMode::Row, 1);
            assert!(row_pairs > 0, "the sweep must compare actual scores");
            for batch_rows in [1usize, 7, 1024] {
                for threads in [1usize, 2] {
                    let (batch_table, batch_actuals, batch_pairs) =
                        run_mode(&s, &plan, ExecMode::Batch { batch_rows }, threads);
                    let what = format!(
                        "{outer_rows}x{inner_rows} {predicate:?} batch_rows {batch_rows} threads {threads}"
                    );
                    assert_eq!(row_table, batch_table, "{what}");
                    assert_eq!(row_actuals, batch_actuals, "{what}");
                    assert_eq!(row_pairs, batch_pairs, "{what}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batch_executor_matches_row_executor_at_every_thread_budget(
        outer_rows in 1usize..10,
        inner_rows in 1usize..40,
        strategy_idx in 0usize..4,
        cut in 0i64..101,
        use_topk in any::<bool>(),
        k in 1usize..4,
        threshold in -0.5f32..0.9,
        batch_idx in 0usize..3,
    ) {
        let s = session(outer_rows, inner_rows, strategy_for(strategy_idx));
        let predicate = if use_topk {
            SimilarityPredicate::TopK(k)
        } else {
            SimilarityPredicate::Threshold(threshold)
        };
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s").select(col("filter").lt(lit_i64(cut))),
            "word",
            "word",
            "ft",
            predicate,
        );
        let batch_rows = [1usize, 7, 1024][batch_idx];

        let (row_table, row_actuals, row_pairs) = run_mode(&s, &plan, ExecMode::Row, 1);

        // every (thread budget × morsel size) combination must reproduce the
        // row executor bit for bit — morsel parallelism is pure speed
        for threads in [1usize, 2, 4] {
            let (batch_table, batch_actuals, batch_pairs) =
                run_mode(&s, &plan, ExecMode::Batch { batch_rows }, threads);

            // Bitwise table equality: same rows in the same order, similarity
            // scores (Float64 column) identical to the last bit.
            prop_assert_eq!(&row_table, &batch_table);
            prop_assert_eq!(&row_actuals, &batch_actuals);
            prop_assert_eq!(row_pairs, batch_pairs);
        }
    }

    /// The relational hash join under the same contract: partitioned
    /// parallel builds and parallel probe morsels match the serial build at
    /// every thread budget and morsel size — including fully skewed keys
    /// (a single hot key puts the entire build side in one partition).
    #[test]
    fn parallel_hash_join_matches_serial_including_skew(
        rows in 1usize..30,
        skewed in any::<bool>(),
        batch_idx in 0usize..3,
    ) {
        let key = |i: usize| if skewed { 7 } else { (i % 5) as i64 };
        let outer = cej_storage::TableBuilder::new()
            .int64("filter", (0..rows).map(key).collect::<Vec<i64>>())
            .utf8("word", (0..rows).map(|i| format!("w{i}")).collect::<Vec<String>>())
            .build()
            .expect("outer table");
        let inner_rows = rows.max(2);
        let inner = cej_storage::TableBuilder::new()
            .int64("rfilter", (0..inner_rows).map(key).collect::<Vec<i64>>())
            .utf8(
                "rword",
                (0..inner_rows).map(|i| format!("v{i}")).collect::<Vec<String>>(),
            )
            .build()
            .expect("inner table");
        let mut s = ContextJoinSession::new();
        s.register_table("r", outer);
        s.register_table("s", inner);
        let plan = LogicalPlan::join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "filter",
            "rfilter",
        );
        let batch_rows = [1usize, 7, 1024][batch_idx];

        let (row_table, row_actuals, row_pairs) = run_mode(&s, &plan, ExecMode::Row, 1);
        for threads in [1usize, 2, 4] {
            let (batch_table, batch_actuals, batch_pairs) =
                run_mode(&s, &plan, ExecMode::Batch { batch_rows }, threads);
            prop_assert_eq!(&row_table, &batch_table);
            prop_assert_eq!(&row_actuals, &batch_actuals);
            prop_assert_eq!(row_pairs, batch_pairs);
        }
    }
}
