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
//! A deterministic tensor-join sweep adds the cardinalities the random cases
//! rarely hit together: outer sizes ≡ 1, 2, 3 (mod 4) and odd inner sizes, so
//! that the whole-table GEMM of the row executor and the 1/7/1024-row morsels
//! of the batch executor all put pairs on both sides of the AVX2 kernel's
//! 4 × 2 register-block edges — a score must not depend on which side.

use cej_core::{
    ContextJoinSession, ExecContext, ExecMode, IndexJoinConfig, JoinStrategy, NljConfig,
    TensorJoinConfig,
};
use cej_embedding::{FastTextConfig, FastTextModel};
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
