//! The scan joins run on the pool the interpreter hands them, and nowhere
//! else: a run on a budget of one thread schedules no task.
//!
//! One test in its own binary, because the scheduler's counters are
//! process-wide: another test running beside it would move them.

use cej_core::{ContextJoinSession, JoinStrategy, NljConfig, TensorJoinConfig};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_exec::ExecPool;
use cej_relational::{LogicalPlan, SimilarityPredicate};
use cej_storage::TableBuilder;
use cej_vector::Screen;

fn words(prefix: &str, rows: usize) -> Vec<String> {
    (0..rows)
        .map(|i| format!("{prefix}{} item{}", i % 17, i % 5))
        .collect()
}

#[test]
fn a_budget_of_one_runs_every_scan_join_inline() {
    let mut session = ContextJoinSession::new();
    for (name, prefix, rows) in [("r", "query", 40), ("s", "doc", 300)] {
        let table = TableBuilder::new()
            .utf8("word", words(prefix, rows))
            .build()
            .unwrap();
        session.register_table(name, table);
    }
    let model = FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 2_000,
        ..FastTextConfig::default()
    })
    .unwrap();
    session.register_model("ft", model);
    let join = |predicate| {
        let (outer, inner) = (LogicalPlan::scan("r"), LogicalPlan::scan("s"));
        LogicalPlan::e_join(outer, inner, "word", "word", "ft", predicate)
    };
    let tensor = JoinStrategy::Tensor(TensorJoinConfig::default());
    let cases = [
        // 40 outer rows and k below the inner rows: the int8 screen runs
        // where the CPU has it
        ("screened tensor join", tensor, SimilarityPredicate::TopK(3)),
        // k admits every inner row: the fp32 block path
        (
            "unscreened tensor join",
            tensor,
            SimilarityPredicate::TopK(300),
        ),
        (
            "prefetch NLJ",
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            SimilarityPredicate::TopK(3),
        ),
    ];
    for (what, strategy, predicate) in cases {
        session.with_strategy(strategy);
        let prepared = session.prepare(&join(predicate)).unwrap();
        // the first run embeds the strings (on the model's own pool)
        let warm = prepared.run().unwrap();
        let report = prepared.run_with_pool(ExecPool::new(1)).unwrap();
        assert_eq!(report.embedding_stats.model_calls, 0, "{what}");
        assert_eq!(report.table, warm.table, "{what}");
        let stats = report.join_stats;
        if what == "screened tensor join" && Screen::detect().is_some() {
            assert!(stats.pairs_rescored < stats.pairs_compared, "{what}");
        } else if what == "unscreened tensor join" {
            assert_eq!(stats.pairs_rescored, stats.pairs_compared, "{what}");
        }
        let scheduled = report.scheduler;
        assert_eq!(scheduled.tasks_executed, 0, "{what}: {scheduled:?}");
        assert_eq!(scheduled.injected, 0, "{what}: {scheduled:?}");
    }
}
