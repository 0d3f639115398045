//! End-to-end integration: workload generation → model training → declarative
//! plan → optimised execution → joined table, spanning every crate.

use cej_core::{ContextJoinSession, JoinStrategy, NljConfig, TensorJoinConfig};
use cej_embedding::{train_on_corpus, FastTextConfig, FastTextModel, TrainingConfig};
use cej_exec::ExecPool;
use cej_relational::{col, lit_i64, LogicalPlan, SimilarityPredicate};
use cej_workload::{CorpusGenerator, JoinWorkload, RelationSpec, WordGenerator};

fn trained_model(seed: u64) -> FastTextModel {
    let mut words = WordGenerator::new(seed);
    let clusters = words.clusters(8, 5);
    let corpus = CorpusGenerator::new(seed)
        .with_noise(0.05)
        .generate(&clusters, 200);
    let mut model = FastTextModel::new(FastTextConfig {
        dim: 32,
        buckets: 20_000,
        ..FastTextConfig::default()
    })
    .unwrap();
    train_on_corpus(&mut model, &corpus, &TrainingConfig::default()).unwrap();
    model
}

fn workload() -> JoinWorkload {
    JoinWorkload::generate(
        RelationSpec {
            rows: 40,
            clusters: 8,
            variants_per_cluster: 5,
        },
        RelationSpec {
            rows: 80,
            clusters: 8,
            variants_per_cluster: 5,
        },
        42,
    )
}

fn session_with(workload: &JoinWorkload, model: FastTextModel) -> ContextJoinSession {
    let mut session = ContextJoinSession::new();
    session.register_table("outer_rel", workload.outer.clone());
    session.register_table("inner_rel", workload.inner.clone());
    session.register_model("fasttext", model);
    session
}

#[test]
fn semantic_join_recovers_ground_truth_clusters() {
    let w = workload();
    let mut session = session_with(&w, trained_model(42));
    session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));

    // top-1 semantic match for every outer row
    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel"),
        "word",
        "word",
        "fasttext",
        SimilarityPredicate::TopK(1),
    );
    let report = session.execute(&plan).unwrap();
    assert_eq!(report.table.num_rows(), w.outer.num_rows());

    // Check cluster agreement using the ground-truth labels: the matched
    // inner word should usually come from the same cluster as the outer word.
    let outer_ids = report
        .table
        .column_by_name("l_id")
        .unwrap()
        .as_int64()
        .unwrap();
    let inner_ids = report
        .table
        .column_by_name("r_id")
        .unwrap()
        .as_int64()
        .unwrap();
    let mut correct = 0;
    for (o, i) in outer_ids.iter().zip(inner_ids.iter()) {
        if w.outer_labels[*o as usize] == w.inner_labels[*i as usize] {
            correct += 1;
        }
    }
    let accuracy = correct as f64 / outer_ids.len() as f64;
    assert!(accuracy > 0.8, "semantic top-1 accuracy {accuracy} too low");
}

#[test]
fn relational_filter_restricts_join_and_model_work() {
    let w = workload();
    let session = session_with(&w, trained_model(7));
    let unfiltered_plan = LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel"),
        "word",
        "word",
        "fasttext",
        SimilarityPredicate::Threshold(0.8),
    );
    let filtered_plan = unfiltered_plan
        .clone()
        .select(col("filter").lt(lit_i64(30)));

    let unfiltered = session.execute(&unfiltered_plan).unwrap();
    let filtered = session.execute(&filtered_plan).unwrap();

    // Model calls shrink because the filter was pushed below the embedding.
    assert!(filtered.embedding_stats.model_calls < unfiltered.embedding_stats.model_calls);
    // Every surviving row satisfies the filter (it is a left-side column).
    let filter_vals = filtered
        .table
        .column_by_name("l_filter")
        .unwrap()
        .as_int64()
        .unwrap();
    assert!(filter_vals.iter().all(|&v| v < 30));
    // The filtered result is a subset of the unfiltered result.
    assert!(filtered.table.num_rows() <= unfiltered.table.num_rows());
}

#[test]
fn strategies_produce_identical_threshold_results_end_to_end() {
    let w = workload();
    let threshold = SimilarityPredicate::Threshold(0.85);
    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel"),
        "word",
        "word",
        "fasttext",
        threshold,
    );
    let mut results = Vec::new();
    let global = *ExecPool::global();
    for (strategy, pool) in [
        (JoinStrategy::PrefetchNlj(NljConfig::default()), global),
        (
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            ExecPool::new(3),
        ),
        (JoinStrategy::Tensor(TensorJoinConfig::default()), global),
        (
            JoinStrategy::Tensor(TensorJoinConfig::default()),
            ExecPool::new(2),
        ),
    ] {
        let mut session = session_with(&w, trained_model(42));
        session.with_strategy(strategy);
        let report = session.prepare(&plan).unwrap().run_with_pool(pool).unwrap();
        let mut rows: Vec<(i64, i64)> = report
            .table
            .column_by_name("l_id")
            .unwrap()
            .as_int64()
            .unwrap()
            .iter()
            .copied()
            .zip(
                report
                    .table
                    .column_by_name("r_id")
                    .unwrap()
                    .as_int64()
                    .unwrap()
                    .iter()
                    .copied(),
            )
            .collect();
        rows.sort();
        results.push(rows);
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn projection_over_join_output() {
    let w = workload();
    let session = session_with(&w, trained_model(42));
    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel"),
        "word",
        "word",
        "fasttext",
        SimilarityPredicate::TopK(2),
    )
    .project(&["l_word", "r_word", "similarity"]);
    let report = session.execute(&plan).unwrap();
    assert_eq!(report.table.num_columns(), 3);
    assert_eq!(report.table.num_rows(), w.outer.num_rows() * 2);
}

#[test]
fn auto_strategy_small_inputs_prefers_scan_and_completes() {
    let w = workload();
    let session = session_with(&w, trained_model(42));
    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel"),
        "word",
        "word",
        "fasttext",
        SimilarityPredicate::TopK(1),
    );
    let report = session.execute(&plan).unwrap();
    assert_eq!(report.access_path, Some(cej_core::AccessPath::TensorScan));
    assert_eq!(report.table.num_rows(), w.outer.num_rows());
}
