//! Cost-model validation: the operators' *measured* model-invocation counts
//! and work counters must match the closed-form formulas of Section IV, and
//! the access-path advisor's qualitative decisions must agree with measured
//! operator behaviour.

use cej_core::{
    AccessPathAdvisor, AccessPathQuery, ContextJoinSession, CostModel, JoinStrategy, NaiveNlJoin,
    NljConfig, TensorJoin, TensorJoinConfig,
};
use cej_embedding::{CachedEmbedder, Embedder, FastTextConfig, FastTextModel};
use cej_relational::{LogicalPlan, SimilarityPredicate};
use cej_storage::TableBuilder;
use cej_vector::{normalize_matrix_rows, BufferBudget};
use cej_workload::{uniform_matrix, JoinWorkload, RelationSpec};

fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 2_000,
        ..FastTextConfig::default()
    })
    .unwrap()
}

fn strings(n: usize, prefix: &str) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

#[test]
fn naive_join_model_calls_match_quadratic_formula() {
    for (r, s) in [(3usize, 4usize), (5, 5), (8, 2)] {
        let counted = CachedEmbedder::uncached(model());
        NaiveNlJoin::new()
            .join(
                &counted,
                &strings(r, "l"),
                &strings(s, "r"),
                SimilarityPredicate::Threshold(0.9),
            )
            .unwrap();
        // the operator embeds both tuples of every pair
        assert_eq!(
            counted.stats().model_calls,
            2 * CostModel::naive_model_calls(r, s)
        );
    }
}

#[test]
fn prefetch_join_model_calls_match_linear_formula() {
    // both prefetch formulations, run as a query: the session embeds each
    // distinct tuple once, whichever operator then joins the vectors
    let table = |words: Vec<String>| TableBuilder::new().utf8("word", words).build().unwrap();
    for (r, s) in [(3usize, 4usize), (10, 7), (1, 20)] {
        for strategy in [
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            JoinStrategy::Tensor(TensorJoinConfig::default()),
        ] {
            let mut session = ContextJoinSession::new();
            session.register_table("l", table(strings(r, "l")));
            session.register_table("r", table(strings(s, "r")));
            session.register_model("m", model());
            session.with_strategy(strategy);
            let report = session
                .execute(&LogicalPlan::e_join(
                    LogicalPlan::scan("l"),
                    LogicalPlan::scan("r"),
                    "word",
                    "word",
                    "m",
                    SimilarityPredicate::Threshold(0.9),
                ))
                .unwrap();
            assert_eq!(
                report.embedding_stats.model_calls,
                CostModel::prefetch_model_calls(r, s),
                "{strategy:?}"
            );
        }
    }
}

#[test]
fn naive_vs_prefetch_speedup_grows_with_input_like_the_cost_model_predicts() {
    // Wall-clock is noisy in CI, so the validation uses the deterministic
    // work counters: model calls (naive quadratic vs prefetch linear).
    let cost = CostModel::default();
    let small = (4usize, 4usize);
    let large = (12usize, 12usize);
    for (r, s) in [small, large] {
        let naive_calls = 2 * CostModel::naive_model_calls(r, s);
        let prefetch_calls = CostModel::prefetch_model_calls(r, s);
        let measured_ratio = naive_calls as f64 / prefetch_calls as f64;
        let predicted_ratio = cost.e_nlj_naive(r, s) / cost.e_nlj_prefetch(r, s);
        // the measured model-call ratio should grow at least as fast as the
        // predicted cost ratio's trend (both roughly min(r, s))
        assert!(measured_ratio >= predicted_ratio * 0.5);
    }
    let ratio_small = 2.0 * CostModel::naive_model_calls(small.0, small.1) as f64
        / CostModel::prefetch_model_calls(small.0, small.1) as f64;
    let ratio_large = 2.0 * CostModel::naive_model_calls(large.0, large.1) as f64
        / CostModel::prefetch_model_calls(large.0, large.1) as f64;
    assert!(ratio_large > ratio_small);
}

#[test]
fn tensor_join_work_counter_matches_cardinality_product() {
    let w = JoinWorkload::generate(
        RelationSpec {
            rows: 18,
            clusters: 6,
            variants_per_cluster: 3,
        },
        RelationSpec {
            rows: 27,
            clusters: 6,
            variants_per_cluster: 3,
        },
        3,
    );
    let left = w
        .outer
        .column_by_name("word")
        .unwrap()
        .as_utf8()
        .unwrap()
        .to_vec();
    let right = w
        .inner
        .column_by_name("word")
        .unwrap()
        .as_utf8()
        .unwrap()
        .to_vec();
    let m = model();
    let embed = |strings: &[String]| {
        let mut matrix = m.embed_batch(strings);
        normalize_matrix_rows(&mut matrix);
        matrix
    };
    let result = TensorJoin::new(TensorJoinConfig::default())
        .join(
            &embed(&left),
            &embed(&right),
            SimilarityPredicate::Threshold(0.9),
        )
        .unwrap();
    assert_eq!(result.stats.pairs_compared, 18 * 27);
}

#[test]
fn scan_work_scales_with_selectivity_probe_style_does_not() {
    // The core premise of the access-path decision, checked against the
    // tensor join's own counters.
    let left = uniform_matrix(20, 16, 1, true);
    let right = uniform_matrix(500, 16, 2, true);
    let full = TensorJoin::new(TensorJoinConfig::default())
        .join(&left, &right, SimilarityPredicate::TopK(1))
        .unwrap();
    // a pre-filter selecting a fifth of the inner rows hands the scan
    // only those
    let fifth = TensorJoin::new(TensorJoinConfig::default())
        .join(
            &left,
            &right.row_slice(0, 100).unwrap(),
            SimilarityPredicate::TopK(1),
        )
        .unwrap();
    assert_eq!(full.stats.pairs_compared, 20 * 500);
    assert_eq!(fifth.stats.pairs_compared, 20 * 100);
}

#[test]
fn advisor_decisions_match_measured_work_ordering() {
    // For a workload where the advisor predicts the scan wins, the scan must
    // indeed do less "work" (pair comparisons vs probe distance
    // computations × calibration) — a qualitative sanity check that the
    // advisor's constants are not absurd.
    let advisor = AccessPathAdvisor::default();
    let scan_query = AccessPathQuery {
        outer_rows: 50,
        inner_rows: 2_000,
        inner_selectivity: 0.1,
        predicate: SimilarityPredicate::TopK(1),
        index_available: true,
    };
    assert_eq!(
        advisor.choose(&scan_query),
        cej_core::AccessPath::TensorScan
    );
    assert!(advisor.scan_cost(&scan_query) < advisor.probe_cost(&scan_query));

    let probe_query = AccessPathQuery {
        outer_rows: 50,
        inner_rows: 5_000_000,
        inner_selectivity: 1.0,
        predicate: SimilarityPredicate::TopK(1),
        index_available: true,
    };
    assert_eq!(
        advisor.choose(&probe_query),
        cej_core::AccessPath::IndexProbe
    );
    assert!(advisor.probe_cost(&probe_query) < advisor.scan_cost(&probe_query));
}

#[test]
fn buffer_budget_bounds_measured_intermediate_state() {
    // Figure 13's memory accounting: the reported peak intermediate buffer
    // (the score block, not the inputs) must respect the configured budget.
    let left = uniform_matrix(200, 32, 5, true);
    let right = uniform_matrix(300, 32, 6, true);

    let unlimited =
        TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::unlimited()))
            .join(&left, &right, SimilarityPredicate::Threshold(0.5))
            .unwrap();
    let budget = BufferBudget::from_bytes(16 * 1024);
    let bounded = TensorJoin::new(TensorJoinConfig::default().with_budget(budget))
        .join(&left, &right, SimilarityPredicate::Threshold(0.5))
        .unwrap();

    assert_eq!(unlimited.stats.peak_buffer_bytes, 200 * 300 * 4);
    assert!(bounded.stats.peak_buffer_bytes <= budget.bytes);
    assert!(bounded.stats.blocks_computed > unlimited.stats.blocks_computed);
}
