//! Integration tests of the physical-plan layer: prepared-query reuse
//! (plan once / execute many), persistent HNSW indexes, `explain()` fidelity,
//! and old-vs-new API equivalence across all four join strategies.

use cej_core::{
    sim_gte, top_k, ContextJoinSession, ExecutionReport, IndexJoin, IndexJoinConfig, JoinStrategy,
    NljConfig, TensorJoinConfig,
};
use cej_embedding::{train_on_corpus, FastTextConfig, FastTextModel, TrainingConfig};
use cej_index::HnswParams;
use cej_relational::{col, lit_i64, LogicalPlan, SimilarityPredicate};
use cej_workload::{CorpusGenerator, JoinWorkload, RelationSpec, WordGenerator};

fn trained_model(seed: u64) -> FastTextModel {
    let mut words = WordGenerator::new(seed);
    let clusters = words.clusters(6, 4);
    let corpus = CorpusGenerator::new(seed)
        .with_noise(0.05)
        .generate(&clusters, 150);
    let mut model = FastTextModel::new(FastTextConfig {
        dim: 24,
        buckets: 10_000,
        ..FastTextConfig::default()
    })
    .unwrap();
    train_on_corpus(&mut model, &corpus, &TrainingConfig::default()).unwrap();
    model
}

fn workload() -> JoinWorkload {
    JoinWorkload::generate(
        RelationSpec {
            rows: 30,
            clusters: 6,
            variants_per_cluster: 4,
        },
        RelationSpec {
            rows: 60,
            clusters: 6,
            variants_per_cluster: 4,
        },
        7,
    )
}

fn session_with(workload: &JoinWorkload) -> ContextJoinSession {
    let mut session = ContextJoinSession::new();
    session.register_table("outer_rel", workload.outer.clone());
    session.register_table("inner_rel", workload.inner.clone());
    session.register_model("fasttext", trained_model(7));
    session
}

fn index_strategy() -> JoinStrategy {
    JoinStrategy::Index(IndexJoinConfig {
        params: HnswParams::tiny(),
        range_probe_k: 8,
    })
}

fn join_plan(predicate: SimilarityPredicate) -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel"),
        "word",
        "word",
        "fasttext",
        predicate,
    )
}

fn result_pairs(report: &ExecutionReport) -> Vec<(i64, i64)> {
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
    rows
}

#[test]
fn warm_prepared_run_pays_zero_model_calls_and_zero_hnsw_builds() {
    let w = workload();
    let mut session = session_with(&w);
    session.with_strategy(index_strategy());
    let prepared = session
        .prepare(&join_plan(SimilarityPredicate::TopK(2)))
        .unwrap();

    let cold = prepared.run().unwrap();
    assert!(cold.embedding_stats.model_calls > 0, "cold run embeds");
    assert_eq!(cold.index_builds, 1, "cold run builds the index");
    assert_eq!(cold.index_reuses, 0);
    assert_eq!(session.index_manager().stats().builds, 1);

    let warm = prepared.run().unwrap();
    assert_eq!(
        warm.embedding_stats.model_calls, 0,
        "warm run must perform zero model calls for unchanged relations"
    );
    assert_eq!(warm.index_builds, 0, "warm run must not build HNSW");
    assert_eq!(warm.index_reuses, 1);
    // the session-level counters agree: still exactly one build ever
    let stats = session.index_manager().stats();
    assert_eq!(stats.builds, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.resident, 1);

    // identical results cold vs warm
    assert_eq!(result_pairs(&cold), result_pairs(&warm));
}

#[test]
fn reregistering_the_inner_table_invalidates_its_index() {
    let w = workload();
    let mut session = session_with(&w);
    session.with_strategy(index_strategy());
    let plan = join_plan(SimilarityPredicate::TopK(1));

    session.execute(&plan).unwrap();
    assert_eq!(session.index_manager().stats().resident, 1);

    // re-register the *outer* table: the inner index must survive
    session.register_table("outer_rel", w.outer.clone());
    assert_eq!(session.index_manager().stats().resident, 1);
    let warm = session.execute(&plan).unwrap();
    assert_eq!(warm.index_builds, 0);

    // re-register the *inner* table: its index is dropped and rebuilt
    session.register_table("inner_rel", w.inner.clone());
    assert_eq!(session.index_manager().stats().resident, 0);
    assert_eq!(session.index_manager().stats().invalidations, 1);
    let rebuilt = session.execute(&plan).unwrap();
    assert_eq!(rebuilt.index_builds, 1);
    assert_eq!(session.index_manager().stats().builds, 2);
}

#[test]
fn explain_names_the_access_path_and_costs_before_execution_and_matches_it() {
    let w = workload();
    let session = session_with(&w);
    // Auto strategy: the planner prices the index join's route at plan time.
    let prepared = session
        .prepare(&join_plan(SimilarityPredicate::TopK(1)))
        .unwrap();
    let text = prepared.explain();
    assert!(
        text.contains("est route: ") && text.contains("µs per probe"),
        "explain must show both per-path price estimates:\n{text}"
    );
    assert!(
        text.contains("access path: tensor-scan") || text.contains("access path: index-probe"),
        "explain must name the selected access path:\n{text}"
    );
    assert!(text.contains("TableScan: outer_rel"));
    let report = prepared.run().unwrap();
    let path = report.access_path.expect("join executed");
    assert!(
        text.contains(&format!("access path: {}", path.label())),
        "executed path {path:?} must match the explained plan:\n{text}"
    );
}

#[test]
fn explain_shows_persistent_index_and_probe_filters() {
    let w = workload();
    let mut session = session_with(&w);
    session.with_strategy(index_strategy());
    let text = session
        .query("outer_rel")
        .ejoin_with(
            LogicalPlan::scan("inner_rel").select(col("filter").lt(lit_i64(50))),
            ("word", "word"),
            "fasttext",
            top_k(1),
        )
        .explain()
        .unwrap();
    assert!(text.contains("IndexJoin"), "plan:\n{text}");
    assert!(
        text.contains("persistent index inner_rel.word/fasttext"),
        "plan:\n{text}"
    );
    assert!(text.contains("probe filters:"), "plan:\n{text}");
}

#[test]
fn all_four_strategies_agree_between_execute_and_prepared_path() {
    let w = workload();
    let predicate = SimilarityPredicate::Threshold(0.85);
    for strategy in [
        JoinStrategy::NaiveNlj,
        JoinStrategy::PrefetchNlj(NljConfig::default()),
        JoinStrategy::Tensor(TensorJoinConfig::default()),
        index_strategy(),
    ] {
        // fresh session for the one-shot API...
        let mut s1 = session_with(&w);
        s1.with_strategy(strategy);
        let via_execute = s1.execute(&join_plan(predicate)).unwrap();
        // ...and a fresh one for the prepared path, run twice (cold + warm)
        let mut s2 = session_with(&w);
        s2.with_strategy(strategy);
        let prepared = s2.prepare(&join_plan(predicate)).unwrap();
        let cold = prepared.run().unwrap();
        let warm = prepared.run().unwrap();
        assert_eq!(
            result_pairs(&via_execute),
            result_pairs(&cold),
            "strategy {strategy:?}: execute vs prepared diverged"
        );
        assert_eq!(
            result_pairs(&cold),
            result_pairs(&warm),
            "strategy {strategy:?}: cold vs warm prepared run diverged"
        );
    }
}

#[test]
fn index_join_respects_inner_filters_as_probe_bitmaps() {
    let w = workload();
    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("outer_rel"),
        LogicalPlan::scan("inner_rel").select(col("filter").lt(lit_i64(40))),
        "word",
        "word",
        "fasttext",
        SimilarityPredicate::Threshold(0.85),
    );
    let mut indexed = session_with(&w);
    indexed.with_strategy(index_strategy());
    let via_index = indexed.execute(&plan).unwrap();
    // every surviving inner row satisfies the filter
    let filters = via_index
        .table
        .column_by_name("r_filter")
        .unwrap()
        .as_int64()
        .unwrap();
    assert!(filters.iter().all(|&f| f < 40));
    // and the exact scan path agrees on the qualifying pair set: the index
    // path may miss pairs (approximate) but must not invent or misfilter any
    let mut exact = session_with(&w);
    exact.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    let via_scan = exact.execute(&plan).unwrap();
    let scan_pairs = result_pairs(&via_scan);
    for pair in result_pairs(&via_index) {
        assert!(
            scan_pairs.contains(&pair),
            "index path produced pair {pair:?} the exact scan did not"
        );
    }
}

#[test]
fn builder_and_handwritten_plans_produce_identical_reports() {
    let w = workload();
    let session = session_with(&w);
    let built = session
        .query("outer_rel")
        .ejoin("inner_rel", ("word", "word"), "fasttext", sim_gte(0.85))
        .run()
        .unwrap();
    let hand = session
        .execute(&join_plan(SimilarityPredicate::Threshold(0.85)))
        .unwrap();
    assert_eq!(result_pairs(&built), result_pairs(&hand));
    assert_eq!(built.access_path, hand.access_path);
}

#[test]
fn prepared_queries_with_different_params_keep_distinct_indexes() {
    let w = workload();
    let mut session = session_with(&w);
    session.with_strategy(index_strategy());
    session
        .execute(&join_plan(SimilarityPredicate::TopK(1)))
        .unwrap();
    session.with_strategy(JoinStrategy::Index(IndexJoinConfig {
        params: HnswParams::tiny().with_ef_search(64),
        range_probe_k: 8,
    }));
    session
        .execute(&join_plan(SimilarityPredicate::TopK(1)))
        .unwrap();
    let stats = session.index_manager().stats();
    assert_eq!(
        stats.builds, 2,
        "distinct params must build distinct indexes"
    );
    assert_eq!(stats.resident, 2);

    // the auto path plans beside the resident indexes and prices the
    // default index's route, which neither of them changes
    session.with_strategy(JoinStrategy::Auto);
    let prepared = session
        .prepare(&join_plan(SimilarityPredicate::TopK(1)))
        .unwrap();
    let route = prepared.physical_plan().join_nodes()[0].est_route;
    assert_eq!(
        route,
        IndexJoin::default().route(route.survivors, route.rows)
    );
}
