//! Integration tests for the statistics-driven planner: EXPLAIN ANALYZE
//! estimated-vs-actual reporting, threshold bind parameters, the index
//! memory budget, and plan-time schema/type errors — all through the public
//! session API.

use cej_core::{
    q_error, sim_gte, AccessPath, ContextJoinSession, CoreError, IndexJoin, IndexJoinConfig,
    IndexPath, JoinStrategy, NljConfig, TensorJoinConfig, TensorPath,
};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_index::HnswParams;
use cej_relational::{col, lit_i64, LogicalPlan, RelationalError, SimilarityPredicate};
use cej_storage::{Column, Table};
use cej_workload::{JoinWorkload, RelationSpec, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model(dim: usize) -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim,
        buckets: 5_000,
        ..FastTextConfig::default()
    })
    .expect("model construction")
}

fn session(outer_rows: usize, inner_rows: usize) -> ContextJoinSession {
    let workload = JoinWorkload::generate(
        RelationSpec::with_rows(outer_rows),
        RelationSpec::with_rows(inner_rows),
        7,
    );
    let mut s = ContextJoinSession::new();
    s.register_table("r", workload.outer.clone());
    s.register_table("s", workload.inner.clone());
    s.register_model("ft", model(16));
    s
}

fn filtered_join(cut: i64, predicate: SimilarityPredicate) -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::scan("r"),
        LogicalPlan::scan("s").select(col("filter").lt(lit_i64(cut))),
        "word",
        "word",
        "ft",
        predicate,
    )
}

#[test]
fn explain_analyze_reports_actuals_matching_the_execution_report() {
    let s = session(30, 300);
    let prepared = s
        .prepare(&filtered_join(40, SimilarityPredicate::TopK(1)))
        .expect("prepare");
    let analyzed = prepared.explain_analyze().expect("explain analyze");

    // every operator of the plan carries an actual-row annotation
    let operator_count = prepared.physical_plan().operator_count();
    assert_eq!(analyzed.report.operator_rows.len(), operator_count);
    assert_eq!(
        analyzed.text.matches("actual ").count(),
        operator_count,
        "every operator line must carry an actual count:\n{}",
        analyzed.text
    );
    assert!(analyzed.text.contains("q-err"), "{}", analyzed.text);

    // the root operator's actual equals the report's output table
    assert_eq!(
        analyzed.report.operator_rows[0],
        analyzed.report.table.num_rows() as u64
    );
    assert_eq!(
        analyzed.report.matched_pairs,
        analyzed.report.table.num_rows()
    );

    // top-1 join: one output row per outer row, estimated exactly
    let est = prepared.physical_plan().estimate().rows;
    assert_eq!(q_error(est, analyzed.report.operator_rows[0] as f64), 1.0);
}

/// `table` plus a Zipf-distributed `zipf` column (value ids 0..100, theta
/// 1.05 — one heavy hitter holding a double-digit share of the rows plus a
/// long tail).
fn with_zipf_column(table: &Table, seed: u64) -> Table {
    let zipf = Zipf::new(100, 1.05);
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<i64> = (0..table.num_rows())
        .map(|_| zipf.sample(&mut rng) as i64)
        .collect();
    table
        .with_column("zipf", Column::Int64(values))
        .expect("zipf column append")
}

#[test]
fn filtered_scan_estimates_meet_the_q_error_bar() {
    let mut s = session(20, 500);
    let skewed = with_zipf_column(&s.catalog().table("s").expect("inner table"), 99);
    s.register_table("z", skewed);

    // cuts across the uniform column, each held to the bar ...
    let uniform = [10, 30, 60, 90].map(|cut| (col("filter").lt(lit_i64(cut)), 2.0));
    // ... and the skew cases — head and tail equality, head and tail ranges,
    // a conjunction across both distributions — each to its own ceiling,
    // 0.08-0.15 above the q-error it measures on this seeded data (in
    // order: 1.050, 1.149, 1.014, 1.023, 1.120), so one skew estimate
    // going wrong fails the test on its own
    let skew = [
        (col("zipf").eq(lit_i64(0)), 1.15),
        (col("zipf").eq(lit_i64(40)), 1.3),
        (col("zipf").lt(lit_i64(5)), 1.1),
        (col("zipf").gt_eq(lit_i64(10)), 1.1),
        (
            col("filter")
                .lt(lit_i64(50))
                .and(col("zipf").lt(lit_i64(10))),
            1.25,
        ),
    ];
    for (predicate, ceiling) in uniform.iter().chain(&skew) {
        let plan = LogicalPlan::scan("z").select(predicate.clone());
        let prepared = s.prepare(&plan).expect("prepare");
        let est = prepared.physical_plan().estimate().rows;
        let actual = prepared.run().expect("run").table.num_rows() as f64;
        let q = q_error(est, actual);
        assert!(
            q <= *ceiling,
            "{predicate}: q-error {q:.3} (est {est:.1}, actual {actual}) exceeds {ceiling}"
        );
    }
}

#[test]
fn filter_actuals_count_selected_lanes_not_batches() {
    // 5 000 rows span five 1 024-row execution batches; a filter keeping a
    // single row must report `actual 1` — a batch-granular accounting bug
    // would report per-batch counts (multiples of the batch size or the
    // batch count) instead of selected lanes.
    let s = session(10, 5_000);
    let plan = LogicalPlan::scan("s").select(col("id").eq(lit_i64(4_321)));
    let prepared = s.prepare(&plan).expect("prepare");
    let analyzed = prepared.explain_analyze().expect("explain analyze");
    assert_eq!(analyzed.report.table.num_rows(), 1);
    assert_eq!(analyzed.report.operator_rows, vec![1, 5_000]);
    assert!(
        analyzed.text.contains("actual 1;"),
        "the filter line must carry the selected-lane actual:\n{}",
        analyzed.text
    );
    assert!(analyzed.text.contains("actual 5000;"), "{}", analyzed.text);
}

#[test]
fn session_explain_analyze_convenience_and_builder() {
    let s = session(10, 60);
    let via_session = s
        .explain_analyze(&filtered_join(50, SimilarityPredicate::TopK(1)))
        .expect("session explain_analyze");
    assert!(via_session.text.contains("actual "));
    assert!(format!("{via_session}").contains("TableScan"));
    let via_builder = s
        .query("r")
        .ejoin("s", ("word", "word"), "ft", cej_core::top_k(1))
        .explain_analyze()
        .expect("builder explain_analyze");
    assert!(via_builder.text.contains("actual "));
}

#[test]
fn bind_threshold_serves_a_family_without_replanning() {
    let s = session(25, 120);
    let prepared = s
        .prepare(&filtered_join(100, sim_gte(0.5)))
        .expect("prepare");

    let strict = prepared.bind_threshold(0.95).expect("bind strict");
    let loose = prepared.bind_threshold(-1.0).expect("bind loose");

    // no replanning: operator shape and access path are untouched
    assert_eq!(
        prepared.physical_plan().join_nodes()[0].op.access_path(),
        strict.physical_plan().join_nodes()[0].op.access_path()
    );
    assert_eq!(
        prepared.physical_plan().operator_count(),
        strict.physical_plan().operator_count()
    );

    // bind-time re-estimation: a looser threshold estimates more rows
    let est_strict = strict.physical_plan().join_nodes()[0].est.rows;
    let est_loose = loose.physical_plan().join_nodes()[0].est.rows;
    assert!(
        est_loose > est_strict,
        "loose {est_loose} must exceed strict {est_strict}"
    );

    // execution respects the bound threshold: results are nested subsets
    let rows_strict = strict.run().expect("strict run").table.num_rows();
    let rows_base = prepared.run().expect("base run").table.num_rows();
    let rows_loose = loose.run().expect("loose run").table.num_rows();
    assert!(rows_strict <= rows_base && rows_base <= rows_loose);
    // sim >= -1 keeps every pair of the filtered cross product
    assert_eq!(rows_loose, 25 * 120);

    // the reported optimized plan reflects the bound value
    let report = strict.run().expect("strict rerun");
    assert!(format!("{}", report.optimized_plan).contains("sim >= 0.95"));

    // a top-k plan has no threshold to bind
    let topk = s
        .prepare(&filtered_join(100, SimilarityPredicate::TopK(1)))
        .expect("prepare topk");
    assert!(matches!(
        topk.bind_threshold(0.5),
        Err(CoreError::InvalidInput(_))
    ));

    // operators *above* the join re-estimate at bind time too: the root
    // filter over `similarity` derives its cardinality from the join's
    let above = filtered_join(100, sim_gte(0.5))
        .select(col("similarity").gt_eq(cej_relational::lit_f64(0.0)));
    let prepared_above = s.prepare(&above).expect("prepare filter-above-join");
    let loose_above = prepared_above.bind_threshold(-1.0).expect("bind above");
    assert!(
        loose_above.physical_plan().estimate().rows
            > prepared_above.physical_plan().estimate().rows,
        "the root filter's estimate must track the re-bound join below it"
    );
}

#[test]
fn index_budget_evicts_lru_and_reports_in_execution_report() {
    let mut s = session(10, 80);
    s.with_strategy(JoinStrategy::Index(IndexJoinConfig {
        params: HnswParams::tiny(),
        range_probe_k: 3,
    }));
    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("r"),
        LogicalPlan::scan("s"),
        "word",
        "word",
        "ft",
        SimilarityPredicate::TopK(1),
    );
    // a budget below a single index: the index being built/used is
    // protected, so the cold run keeps it resident without evictions
    s.with_index_budget(1);
    let cold = s.execute(&plan).expect("cold run");
    assert_eq!(cold.index_builds, 1);
    assert_eq!(cold.index_evictions, 0);
    let resident_bytes = s.index_manager().stats().memory_bytes;
    assert!(resident_bytes > 0);

    // building under a different key must evict the now-unprotected LRU one
    s.with_strategy(JoinStrategy::Index(IndexJoinConfig {
        params: HnswParams::tiny().with_ef_search(99),
        range_probe_k: 3,
    }));
    let second = s.execute(&plan).expect("second run");
    assert_eq!(second.index_builds, 1, "different params → different key");
    assert!(
        second.index_evictions >= 1,
        "over-budget insert must evict the LRU index"
    );
    assert_eq!(s.index_manager().stats().resident, 1);
    assert!(s.index_manager().stats().evictions >= 1);
    assert_eq!(s.index_manager().budget(), Some(1));
}

#[test]
fn plan_time_type_errors_via_the_session() {
    let s = session(10, 20);
    // ejoin on a non-string column fails at prepare() with a typed error
    let non_string = LogicalPlan::e_join(
        LogicalPlan::scan("r"),
        LogicalPlan::scan("s"),
        "id",
        "word",
        "ft",
        SimilarityPredicate::TopK(1),
    );
    assert!(matches!(
        s.prepare(&non_string).map(|_| ()),
        Err(CoreError::Relational(RelationalError::TypeError(_)))
    ));
    // unknown filter column fails at prepare()
    let bad_filter = LogicalPlan::scan("s").select(col("ghost").gt(lit_i64(1)));
    assert!(matches!(
        s.prepare(&bad_filter).map(|_| ()),
        Err(CoreError::Relational(RelationalError::UnknownColumn(_)))
    ));
    // ill-typed predicate fails at prepare()
    let bad_type = LogicalPlan::scan("s").select(col("word").gt(lit_i64(1)));
    assert!(matches!(
        s.prepare(&bad_type).map(|_| ()),
        Err(CoreError::Relational(RelationalError::TypeError(_)))
    ));
}

#[test]
fn advisor_tracks_inner_selectivity_through_the_session() {
    // Figures 15-17's selectivity crossover, planned through the session at
    // 200,000 inner rows, where the default index's walk undercuts the scan
    // above a ≈ 66 % pass ratio; the only difference between the two
    // queries is the inner filter cutoff.  Plan level only: a run reports
    // the planned access path, and the forced-`Index` tests execute both of
    // the index join's routes.
    let s = session(50, 200_000);
    let low = s
        .prepare(&filtered_join(5, SimilarityPredicate::TopK(1)))
        .expect("low prepare");
    let high = s
        .prepare(&filtered_join(95, SimilarityPredicate::TopK(1)))
        .expect("high prepare");
    let low_node = low.physical_plan().join_nodes()[0];
    let high_node = high.physical_plan().join_nodes()[0];
    assert!(low_node.est_route.survivors < 200_000 * 12 / 100);
    assert!(high_node.est_route.survivors > 200_000 * 8 / 10);
    assert_eq!(low_node.op.access_path(), AccessPath::TensorScan);
    assert_eq!(high_node.op.access_path(), AccessPath::IndexProbe);
    // EXPLAIN prints the route it planned on, as a run prints its own
    for (prepared, node) in [(&low, low_node), (&high, high_node)] {
        let route = format!("est route: {}]", node.est_route);
        assert!(
            prepared.explain().contains(&route),
            "{}",
            prepared.explain()
        );
    }
}

#[test]
fn explain_analyze_shows_the_path_an_index_join_took() {
    // 3,000 inner rows against a narrow graph (efSearch 8, M0 8): a run
    // every row passes is priced cheaper to walk than to scan
    // (`IndexJoin::route`), one that 5 % pass cheaper to scan
    let config = IndexJoinConfig {
        params: HnswParams {
            m: 4,
            m0: 8,
            ef_construction: 32,
            ef_search: 8,
            ..HnswParams::tiny()
        },
        range_probe_k: 8,
    };
    let mut s = session(30, 3_000);
    s.with_strategy(JoinStrategy::Index(config));
    let filter = s.catalog().table("s").expect("s");
    let filter = filter.column_by_name("filter").and_then(|c| c.as_int64());
    let five_percent = filter.expect("filter").iter().filter(|&&f| f < 5).count();
    // a 5 % filter's survivors are scanned; one that passes every row is
    // no filter, and the graph is walked
    for (cut, path, survivors) in [
        (5, IndexPath::SurvivorScan, five_percent),
        (100, IndexPath::Walk, 3_000),
    ] {
        let prepared = s
            .prepare(&filtered_join(cut, SimilarityPredicate::TopK(2)))
            .expect("prepare");
        let analyzed = prepared.explain_analyze().expect("explain analyze");
        let route = IndexJoin::new(config).route(survivors, 3_000);
        assert_eq!(route.path, path);
        assert_eq!(analyzed.report.join_stats.index_route, Some(route));
        let line = format!("index join: {route}\n");
        assert!(analyzed.text.contains(&line), "{}", analyzed.text);
        // the walk is what probes the graph
        let probed = analyzed.report.join_stats.probe_stats.distance_computations > 0;
        assert_eq!(probed, path == IndexPath::Walk);
        // both are the planned index-probe access path
        assert_eq!(analyzed.report.access_path, Some(AccessPath::IndexProbe));
        // a survivor scan is a tensor join, and says how it scored
        let scanned = analyzed.text.contains("tensor join: ");
        assert_eq!(
            scanned,
            path == IndexPath::SurvivorScan,
            "{}",
            analyzed.text
        );
        if path == IndexPath::Walk {
            // the priced costs, pinned: 3,000 pairs at 4.2 ns against
            // 3 · √(8 · 8) · log2 3,000 distances at 35 ns
            let pinned = "index join: walk (probe filter passes 3000 of 3000 inner rows; \
                          scan ≈ 12.60 µs, walk ≈ 9.70 µs per probe)\n";
            assert!(analyzed.text.contains(pinned), "{}", analyzed.text);
        }
    }
    // no other join reports a route
    s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    let analyzed = s
        .prepare(&filtered_join(5, SimilarityPredicate::TopK(2)))
        .expect("prepare")
        .explain_analyze()
        .expect("explain analyze");
    assert_eq!(analyzed.report.join_stats.index_route, None);
    assert!(!analyzed.text.contains("index join:"), "{}", analyzed.text);
}

#[test]
fn explain_analyze_shows_how_a_tensor_join_scored_its_pairs() {
    let vnni = cej_vector::Screen::detect().is_some();
    let mut s = session(30, 300);
    let filter = s.catalog().table("s").expect("s");
    let filter = filter.column_by_name("filter").and_then(|c| c.as_int64());
    let survivors = filter.expect("filter").iter().filter(|&&f| f < 40).count();
    let compared = 30 * survivors as u64;
    let plan = filtered_join(40, SimilarityPredicate::TopK(2));
    s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    // the side windows a catalog table: it screens from the first run on a
    // CPU with AVX-512 VNNI, coding its slots then, and none on the next
    for run in ["first", "warm"] {
        let analyzed = s.prepare(&plan).expect("prepare").explain_analyze();
        let analyzed = analyzed.expect("explain analyze");
        let join = analyzed.report.join_stats;
        let path = if vnni {
            TensorPath::Int8Screen
        } else {
            TensorPath::Fp32Block
        };
        assert_eq!(join.tensor_path, Some(path), "{run}");
        assert_eq!(join.pairs_compared, compared, "{run}");
        assert_eq!(join.pairs_rescored < compared, vnni, "{run}");
        let coded = s.embedding_caches().coded_slots() as u64;
        let quantized = if run == "first" { coded } else { 0 };
        assert_eq!(join.inner_rows_quantized, quantized, "{run}");
        // the screen emits at least the pairs it rescores; the block path
        // emits none
        let candidates = join.screen_candidates;
        assert_eq!(
            candidates >= join.pairs_rescored && candidates > 0,
            vnni,
            "{run}"
        );
        let line = format!(
            "tensor join: {} ({} of {compared} pairs rescored; {candidates} screen candidates; \
             {quantized} inner rows quantised)\n",
            path.label(),
            join.pairs_rescored,
        );
        assert!(analyzed.text.contains(&line), "{run}: {}", analyzed.text);
    }
    // the NO-SIMD kernel scores every pair in fp32; the line, pinned
    let scalar = TensorJoinConfig::default().with_kernel(cej_vector::Kernel::Scalar);
    s.with_strategy(JoinStrategy::Tensor(scalar));
    let analyzed = s.prepare(&plan).expect("prepare").explain_analyze();
    let analyzed = analyzed.expect("explain analyze");
    assert_eq!(compared, 30 * 109, "the fixture's 40 % cut");
    let pinned = "tensor join: fp32 block (3270 of 3270 pairs rescored; 0 screen candidates; \
                  0 inner rows quantised)\n";
    assert!(analyzed.text.contains(pinned), "{}", analyzed.text);
    // no other join prints the line
    s.with_strategy(JoinStrategy::PrefetchNlj(NljConfig::default()));
    let analyzed = s.prepare(&plan).expect("prepare").explain_analyze();
    let analyzed = analyzed.expect("explain analyze");
    assert_eq!(analyzed.report.join_stats.tensor_path, None);
    assert!(!analyzed.text.contains("tensor join:"), "{}", analyzed.text);
}
