//! Integration tests for the index-probe join against the exact scan-based
//! operators: recall, pre-filtering semantics, and the qualitative behaviours
//! behind Table I and Figures 15-17 — the filtered walk on its own, and the
//! interpreter's exact scan of a selective probe filter's survivors.

use cej_core::{
    ContextJoinSession, ExecutionReport, IndexJoin, IndexJoinConfig, IndexKey, IndexPath,
    IvmPolicy, JoinResult, JoinStrategy, MaintainedResult, TensorJoin, TensorJoinConfig,
};
use cej_embedding::{Embedder, FastTextConfig, FastTextModel};
use cej_exec::ExecPool;
use cej_index::{BruteForce, HnswParams};
use cej_relational::{col, lit_i64, Expr, LogicalPlan, SimilarityPredicate};
use cej_storage::{Delta, ScalarValue, SelectionBitmap, Table, TableBuilder};
use cej_vector::{normalize_matrix_rows, Matrix, Metric};
use cej_workload::clustered_matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A whole-input tensor join: `right` prepared for `left`, on the
/// process-wide pool.
fn tensor_join(
    join: TensorJoin,
    left: &Matrix,
    right: &Matrix,
    predicate: SimilarityPredicate,
) -> cej_core::Result<JoinResult> {
    let inner = join.prepare(right, left.rows(), predicate);
    join.join(left, &inner, predicate, ExecPool::global())
}

fn test_params() -> HnswParams {
    HnswParams {
        m: 12,
        m0: 24,
        ef_construction: 64,
        ef_search: 48,
        ..HnswParams::tiny()
    }
}

#[test]
fn index_join_recall_against_exact_tensor_join() {
    // Probes are drawn from the indexed collection itself so every probe has
    // well-defined nearest neighbours (the usual ANN-benchmark protocol).
    let (inner, _) = clustered_matrix(2_000, 32, 20, 0.05, 1);
    let outer = inner.row_slice(0, 50).unwrap();
    let k = 5;

    let exact = tensor_join(
        TensorJoin::default(),
        &outer,
        &inner,
        SimilarityPredicate::TopK(k),
    )
    .unwrap();
    let index_join = IndexJoin::new(IndexJoinConfig {
        params: test_params(),
        range_probe_k: k,
    });
    let index = index_join.build_index(&inner).unwrap();
    let approx = index_join
        .probe(&outer, &index, SimilarityPredicate::TopK(k), None)
        .unwrap();

    let exact_set: std::collections::HashSet<(usize, usize)> =
        exact.pair_indices().into_iter().collect();
    let hits = approx
        .pair_indices()
        .iter()
        .filter(|p| exact_set.contains(p))
        .count();
    let recall = hits as f64 / exact.len() as f64;
    assert!(recall > 0.8, "index join recall {recall} below expectation");
    // Approximate: it is allowed to miss pairs, but it must never return more
    // than k per probe.
    for probe in 0..outer.rows() {
        assert!(approx.pairs.iter().filter(|p| p.left == probe).count() <= k);
    }
}

#[test]
fn index_join_scores_equal_the_tensor_joins_bit_for_bit() {
    // Both joins score a pair as the 8-lane dot product of the two rows
    // unit-normalised by the same kernel (`cos(a, b) = â · b̂`), so wherever
    // they agree on a pair they must agree on its score to the last bit.  The
    // index normalises what it is given; the tensor join is given the same
    // rows normalised by its caller, as the interpreter does.
    let (inner, _) = clustered_matrix(2_000, 64, 20, 0.05, 1);
    let outer = inner.row_slice(0, 64).unwrap();
    let index_join = IndexJoin::new(IndexJoinConfig::low_recall());
    let index = index_join.build_index(&inner).unwrap();
    let tensor = TensorJoin::new(TensorJoinConfig::default());
    let normalized = |m: &Matrix| {
        let mut m = m.clone();
        normalize_matrix_rows(&mut m);
        m
    };
    let (outer_norm, inner_norm) = (normalized(&outer), normalized(&inner));
    for predicate in [
        SimilarityPredicate::TopK(5),
        SimilarityPredicate::Threshold(0.9),
    ] {
        let exact: std::collections::HashMap<(usize, usize), f32> =
            tensor_join(tensor, &outer_norm, &inner_norm, predicate)
                .unwrap()
                .pairs
                .iter()
                .map(|p| ((p.left, p.right), p.score))
                .collect();
        let probed = index_join.probe(&outer, &index, predicate, None).unwrap();
        let mut shared = 0;
        for p in &probed.pairs {
            if let Some(score) = exact.get(&(p.left, p.right)) {
                shared += 1;
                assert_eq!(
                    p.score.to_bits(),
                    score.to_bits(),
                    "{predicate:?} pair ({}, {}): index {} vs tensor {score}",
                    p.left,
                    p.right,
                    p.score
                );
            }
        }
        assert!(
            shared >= probed.pairs.len() * 4 / 5,
            "{predicate:?}: only {shared} of {} probed pairs are exact matches",
            probed.pairs.len()
        );
    }
}

#[test]
fn higher_recall_parameters_do_not_hurt_recall() {
    let (inner, _) = clustered_matrix(1_500, 24, 15, 0.05, 3);
    let (outer, _) = clustered_matrix(40, 24, 15, 0.05, 4);
    let k = 3;
    let exact = tensor_join(
        TensorJoin::default(),
        &outer,
        &inner,
        SimilarityPredicate::TopK(k),
    )
    .unwrap();
    let exact_set: std::collections::HashSet<(usize, usize)> =
        exact.pair_indices().into_iter().collect();

    let recall_of = |params: HnswParams| {
        let join = IndexJoin::new(IndexJoinConfig {
            params,
            range_probe_k: k,
        });
        let index = join.build_index(&inner).unwrap();
        let approx = join
            .probe(&outer, &index, SimilarityPredicate::TopK(k), None)
            .unwrap();
        approx
            .pair_indices()
            .iter()
            .filter(|p| exact_set.contains(p))
            .count() as f64
            / exact.len() as f64
    };

    let lo = recall_of(HnswParams {
        m: 6,
        m0: 12,
        ef_construction: 24,
        ef_search: 12,
        ..HnswParams::tiny()
    });
    let hi = recall_of(HnswParams {
        m: 16,
        m0: 32,
        ef_construction: 128,
        ef_search: 96,
        ..HnswParams::tiny()
    });
    assert!(
        hi >= lo - 0.05,
        "high-recall config ({hi}) should not lose to low-recall ({lo})"
    );
    assert!(hi > 0.9);
}

#[test]
fn prefiltering_affects_results_not_probe_cost() {
    // The paper's observation (Table I / Section IV-B): relational
    // pre-filtering in a vector index drops result tuples "on the fly while
    // still incurring the traversal cost", whereas the scan-based join
    // excludes them from the computation entirely.
    let (inner, _) = clustered_matrix(3_000, 24, 25, 0.05, 5);
    let (outer, _) = clustered_matrix(30, 24, 25, 0.05, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let selectivity = 0.2;
    let bitmap = SelectionBitmap::from_bools(
        (0..inner.rows())
            .map(|_| rng.gen_bool(selectivity))
            .collect(),
    );

    let k = 3;
    let index_join = IndexJoin::new(IndexJoinConfig {
        params: test_params(),
        range_probe_k: k,
    });
    let index = index_join.build_index(&inner).unwrap();

    let unfiltered = index_join
        .probe(&outer, &index, SimilarityPredicate::TopK(k), None)
        .unwrap();
    let filtered = index_join
        .probe(&outer, &index, SimilarityPredicate::TopK(k), Some(&bitmap))
        .unwrap();

    // results respect the filter
    assert!(filtered.pairs.iter().all(|p| bitmap.is_selected(p.right)));
    // but the traversal cost stays in the same ballpark (>= 50% of unfiltered),
    // unlike the scan whose compared-pairs count shrinks with selectivity
    assert!(
        filtered.stats.probe_stats.distance_computations
            >= unfiltered.stats.probe_stats.distance_computations / 2
    );

    // the scan is handed the selected rows only
    let selected: Vec<u32> = bitmap.iter_selected().map(|i| i as u32).collect();
    let scan_filtered = tensor_join(
        TensorJoin::default(),
        &outer,
        &inner.gather_rows(&selected).unwrap(),
        SimilarityPredicate::TopK(k),
    )
    .unwrap();
    let scan_unfiltered = tensor_join(
        TensorJoin::default(),
        &outer,
        &inner,
        SimilarityPredicate::TopK(k),
    )
    .unwrap();
    let ratio =
        scan_filtered.stats.pairs_compared as f64 / scan_unfiltered.stats.pairs_compared as f64;
    assert!(
        (ratio - selectivity).abs() < 0.1,
        "scan work should scale with selectivity (got ratio {ratio})"
    );
}

#[test]
fn range_predicate_on_index_misses_matches_that_scan_finds() {
    // Figure 17's qualitative point: an index answers a range (threshold)
    // predicate by probing a fixed top-k and post-filtering, so when more
    // than k tuples qualify it silently truncates — the exact scan does not.
    let (inner, _) = clustered_matrix(500, 16, 2, 0.02, 9);
    let outer = inner.row_slice(0, 5).unwrap();
    let threshold = SimilarityPredicate::Threshold(0.8);

    let scan = tensor_join(TensorJoin::default(), &outer, &inner, threshold).unwrap();
    let index_join = IndexJoin::new(IndexJoinConfig {
        params: test_params(),
        range_probe_k: 8,
    });
    let index = index_join.build_index(&inner).unwrap();
    let probed = index_join.probe(&outer, &index, threshold, None).unwrap();

    // With only 2 clusters and 500 points, far more than 8 tuples exceed the
    // threshold for every probe: the index join is capped at 8 per probe.
    assert!(scan.len() > probed.len());
    for probe in 0..outer.rows() {
        assert!(probed.pairs.iter().filter(|p| p.left == probe).count() <= 8);
    }
    // every index-returned pair is a true match (post-filter is sound)
    assert!(probed.pairs.iter().all(|p| p.score >= 0.8));
}

#[test]
fn outer_prefilter_reduces_probe_count() {
    let (inner, _) = clustered_matrix(1_000, 16, 10, 0.05, 11);
    let (outer, _) = clustered_matrix(40, 16, 10, 0.05, 12);
    let index_join = IndexJoin::new(IndexJoinConfig {
        params: test_params(),
        range_probe_k: 2,
    });
    let index = index_join.build_index(&inner).unwrap();
    // an outer pre-filter is a selection: only its rows are probed
    let filtered = index_join
        .probe(
            &outer.row_slice(0, 10).unwrap(),
            &index,
            SimilarityPredicate::TopK(2),
            None,
        )
        .unwrap();
    let unfiltered = index_join
        .probe(&outer, &index, SimilarityPredicate::TopK(2), None)
        .unwrap();
    assert_eq!(filtered.len(), 10 * 2);
    assert!(filtered.stats.probe_stats.nodes_visited < unfiltered.stats.probe_stats.nodes_visited);
}

/// `n` random unit rows of dimension `dim`.
fn random_unit_rows(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(0, dim);
    for _ in 0..n {
        let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        m.push_row(&row).unwrap();
    }
    normalize_matrix_rows(&mut m);
    m
}

#[test]
fn a_filtered_walk_returns_k_allowed_rows_at_every_pass_ratio() {
    // `IndexJoin::probe` is the walk alone: the filter acts inside layer 0,
    // so every probe fills its list from the allowed rows, however few
    let (n, k) = (5_000, 5);
    let inner = random_unit_rows(n, 64, 21);
    let outer = random_unit_rows(40, 64, 22);
    let join = IndexJoin::new(IndexJoinConfig::low_recall());
    let index = join.build_index(&inner).unwrap();
    let exact = BruteForce::new(inner.clone(), Metric::InnerProduct);
    let mut rng = StdRng::seed_from_u64(23);
    let draws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    // measured recall: 1.0 at every pass ratio, builds at 1 and 2 threads
    // (filtering the unfiltered walk's candidates read 0.61 at 5 % and 0.13
    // at 1 % on such data); the floor leaves room for codegen
    let floor = 0.98;
    for pass in [1.0, 0.5, 0.2, 0.05, 0.01] {
        let bitmap = SelectionBitmap::from_bools(draws.iter().map(|&d| d < pass).collect());
        let allowed = bitmap.count_selected();
        let filter = (allowed < n).then_some(&bitmap);
        let probed = join
            .probe(&outer, &index, SimilarityPredicate::TopK(k), filter)
            .unwrap();
        assert!(probed.stats.probe_stats.distance_computations > 0);
        let mut hits = 0;
        for row in 0..outer.rows() {
            let got: Vec<usize> = probed
                .pairs
                .iter()
                .filter(|p| p.left == row)
                .map(|p| p.right)
                .collect();
            assert_eq!(got.len(), k.min(allowed), "pass {pass}, probe {row}");
            assert!(got.iter().all(|&id| bitmap.is_selected(id)));
            let want = exact.search(outer.row(row).unwrap(), k, filter).unwrap();
            hits += want.iter().filter(|e| got.contains(&e.id)).count();
        }
        let recall = hits as f64 / (outer.rows() * k.min(allowed)) as f64;
        assert!(recall >= floor, "pass {pass}: recall {recall} < {floor}");
    }
}

/// Phrases over a small vocabulary: `n` of them, every one after an even
/// position `i < n / 2` an exact duplicate of the one before it.
fn phrases(n: usize, seed: u64) -> Vec<String> {
    const WORDS: &[&str] = &[
        "barbecue", "grill", "database", "laptop", "garden", "tent", "book", "server", "iron",
        "systems", "coffee", "river", "piano", "engine", "window", "market",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<String> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 2 == 1 && i < n / 2 {
            let previous = out[i - 1].clone();
            out.push(previous);
            continue;
        }
        let words = rng.gen_range(1..=3);
        let phrase: Vec<&str> = (0..words)
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
            .collect();
        out.push(phrase.join(" "));
    }
    out
}

const MODEL_DIM: usize = 32;

fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: MODEL_DIM,
        buckets: 2_000,
        ..FastTextConfig::default()
    })
    .unwrap()
}

/// `outer` (`oid`, `otext`: 30 rows) and `inner` (`iid`, `tag`, `itext`:
/// 400 rows; a duplicate pair shares its tag, `tag` = `(iid / 2) % 100`).
fn tables() -> (Table, Table) {
    let outer = TableBuilder::new()
        .int64("oid", (0..30).collect())
        .utf8("otext", phrases(30, 31))
        .build()
        .unwrap();
    let inner = TableBuilder::new()
        .int64("iid", (0..400).collect())
        .int64("tag", (0..400).map(|i| (i / 2) % 100).collect())
        .utf8("itext", phrases(400, 32))
        .build()
        .unwrap();
    (outer, inner)
}

fn tagged_session(strategy: JoinStrategy) -> ContextJoinSession {
    let (outer, inner) = tables();
    let mut s = ContextJoinSession::new();
    s.register_table("outer", outer);
    s.register_table("inner", inner);
    s.register_model("ft", model());
    s.with_strategy(strategy);
    s
}

fn index_strategy(range_probe_k: usize) -> JoinStrategy {
    JoinStrategy::Index(IndexJoinConfig {
        params: HnswParams::tiny(),
        range_probe_k,
    })
}

/// `outer` joined with `inner` under `filter` (`None`: every inner row).
fn filtered_plan(filter: Option<Expr>, predicate: SimilarityPredicate) -> LogicalPlan {
    let inner = LogicalPlan::scan("inner");
    LogicalPlan::e_join(
        LogicalPlan::scan("outer"),
        match filter {
            Some(filter) => inner.select(filter),
            None => inner,
        },
        "otext",
        "itext",
        "ft",
        predicate,
    )
}

/// `(oid, iid, score bits)` of every output row, in output order.
fn scored_pairs(report: &ExecutionReport) -> Vec<(i64, i64, u32)> {
    let column = |name: &str| report.table.column_by_name(name).unwrap();
    let (oid, iid) = (
        column("l_oid").as_int64().unwrap(),
        column("r_iid").as_int64().unwrap(),
    );
    let similarity = column("similarity").as_float64().unwrap();
    (0..report.table.num_rows())
        .map(|r| (oid[r], iid[r], (similarity[r] as f32).to_bits()))
        .collect()
}

/// The statement's answer from first principles: per outer row, the exact
/// top `k` of the rows `filter_of(tag, iid)` admits, as `BruteForce` ranks
/// unit rows (ties to the smaller id), then `keep`'s cut on the score.
fn brute_force_pairs(
    k: usize,
    admitted: impl Fn(i64, i64) -> bool,
    keep: impl Fn(f32) -> bool,
) -> Vec<(i64, i64, u32)> {
    let (outer, inner) = tables();
    let model = model();
    let embed = |table: &Table, column: &str| {
        let strings = table.column_by_name(column).unwrap().as_utf8().unwrap();
        let mut m = Matrix::zeros(0, MODEL_DIM);
        for text in strings {
            m.push_row(model.embed(text).as_slice()).unwrap();
        }
        normalize_matrix_rows(&mut m);
        m
    };
    let tags = inner.column_by_name("tag").unwrap().as_int64().unwrap();
    let bitmap = SelectionBitmap::from_bools(
        (0..inner.num_rows())
            .map(|r| admitted(tags[r], r as i64))
            .collect(),
    );
    let exact = BruteForce::new(embed(&inner, "itext"), Metric::InnerProduct);
    let queries = embed(&outer, "otext");
    let mut out = Vec::new();
    for row in 0..queries.rows() {
        let mut found = exact
            .search(queries.row(row).unwrap(), k, Some(&bitmap))
            .unwrap();
        found.retain(|e| keep(e.score));
        found.sort_by_key(|e| e.id);
        out.extend(
            found
                .iter()
                .map(|e| (row as i64, e.id as i64, e.score.to_bits())),
        );
    }
    out
}

#[test]
fn a_selective_filter_scans_its_survivors_like_the_tensor_join() {
    let tensor = tagged_session(JoinStrategy::Tensor(TensorJoinConfig::default()));
    // a threshold probes for the top `range_probe_k`: 400 covers every row
    let (index, wide) = (
        tagged_session(index_strategy(3)),
        tagged_session(index_strategy(400)),
    );
    let tag_below = |cut: i64| Some(col("tag").lt(lit_i64(cut)));
    // (filter, survivors, predicate, the brute-force rows it admits)
    type Admit = fn(i64, i64) -> bool;
    let cases: [(Option<Expr>, usize, SimilarityPredicate, Admit); 8] = [
        (tag_below(5), 20, SimilarityPredicate::TopK(3), |t, _| t < 5),
        // every row passes, or there is no filter: scanning all 400 is
        // still priced below a walk
        (tag_below(100), 400, SimilarityPredicate::TopK(3), |_, _| {
            true
        }),
        (None, 400, SimilarityPredicate::TopK(3), |_, _| true),
        // k beyond the survivors: each outer row gets every survivor
        (tag_below(5), 20, SimilarityPredicate::TopK(50), |t, _| {
            t < 5
        }),
        // duplicate pairs tie: a k of 3 cuts through one, smaller id first
        (tag_below(2), 8, SimilarityPredicate::TopK(3), |t, _| t < 2),
        (
            tag_below(10),
            40,
            SimilarityPredicate::Threshold(0.4),
            |t, _| t < 10,
        ),
        // one survivor
        (
            Some(col("iid").eq(lit_i64(17))),
            1,
            SimilarityPredicate::TopK(3),
            |_, i| i == 17,
        ),
        // none
        (tag_below(0), 0, SimilarityPredicate::TopK(3), |_, _| false),
    ];
    for (filter, survivors, predicate, admitted) in cases {
        let plan = filtered_plan(filter, predicate);
        let what = format!("{plan:?}");
        let session = if matches!(predicate, SimilarityPredicate::Threshold(_)) {
            &wide
        } else {
            &index
        };
        let probed = session.prepare(&plan).unwrap().run().unwrap();
        let route = probed.join_stats.index_route.expect("an index join");
        assert_eq!((route.survivors, route.rows), (survivors, 400), "{what}");
        assert_eq!(route.path, IndexPath::SurvivorScan, "{what}");
        assert_eq!(probed.join_stats.probe_stats.distance_computations, 0);
        let scanned = tensor.prepare(&plan).unwrap().run().unwrap();
        assert_eq!(probed.table, scanned.table, "{what}");
        assert_eq!(scored_pairs(&probed), scored_pairs(&scanned), "{what}");
        let (k, t) = match predicate {
            SimilarityPredicate::TopK(k) => (k, f32::NEG_INFINITY),
            SimilarityPredicate::Threshold(t) => (400, t),
        };
        let expected = brute_force_pairs(k, admitted, |score| score >= t);
        assert_eq!(scored_pairs(&probed), expected, "{what}");
        assert_eq!(probed.matched_pairs, expected.len(), "{what}");
        if let SimilarityPredicate::TopK(k) = predicate {
            // min(k, survivors) rows for each of the 30 outer rows
            assert_eq!(expected.len(), 30 * k.min(survivors), "{what}");
        }
        if survivors == 0 {
            // nothing is prepared, embedded or compared
            assert_eq!(probed.join_stats.pairs_compared, 0);
            assert_eq!(probed.table.num_rows(), 0);
        }
    }
    // a threshold keeps, of its top `range_probe_k`, the pairs reaching it
    let plan = filtered_plan(tag_below(10), SimilarityPredicate::Threshold(0.4));
    let capped = index.prepare(&plan).unwrap().run().unwrap();
    let expected = brute_force_pairs(3, |t, _| t < 10, |score| score >= 0.4);
    assert!(!expected.is_empty());
    assert_eq!(scored_pairs(&capped), expected);
}

/// Rows of [`walking_session`]'s inner table: so many against
/// [`walking_params`]' narrow graph that a run whose filter passes (nearly)
/// every row is priced cheaper to walk than to scan (`IndexJoin::route`).
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

/// [`tables`]' outer table against a [`WALKING_ROWS`]-row inner table
/// (`tag` = `iid % 100`).
fn walking_session(strategy: JoinStrategy) -> ContextJoinSession {
    let (outer, _) = tables();
    let inner = TableBuilder::new()
        .int64("iid", (0..WALKING_ROWS as i64).collect())
        .int64("tag", (0..WALKING_ROWS as i64).map(|i| i % 100).collect())
        .utf8("itext", phrases(WALKING_ROWS, 34))
        .build()
        .unwrap();
    let mut s = ContextJoinSession::new();
    s.register_table("outer", outer);
    s.register_table("inner", inner);
    s.register_model("ft", model());
    s.with_strategy(strategy);
    s
}

#[test]
fn one_session_routes_a_statement_family_both_ways() {
    let config = IndexJoinConfig {
        params: walking_params(),
        range_probe_k: 4,
    };
    let index = walking_session(JoinStrategy::Index(config));
    let tensor = walking_session(JoinStrategy::Tensor(TensorJoinConfig::default()));
    let join = IndexJoin::new(config);
    let (outer, _) = tables();
    let model = model();
    let mut probes = Matrix::zeros(0, MODEL_DIM);
    for text in outer.column_by_name("otext").unwrap().as_utf8().unwrap() {
        probes.push_row(model.embed(text).as_slice()).unwrap();
    }
    let predicate = SimilarityPredicate::TopK(3);
    // 100 and 95 % walk, 20 and 5 % scan: the route is priced, not assumed
    for (cut, path) in [
        (100, IndexPath::Walk),
        (95, IndexPath::Walk),
        (20, IndexPath::SurvivorScan),
        (5, IndexPath::SurvivorScan),
    ] {
        let plan = filtered_plan(Some(col("tag").lt(lit_i64(cut))), predicate);
        let report = index.prepare(&plan).unwrap().run().unwrap();
        let survivors = WALKING_ROWS * cut as usize / 100;
        let route = join.route(survivors, WALKING_ROWS);
        assert_eq!(route.path, path, "{route:?}");
        assert_eq!(report.join_stats.index_route, Some(route));
        match path {
            // the scan: the tensor join's pairs and score bits
            IndexPath::SurvivorScan => {
                assert_eq!(report.join_stats.probe_stats.distance_computations, 0);
                let scanned = tensor.prepare(&plan).unwrap().run().unwrap();
                assert_eq!(report.table, scanned.table, "{cut} %");
                assert_eq!(scored_pairs(&report), scored_pairs(&scanned), "{cut} %");
            }
            // the walk: the session's own graph probed by `IndexJoin::probe`
            // with the filter's bitmap (none when every row passes)
            IndexPath::Walk => {
                let key = IndexKey::new("inner", "itext", "ft", walking_params());
                let graph = index.index_manager().get(&key).expect("resident");
                let bitmap = SelectionBitmap::from_bools(
                    (0..WALKING_ROWS)
                        .map(|i| (i % 100) < cut as usize)
                        .collect(),
                );
                let filter = (survivors < WALKING_ROWS).then_some(&bitmap);
                let walked = join.probe(&probes, &graph, predicate, filter).unwrap();
                let expected: Vec<(i64, i64, u32)> = walked
                    .pairs
                    .iter()
                    .map(|p| (p.left as i64, p.right as i64, p.score.to_bits()))
                    .collect();
                assert_eq!(expected.len(), 30 * 3);
                assert_eq!(scored_pairs(&report), expected, "{cut} %");
                let stats = &report.join_stats.probe_stats;
                assert!(stats.distance_computations > 0);
                assert_eq!(*stats, walked.stats.probe_stats, "{cut} %");
            }
        }
    }
}

#[test]
fn a_filtered_index_view_is_maintained_like_a_fresh_run() {
    let s = tagged_session(index_strategy(3));
    let plan = filtered_plan(
        Some(col("tag").lt(lit_i64(5))),
        SimilarityPredicate::TopK(2),
    );
    let fresh = || s.prepare(&plan).unwrap().run().unwrap();
    assert_eq!(
        fresh().join_stats.index_route.map(|r| r.path),
        Some(IndexPath::SurvivorScan)
    );
    let q = s
        .prepare(&plan)
        .unwrap()
        .subscribe_with(IvmPolicy {
            refresh_fraction: f64::INFINITY,
            ..IvmPolicy::default()
        })
        .unwrap();
    let appended = TableBuilder::new()
        .int64("oid", (100..104).collect())
        .utf8("otext", phrases(4, 33))
        .build()
        .unwrap();
    let upserted = TableBuilder::new()
        .int64("oid", vec![3, 101])
        .utf8("otext", vec!["garden tent".into(), "coffee".into()])
        .build()
        .unwrap();
    let deltas = [
        Delta::Append(appended),
        Delta::DeleteByKey {
            key_column: "oid".into(),
            keys: [0, 7, 102].map(ScalarValue::Int64).to_vec(),
        },
        Delta::Upsert {
            key_column: "oid".into(),
            rows: upserted,
        },
    ];
    for delta in &deltas {
        s.apply_delta("outer", delta).unwrap();
        let full = MaintainedResult::new(fresh().table);
        assert_eq!(q.checksum(), full.checksum(), "after {delta:?}");
    }
}
