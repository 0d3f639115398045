//! Integration tests for the index-probe join against the exact scan-based
//! operators: recall, pre-filtering semantics, and the qualitative behaviours
//! behind Table I and Figures 15-17.

use cej_core::{IndexJoin, IndexJoinConfig, JoinResult, TensorJoin, TensorJoinConfig};
use cej_exec::ExecPool;
use cej_index::HnswParams;
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::{normalize_matrix_rows, Matrix};
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
