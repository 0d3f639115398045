//! Property-based tests (proptest) over the core join invariants.
//!
//! These exercise randomly shaped inputs rather than hand-picked cases:
//! operator equivalence, top-k cardinality bounds, threshold monotonicity,
//! batching invariance, and pre-filter containment.

use cej_core::{JoinResult, NljConfig, PrefetchNlJoin, TensorJoin, TensorJoinConfig};
use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::{normalize_matrix_rows, BufferBudget, Matrix, TopK};
use proptest::prelude::*;

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

/// Strategy: a row-major matrix with `rows` in [1, max_rows], values in
/// [-1, 1] before its rows are unit-normalised (the joins' input), fixed
/// dimensionality.
fn matrix_strategy(max_rows: usize, dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows).prop_flat_map(move |rows| {
        proptest::collection::vec(-1.0f32..1.0, rows * dim).prop_map(move |data| {
            let mut m = Matrix::from_flat(rows, dim, data).expect("shape consistent");
            normalize_matrix_rows(&mut m);
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tensor_join_equals_nlj_for_threshold(
        left in matrix_strategy(12, 8),
        right in matrix_strategy(12, 8),
        threshold in 0.0f32..0.9,
    ) {
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(threshold), ExecPool::global())
            .unwrap();
        let tensor = tensor_join(TensorJoin::default(), &left, &right, SimilarityPredicate::Threshold(threshold))
            .unwrap();
        prop_assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn topk_returns_at_most_k_per_left_row(
        left in matrix_strategy(8, 6),
        right in matrix_strategy(20, 6),
        k in 1usize..6,
    ) {
        let result = tensor_join(TensorJoin::default(), &left, &right, SimilarityPredicate::TopK(k))
            .unwrap();
        for l in 0..left.rows() {
            let count = result.pairs.iter().filter(|p| p.left == l).count();
            prop_assert_eq!(count, k.min(right.rows()));
        }
        // pair offsets are always in range
        prop_assert!(result.pairs.iter().all(|p| p.left < left.rows() && p.right < right.rows()));
    }

    #[test]
    fn stricter_thresholds_produce_subsets(
        left in matrix_strategy(10, 8),
        right in matrix_strategy(10, 8),
        t in 0.0f32..0.5,
        delta in 0.05f32..0.5,
    ) {
        let loose = tensor_join(TensorJoin::default(), &left, &right, SimilarityPredicate::Threshold(t))
            .unwrap()
            .pair_indices();
        let strict = tensor_join(TensorJoin::default(), &left, &right, SimilarityPredicate::Threshold(t + delta))
            .unwrap()
            .pair_indices();
        prop_assert!(strict.iter().all(|p| loose.contains(p)));
    }

    #[test]
    fn mini_batching_never_changes_results(
        left in matrix_strategy(15, 8),
        right in matrix_strategy(15, 8),
        budget_cells in 1usize..64,
        threshold in 0.0f32..0.8,
    ) {
        let unbatched = tensor_join(TensorJoin::new(
            TensorJoinConfig::default().with_budget(BufferBudget::unlimited()),
        ), &left, &right, SimilarityPredicate::Threshold(threshold))
        .unwrap();
        let batched = tensor_join(TensorJoin::new(
            TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(budget_cells * 4)),
        ), &left, &right, SimilarityPredicate::Threshold(threshold))
        .unwrap();
        prop_assert_eq!(unbatched.pair_indices(), batched.pair_indices());
    }

    #[test]
    fn prefiltered_results_are_contained_in_unfiltered_results(
        left in matrix_strategy(10, 6),
        right in matrix_strategy(10, 6),
        left_mask in proptest::collection::vec(any::<bool>(), 10),
        threshold in 0.0f32..0.6,
    ) {
        let filter = SelectionBitmap::from_bools(left_mask[..left.rows()].to_vec());
        let unfiltered = tensor_join(TensorJoin::default(), &left, &right, SimilarityPredicate::Threshold(threshold))
            .unwrap()
            .pair_indices();
        // the pre-filter reaches the join as the selected rows; offsets map
        // back through the selection
        let selected: Vec<u32> = filter.iter_selected().map(|i| i as u32).collect();
        let filtered: Vec<(usize, usize)> = tensor_join(TensorJoin::default(), &left.gather_rows(&selected).unwrap(),
                &right,
                SimilarityPredicate::Threshold(threshold))
            .unwrap()
            .pair_indices()
            .into_iter()
            .map(|(l, r)| (selected[l] as usize, r))
            .collect();
        // containment + filter respected
        prop_assert!(filtered.iter().all(|p| unfiltered.contains(p)));
        prop_assert!(filtered.iter().all(|&(l, _)| filter.is_selected(l)));
    }

    #[test]
    fn scores_are_valid_cosines(
        left in matrix_strategy(8, 8),
        right in matrix_strategy(8, 8),
    ) {
        let result = tensor_join(TensorJoin::default(), &left, &right, SimilarityPredicate::Threshold(-2.0))
            .unwrap();
        // every pair is reported exactly once and cosine scores stay in [-1, 1]
        prop_assert_eq!(result.len(), left.rows() * right.rows());
        prop_assert!(result.pairs.iter().all(|p| p.score >= -1.0 - 1e-4 && p.score <= 1.0 + 1e-4));
    }

    #[test]
    fn topk_collector_matches_full_sort(
        scores in proptest::collection::vec(-1.0f32..1.0, 1..200),
        k in 1usize..20,
    ) {
        let mut collector = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            collector.push(i, s);
        }
        let kept = collector.into_sorted();
        let mut expected: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        expected.truncate(k);
        prop_assert_eq!(kept.len(), expected.len());
        for (got, want) in kept.iter().zip(expected.iter()) {
            prop_assert_eq!(got.id, want.0);
        }
    }
}
