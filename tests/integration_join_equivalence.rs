//! Cross-operator equivalence: every physical formulation of the
//! context-enhanced join (naive NLJ, prefetch NLJ, tensor join, mini-batched,
//! single- / multi-threaded, scalar / SIMD kernels) must produce the same
//! logical result — the paper's optimisations are performance rewrites,
//! never semantic changes.

use cej_core::{JoinResult, NaiveNlJoin, NljConfig, PrefetchNlJoin, TensorJoin, TensorJoinConfig};
use cej_embedding::{Embedder, FastTextConfig, FastTextModel};
use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_vector::{normalize_matrix_rows, BufferBudget, Kernel, Matrix};
use cej_workload::{uniform_matrix, JoinWorkload, RelationSpec};

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

fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: 24,
        buckets: 5_000,
        ..FastTextConfig::default()
    })
    .unwrap()
}

/// The prefetch step: every string embedded once, rows unit-normalised.
fn embed_normalized(model: &FastTextModel, strings: &[String]) -> Matrix {
    let mut matrix = model.embed_batch(strings);
    normalize_matrix_rows(&mut matrix);
    matrix
}

fn workload_strings() -> (Vec<String>, Vec<String>) {
    let w = JoinWorkload::generate(
        RelationSpec {
            rows: 15,
            clusters: 6,
            variants_per_cluster: 4,
        },
        RelationSpec {
            rows: 25,
            clusters: 6,
            variants_per_cluster: 4,
        },
        11,
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
    (left, right)
}

#[test]
fn naive_prefetch_and_tensor_agree_on_strings() {
    let (left, right) = workload_strings();
    let m = model();
    let predicate = SimilarityPredicate::Threshold(0.75);

    let naive = NaiveNlJoin::new()
        .join(&m, &left, &right, predicate)
        .unwrap();
    let (left_norm, right_norm) = (embed_normalized(&m, &left), embed_normalized(&m, &right));
    let prefetch = PrefetchNlJoin::new(NljConfig::default())
        .join(&left_norm, &right_norm, predicate, ExecPool::global())
        .unwrap();
    let tensor = tensor_join(TensorJoin::default(), &left_norm, &right_norm, predicate).unwrap();

    assert_eq!(naive.pair_indices(), prefetch.pair_indices());
    assert_eq!(naive.pair_indices(), tensor.pair_indices());
    assert!(
        !naive.is_empty(),
        "workload should produce at least one semantic match"
    );
}

#[test]
fn scores_agree_across_operators_within_float_tolerance() {
    let (left, right) = workload_strings();
    let m = model();
    let predicate = SimilarityPredicate::Threshold(0.75);
    let (left_norm, right_norm) = (embed_normalized(&m, &left), embed_normalized(&m, &right));
    let prefetch = PrefetchNlJoin::new(NljConfig::default())
        .join(&left_norm, &right_norm, predicate, ExecPool::global())
        .unwrap();
    let tensor = tensor_join(TensorJoin::default(), &left_norm, &right_norm, predicate).unwrap();
    let ps = prefetch.sorted_pairs();
    let ts = tensor.sorted_pairs();
    assert_eq!(ps.len(), ts.len());
    for (a, b) in ps.iter().zip(ts.iter()) {
        assert!(
            (a.score - b.score).abs() < 1e-4,
            "score mismatch: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn kernel_thread_and_batching_variants_agree_on_matrices() {
    let left = uniform_matrix(50, 48, 21, true);
    let right = uniform_matrix(70, 48, 22, true);
    let predicate = SimilarityPredicate::Threshold(0.15);

    let reference = PrefetchNlJoin::new(NljConfig::default())
        .join(&left, &right, predicate, ExecPool::global())
        .unwrap()
        .pair_indices();

    let variants: Vec<Vec<(usize, usize)>> = vec![
        PrefetchNlJoin::new(NljConfig::default().with_kernel(Kernel::Scalar))
            .join(&left, &right, predicate, ExecPool::global())
            .unwrap()
            .pair_indices(),
        PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, predicate, &ExecPool::new(4))
            .unwrap()
            .pair_indices(),
        tensor_join(TensorJoin::default(), &left, &right, predicate)
            .unwrap()
            .pair_indices(),
        tensor_join(
            TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Scalar)),
            &left,
            &right,
            predicate,
        )
        .unwrap()
        .pair_indices(),
        {
            let join = TensorJoin::default();
            let inner = join.prepare(&right, left.rows(), predicate);
            join.join(&left, &inner, predicate, &ExecPool::new(3))
                .unwrap()
                .pair_indices()
        },
        tensor_join(
            TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(512))),
            &left,
            &right,
            predicate,
        )
        .unwrap()
        .pair_indices(),
    ];
    for (i, v) in variants.iter().enumerate() {
        assert_eq!(v, &reference, "variant {i} diverged from the reference NLJ");
    }
}

#[test]
fn topk_variants_agree_on_matrices() {
    let left = uniform_matrix(12, 32, 31, true);
    let right = uniform_matrix(90, 32, 32, true);
    let predicate = SimilarityPredicate::TopK(4);

    let reference = PrefetchNlJoin::new(NljConfig::default())
        .join(&left, &right, predicate, ExecPool::global())
        .unwrap()
        .pair_indices();
    let tensor_batched = tensor_join(TensorJoin::default(), &left, &right, predicate)
        .unwrap()
        .pair_indices();
    let tensor_mini = tensor_join(
        TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 200))),
        &left,
        &right,
        predicate,
    )
    .unwrap()
    .pair_indices();

    assert_eq!(reference, tensor_batched);
    assert_eq!(reference, tensor_mini);
    assert_eq!(reference.len(), 12 * 4);
}

#[test]
fn threshold_monotonicity_across_operators() {
    // A stricter threshold must produce a subset of a looser one, for every
    // operator.
    let left = uniform_matrix(30, 24, 41, true);
    let right = uniform_matrix(30, 24, 42, true);
    for loose_strict in [(0.0f32, 0.3f32), (0.2, 0.5)] {
        let (loose_t, strict_t) = loose_strict;
        let loose = tensor_join(
            TensorJoin::default(),
            &left,
            &right,
            SimilarityPredicate::Threshold(loose_t),
        )
        .unwrap()
        .pair_indices();
        let strict = tensor_join(
            TensorJoin::default(),
            &left,
            &right,
            SimilarityPredicate::Threshold(strict_t),
        )
        .unwrap()
        .pair_indices();
        assert!(strict.iter().all(|p| loose.contains(p)));
        assert!(strict.len() <= loose.len());
    }
}
