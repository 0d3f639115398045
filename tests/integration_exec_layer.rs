//! Workspace-level tests of the shared execution layer: the operators that
//! route through `cej_exec::ExecPool` must produce thread-count-invariant
//! results, and the batched parallel HNSW construction must be search-
//! equivalent (within tolerance) to the classic sequential build.

use cej_core::{NljConfig, PrefetchNlJoin, TensorJoin, TensorJoinConfig};
use cej_exec::ExecPool;
use cej_index::{self_probe_recall, HnswIndex, HnswParams};
use cej_relational::SimilarityPredicate;
use cej_workload::clustered_matrix;

#[test]
fn joins_are_invariant_across_pool_sizes() {
    let (left, _) = clustered_matrix(90, 24, 6, 0.1, 41);
    let (right, _) = clustered_matrix(130, 24, 6, 0.1, 42);
    for predicate in [
        SimilarityPredicate::Threshold(0.9),
        SimilarityPredicate::TopK(4),
    ] {
        let nlj_serial = PrefetchNlJoin::new(NljConfig::default().with_threads(1))
            .join(&left, &right, predicate)
            .unwrap();
        let tensor_serial = TensorJoin::new(TensorJoinConfig::default().with_threads(1))
            .join(&left, &right, predicate)
            .unwrap();
        for threads in [2, 5, 8] {
            let nlj = PrefetchNlJoin::new(NljConfig::default().with_threads(threads))
                .join(&left, &right, predicate)
                .unwrap();
            assert_eq!(
                nlj_serial.pair_indices(),
                nlj.pair_indices(),
                "NLJ drifted at {threads} threads"
            );
            let tensor = TensorJoin::new(TensorJoinConfig::default().with_threads(threads))
                .join(&left, &right, predicate)
                .unwrap();
            assert_eq!(
                tensor_serial.pair_indices(),
                tensor.pair_indices(),
                "tensor join drifted at {threads} threads"
            );
        }
        // The two operators agree with each other, as always.
        assert_eq!(nlj_serial.pair_indices(), tensor_serial.pair_indices());
    }
}

#[test]
fn parallel_hnsw_build_matches_sequential_recall() {
    // The near_duplicate_detection workload in miniature: clustered
    // reference vectors, probes answered by both construction modes.
    let (vectors, _) = clustered_matrix(1200, 32, 20, 0.05, 7);
    let params = HnswParams::tiny().with_ef_search(96);
    let sequential =
        HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(1)).unwrap();
    let batched = HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(4)).unwrap();
    let seq = self_probe_recall(&sequential, &vectors, 10, 29).unwrap();
    let par = self_probe_recall(&batched, &vectors, 10, 29).unwrap();
    assert!(
        (seq - par).abs() <= 0.01,
        "sequential recall {seq} vs batched recall {par} drifted beyond tolerance"
    );
    assert!(seq > 0.9, "sequential recall {seq} unexpectedly low");
}

#[test]
fn embed_batch_is_invariant_across_pool_sizes() {
    use cej_embedding::{CachedEmbedder, Embedder, FastTextConfig, FastTextModel};
    let model = FastTextModel::new(FastTextConfig {
        dim: 24,
        buckets: 2_000,
        ..FastTextConfig::default()
    })
    .unwrap();
    let inputs: Vec<String> = (0..60)
        .map(|i| format!("word{} token{}", i % 17, i % 5))
        .collect();
    // The global pool drives embed_batch; whatever its size, the batch must
    // equal the serial per-input path in order and content.
    let batch = model.embed_batch(&inputs);
    assert_eq!(batch.rows(), inputs.len());
    for (i, s) in inputs.iter().enumerate() {
        assert_eq!(batch.row(i).unwrap(), model.embed(s).as_slice());
    }
    // The caching wrapper keeps exact model-call accounting on the batch
    // path: one call per distinct input, the rest hits.
    let cached = CachedEmbedder::new(model);
    let batch2 = cached.embed_batch(&inputs);
    assert_eq!(batch2.rows(), inputs.len());
    let distinct: std::collections::HashSet<&String> = inputs.iter().collect();
    let stats = cached.stats();
    assert_eq!(stats.model_calls, distinct.len() as u64);
    assert_eq!(stats.total_requests(), inputs.len() as u64);
}
