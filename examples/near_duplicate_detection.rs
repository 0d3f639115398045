//! Near-duplicate detection against a reference database (paper
//! Section II-A-3): batched similarity search as a join.
//!
//! A stream of unlabeled items (here: embedding vectors standing in for any
//! modality — images, documents, audio) is checked against a labelled
//! reference collection.  Doing this one query at a time is a vector search;
//! batching all queries is exactly a context-enhanced join, which lets the
//! engine choose between the exhaustive tensor scan and an HNSW index probe:
//! the index join's route prices both per probe in nanoseconds
//! (`IndexJoin::route`), and the example then runs both and compares.
//!
//! Run with:
//! ```sh
//! cargo run --release --example near_duplicate_detection
//! ```
//!
//! Cardinalities honour the global `CEJ_SCALE` knob (e.g. `CEJ_SCALE=0.01`
//! for a fast smoke run).

use std::time::Instant;

use cej_core::{AccessPath, IndexJoin, IndexJoinConfig, TensorJoin};
use cej_exec::ExecPool;
use cej_index::HnswParams;
use cej_relational::SimilarityPredicate;
use cej_workload::{clustered_matrix, scaled};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reference collection: 20k vectors in 64-D, 50 clusters (e.g. known
    // documents); incoming batch: 200 unlabeled items drawn from the same
    // distribution.
    let reference_rows = scaled(20_000);
    let incoming_rows = scaled(200);
    // (clustered_matrix rows are unit-normalised: cosine = dot product)
    let (reference, _) = clustered_matrix(reference_rows, 64, 50, 0.05, 1);
    let (incoming, _) = clustered_matrix(incoming_rows, 64, 50, 0.05, 2);
    let k = 3;
    println!("reference {reference_rows} x incoming {incoming_rows} (CEJ_SCALE-adjusted)");

    // 1. Ask the route which path a run would take: without a filter every
    //    reference row survives.
    let index_join = IndexJoin::new(IndexJoinConfig {
        params: HnswParams::low_recall(),
        range_probe_k: k,
    });
    let route = index_join.route(reference.rows(), reference.rows());
    println!("route: {route}");

    // 2. Run both physical operators and compare.
    let start = Instant::now();
    let (tensor, predicate) = (TensorJoin::default(), SimilarityPredicate::TopK(k));
    let prepared = tensor.prepare(&reference, incoming.rows(), predicate);
    let scan = tensor.join(&incoming, &prepared, predicate, ExecPool::global())?;
    let scan_time = start.elapsed();

    let build_start = Instant::now();
    let index = index_join.build_index(&reference)?;
    let build_time = build_start.elapsed();
    let probe_start = Instant::now();
    let probed = index_join.probe(&incoming, &index, SimilarityPredicate::TopK(k), None)?;
    let probe_time = probe_start.elapsed();

    // 3. Recall of the approximate index join against the exact scan.
    let exact: std::collections::HashSet<(usize, usize)> =
        scan.pair_indices().into_iter().collect();
    let hits = probed
        .pair_indices()
        .iter()
        .filter(|p| exact.contains(p))
        .count();
    let recall = hits as f64 / exact.len().max(1) as f64;

    println!(
        "\n{:<22} {:>12} {:>12} {:>10}",
        "operator", "pairs", "time", "recall"
    );
    println!("{}", "-".repeat(60));
    println!(
        "{:<22} {:>12} {:>10.1?} {:>10}",
        AccessPath::TensorScan.label(),
        scan.len(),
        scan_time,
        "exact"
    );
    println!(
        "{:<22} {:>12} {:>10.1?} {:>9.1}%",
        AccessPath::IndexProbe.label(),
        probed.len(),
        probe_time,
        recall * 100.0
    );
    println!(
        "(index build time: {build_time:.1?}, {} graph bytes)",
        index.memory_bytes()
    );
    println!(
        "(probe cost: {} distance computations across {} probes)",
        probed.stats.probe_stats.distance_computations,
        incoming.rows()
    );
    Ok(())
}
