//! Scan-vs-probe access path selection across selectivities (paper
//! Section VI-E, Figures 15-17, in miniature).
//!
//! A batch of probe vectors joins a large reference collection while a
//! relational predicate on the reference side sweeps from 10 % to 100 %
//! selectivity.  At each point the example measures the pre-filtered tensor
//! scan (it gathers the selected reference rows, then scores only those) and
//! the pre-filtered HNSW index probe (the filter travels with the probe),
//! and shows what the cost-based advisor would have chosen.
//!
//! Run with:
//! ```sh
//! cargo run --release --example access_path_selection
//! ```
//!
//! Cardinalities honour the global `CEJ_SCALE` knob (e.g. `CEJ_SCALE=0.01`
//! for a fast smoke run).

use std::time::Instant;

use cej_core::{
    AccessPathAdvisor, AccessPathQuery, IndexJoin, IndexJoinConfig, TensorJoin, TensorJoinConfig,
};
use cej_exec::ExecPool;
use cej_index::HnswParams;
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_workload::{clustered_matrix, scaled, uniform_matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inner_rows = scaled(20_000);
    let outer_rows = scaled(100);
    let dim = 64;
    let k = 1;
    println!("inner {inner_rows} x outer {outer_rows} (CEJ_SCALE-adjusted)");

    // both sides unit-normalised: cosine similarity is their dot product
    let (inner, _) = clustered_matrix(inner_rows, dim, 64, 0.05, 3);
    let outer = uniform_matrix(outer_rows, dim, 4, true);
    // The relational filter column of the inner relation: uniform [0, 100).
    let mut rng = StdRng::seed_from_u64(5);
    let filter_col: Vec<i64> = (0..inner_rows).map(|_| rng.gen_range(0..100)).collect();

    let tensor = TensorJoin::new(TensorJoinConfig::default());
    let index_join = IndexJoin::new(IndexJoinConfig {
        params: HnswParams::low_recall(),
        range_probe_k: k,
    });
    let index = index_join.build_index(&inner)?;
    let advisor = AccessPathAdvisor::default();

    println!(
        "{:>12} {:>14} {:>14} {:>14} {:>14}",
        "selectivity", "scan time", "probe time", "advisor", "measured best"
    );
    for selectivity in [10i64, 25, 50, 75, 100] {
        let bitmap =
            SelectionBitmap::from_bools(filter_col.iter().map(|&v| v < selectivity).collect());

        let start = Instant::now();
        let selected: Vec<u32> = bitmap.iter_selected().map(|i| i as u32).collect();
        let predicate = SimilarityPredicate::TopK(k);
        let selected = inner.gather_rows(&selected)?;
        let prepared = tensor.prepare(&selected, outer.rows(), predicate);
        let scan = tensor.join(&outer, &prepared, predicate, ExecPool::global())?;
        let scan_time = start.elapsed();

        let start = Instant::now();
        let probed =
            index_join.probe(&outer, &index, SimilarityPredicate::TopK(k), Some(&bitmap))?;
        let probe_time = start.elapsed();

        let query = AccessPathQuery {
            outer_rows,
            inner_rows,
            inner_selectivity: selectivity as f64 / 100.0,
            predicate: SimilarityPredicate::TopK(k),
            index_available: true,
        };
        let choice = advisor.choose(&query);
        let best = if scan_time <= probe_time {
            "tensor-scan"
        } else {
            "index-probe"
        };
        println!(
            "{:>11}% {:>14.2?} {:>14.2?} {:>14} {:>14}",
            selectivity,
            scan_time,
            probe_time,
            choice.label(),
            best
        );
        // keep the optimiser honest: both operators return k pairs per probe
        assert!(scan.len() <= outer_rows * k);
        assert!(probed.len() <= outer_rows * k);
    }
    println!("\n(note: absolute crossover points depend on hardware; the paper reports");
    println!(" 20-30% for top-1 on a 48-thread server against Milvus/HNSW)");
    Ok(())
}
