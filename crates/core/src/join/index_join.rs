//! The index-probe join over an HNSW vector index.
//!
//! This operator reproduces the vector-database alternative the paper
//! evaluates against (Section IV-B, VI-E): build an HNSW index on the inner
//! relation's embeddings, then answer the join by probing the index once per
//! (pre-filtered) outer tuple.
//!
//! Characteristics carried over from the paper's analysis (Table I):
//!
//! * results are **approximate** (recall depends on the build parameters),
//! * the probe must specify a **top-k**; a range predicate
//!   (`similarity > t`) is implemented by probing top-k and post-filtering,
//!   which is exactly the workaround the paper describes and measures in
//!   Figure 17,
//! * relational **pre-filtering** acts inside the graph walk
//!   ([`HnswIndex::search`]): a probe returns the top k of the *allowed*
//!   rows, and the fewer rows pass, the further the walk goes to find them,
//!   so a low selectivity makes a walk dearer, not cheaper.
//!
//! [`IndexJoin::probe`] is that walk alone, and it is what the paper's
//! figures measure.  The interpreter adds the scan-vs-probe choice the paper
//! studies (Section IV-B, Figures 15-17) per run, where the filter's
//! survivors are counted exactly: when fewer rows pass than a filtered walk
//! would score ([`IndexJoin::scans_survivors`]), it scans them with the
//! tensor join instead ([`IndexJoin::scan`]) — the exact answer the walk
//! approximates, with the walk's score bits (module docs of
//! [`cej_index::HnswIndex`], "Distance").

use std::cmp::Ordering;
use std::time::Instant;

use cej_exec::ExecPool;
use cej_index::{HnswIndex, HnswParams};
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::Matrix;

use crate::error::CoreError;
use crate::join::tensor_join::{PreparedInner, TensorJoin};
use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

use super::check_predicate;

/// Distance computations of an unfiltered top-5 probe per `√(efSearch ·
/// M0) · log2 n`: the one fitted constant of `IndexJoin::walk_distances`.
///
/// Swept on a 2-vCPU Xeon (AVX-512 VNNI), release build: `n` random unit
/// rows of dimension 64, 128 random unit probes, `D` the measured distance
/// computations per unfiltered probe.  The median of `D / (√(ef · M0) ·
/// log2 n)` over these builds is 2.9:
///
/// | params (ef, M0)          | n       | D     | D̂ (3.0) | D / D̂ |
/// |--------------------------|---------|-------|---------|-------|
/// | `tiny` (32, 16)          | 5,000   | 582   | 834     | 0.70  |
/// | `tiny`                   | 50,000  | 710   | 1,060   | 0.67  |
/// | m 16 (48, 32)            | 5,000   | 1,332 | 1,445   | 0.92  |
/// | m 16                     | 50,000  | 1,795 | 1,835   | 0.98  |
/// | `low_recall` (64, 64)    | 5,000   | 2,510 | 2,359   | 1.06  |
/// | `low_recall`             | 50,000  | 4,012 | 2,997   | 1.34  |
/// | `low_recall`             | 200,000 | 4,509 | 3,381   | 1.33  |
/// | `low_recall`, ef 128     | 5,000   | 3,566 | 3,336   | 1.07  |
/// | `low_recall`, ef 128     | 50,000  | 7,107 | 4,238   | 1.68  |
///
/// (The benchmark's `index_probe` graph, 5,000 text embeddings under
/// `low_recall`, reads `D` ≈ 1,920, `D / D̂` 0.81.)  At pass ratios 50 /
/// 20 / 5 / 1 % the same sweep timed the filtered walk against the tensor
/// join over the survivors (per probe, 32-row outer batches, the side
/// prepared per batch):
///
/// | params, n             | 50 %          | 20 %          | 5 %           | 1 %            |
/// |-----------------------|---------------|---------------|---------------|----------------|
/// | `low_recall`, 5,000   | 116 / 5.9 µs  | 203 / 3.2 µs  | 493 / 1.4 µs  | 1,535 / 1.4 µs |
/// | `low_recall`, 50,000  | 455 / 61 µs*  | 874 / 30 µs   | 2,387 / 5.9 µs| 9,680 / 2.9 µs |
/// | `low_recall`, 200,000 | 860 / 260 µs* | 2,292 / 101 µs* | 6,091 / 21 µs | 19,084 / 6.4 µs |
/// | `tiny`, 50,000        | 191 / 72 µs*  | 331 / 30 µs*  | 959 / 8.1 µs  | 3,539 / 2.4 µs |
///
/// (walk / scan; `*` marks where the rule keeps the walk.)  The scan won
/// every cell: the rule prices a screened pair as dearly as a graph
/// distance, so it errs toward the walk.  Pricing both in time is the cost
/// model's business; this rule only guarantees that a scan never scores
/// more rows than the walk it replaces would.
const WALK_DISTANCES_PER_UNIT: f64 = 3.0;

/// Configuration of the index join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexJoinConfig {
    /// HNSW build/search parameters (the paper's `Hi` / `Lo` presets live on
    /// [`HnswParams`]).
    pub params: HnswParams,
    /// The `k` used for probes when the join predicate is a threshold
    /// (range) predicate; the paper uses `k = 32` for Figure 17.
    pub range_probe_k: usize,
}

impl Default for IndexJoinConfig {
    fn default() -> Self {
        Self {
            params: HnswParams::low_recall(),
            range_probe_k: 32,
        }
    }
}

impl IndexJoinConfig {
    /// Uses the paper's high-recall index configuration.
    pub fn high_recall() -> Self {
        Self {
            params: HnswParams::high_recall(),
            range_probe_k: 32,
        }
    }

    /// Uses the paper's low-recall index configuration.
    pub fn low_recall() -> Self {
        Self {
            params: HnswParams::low_recall(),
            range_probe_k: 32,
        }
    }

    /// Sets the probe `k` used for threshold predicates.
    pub fn with_range_probe_k(mut self, k: usize) -> Self {
        self.range_probe_k = k.max(1);
        self
    }
}

/// The index-probe join operator.
#[derive(Debug, Clone)]
pub struct IndexJoin {
    config: IndexJoinConfig,
}

impl IndexJoin {
    /// Creates the operator.
    pub fn new(config: IndexJoinConfig) -> Self {
        Self { config }
    }

    /// The operator configuration.
    pub fn config(&self) -> &IndexJoinConfig {
        &self.config
    }

    /// Builds an HNSW index over the inner relation's embeddings.  Exposed
    /// separately so benchmarks can exclude (or measure) build time, as the
    /// paper does.
    ///
    /// Construction runs on the process-wide pool
    /// ([`cej_exec::ExecPool::global`]), not on the pool of the run that
    /// asks: the graph depends on the build's budget (sequential insertion
    /// at one thread, batched above), and an index the
    /// [`crate::IndexManager`] caches must not depend on which run built it.
    ///
    /// # Errors
    /// Propagates index construction errors.
    pub fn build_index(&self, inner: &Matrix) -> Result<HnswIndex> {
        HnswIndex::build(inner.clone(), self.config.params).map_err(CoreError::from)
    }

    /// The distance computations an unfiltered probe of an `rows`-row
    /// graph built with this join's parameters makes: `D̂ =
    /// WALK_DISTANCES_PER_UNIT · √(efSearch · M0) · log2 rows`.
    fn walk_distances(&self, rows: usize) -> f64 {
        let params = &self.config.params;
        let width = (params.ef_search as f64 * params.m0 as f64).sqrt();
        WALK_DISTANCES_PER_UNIT * width * (rows.max(2) as f64).log2()
    }

    /// Whether a run whose probe-time filter admits `survivors` of the
    /// index's `rows` rows scans the survivors instead of walking: a walk
    /// that may return only a fraction `p = survivors / rows` of the nodes
    /// it scores scores about `D̂ / p` of them to fill its list (`D̂` the
    /// distance computations of an unfiltered probe, estimated from `rows`,
    /// `efSearch` and `M0` with one constant fitted in a sweep), a scan
    /// exactly `survivors` — so it scans when `survivors² < rows · D̂`.  A
    /// filter that admits every row is no filter, and such a run walks; one
    /// that admits none needs neither.  The rule reads neither the outer
    /// rows nor how they were cut, so a pair's presence depends on neither
    /// morsels nor deltas.
    pub fn scans_survivors(&self, survivors: usize, rows: usize) -> bool {
        survivors < rows && (survivors as f64).powi(2) < rows as f64 * self.walk_distances(rows)
    }

    /// The predicate the survivor scan runs ([`IndexJoin::scan`]): a top-k
    /// as given, a threshold as the top [`IndexJoinConfig::range_probe_k`]
    /// a walk probes for.
    pub(crate) fn scan_predicate(&self, predicate: SimilarityPredicate) -> SimilarityPredicate {
        match predicate {
            SimilarityPredicate::TopK(k) => SimilarityPredicate::TopK(k),
            SimilarityPredicate::Threshold(_) => {
                SimilarityPredicate::TopK(self.config.range_probe_k)
            }
        }
    }

    /// The exact answer a walk approximates: the unit-normalised outer rows
    /// `left_norm` joined by `tensor` against a probe filter's survivors,
    /// prepared for [`IndexJoin::scan_predicate`].  Each outer row keeps its
    /// top k survivors — all of them when fewer pass — ties to the smaller
    /// row; a threshold keeps, of its top [`IndexJoinConfig::range_probe_k`],
    /// the pairs scoring at least `t`, as a walk's probe does.  Scores are the tensor join's bits, which a
    /// walk shares for every pair both return.
    ///
    /// # Errors
    /// Propagates the tensor join's errors (predicate, dimensions).
    pub(crate) fn scan(
        &self,
        tensor: &TensorJoin,
        left_norm: &Matrix,
        survivors: &PreparedInner<'_>,
        predicate: SimilarityPredicate,
        pool: &ExecPool,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        let mut result = tensor.join(left_norm, survivors, self.scan_predicate(predicate), pool)?;
        if let SimilarityPredicate::Threshold(t) = predicate {
            // a walk drops a neighbour only on a score below `t`
            result
                .pairs
                .retain(|p| p.score.partial_cmp(&t) != Some(Ordering::Less));
        }
        Ok(result)
    }

    /// Joins a matrix of outer embeddings against a pre-built index, with
    /// an optional pre-filter on the inner side.  A pre-filter on the outer
    /// side is the caller's selection: it passes only the selected rows, so
    /// an excluded tuple issues no probe.  Outer pair offsets refer to the
    /// given outer rows; inner offsets refer to the index's row numbering
    /// (which is the inner relation's original numbering).
    ///
    /// # Errors
    /// Propagates probe errors (dimension mismatch, bad filter length).
    pub fn probe(
        &self,
        outer: &Matrix,
        index: &HnswIndex,
        predicate: SimilarityPredicate,
        inner_filter: Option<&SelectionBitmap>,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        let start = Instant::now();
        let (k, threshold) = match predicate {
            SimilarityPredicate::TopK(k) => (k, None),
            SimilarityPredicate::Threshold(t) => (self.config.range_probe_k, Some(t)),
        };
        let mut stats = JoinStats::default();
        let mut pairs = Vec::new();
        for row in 0..outer.rows() {
            let query = outer.row(row).map_err(CoreError::from)?;
            let search = index
                .search(query, k, inner_filter)
                .map_err(CoreError::from)?;
            stats.probe_stats.merge(&search.stats);
            stats.pairs_compared += search.stats.distance_computations;
            for neighbor in search.neighbors {
                if let Some(t) = threshold {
                    if neighbor.score < t {
                        continue;
                    }
                }
                pairs.push(JoinPair::new(row, neighbor.id, neighbor.score));
            }
        }
        stats.peak_buffer_bytes =
            index.memory_bytes() + pairs.len() * std::mem::size_of::<JoinPair>();
        stats.elapsed = start.elapsed();
        Ok(JoinResult { pairs, stats })
    }
}

impl Default for IndexJoin {
    fn default() -> Self {
        Self::new(IndexJoinConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::tensor_join::TensorJoin;
    use crate::join::tests::{run_string_join, string_pairs};
    use crate::session::JoinStrategy;
    use cej_vector::normalize_matrix_rows;
    use cej_workload::clustered_matrix;

    fn test_config() -> IndexJoinConfig {
        IndexJoinConfig {
            params: HnswParams::tiny(),
            range_probe_k: 8,
        }
    }

    #[test]
    fn topk_probe_join_finds_cluster_members() {
        let (vectors, labels) = clustered_matrix(200, 16, 4, 0.05, 3);
        let (outer, outer_labels) = clustered_matrix(20, 16, 4, 0.05, 3);
        let join = IndexJoin::new(test_config());
        let index = join.build_index(&vectors).unwrap();
        let result = join
            .probe(&outer, &index, SimilarityPredicate::TopK(5), None)
            .unwrap();
        assert_eq!(result.len(), 20 * 5);
        // the overwhelming majority of retrieved neighbours share the probe's cluster
        let correct = result
            .pairs
            .iter()
            .filter(|p| labels[p.right] == outer_labels[p.left])
            .count();
        assert!(correct as f64 / result.len() as f64 > 0.9);
        assert!(result.stats.probe_stats.distance_computations > 0);
    }

    #[test]
    fn threshold_predicate_post_filters_topk_probes() {
        let (vectors, _) = clustered_matrix(100, 16, 4, 0.05, 5);
        let (outer, _) = clustered_matrix(10, 16, 4, 0.05, 5);
        let join = IndexJoin::new(test_config());
        let index = join.build_index(&vectors).unwrap();
        let result = join
            .probe(&outer, &index, SimilarityPredicate::Threshold(0.95), None)
            .unwrap();
        assert!(result.pairs.iter().all(|p| p.score >= 0.95));
        // a range predicate can never return more than range_probe_k per outer row
        for l in 0..10 {
            assert!(result.pairs.iter().filter(|p| p.left == l).count() <= 8);
        }
    }

    #[test]
    fn approximate_results_are_close_to_exact_scan() {
        let (vectors, _) = clustered_matrix(300, 16, 6, 0.05, 7);
        let (outer, _) = clustered_matrix(15, 16, 6, 0.05, 7);
        let join = IndexJoin::new(test_config());
        let index = join.build_index(&vectors).unwrap();
        let approx = join
            .probe(&outer, &index, SimilarityPredicate::TopK(3), None)
            .unwrap();
        let mut outer_n = outer.clone();
        let mut vectors_n = vectors.clone();
        normalize_matrix_rows(&mut outer_n);
        normalize_matrix_rows(&mut vectors_n);
        let (tensor, predicate) = (TensorJoin::default(), SimilarityPredicate::TopK(3));
        let inner = tensor.prepare(&vectors_n, outer_n.rows(), predicate);
        let exact = tensor
            .join(&outer_n, &inner, predicate, cej_exec::ExecPool::global())
            .unwrap();
        let exact_set: std::collections::HashSet<(usize, usize)> =
            exact.pair_indices().into_iter().collect();
        let hits = approx
            .pair_indices()
            .iter()
            .filter(|p| exact_set.contains(p))
            .count();
        let recall = hits as f64 / exact.len() as f64;
        assert!(recall > 0.8, "index join recall {recall} too low");
    }

    #[test]
    fn outer_filter_skips_probes_entirely() {
        // an outer pre-filter is the caller's selection: only the selected
        // rows are passed, so only they are probed
        let (vectors, _) = clustered_matrix(100, 16, 4, 0.05, 9);
        let (outer, _) = clustered_matrix(10, 16, 4, 0.05, 9);
        let join = IndexJoin::new(test_config());
        let index = join.build_index(&vectors).unwrap();
        let selected = outer.gather_rows(&[0, 1]).unwrap();
        let result = join
            .probe(&selected, &index, SimilarityPredicate::TopK(2), None)
            .unwrap();
        assert_eq!(result.len(), 4);
        assert!(result.pairs.iter().all(|p| p.left < 2));
        // only two probes were issued
        let unfiltered = join
            .probe(&outer, &index, SimilarityPredicate::TopK(2), None)
            .unwrap();
        assert!(
            result.stats.probe_stats.nodes_visited < unfiltered.stats.probe_stats.nodes_visited
        );
    }

    #[test]
    fn inner_filter_excludes_results_but_not_traversal() {
        let (vectors, _) = clustered_matrix(100, 16, 4, 0.05, 11);
        let (outer, _) = clustered_matrix(5, 16, 4, 0.05, 11);
        let join = IndexJoin::new(test_config());
        let index = join.build_index(&vectors).unwrap();
        let inner_filter = SelectionBitmap::from_indices(100, &(0..30).collect::<Vec<_>>());
        let result = join
            .probe(
                &outer,
                &index,
                SimilarityPredicate::TopK(3),
                Some(&inner_filter),
            )
            .unwrap();
        assert!(result.pairs.iter().all(|p| p.right < 30));
        // traversal cost is not reduced proportionally to the 70% exclusion
        let unfiltered = join
            .probe(&outer, &index, SimilarityPredicate::TopK(3), None)
            .unwrap();
        assert!(
            result.stats.probe_stats.distance_computations
                >= unfiltered.stats.probe_stats.distance_computations / 3
        );
    }

    #[test]
    fn end_to_end_string_join() {
        let report = run_string_join(
            JoinStrategy::Index(test_config()),
            &["barbecue", "database"],
            &["barbecues", "databases", "laptop", "vacation", "dbms"],
            SimilarityPredicate::TopK(1),
        );
        assert_eq!(report.table.num_rows(), 2);
        assert_eq!(report.embedding_stats.model_calls, 7);
        assert_eq!(report.index_builds, 1);
        // barbecue -> barbecues, database -> databases
        let pairs = string_pairs(&report.table);
        assert!(pairs.contains(&("barbecue".into(), "barbecues".into())));
        assert!(pairs.contains(&("database".into(), "databases".into())));
    }

    #[test]
    fn error_cases() {
        let join = IndexJoin::new(test_config());
        let (vectors, _) = clustered_matrix(20, 16, 2, 0.05, 13);
        let index = join.build_index(&vectors).unwrap();
        let (outer, _) = clustered_matrix(5, 16, 2, 0.05, 13);
        // bad inner filter length
        let bad = SelectionBitmap::all(3);
        assert!(join
            .probe(&outer, &index, SimilarityPredicate::TopK(1), Some(&bad))
            .is_err());
        // invalid predicate
        assert!(join
            .probe(&outer, &index, SimilarityPredicate::TopK(0), None)
            .is_err());
        // dimension mismatch
        let (wrong_dim, _) = clustered_matrix(5, 8, 2, 0.05, 13);
        assert!(join
            .probe(&wrong_dim, &index, SimilarityPredicate::TopK(1), None)
            .is_err());
        // empty inner relation cannot be indexed
        assert!(join.build_index(&Matrix::zeros(0, 16)).is_err());
    }

    #[test]
    fn few_survivors_are_scanned_and_many_walked() {
        // the benchmark's shape: 5,000 rows under `low_recall`, where an
        // unfiltered probe makes ≈ 1,920 distance computations
        let join = IndexJoin::new(IndexJoinConfig::low_recall());
        let d_hat = join.walk_distances(5_000);
        assert!((1_500.0..3_500.0).contains(&d_hat), "{d_hat}");
        for survivors in [1, 250, 1_000, 2_500] {
            assert!(join.scans_survivors(survivors, 5_000), "{survivors}");
        }
        // every row, or nearly: the walk
        assert!(!join.scans_survivors(5_000, 5_000));
        assert!(!join.scans_survivors(4_999, 5_000));
        // a small table scans any filter that drops a row, never none
        assert!(join.scans_survivors(99, 100));
        assert!(!join.scans_survivors(100, 100));
    }

    #[test]
    fn config_presets() {
        assert_eq!(
            IndexJoinConfig::high_recall().params,
            HnswParams::high_recall()
        );
        assert_eq!(
            IndexJoinConfig::low_recall().params,
            HnswParams::low_recall()
        );
        assert_eq!(IndexJoinConfig::default().range_probe_k, 32);
        assert_eq!(
            IndexJoinConfig::default()
                .with_range_probe_k(0)
                .range_probe_k,
            1
        );
        assert_eq!(
            IndexJoin::default().config().params,
            HnswParams::low_recall()
        );
    }
}
