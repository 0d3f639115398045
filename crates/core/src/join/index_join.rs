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
//! survivors are counted exactly: it prices a scan of the survivors and a
//! walk for them in nanoseconds per outer row ([`IndexJoin::route`]), and
//! when the scan is cheaper — filtered or not — it scans them with the
//! tensor join instead ([`IndexJoin::scan`]): the exact answer the walk
//! approximates, with the walk's score bits (module docs of
//! [`cej_index::HnswIndex`], "Distance").  The walk wins only where the
//! graph is large against its search width and most rows pass.

use std::cmp::Ordering;
use std::time::Instant;

use cej_exec::ExecPool;
use cej_index::{HnswIndex, HnswParams};
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::Matrix;

use crate::error::CoreError;
use crate::join::tensor_join::{PreparedInner, TensorJoin};
use crate::result::{IndexPath, IndexRoute, JoinPair, JoinResult, JoinStats};
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
/// `low_recall`, reads `D` ≈ 1,920, `D / D̂` 0.81.)  A filtered walk that
/// may return only a fraction `p` of the nodes it scores is priced at `D̂ /
/// p` distances ([`IndexJoin::route`]); what they cost is
/// [`WALK_NS_PER_DISTANCE`].
const WALK_DISTANCES_PER_UNIT: f64 = 3.0;

/// `c_pair`: nanoseconds the survivor scan spends per (outer row, survivor)
/// pair, the fp32 block path's.
///
/// Swept on a 2-vCPU Xeon (AVX-512 VNNI), release build, one thread: `S`
/// random unit rows (every row of `n`, or a random `p` of them) prepared
/// once, 128 random unit probes in 32-row batches, top-5; ns per pair as
/// fp32 block path / int8 screen, the best of three passes:
///
/// | dim, n      | 100 %     | 50 %      | 20 %      | 5 %       | 1 %         |
/// |-------------|-----------|-----------|-----------|-----------|-------------|
/// | 16, 5,000   | 2.0 / 0.9 | 2.2 / 1.1 | 2.7 / 1.6 | 5.2 / 3.9 | 12.0 / 12.6 |
/// | 16, 50,000  | 1.8 / 0.9 | 1.9 / 1.0 | 1.9 / 0.9 | 2.1 / 1.1 | 3.5 / 2.1   |
/// | 16, 200,000 | 2.1 / 0.9 | 1.9 / 0.9 | 1.8 / 0.9 | 1.7 / 0.8 | 2.2 / 1.1   |
/// | 64, 5,000   | 3.8 / 1.4 | 3.9 / 1.3 | 4.3 / 2.0 | 6.8 / 4.4 | 13.5 / 15.6 |
/// | 64, 50,000  | 3.9 / 1.1 | 4.1 / 1.1 | 3.5 / 1.1 | 3.9 / 1.3 | 5.4 / 2.7   |
/// | 64, 200,000 | 5.0 / 1.2 | 4.2 / 1.2 | 4.1 / 1.1 | 3.8 / 1.5 | 5.7 / 1.9   |
///
/// The constant is the median fp32 cost at dimension 64 over `S ≥ 2,000`
/// in two such sweeps (3.5-5.7).  Below a few hundred survivors a call's
/// fixed cost dominates, but there the walk is dearer by orders of
/// magnitude.  The screen is 3-4x cheaper wherever it runs; pricing the
/// block path, which every CPU runs, keeps the route — and with it the
/// pairs — the same on every CPU, and errs toward the walk.  So does
/// dimension 16, where a pair is cheaper against a walk distance than at
/// 64; the route does not read the dimension.
pub(super) const SCAN_NS_PER_PAIR: f64 = 4.2;

/// `c_dist(n)`: nanoseconds a walk spends per distance computation on an
/// `n`-row graph, as `(n, ns)` points.
///
/// The same sweep walked each graph with the same probes, filtered to the
/// same random rows (`efSearch` and `M0` as in [`WALK_DISTANCES_PER_UNIT`]'s
/// table; best of two passes):
///
/// | params, n                    | 100 % | 50 % | 20 % | 5 % | 1 % | dim 16: 100 / 50 % |
/// |------------------------------|-------|------|------|-----|-----|--------------------|
/// | `tiny`, 5,000                | 35    | 35   | 38   | 47  | 103 | 27 / 26            |
/// | m 16, 5,000                  | 39    | 36   | 33   | 56  | 147 | 24 / 24            |
/// | `low_recall`, 5,000          | 31    | 33   | 41   | 81  | 194 | 23 / 25            |
/// | `low_recall` ef 128, 5,000   | 33    | 37   | 54   | 132 | 193 | 25 / 28            |
/// | `tiny`, 50,000               | 96    | 90   | 103  | 118 | 147 | 82 / 55            |
/// | m 16, 50,000                 | 109   | 102  | 82   | 83  | 149 | 68 / 68            |
/// | `low_recall`, 50,000         | 81    | 78   | 75   | 83  | 164 | 65 / 75            |
/// | `low_recall` ef 128, 50,000  | 81    | 75   | 64   | 92  | 239 | 73 / 80            |
/// | `tiny`, 200,000              | 175   | 173  | 161  | 193 | 212 | 114 / 116          |
/// | m 16, 200,000                | 151   | 129  | 133  | 186 | 193 | 108 / 111          |
/// | `low_recall`, 200,000        | 80    | 77   | 87   | 136 | 145 | 70 / 95            |
/// | `low_recall` ef 128, 200,000 | 71    | 89   | 83   | 113 | 148 | 76 / 102           |
///
/// (dimension 64 unless marked.)  A point is the median of its `n`'s 100 %
/// and 50 % cells at dimension 64: where the walk can win, most rows pass.
/// A random fetch leaves the cache as `n` grows, so a distance costs ≈ 3x
/// more at 200,000 rows than at 5,000.  Below 5 % a distance costs more
/// again, but the walk also scores far fewer than `D̂ / p` rows there
/// (the whole graph at most), and the scan wins by orders of magnitude
/// either way.  Against [`SCAN_NS_PER_PAIR`], `low_recall` scans every
/// run up to ≈ 50,000 rows, filtered or not; its crossover is a pass ratio
/// of ≈ 66 % at 200,000 rows and ≈ 32 % at 1,000,000.
const WALK_NS_PER_DISTANCE: [(f64, f64); 3] =
    [(5_000.0, 35.0), (50_000.0, 86.0), (200_000.0, 109.0)];

/// `c_dist(rows)`: [`WALK_NS_PER_DISTANCE`] interpolated linearly in
/// `log2 rows`, held at the end points outside the swept range.
fn walk_ns_per_distance(rows: usize) -> f64 {
    let points = WALK_NS_PER_DISTANCE.map(|(n, ns)| (n.log2(), ns));
    let x = (rows.max(2) as f64).log2().clamp(points[0].0, points[2].0);
    let ((x0, c0), (x1, c1)) = if x <= points[1].0 {
        (points[0], points[1])
    } else {
        (points[1], points[2])
    };
    c0 + (c1 - c0) * (x - x0) / (x1 - x0)
}

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

    /// The path a run whose probe-time filter admits `survivors` (`S`) of
    /// the index's `rows` (`n`) rows takes, priced per outer row in
    /// nanoseconds: a scan scores every survivor, `S · c_pair`
    /// (`SCAN_NS_PER_PAIR`); a walk that may return only a fraction `S /
    /// n` of the nodes it scores scores about `D̂ · n / S` of them to fill
    /// its list (`D̂` the distance computations of an unfiltered probe,
    /// estimated from `n`, `efSearch` and `M0`), at `c_dist(n)` each
    /// (`WALK_NS_PER_DISTANCE`).  The run scans when the scan is
    /// cheaper, whether or not a filter dropped a row.  With `S = 0` the
    /// walk is priced as for one survivor; such a run needs neither path.
    ///
    /// Both costs fall out of `S`, `n` and the graph's parameters alone:
    /// the route reads neither the outer rows nor how they were cut, nor
    /// the CPU (`c_pair` is the fp32 block path's, which every CPU runs),
    /// so a pair's presence depends on none of them.  The scan cost grows
    /// with `S` and the walk's falls, so a run that walks at some `S`
    /// walks at every larger one.
    pub fn route(&self, survivors: usize, rows: usize) -> IndexRoute {
        let scan_ns = (survivors as f64 * SCAN_NS_PER_PAIR).round() as u64;
        let distances = self.walk_distances(rows) * rows as f64 / survivors.max(1) as f64;
        let walk_ns = (distances * walk_ns_per_distance(rows)).round() as u64;
        let path = if scan_ns < walk_ns {
            IndexPath::SurvivorScan
        } else {
            IndexPath::Walk
        };
        IndexRoute {
            path,
            survivors,
            rows,
            scan_ns,
            walk_ns,
        }
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
    use crate::join::tests::{run_string_join, string_pairs, walking_config, WALKING_ROWS};
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
        // so small a graph against its search width scans any filter, and
        // no filter: every survivor costs less than the walk for it
        for survivors in 1..=5_000 {
            let route = join.route(survivors, 5_000);
            assert_eq!(route.path, IndexPath::SurvivorScan, "{route:?}");
        }
        // a small table scans whether a filter drops a row or not
        for survivors in [99, 100] {
            assert_eq!(join.route(survivors, 100).path, IndexPath::SurvivorScan);
        }
        // a large graph walks when every row passes, and scans one in a
        // hundred
        for rows in [200_000, 1_000_000] {
            assert_eq!(join.route(rows, rows).path, IndexPath::Walk, "{rows}");
            let route = join.route(rows / 100, rows);
            assert_eq!(route.path, IndexPath::SurvivorScan, "{route:?}");
        }
        // no survivor: priced as one, nothing to walk for
        let empty = join.route(0, 5_000);
        assert_eq!((empty.path, empty.scan_ns), (IndexPath::SurvivorScan, 0));
        assert_eq!(empty.walk_ns, join.route(1, 5_000).walk_ns);
    }

    #[test]
    fn the_walking_shape_of_the_session_tests_walks() {
        // the interpreter's walk arm stays under test through sessions over
        // this shape: every row passing walks, half of them scan
        let join = IndexJoin::new(walking_config());
        let rows = WALKING_ROWS;
        assert_eq!(join.route(rows, rows).path, IndexPath::Walk);
        assert_eq!(join.route(rows + 1, rows + 1).path, IndexPath::Walk);
        assert_eq!(join.route(rows / 2, rows).path, IndexPath::SurvivorScan);
    }

    #[test]
    fn the_route_is_monotone_in_the_survivors() {
        // once a run walks at some S, it walks at every larger S; the scan
        // is priced up and the walk down as S grows
        let params = [
            HnswParams::tiny(),
            HnswParams::low_recall(),
            HnswParams::high_recall(),
            HnswParams::tiny().with_ef_search(4),
        ];
        for params in params {
            let join = IndexJoin::new(IndexJoinConfig {
                params,
                range_probe_k: 32,
            });
            for rows in [1, 100, 5_000, 200_000, 1_000_000] {
                let mut walked = None;
                let mut last = join.route(0, rows);
                for survivors in 1..=rows {
                    let route = join.route(survivors, rows);
                    assert!(route.scan_ns >= last.scan_ns && route.walk_ns <= last.walk_ns);
                    match (route.path, walked) {
                        (IndexPath::Walk, None) => walked = Some(survivors),
                        (IndexPath::SurvivorScan, Some(from)) => {
                            panic!("{params:?} n {rows}: walks at {from}, scans at {survivors}")
                        }
                        _ => {}
                    }
                    last = route;
                }
            }
        }
    }

    #[test]
    fn the_route_reads_only_survivors_rows_and_graph_parameters() {
        // the same (S, n, params) is priced the same whatever else the
        // join is configured with and however often it is asked
        let a = IndexJoin::new(test_config());
        let b = IndexJoin::new(test_config().with_range_probe_k(1));
        for rows in [10, 4_000, 250_000] {
            for survivors in [0, 1, rows / 3, rows] {
                let route = a.route(survivors, rows);
                assert_eq!(route, a.route(survivors, rows));
                assert_eq!(route, b.route(survivors, rows));
                assert_eq!((route.survivors, route.rows), (survivors, rows));
            }
        }
        // the search width moves the walk's price, not the scan's
        let wider = IndexJoin::new(IndexJoinConfig {
            params: HnswParams::tiny().with_ef_search(128),
            range_probe_k: 8,
        });
        let (narrow, wide) = (a.route(3_000, 40_000), wider.route(3_000, 40_000));
        assert_eq!(narrow.scan_ns, wide.scan_ns);
        assert!(narrow.walk_ns < wide.walk_ns);
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
