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
//! * relational **pre-filtering** excludes tuples from the result but not
//!   from the graph traversal, so low selectivities do not reduce probe cost.

use std::time::Instant;

use cej_index::{HnswIndex, HnswParams};
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::Matrix;

use crate::error::CoreError;
use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

use super::check_predicate;

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
    /// # Errors
    /// Propagates index construction errors.
    pub fn build_index(&self, inner: &Matrix) -> Result<HnswIndex> {
        HnswIndex::build(inner.clone(), self.config.params).map_err(CoreError::from)
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
    use crate::join::tensor_join::{TensorJoin, TensorJoinConfig};
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
        let exact = TensorJoin::new(TensorJoinConfig::default())
            .join(&outer_n, &vectors_n, SimilarityPredicate::TopK(3))
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
