//! The tensor (block-matrix) formulation of the context-enhanced join.
//!
//! Instead of comparing vectors pair by pair, both inputs are materialised as
//! matrices (one embedding per row, normalised so cosine = dot product) and
//! the score matrix `D = R · Sᵀ` is computed block-wise with the tiled GEMM
//! kernel of `cej-vector` (paper Section IV-C, Figure 6).  Mini-batching
//! along tuple boundaries bounds the intermediate-state memory to a
//! caller-supplied buffer budget (Section V-B, Figure 7 / Figure 13): the
//! full `|R| × |S|` matrix is never materialised unless the budget allows it.
//!
//! Relational pre-filtering is applied *before* the matrix computation by
//! compacting the selected rows — the advantage scans have over index probes
//! in the paper's access-path comparison.

use std::time::Instant;

use cej_embedding::Embedder;
use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::{
    gemm::{block_into, block_into_with_pool},
    norm::normalize_matrix_rows_with,
    topk::scan_at_least,
    BufferBudget, GemmConfig, Kernel, Matrix, TopK,
};

use crate::error::CoreError;
use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

use super::{check_joinable, check_predicate, embed_all};

/// Configuration of the tensor join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorJoinConfig {
    /// Compute kernel for the tiled GEMM.
    pub kernel: Kernel,
    /// Worker threads (parallel over outer-row blocks).  Defaults to the
    /// shared execution layer's thread budget (`CEJ_THREADS`, or the
    /// machine's available parallelism).
    pub threads: usize,
    /// Buffer budget for the intermediate score block.
    pub budget: BufferBudget,
    /// GEMM tile shape.
    pub tile_rows: usize,
    /// GEMM tile shape.
    pub tile_cols: usize,
    /// When `false`, the inner relation is processed one vector at a time
    /// instead of as a batched matrix (the "Tensor-Non-Batched" configuration
    /// of Figure 12).
    pub batch_inner: bool,
}

impl Default for TensorJoinConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::Unrolled,
            threads: cej_exec::default_threads(),
            budget: BufferBudget::from_mib(64),
            tile_rows: 64,
            tile_cols: 64,
            batch_inner: true,
        }
    }
}

impl TensorJoinConfig {
    /// Sets the kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the buffer budget for the intermediate score state.
    pub fn with_budget(mut self, budget: BufferBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Disables inner-relation batching (Figure 12's non-batched variant).
    pub fn without_inner_batching(mut self) -> Self {
        self.batch_inner = false;
        self
    }

    fn gemm(&self) -> GemmConfig {
        GemmConfig {
            kernel: self.kernel,
            tile_rows: self.tile_rows,
            tile_cols: self.tile_cols,
            threads: 1,
        }
    }
}

/// The tensor join operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct TensorJoin {
    config: TensorJoinConfig,
}

impl TensorJoin {
    /// Creates the operator with the given configuration.
    pub fn new(config: TensorJoinConfig) -> Self {
        Self { config }
    }

    /// The operator configuration.
    pub fn config(&self) -> &TensorJoinConfig {
        &self.config
    }

    /// Joins two string inputs: prefetch-embeds both sides, then runs the
    /// blocked matrix join.
    ///
    /// # Errors
    /// Propagates embedding, predicate, and shape errors.
    pub fn join(
        &self,
        model: &dyn Embedder,
        left: &[String],
        right: &[String],
        predicate: SimilarityPredicate,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        let start = Instant::now();
        let left_matrix = embed_all(model, left)?;
        let right_matrix = embed_all(model, right)?;
        let mut result = self.join_matrices(&left_matrix, &right_matrix, predicate)?;
        result.stats.model_calls = (left.len() + right.len()) as u64;
        result.stats.elapsed = start.elapsed();
        Ok(result)
    }

    /// Joins two already-embedded inputs.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidInput`] for dimension mismatches.
    pub fn join_matrices(
        &self,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
    ) -> Result<JoinResult> {
        self.join_matrices_filtered(left, right, predicate, None, None)
    }

    /// Joins two already-embedded inputs with optional relational
    /// pre-filters.  Returned pair offsets refer to the *original*
    /// (unfiltered) row numbering of each input.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidInput`] for dimension or filter-length
    /// mismatches.
    pub fn join_matrices_filtered(
        &self,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        left_filter: Option<&SelectionBitmap>,
        right_filter: Option<&SelectionBitmap>,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        check_joinable(left, right)?;
        let start = Instant::now();

        // Pre-filtering: compact the selected rows before any vector work.
        // The compacted copies are also what gets normalised in place.
        let (mut left_norm, left_map) = Self::compact(left, left_filter)?;
        let (mut right_norm, right_map) = Self::compact(right, right_filter)?;
        let kernel = self.config.kernel;
        normalize_matrix_rows_with(&mut left_norm, kernel);
        normalize_matrix_rows_with(&mut right_norm, kernel);

        let mut stats = JoinStats {
            pairs_compared: left_norm.rows() as u64 * right_norm.rows() as u64,
            ..JoinStats::default()
        };

        let mut pairs = if left_norm.rows() == 0 || right_norm.rows() == 0 {
            Vec::new()
        } else if self.config.batch_inner {
            self.blocked_join(&left_norm, &right_norm, predicate, &mut stats)?
        } else {
            self.non_batched_join(&left_norm, &right_norm, predicate, &mut stats)
        };

        // Map compacted offsets back to original row numbers; an unfiltered
        // side already has them.
        if let Some(map) = &left_map {
            pairs.iter_mut().for_each(|p| p.left = map[p.left]);
        }
        if let Some(map) = &right_map {
            pairs.iter_mut().for_each(|p| p.right = map[p.right]);
        }

        stats.peak_buffer_bytes += left_norm.bytes() + right_norm.bytes();
        stats.elapsed = start.elapsed();
        Ok(JoinResult { pairs, stats })
    }

    /// Joins two inputs that are already embedded **and row-normalised**,
    /// skipping the compaction and normalisation passes of
    /// [`TensorJoin::join_matrices_filtered`].
    ///
    /// This is the vectorised executor's per-batch entry point: the inner
    /// side is normalised once, then every probe batch reuses it directly.
    /// Pair offsets refer to the row numbering of the given matrices, and the
    /// returned `peak_buffer_bytes` covers only the score block (the caller
    /// owns the normalised inputs and accounts for them once).
    ///
    /// # Errors
    /// Returns [`crate::error::CoreError::InvalidInput`] for dimension
    /// mismatches or degenerate predicates.
    pub fn join_prenormalized(
        &self,
        left_norm: &Matrix,
        right_norm: &Matrix,
        predicate: SimilarityPredicate,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        check_joinable(left_norm, right_norm)?;
        let start = Instant::now();
        let mut stats = JoinStats {
            pairs_compared: left_norm.rows() as u64 * right_norm.rows() as u64,
            ..JoinStats::default()
        };
        let pairs = if left_norm.rows() == 0 || right_norm.rows() == 0 {
            Vec::new()
        } else if self.config.batch_inner {
            self.blocked_join(left_norm, right_norm, predicate, &mut stats)?
        } else {
            self.non_batched_join(left_norm, right_norm, predicate, &mut stats)
        };
        stats.elapsed = start.elapsed();
        Ok(JoinResult { pairs, stats })
    }

    /// Copies the selected rows of `m`, returning the compacted matrix and
    /// the mapping from compacted offset to original row — `None` without a
    /// filter, when the two coincide.
    fn compact(
        m: &Matrix,
        filter: Option<&SelectionBitmap>,
    ) -> Result<(Matrix, Option<Vec<usize>>)> {
        match filter {
            None => Ok((m.clone(), None)),
            Some(f) => {
                if f.len() != m.rows() {
                    return Err(CoreError::InvalidInput(format!(
                        "filter length {} does not match input rows {}",
                        f.len(),
                        m.rows()
                    )));
                }
                let map: Vec<usize> = f.iter_selected().collect();
                let lanes: Vec<u32> = map.iter().map(|&i| i as u32).collect();
                let out = m
                    .gather_rows(&lanes)
                    .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
                Ok((out, Some(map)))
            }
        }
    }

    /// Mini-batched blocked join: both inputs are partitioned along tuple
    /// boundaries so each score block fits the buffer budget.
    fn blocked_join(
        &self,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        stats: &mut JoinStats,
    ) -> Result<Vec<JoinPair>> {
        let (outer_batch, inner_batch) = self.config.budget.batch_shape(left.rows(), right.rows());
        let dim = left.cols();
        let gemm = self.config.gemm();

        // Per-left-row top-k state (threshold joins collect directly).
        let mut topk_state: Option<Vec<TopK>> = match predicate {
            SimilarityPredicate::TopK(k) => Some((0..left.rows()).map(|_| TopK::new(k)).collect()),
            SimilarityPredicate::Threshold(_) => None,
        };
        let mut pairs: Vec<JoinPair> = Vec::new();

        let block_cells = outer_batch * inner_batch;
        stats.peak_buffer_bytes = BufferBudget::block_bytes(outer_batch, inner_batch);

        let pool = ExecPool::new(self.config.threads);
        let mut scores = vec![0.0f32; block_cells];

        let mut l_start = 0usize;
        while l_start < left.rows() {
            let l_end = (l_start + outer_batch).min(left.rows());
            let l_rows = l_end - l_start;
            let l_block = left
                .rows_as_slice(l_start, l_end)
                .expect("left block in range");
            let mut r_start = 0usize;
            while r_start < right.rows() {
                let r_end = (r_start + inner_batch).min(right.rows());
                let r_rows = r_end - r_start;
                let r_block = right
                    .rows_as_slice(r_start, r_end)
                    .expect("right block in range");
                let out = &mut scores[..l_rows * r_rows];

                block_into_with_pool(l_block, r_block, l_rows, r_rows, dim, &gemm, &pool, out);
                stats.blocks_computed += 1;

                // Harvest the block: either threshold pairs or top-k updates.
                match (&predicate, &mut topk_state) {
                    (SimilarityPredicate::Threshold(t), _) => {
                        for (li, row) in out.chunks_exact(r_rows).enumerate() {
                            scan_at_least(row, *t, |ri, score| {
                                pairs.push(JoinPair::new(l_start + li, r_start + ri, score));
                                *t
                            });
                        }
                    }
                    (SimilarityPredicate::TopK(_), Some(state)) => {
                        for (li, row) in out.chunks_exact(r_rows).enumerate() {
                            state[l_start + li].push_row(r_start, row);
                        }
                    }
                    _ => unreachable!("top-k state exists iff the predicate is top-k"),
                }
                r_start = r_end;
            }
            l_start = l_end;
        }

        if let Some(state) = topk_state {
            for (li, collector) in state.into_iter().enumerate() {
                for entry in collector.into_sorted() {
                    pairs.push(JoinPair::new(li, entry.id, entry.score));
                }
            }
        }
        Ok(pairs)
    }

    /// The non-batched variant of Figure 12: the inner relation is processed
    /// one vector at a time through the same GEMM kernel (degenerate 1-row
    /// blocks), so the only difference from the batched variant is the lost
    /// reuse of the inner block.
    fn non_batched_join(
        &self,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        stats: &mut JoinStats,
    ) -> Vec<JoinPair> {
        let gemm = self.config.gemm();
        let dim = left.cols();
        let mut scores = vec![0.0f32; left.rows()];
        stats.peak_buffer_bytes = scores.len() * std::mem::size_of::<f32>();
        let mut topk_state: Option<Vec<TopK>> = match predicate {
            SimilarityPredicate::TopK(k) => Some((0..left.rows()).map(|_| TopK::new(k)).collect()),
            SimilarityPredicate::Threshold(_) => None,
        };
        let mut pairs = Vec::new();
        let l_block = left.rows_as_slice(0, left.rows()).expect("full left");
        for j in 0..right.rows() {
            let r_row = right.row(j).expect("right row");
            block_into(l_block, r_row, left.rows(), 1, dim, &gemm, &mut scores);
            stats.blocks_computed += 1;
            match (&predicate, &mut topk_state) {
                (SimilarityPredicate::Threshold(t), _) => {
                    scan_at_least(&scores, *t, |i, score| {
                        pairs.push(JoinPair::new(i, j, score));
                        *t
                    });
                }
                (SimilarityPredicate::TopK(_), Some(state)) => {
                    for (i, &score) in scores.iter().enumerate() {
                        state[i].push(j, score);
                    }
                }
                _ => unreachable!(),
            }
        }
        if let Some(state) = topk_state {
            for (li, collector) in state.into_iter().enumerate() {
                for entry in collector.into_sorted() {
                    pairs.push(JoinPair::new(li, entry.id, entry.score));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::prefetch_nlj::{NljConfig, PrefetchNlJoin};
    use cej_embedding::{CachedEmbedder, FastTextConfig, FastTextModel};
    use cej_workload::uniform_matrix;

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn matches_prefetch_nlj_threshold() {
        let left = uniform_matrix(25, 24, 1, true);
        let right = uniform_matrix(33, 24, 2, true);
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        let tensor = TensorJoin::new(TensorJoinConfig::default())
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn matches_prefetch_nlj_topk() {
        let left = uniform_matrix(10, 16, 3, true);
        let right = uniform_matrix(50, 16, 4, true);
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join_matrices(&left, &right, SimilarityPredicate::TopK(5))
            .unwrap();
        let tensor = TensorJoin::new(TensorJoinConfig::default())
            .join_matrices(&left, &right, SimilarityPredicate::TopK(5))
            .unwrap();
        assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn mini_batching_does_not_change_results() {
        let left = uniform_matrix(40, 16, 5, true);
        let right = uniform_matrix(60, 16, 6, true);
        let unbatched =
            TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::unlimited()))
                .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.1))
                .unwrap();
        let batched = TensorJoin::new(
            TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 128)),
        )
        .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.1))
        .unwrap();
        assert_eq!(unbatched.pair_indices(), batched.pair_indices());
        assert!(batched.stats.blocks_computed > unbatched.stats.blocks_computed);
        assert!(batched.stats.peak_buffer_bytes < unbatched.stats.peak_buffer_bytes);
    }

    #[test]
    fn mini_batching_with_topk_is_correct() {
        let left = uniform_matrix(12, 16, 7, true);
        let right = uniform_matrix(45, 16, 8, true);
        let unbatched =
            TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::unlimited()))
                .join_matrices(&left, &right, SimilarityPredicate::TopK(3))
                .unwrap();
        let batched = TensorJoin::new(
            TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 64)),
        )
        .join_matrices(&left, &right, SimilarityPredicate::TopK(3))
        .unwrap();
        assert_eq!(unbatched.pair_indices(), batched.pair_indices());
    }

    #[test]
    fn non_batched_variant_is_correct_but_does_more_blocks() {
        let left = uniform_matrix(20, 16, 9, true);
        let right = uniform_matrix(30, 16, 10, true);
        let batched = TensorJoin::new(TensorJoinConfig::default())
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.15))
            .unwrap();
        let non_batched = TensorJoin::new(TensorJoinConfig::default().without_inner_batching())
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.15))
            .unwrap();
        assert_eq!(batched.pair_indices(), non_batched.pair_indices());
        assert!(non_batched.stats.blocks_computed > batched.stats.blocks_computed);
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let left = uniform_matrix(64, 16, 11, true);
        let right = uniform_matrix(48, 16, 12, true);
        let single = TensorJoin::new(TensorJoinConfig::default().with_threads(1))
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.1))
            .unwrap();
        let multi = TensorJoin::new(TensorJoinConfig::default().with_threads(4))
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.1))
            .unwrap();
        assert_eq!(single.pair_indices(), multi.pair_indices());
    }

    #[test]
    fn prefilters_restrict_and_remap_offsets() {
        let left = uniform_matrix(10, 16, 13, true);
        let right = uniform_matrix(10, 16, 14, true);
        let left_filter = SelectionBitmap::from_indices(10, &[2, 5, 7]);
        let right_filter = SelectionBitmap::from_indices(10, &[0, 9]);
        let result = TensorJoin::new(TensorJoinConfig::default())
            .join_matrices_filtered(
                &left,
                &right,
                SimilarityPredicate::Threshold(-1.0),
                Some(&left_filter),
                Some(&right_filter),
            )
            .unwrap();
        // every selected pair matches at threshold -1
        assert_eq!(result.len(), 3 * 2);
        for p in &result.pairs {
            assert!([2, 5, 7].contains(&p.left));
            assert!([0, 9].contains(&p.right));
        }
        assert_eq!(result.stats.pairs_compared, 6);
    }

    #[test]
    fn empty_filter_produces_empty_result() {
        let left = uniform_matrix(5, 8, 15, true);
        let right = uniform_matrix(5, 8, 16, true);
        let none = SelectionBitmap::none(5);
        let result = TensorJoin::new(TensorJoinConfig::default())
            .join_matrices_filtered(
                &left,
                &right,
                SimilarityPredicate::Threshold(0.0),
                Some(&none),
                None,
            )
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.pairs_compared, 0);
    }

    #[test]
    fn filter_length_mismatch_rejected() {
        let left = uniform_matrix(5, 8, 17, true);
        let right = uniform_matrix(5, 8, 18, true);
        let bad = SelectionBitmap::all(3);
        assert!(TensorJoin::new(TensorJoinConfig::default())
            .join_matrices_filtered(
                &left,
                &right,
                SimilarityPredicate::Threshold(0.0),
                Some(&bad),
                None
            )
            .is_err());
    }

    #[test]
    fn string_join_counts_linear_model_calls() {
        let counted = CachedEmbedder::new(model());
        let left = strings(&["barbecue", "database"]);
        let right = strings(&["barbecues", "databases", "laptop"]);
        let result = TensorJoin::new(TensorJoinConfig::default())
            .join(&counted, &left, &right, SimilarityPredicate::Threshold(0.5))
            .unwrap();
        assert_eq!(counted.stats().model_calls, 5);
        assert_eq!(result.stats.model_calls, 5);
        // semantically matching pairs were found
        assert!(result.pair_indices().contains(&(0, 0)));
        assert!(result.pair_indices().contains(&(1, 1)));
    }

    #[test]
    fn scalar_kernel_agrees_with_unrolled() {
        let left = uniform_matrix(15, 32, 19, true);
        let right = uniform_matrix(17, 32, 20, true);
        let a = TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Scalar))
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        let b = TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Unrolled))
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        assert_eq!(a.pair_indices(), b.pair_indices());
    }

    #[test]
    fn prenormalized_entry_point_matches_full_path_bit_for_bit() {
        let left = uniform_matrix(23, 16, 23, true);
        let right = uniform_matrix(31, 16, 24, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        for predicate in [
            SimilarityPredicate::Threshold(0.2),
            SimilarityPredicate::TopK(4),
        ] {
            let full = join.join_matrices(&left, &right, predicate).unwrap();
            let mut left_norm = left.clone();
            let mut right_norm = right.clone();
            normalize_matrix_rows_with(&mut left_norm, join.config().kernel);
            normalize_matrix_rows_with(&mut right_norm, join.config().kernel);
            let pre = join
                .join_prenormalized(&left_norm, &right_norm, predicate)
                .unwrap();
            // same pairs, same scores, bit for bit
            assert_eq!(full.pairs, pre.pairs);
            assert_eq!(full.stats.pairs_compared, pre.stats.pairs_compared);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let left = uniform_matrix(4, 8, 21, true);
        let right = uniform_matrix(4, 12, 22, true);
        assert!(TensorJoin::new(TensorJoinConfig::default())
            .join_matrices(&left, &right, SimilarityPredicate::Threshold(0.5))
            .is_err());
    }
}
