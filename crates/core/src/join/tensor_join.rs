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
//! Relational pre-filtering happens *before* the operator: the interpreter
//! hands it only the selected rows of either side — the advantage scans
//! have over index probes in the paper's access-path comparison.

use std::time::Instant;

use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_vector::{
    gemm::block_into_with_pool, topk::scan_at_least, BufferBudget, GemmConfig, Kernel, Matrix, TopK,
};

use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

use super::{check_joinable, check_predicate};

/// Configuration of the tensor join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorJoinConfig {
    /// Compute kernel for the tiled GEMM (64 × 64 tiles, the GEMM's own
    /// default shape).
    pub kernel: Kernel,
    /// Worker threads (parallel over outer-row blocks).  Defaults to the
    /// shared execution layer's thread budget (`CEJ_THREADS`, or the
    /// machine's available parallelism).
    pub threads: usize,
    /// Buffer budget for the intermediate score block.
    pub budget: BufferBudget,
}

impl Default for TensorJoinConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::Unrolled,
            threads: cej_exec::default_threads(),
            budget: BufferBudget::from_mib(64),
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

    /// Joins two embedded inputs whose rows are **unit-normalised** (so the
    /// cosine similarity is the dot product).
    ///
    /// The interpreter normalises the inner side once and every outer morsel
    /// reuses it.  Pair offsets refer to the row numbering of the given
    /// matrices, and `peak_buffer_bytes` is the score block — the operator's
    /// own intermediate state, not its inputs.
    ///
    /// # Errors
    /// Returns [`crate::error::CoreError::InvalidInput`] for dimension
    /// mismatches or degenerate predicates.
    pub fn join(
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
        } else {
            self.blocked_join(left_norm, right_norm, predicate, &mut stats)
        };
        stats.elapsed = start.elapsed();
        Ok(JoinResult { pairs, stats })
    }

    /// Mini-batched blocked join: both inputs are partitioned along tuple
    /// boundaries so each score block fits the buffer budget.
    fn blocked_join(
        &self,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        stats: &mut JoinStats,
    ) -> Vec<JoinPair> {
        let (outer_batch, inner_batch) = self.config.budget.batch_shape(left.rows(), right.rows());
        let dim = left.cols();
        let gemm = GemmConfig::with_kernel(self.config.kernel);

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
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::prefetch_nlj::{NljConfig, PrefetchNlJoin};
    use crate::join::tests::{run_string_join, string_pairs};
    use crate::session::JoinStrategy;
    use cej_workload::uniform_matrix;

    #[test]
    fn matches_prefetch_nlj_threshold() {
        let left = uniform_matrix(25, 24, 1, true);
        let right = uniform_matrix(33, 24, 2, true);
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        let tensor = TensorJoin::new(TensorJoinConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn matches_prefetch_nlj_topk() {
        let left = uniform_matrix(10, 16, 3, true);
        let right = uniform_matrix(50, 16, 4, true);
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, SimilarityPredicate::TopK(5))
            .unwrap();
        let tensor = TensorJoin::new(TensorJoinConfig::default())
            .join(&left, &right, SimilarityPredicate::TopK(5))
            .unwrap();
        assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn mini_batching_does_not_change_results() {
        let left = uniform_matrix(40, 16, 5, true);
        let right = uniform_matrix(60, 16, 6, true);
        let unbatched =
            TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::unlimited()))
                .join(&left, &right, SimilarityPredicate::Threshold(0.1))
                .unwrap();
        let batched = TensorJoin::new(
            TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 128)),
        )
        .join(&left, &right, SimilarityPredicate::Threshold(0.1))
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
                .join(&left, &right, SimilarityPredicate::TopK(3))
                .unwrap();
        let batched = TensorJoin::new(
            TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 64)),
        )
        .join(&left, &right, SimilarityPredicate::TopK(3))
        .unwrap();
        assert_eq!(unbatched.pair_indices(), batched.pair_indices());
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let left = uniform_matrix(64, 16, 11, true);
        let right = uniform_matrix(48, 16, 12, true);
        let single = TensorJoin::new(TensorJoinConfig::default().with_threads(1))
            .join(&left, &right, SimilarityPredicate::Threshold(0.1))
            .unwrap();
        let multi = TensorJoin::new(TensorJoinConfig::default().with_threads(4))
            .join(&left, &right, SimilarityPredicate::Threshold(0.1))
            .unwrap();
        assert_eq!(single.pair_indices(), multi.pair_indices());
    }

    #[test]
    fn prefilters_restrict_and_remap_offsets() {
        // a pre-filter reaches the operator as the selected rows only; the
        // caller maps the pair offsets back through its selection
        let left = uniform_matrix(10, 16, 13, true);
        let right = uniform_matrix(10, 16, 14, true);
        let (left_sel, right_sel) = ([2u32, 5, 7], [0u32, 9]);
        let join = TensorJoin::new(TensorJoinConfig::default());
        let everything = SimilarityPredicate::Threshold(-1.5);
        let result = join
            .join(
                &left.gather_rows(&left_sel).unwrap(),
                &right.gather_rows(&right_sel).unwrap(),
                everything,
            )
            .unwrap();
        // only the selected pairs are scored ...
        assert_eq!(result.len(), 3 * 2);
        assert_eq!(result.stats.pairs_compared, 6);
        // ... and, remapped, they are the unfiltered join's selected pairs
        let remapped: Vec<JoinPair> = result
            .sorted_pairs()
            .iter()
            .map(|p| {
                let (l, r) = (left_sel[p.left], right_sel[p.right]);
                JoinPair::new(l as usize, r as usize, p.score)
            })
            .collect();
        let expected: Vec<JoinPair> = join
            .join(&left, &right, everything)
            .unwrap()
            .sorted_pairs()
            .into_iter()
            .filter(|p| {
                left_sel.contains(&(p.left as u32)) && right_sel.contains(&(p.right as u32))
            })
            .collect();
        assert_eq!(remapped, expected);
    }

    #[test]
    fn empty_filter_produces_empty_result() {
        // a side whose filter selects nothing reaches the join as no rows
        let left = uniform_matrix(5, 8, 15, true).gather_rows(&[]).unwrap();
        let right = uniform_matrix(5, 8, 16, true);
        let result = TensorJoin::new(TensorJoinConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(0.0))
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.pairs_compared, 0);
        assert_eq!(result.stats.blocks_computed, 0);
    }

    #[test]
    fn string_join_counts_linear_model_calls() {
        let report = run_string_join(
            JoinStrategy::Tensor(TensorJoinConfig::default()),
            &["barbecue", "database"],
            &["barbecues", "databases", "laptop"],
            SimilarityPredicate::Threshold(0.5),
        );
        assert_eq!(report.embedding_stats.model_calls, 5);
        assert_eq!(report.join_stats.model_calls, 5);
        // semantically matching pairs were found
        let pairs = string_pairs(&report.table);
        assert!(pairs.contains(&("barbecue".into(), "barbecues".into())));
        assert!(pairs.contains(&("database".into(), "databases".into())));
    }

    #[test]
    fn scalar_kernel_agrees_with_unrolled() {
        let left = uniform_matrix(15, 32, 19, true);
        let right = uniform_matrix(17, 32, 20, true);
        let a = TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Scalar))
            .join(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        let b = TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Unrolled))
            .join(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        assert_eq!(a.pair_indices(), b.pair_indices());
    }

    #[test]
    fn outer_row_slices_match_one_whole_call_bit_for_bit() {
        // the interpreter scores every outer morsel against the same inner
        // side and shifts the offsets: the concatenation must be the whole
        // call's pairs, scores included, to the last bit
        let left = uniform_matrix(23, 16, 23, true);
        let right = uniform_matrix(31, 16, 24, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        for predicate in [
            SimilarityPredicate::Threshold(0.2),
            SimilarityPredicate::TopK(4),
        ] {
            let whole = join.join(&left, &right, predicate).unwrap();
            let mut sliced = Vec::new();
            for start in (0..left.rows()).step_by(7) {
                let end = (start + 7).min(left.rows());
                let part = join
                    .join(&left.row_slice(start, end).unwrap(), &right, predicate)
                    .unwrap();
                sliced.extend(
                    part.pairs
                        .iter()
                        .map(|p| JoinPair::new(start + p.left, p.right, p.score)),
                );
            }
            let sliced = JoinResult {
                pairs: sliced,
                stats: JoinStats::default(),
            };
            assert_eq!(whole.sorted_pairs(), sliced.sorted_pairs());
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let left = uniform_matrix(4, 8, 21, true);
        let right = uniform_matrix(4, 12, 22, true);
        assert!(TensorJoin::new(TensorJoinConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(0.5))
            .is_err());
    }
}
