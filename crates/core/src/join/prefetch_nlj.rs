//! The prefetch-optimised (vectorised, parallel) nested-loop join.
//!
//! Two optimisations from the paper are combined here:
//!
//! * **Logical** (Section IV-A): every tuple is embedded exactly once before
//!   the pair loop (`(|R| + |S|) · M` model cost instead of `|R| · |S| · M`).
//!   The operator therefore takes embedded, row-normalised matrices: the
//!   caller embeds (and normalises) each side once, and the interpreter
//!   prepares the inner side once for all outer morsels.
//! * **Physical** (Section V-A): the pair loop runs data-parallel over
//!   partitions of the outer relation, dispatches its inner dot products
//!   through a scalar or auto-vectorising kernel (the SIMD / NO-SIMD axis),
//!   and keeps the smaller relation in the inner loop for cache locality
//!   (the classic NLJ heuristic the paper re-validates in Figure 10).

use std::time::Instant;

use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_vector::{Kernel, Matrix, TopK};

use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

use super::{check_joinable, check_predicate};

/// Configuration of the prefetch NLJ operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NljConfig {
    /// Compute kernel (SIMD-style unrolled or scalar).
    pub kernel: Kernel,
    /// Number of worker threads over the outer relation.  Defaults to the
    /// shared execution layer's thread budget (`CEJ_THREADS`, or the
    /// machine's available parallelism).
    pub threads: usize,
}

impl Default for NljConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::Unrolled,
            threads: cej_exec::default_threads(),
        }
    }
}

impl NljConfig {
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
}

/// The prefetch-optimised E-NLJ operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchNlJoin {
    config: NljConfig,
}

impl PrefetchNlJoin {
    /// Creates the operator with the given configuration.
    pub fn new(config: NljConfig) -> Self {
        Self { config }
    }

    /// The operator configuration.
    pub fn config(&self) -> &NljConfig {
        &self.config
    }

    /// Joins two embedded inputs whose rows are **unit-normalised** (so the
    /// cosine similarity is the dot product), one embedding per row.
    ///
    /// Threshold joins keep the smaller relation on the inner loop so its
    /// vectors stay cache-resident across outer iterations; the produced
    /// pairs are swapped back, so offsets always name `(left, right)`.  A
    /// top-k predicate is defined per *left* row, so it never swaps.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::InvalidInput`] for dimension mismatches
    /// or degenerate predicates.
    pub fn join(
        &self,
        left_norm: &Matrix,
        right_norm: &Matrix,
        predicate: SimilarityPredicate,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        check_joinable(left_norm, right_norm)?;
        let start = Instant::now();

        let swap = matches!(predicate, SimilarityPredicate::Threshold(_))
            && right_norm.rows() > left_norm.rows();
        let (outer, inner) = if swap {
            (right_norm, left_norm)
        } else {
            (left_norm, right_norm)
        };
        let mut pairs = self.pairwise_loop(outer, inner, predicate);
        if swap {
            for p in &mut pairs {
                std::mem::swap(&mut p.left, &mut p.right);
            }
        }

        let stats = JoinStats {
            pairs_compared: left_norm.rows() as u64 * right_norm.rows() as u64,
            peak_buffer_bytes: pairs.len() * std::mem::size_of::<JoinPair>(),
            elapsed: start.elapsed(),
            ..JoinStats::default()
        };
        Ok(JoinResult { pairs, stats })
    }

    /// The parallel pair-wise loop.  For top-k predicates the loop order is
    /// never swapped (see [`PrefetchNlJoin::join`]), so `outer` rows are
    /// left rows.
    ///
    /// Outer rows are chunked onto the shared worker pool; chunk results are
    /// concatenated in row order, so the produced pair order is identical
    /// for every thread count.
    fn pairwise_loop(
        &self,
        outer: &Matrix,
        inner: &Matrix,
        predicate: SimilarityPredicate,
    ) -> Vec<JoinPair> {
        let kernel = self.config.kernel;
        let pool = ExecPool::new(self.config.threads);
        pool.parallel_chunks(outer.rows(), |rows| {
            Self::pairwise_range(outer, inner, rows.start, rows.end, predicate, kernel)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn pairwise_range(
        outer: &Matrix,
        inner: &Matrix,
        start: usize,
        end: usize,
        predicate: SimilarityPredicate,
        kernel: Kernel,
    ) -> Vec<JoinPair> {
        let mut pairs = Vec::new();
        for i in start..end {
            let outer_row = outer.row(i).expect("outer row in range");
            match predicate {
                SimilarityPredicate::Threshold(t) => {
                    for j in 0..inner.rows() {
                        let score = kernel.dot(outer_row, inner.row(j).expect("inner row"));
                        if score >= t {
                            pairs.push(JoinPair::new(i, j, score));
                        }
                    }
                }
                SimilarityPredicate::TopK(k) => {
                    let mut topk = TopK::new(k);
                    for j in 0..inner.rows() {
                        let score = kernel.dot(outer_row, inner.row(j).expect("inner row"));
                        topk.push(j, score);
                    }
                    for entry in topk.into_sorted() {
                        pairs.push(JoinPair::new(i, entry.id, entry.score));
                    }
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::tests::{run_string_join, string_pairs};
    use crate::session::JoinStrategy;
    use cej_workload::uniform_matrix;

    #[test]
    fn matches_naive_join_output() {
        let left = ["barbecue", "database", "laptop"];
        let right = ["barbecues", "databases", "laptops", "barbecue"];
        let predicate = SimilarityPredicate::Threshold(0.7);
        let naive = run_string_join(JoinStrategy::NaiveNlj, &left, &right, predicate);
        let prefetch = run_string_join(
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            &left,
            &right,
            predicate,
        );
        assert_eq!(string_pairs(&naive.table), string_pairs(&prefetch.table));
        assert!(naive.table.num_rows() > 0);
    }

    #[test]
    fn model_call_count_is_linear() {
        let report = run_string_join(
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            &["a", "b", "c"],
            &["x", "y"],
            SimilarityPredicate::Threshold(0.5),
        );
        assert_eq!(report.embedding_stats.model_calls, 5);
        assert_eq!(report.join_stats.model_calls, 5);
    }

    #[test]
    fn scalar_and_simd_kernels_agree() {
        let left = uniform_matrix(20, 32, 1, true);
        let right = uniform_matrix(30, 32, 2, true);
        let simd = PrefetchNlJoin::new(NljConfig::default().with_kernel(Kernel::Unrolled))
            .join(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        let scalar = PrefetchNlJoin::new(NljConfig::default().with_kernel(Kernel::Scalar))
            .join(&left, &right, SimilarityPredicate::Threshold(0.2))
            .unwrap();
        assert_eq!(simd.pair_indices(), scalar.pair_indices());
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let left = uniform_matrix(37, 16, 3, true);
        let right = uniform_matrix(23, 16, 4, true);
        let single = PrefetchNlJoin::new(NljConfig::default().with_threads(1))
            .join(&left, &right, SimilarityPredicate::Threshold(0.1))
            .unwrap();
        let multi = PrefetchNlJoin::new(NljConfig::default().with_threads(4))
            .join(&left, &right, SimilarityPredicate::Threshold(0.1))
            .unwrap();
        assert_eq!(single.pair_indices(), multi.pair_indices());
    }

    #[test]
    fn topk_returns_k_pairs_per_left_row() {
        // the right side is the larger one: a swapped loop order would
        // return k pairs per *right* row
        let left = uniform_matrix(5, 16, 7, true);
        let right = uniform_matrix(40, 16, 8, true);
        let k = 3;
        let result = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, SimilarityPredicate::TopK(k))
            .unwrap();
        assert_eq!(result.len(), 5 * k);
        for l in 0..5 {
            let count = result.pairs.iter().filter(|p| p.left == l).count();
            assert_eq!(count, k);
        }
        // scores of the kept pairs must be the true maxima
        let all_scores: Vec<f32> = (0..right.rows())
            .map(|j| Kernel::Unrolled.dot(left.row(0).unwrap(), right.row(j).unwrap()))
            .collect();
        let mut sorted = all_scores.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let kept: Vec<f32> = result
            .pairs
            .iter()
            .filter(|p| p.left == 0)
            .map(|p| p.score)
            .collect();
        for score in kept {
            assert!(score >= sorted[k - 1] - 1e-5);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let left = uniform_matrix(2, 8, 1, true);
        let right = uniform_matrix(2, 16, 1, true);
        assert!(PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(0.5))
            .is_err());
    }

    #[test]
    fn stats_are_populated() {
        let left = uniform_matrix(2, 8, 9, true);
        let right = uniform_matrix(1, 8, 10, true);
        let result = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(-1.5))
            .unwrap();
        // the operator never calls the model: its inputs are embedded
        assert_eq!(result.stats.model_calls, 0);
        assert_eq!(result.stats.pairs_compared, 2);
        assert_eq!(
            result.stats.peak_buffer_bytes,
            2 * std::mem::size_of::<JoinPair>()
        );
        assert!(result.stats.elapsed.as_nanos() > 0);
    }
}
