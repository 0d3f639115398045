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
//!
//! # The int8 screen
//!
//! Nearly every pair of a selective join fails its predicate, so on a CPU
//! with AVX-512 VNNI the block is first filled with *approximate* scores
//! ([`cej_vector::sq8`]: both sides quantised to int8 per row, the inner
//! side once per call, each outer morsel per call) and only pairs that can
//! qualify get an fp32 score.  Each outer row `a` carries a proven bound
//! `ε_a ≥ |fp32 score − approx|` against every inner row, so:
//!
//! * a threshold `t` rescores the pairs with `approx ≥ t − ε_a`;
//! * top-k rescores the pairs with `approx ≥ τ − 2ε_a`, `τ` a value `k`
//!   pairs of the block row reach — for `k ≤ 16` the k-th largest of the 16
//!   lane maxima the screen reports with the block, above that the row's
//!   k-th best approximation — and, once the row's collector is full, with
//!   `approx ≥ kth − ε_a`, `kth` its k-th best exact score.
//!
//! A pair left out scores strictly below a value `k` pairs reach (or below
//! `t`), so it could never be returned.  Every rescored pair gets
//! [`dot_lanes`]`::<8>` — the bits the GEMM writes for it — and goes
//! through the block path's harvest in ascending inner order: the pairs,
//! their score bits and the tie order are the fp32 block path's.
//! [`JoinStats::pairs_rescored`] counts the exact scores computed.  The
//! screen runs only with the `Unrolled` kernel, above a measured crossover
//! (`SCREEN_MIN_OUTER_ROWS`), for predicates that do not admit every pair,
//! and on finite rows in its magnitude range; otherwise the fp32 block path
//! runs exactly as it did without a screen.

use std::ops::Range;
use std::time::Instant;

use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_vector::{
    dot_lanes,
    gemm::block_into_with_pool,
    sq8::{LaneMaxima, PANEL_ROWS},
    topk::scan_at_least,
    BufferBudget, GemmConfig, Kernel, Matrix, Screen, Sq8Inner, Sq8Outer, TopK,
};

use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

use super::{check_joinable, check_predicate};

/// Outer rows a join call needs before the int8 screen runs.
///
/// The screen quantises the whole inner side on every call (≈ 30–35 ns per
/// 64-dim row on an idle core, straight into the kernel's panels) before it
/// saves anything, so it pays off only over enough outer rows.  Screened ÷
/// fp32 block time of one `join` call, one thread, unit rows of dim 64, best
/// of 210 (AVX-512 VNNI Xeon, 2 vCPUs):
///
/// | outer rows | 4,000 inner: top-3 / ≥ 0.62 | 19,200 inner: top-3 / ≥ 0.62 |
/// |---|---|---|
/// | 1  | 4.15 / 4.23 | 2.99 / 3.10 |
/// | 8  | 1.23 / 1.23 | 1.35 / 1.27 |
/// | 12 | 1.42 / 1.60 | 1.01 / 0.96 |
/// | 16 | 1.42 / 1.40 | 0.81 / 0.80 |
/// | 24 | 1.09 / 1.13 | 0.70 / 0.62 |
/// | 32 | 0.56 / 0.49 | 0.57 / 0.56 |
/// | 96 | 0.37 / 0.30 | 0.38 / 0.37 |
///
/// Over 19,200 inner rows break-even is now at about 12 rows (it was 16
/// before the quantiser wrote panels directly).  The 4,000-row column's
/// bump at 12–24 rows is the allocator, not the screen: the screen's
/// buffers cross glibc's mmap threshold there and are page-faulted in on
/// every call, and the parent commit shows the same bump.  With the
/// thresholds pinned (`MALLOC_MMAP_THRESHOLD_`, `MALLOC_TRIM_THRESHOLD_`)
/// that column reads 0.91 / 0.87 at 12 rows, 0.75 / 0.74 at 16 and
/// 0.62 / 0.58 at 24.  The constant stays 24: below it a served 16-query
/// `RUN` would execute 512-bit VNNI code it otherwise never runs, a change
/// to be judged on `serve_live`, not here.
const SCREEN_MIN_OUTER_ROWS: usize = 24;

/// Configuration of the tensor join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorJoinConfig {
    /// Compute kernel for the tiled GEMM (64 × 64 tiles, the GEMM's own
    /// default shape).  `Unrolled` also enables the int8 screen where the
    /// CPU has AVX-512 VNNI (module documentation) — same pairs, same score
    /// bits; `Scalar` (the paper's NO-SIMD axis) never screens.
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
    /// own intermediate state, not its inputs.  With the `Unrolled` kernel,
    /// at least `SCREEN_MIN_OUTER_ROWS` outer rows, a predicate that does
    /// not admit every pair and a CPU with AVX-512 VNNI, the int8 screen
    /// decides which pairs get an fp32 score (module documentation); the
    /// result is the same either way.
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
        let screen = self.screen_for(left_norm.rows(), right_norm.rows(), predicate);
        self.join_with(left_norm, right_norm, predicate, screen)
    }

    /// The screen [`TensorJoin::join`] runs for these shapes, if any: never
    /// for the `Scalar` kernel (the paper's NO-SIMD axis), below the
    /// crossover, for a predicate that admits every pair by construction
    /// (top-k with `k` at least the inner rows; a threshold at or below −1,
    /// which every pair of unit rows reaches up to rounding) — a screen
    /// there is paid for and then followed by a full rescore — or on a CPU
    /// without AVX-512 VNNI.
    fn screen_for(
        &self,
        outer_rows: usize,
        inner_rows: usize,
        predicate: SimilarityPredicate,
    ) -> Option<Screen> {
        let admits_every_pair = match predicate {
            SimilarityPredicate::TopK(k) => k >= inner_rows,
            SimilarityPredicate::Threshold(t) => t <= -1.0,
        };
        if self.config.kernel != Kernel::Unrolled
            || outer_rows < SCREEN_MIN_OUTER_ROWS
            || admits_every_pair
        {
            return None;
        }
        Screen::detect()
    }

    /// [`TensorJoin::join`] with the screen chosen by the caller (`None`:
    /// the fp32 block path).  A side with a row the screen cannot bound
    /// (not finite, or out of its magnitude range) takes the block path
    /// whatever is passed.
    fn join_with(
        &self,
        left_norm: &Matrix,
        right_norm: &Matrix,
        predicate: SimilarityPredicate,
        screen: Option<Screen>,
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
            let screened = screen.and_then(|screen| Screened::new(screen, left_norm, right_norm));
            self.blocked_join(left_norm, right_norm, predicate, screened, &mut stats)
        };
        stats.elapsed = start.elapsed();
        Ok(JoinResult { pairs, stats })
    }

    /// Mini-batched blocked join: both inputs are partitioned along tuple
    /// boundaries so each score block fits the buffer budget.  The block
    /// holds fp32 scores, or the screen's approximations when `screened` is
    /// set.
    fn blocked_join(
        &self,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        screened: Option<Screened<'_>>,
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
        // top-k's τ from the screen's lane maxima (k ≤ 16), one entry per
        // outer row of a block
        let mut lane_max: Option<Vec<LaneMaxima>> = match (&screened, predicate) {
            (Some(_), SimilarityPredicate::TopK(k)) if k <= PANEL_ROWS => {
                Some(vec![LaneMaxima::default(); outer_batch])
            }
            _ => None,
        };

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
                let out = &mut scores[..l_rows * r_rows];
                stats.blocks_computed += 1;
                stats.pairs_rescored += if let Some(screened) = &screened {
                    let (rows, columns) = (l_start..l_end, r_start..r_end);
                    let mut lane_max = lane_max.as_mut().map(|m| &mut m[..l_rows]);
                    screened.screen.block_into_with_pool(
                        &screened.outer,
                        rows.clone(),
                        &screened.inner,
                        columns.clone(),
                        &pool,
                        out,
                        lane_max.as_deref_mut(),
                    );
                    match (predicate, &mut topk_state) {
                        (SimilarityPredicate::Threshold(t), _) => {
                            screened.harvest_threshold(rows, columns, out, t, &mut pairs)
                        }
                        (SimilarityPredicate::TopK(k), Some(state)) => {
                            screened.harvest_topk(rows, columns, out, lane_max.as_deref(), k, state)
                        }
                        _ => unreachable!("top-k state exists iff the predicate is top-k"),
                    }
                } else {
                    let r_block = right
                        .rows_as_slice(r_start, r_end)
                        .expect("right block in range");
                    block_into_with_pool(l_block, r_block, l_rows, r_rows, dim, &gemm, &pool, out);
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
                    (l_rows * r_rows) as u64
                };
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

/// The int8 screen of one join call: both sides quantised (the inner side
/// once per call, whatever the budget's blocks), each outer row's error
/// bound, and the fp32 rows candidates are rescored from.
struct Screened<'a> {
    screen: Screen,
    outer: Sq8Outer,
    inner: Sq8Inner,
    /// `ε` per outer row: `|fp32 score − approx| ≤ ε` against every inner row.
    bounds: Vec<f32>,
    left: &'a Matrix,
    right: &'a Matrix,
}

impl<'a> Screened<'a> {
    /// `None` when either side has a row the screen cannot bound.
    fn new(screen: Screen, left: &'a Matrix, right: &'a Matrix) -> Option<Self> {
        let outer = Sq8Outer::quantize(left.as_slice(), left.rows(), left.cols())?;
        let inner = Sq8Inner::quantize(right.as_slice(), right.rows(), right.cols())?;
        let bounds = (0..left.rows())
            .map(|row| outer.error_bound(row, &inner))
            .collect();
        Some(Self {
            screen,
            outer,
            inner,
            bounds,
            left,
            right,
        })
    }

    /// The fp32 score of a pair: the bits the GEMM writes for it.
    fn rescore(&self, l: usize, r: usize) -> f32 {
        let dim = self.left.cols();
        let (left, right) = (self.left.as_slice(), self.right.as_slice());
        dot_lanes::<8>(
            &left[l * dim..(l + 1) * dim],
            &right[r * dim..(r + 1) * dim],
        )
    }

    /// Threshold harvest of a screened block (`approx`, one row per outer
    /// row of `rows`): a pair can reach `t` only if `approx ≥ t − ε`, and
    /// those are rescored and kept if their score reaches `t` — in the
    /// ascending inner order the block path pushes them.  Returns the
    /// number rescored.
    fn harvest_threshold(
        &self,
        rows: Range<usize>,
        columns: Range<usize>,
        approx: &[f32],
        t: f32,
        pairs: &mut Vec<JoinPair>,
    ) -> u64 {
        let mut rescored = 0;
        for (l, row) in rows.zip(approx.chunks_exact(columns.len())) {
            // `next_down` makes the f32 difference a lower bound of the
            // real `t − ε`
            let floor = (t - self.bounds[l]).next_down();
            scan_at_least(row, floor, |ri, _| {
                let r = columns.start + ri;
                let score = self.rescore(l, r);
                rescored += 1;
                if score >= t {
                    pairs.push(JoinPair::new(l, r, score));
                }
                floor
            });
        }
        rescored
    }

    /// Top-k harvest of a screened block.  A pair is pushed unless it is
    /// provably beaten, strictly, by `k` others:
    ///
    /// * by `k` pairs of the block whose approximations are `≥ τ`: their
    ///   scores are `≥ τ − ε`, so a pair with `approx < τ − 2ε` scores below
    ///   all of them.  With `lane_max` (`k ≤ 16`), `τ` is the `k`-th
    ///   largest of the row's lane maxima, which the screen wrote with the
    ///   block: they belong to distinct inner rows, so `k` pairs reach it,
    ///   and the approximations are not read a second time.  Without, it is
    ///   the row's `k`-th best approximation, from a [`TopK`] pass.
    /// * by the collector's `k` kept scores `≥ kth`: a pair with
    ///   `approx < kth − ε` scores below all of them, and its push would be
    ///   refused whatever its id.
    ///
    /// A pair of the final top-k is beaten strictly by fewer than `k`, so it
    /// is always pushed; pushes of other pairs change nothing the collector
    /// returns (it keeps the `k` best by score, then id), so the output is
    /// the block path's, tie order included.  The lane maxima's `τ` can lie
    /// below the `k`-th best approximation, which only rescores more pairs.
    /// Returns the number rescored.
    fn harvest_topk(
        &self,
        rows: Range<usize>,
        columns: Range<usize>,
        approx: &[f32],
        lane_max: Option<&[LaneMaxima]>,
        k: usize,
        state: &mut [TopK],
    ) -> u64 {
        let mut rescored = 0;
        for (i, (l, row)) in rows.zip(approx.chunks_exact(columns.len())).enumerate() {
            let eps = self.bounds[l];
            let collector = &mut state[l];
            let kept_floor = |c: &TopK| {
                c.threshold()
                    .map_or(f32::NEG_INFINITY, |kth| (kth - eps).next_down())
            };
            let tau = match lane_max {
                Some(lane_max) => {
                    let mut maxima = lane_max[i];
                    maxima.sort_unstable_by(|a, b| b.total_cmp(a));
                    maxima[k - 1]
                }
                None => {
                    let mut best = TopK::new(k);
                    best.push_row(0, row);
                    best.threshold().unwrap_or(f32::NEG_INFINITY)
                }
            };
            let mut floor = (tau - 2.0 * eps).next_down().max(kept_floor(collector));
            scan_at_least(row, floor, |ri, _| {
                let r = columns.start + ri;
                collector.push(r, self.rescore(l, r));
                rescored += 1;
                floor = floor.max(kept_floor(collector));
                floor
            });
        }
        rescored
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::time::Duration;

    use cej_vector::{normalize_matrix_rows, SimdIsa};

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

    /// The screens a test can run here: the scalar integer reference
    /// everywhere, and the AVX-512 VNNI kernel where the CPU has it.
    fn screens() -> Vec<Screen> {
        let vnni = Screen::detect();
        // written past the test harness's capture, once, so that a CI log
        // shows whether the kernel was exercised or only the reference, and
        // which compare the harvests ran
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            let _ = writeln!(
                std::io::stderr(),
                "tensor_join screen tests: {} (harvest: {})",
                vnni.map_or("no AVX-512 VNNI on this CPU, reference screen only", |s| s
                    .label()),
                SimdIsa::detect().label()
            );
        });
        std::iter::once(Screen::reference()).chain(vnni).collect()
    }

    /// Pairs in output order with their score bits.
    fn pair_bits(result: &JoinResult) -> Vec<(usize, usize, u32)> {
        let pairs = result.pairs.iter();
        pairs
            .map(|p| (p.left, p.right, p.score.to_bits()))
            .collect()
    }

    /// Runs `join` on the fp32 block path and with every screen, asserting
    /// that the pairs, their order and their score bits, and every stat but
    /// the rescore count are the block path's.  Returns the block path's
    /// result and the screened results.
    fn assert_screen_exact(
        join: &TensorJoin,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        what: &str,
    ) -> (JoinResult, Vec<JoinResult>) {
        let block = join.join_with(left, right, predicate, None).unwrap();
        assert_eq!(
            block.stats.pairs_rescored, block.stats.pairs_compared,
            "{what}"
        );
        let screened: Vec<JoinResult> = screens()
            .into_iter()
            .map(|screen| {
                let result = join
                    .join_with(left, right, predicate, Some(screen))
                    .unwrap();
                let what = format!("{what} {predicate:?} screen {}", screen.label());
                assert_eq!(pair_bits(&result), pair_bits(&block), "{what}");
                let without = |s: JoinStats| JoinStats {
                    pairs_rescored: 0,
                    elapsed: Duration::ZERO,
                    ..s
                };
                assert_eq!(without(result.stats), without(block.stats), "{what}");
                assert!(result.stats.pairs_rescored <= result.stats.pairs_compared);
                result
            })
            .collect();
        (block, screened)
    }

    fn both_predicates(k: usize, t: f32) -> [SimilarityPredicate; 2] {
        [
            SimilarityPredicate::TopK(k),
            SimilarityPredicate::Threshold(t),
        ]
    }

    #[test]
    fn screened_joins_equal_the_block_path_across_dims() {
        // k padding (1, 7, 63, 65, 100 are not multiples of 4) and partial
        // panels (37 inner rows)
        let join = TensorJoin::new(TensorJoinConfig::default());
        for dim in [1usize, 7, 63, 64, 65, 100] {
            let left = uniform_matrix(29, dim, 40 + dim as u64, true);
            let right = uniform_matrix(37, dim, 41 + dim as u64, true);
            for predicate in both_predicates(3, 0.3) {
                assert_screen_exact(&join, &left, &right, predicate, &format!("dim {dim}"));
            }
        }
    }

    #[test]
    fn duplicate_inner_rows_tie_at_the_kth_score_by_id() {
        let mut right = uniform_matrix(50, 16, 42, true);
        let copy = right.row(5).unwrap().to_vec();
        for r in [10, 20, 30] {
            right.row_mut(r).unwrap().copy_from_slice(&copy);
        }
        // every outer row is one of the copies or a neighbour of it
        let mut left = uniform_matrix(30, 16, 43, true);
        for l in 0..10 {
            left.row_mut(l).unwrap().copy_from_slice(&copy);
        }
        let join = TensorJoin::new(TensorJoinConfig::default());
        for k in [1usize, 2, 3, 4, 5] {
            let predicate = SimilarityPredicate::TopK(k);
            let (block, _) = assert_screen_exact(&join, &left, &right, predicate, "duplicates");
            // the four equal best scores are kept smallest id first
            let ids: Vec<usize> = block
                .pairs
                .iter()
                .filter(|p| p.left == 0)
                .map(|p| p.right)
                .collect();
            let tied = k.min(4);
            assert_eq!(ids[..tied], [5, 10, 20, 30][..tied], "k {k}");
        }
    }

    #[test]
    fn topk_from_the_lane_maxima_equals_the_block_path() {
        // k up to 16 takes τ from the screen's lane maxima, k = 17 keeps the
        // per-row TopK pass; inner sides with partial panels and blocks cut
        // inside panels (budgets), near-duplicate inner rows so that the
        // lane maxima tie and crowd into few lanes
        let left = uniform_matrix(30, 24, 60, true);
        let mut right = uniform_matrix(75, 24, 61, true);
        for r in (3..75).step_by(16) {
            let copy = left.row(r % 30).unwrap().to_vec();
            right.row_mut(r).unwrap().copy_from_slice(&copy);
        }
        for bytes in [usize::MAX, 4 * 24 * 37, 4 * 30 * 20] {
            let budget = match bytes {
                usize::MAX => BufferBudget::unlimited(),
                bytes => BufferBudget::from_bytes(bytes),
            };
            let join = TensorJoin::new(TensorJoinConfig::default().with_budget(budget));
            for k in [1usize, 3, 16, 17] {
                let predicate = SimilarityPredicate::TopK(k);
                let what = format!("budget {bytes}");
                let (block, screened) = assert_screen_exact(&join, &left, &right, predicate, &what);
                assert_eq!(block.len(), 30 * k);
                for result in screened {
                    assert!(result.stats.pairs_rescored < result.stats.pairs_compared);
                }
            }
        }
    }

    #[test]
    fn thresholds_one_ulp_either_side_of_a_score() {
        let left = uniform_matrix(26, 24, 44, true);
        let right = uniform_matrix(40, 24, 45, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        let all = join
            .join_with(&left, &right, SimilarityPredicate::Threshold(-1.5), None)
            .unwrap();
        let mut scores: Vec<f32> = all.pairs.iter().map(|p| p.score).collect();
        scores.sort_by(f32::total_cmp);
        for &score in scores.iter().rev().step_by(97).take(8) {
            for t in [score.next_down(), score, score.next_up()] {
                let predicate = SimilarityPredicate::Threshold(t);
                let (block, _) = assert_screen_exact(&join, &left, &right, predicate, "ulp");
                let reaching = scores.iter().filter(|s| **s >= t).count();
                assert_eq!(block.len(), reaching, "threshold {t:e}");
            }
        }
    }

    #[test]
    fn zero_and_spiky_rows_carry_the_largest_quantisation_error() {
        // a spiky row's small components all round to code 0: the largest
        // error a row of that L1 norm can carry
        let dim = 32;
        let mut left = uniform_matrix(27, dim, 46, false);
        let mut right = uniform_matrix(45, dim, 47, false);
        for (m, rows) in [(&mut left, [0usize, 3, 4]), (&mut right, [1, 2, 9])] {
            m.row_mut(rows[0]).unwrap().fill(0.0);
            for &r in &rows[1..] {
                let row = m.row_mut(r).unwrap();
                row.fill(0.003);
                row[r % dim] = 1.0;
            }
        }
        normalize_matrix_rows(&mut left);
        normalize_matrix_rows(&mut right);
        let join = TensorJoin::new(TensorJoinConfig::default());
        for predicate in both_predicates(4, 0.0)
            .into_iter()
            .chain(both_predicates(1, 0.2))
        {
            assert_screen_exact(&join, &left, &right, predicate, "zero and spiky rows");
        }
    }

    #[test]
    fn unnormalised_rows_are_screened_exactly() {
        // the bound holds for any finite rows in the screen's range, not
        // only unit rows
        let join = TensorJoin::new(TensorJoinConfig::default());
        for (scale, t) in [(1000.0f32, 2.0e5), (1e-3, 1e-7), (1.0, 0.5)] {
            let mut left = uniform_matrix(25, 20, 48, false);
            let mut right = uniform_matrix(33, 20, 49, false);
            left.as_mut_slice().iter_mut().for_each(|x| *x *= scale);
            right
                .as_mut_slice()
                .iter_mut()
                .for_each(|x| *x *= scale * 0.5);
            for predicate in both_predicates(2, t) {
                let (block, _) =
                    assert_screen_exact(&join, &left, &right, predicate, &format!("scale {scale}"));
                assert!(!block.is_empty());
            }
        }
    }

    #[test]
    fn inner_sides_smaller_than_k_and_tiny_budgets() {
        let left = uniform_matrix(30, 16, 50, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        for inner in [1usize, 3] {
            let right = uniform_matrix(inner, 16, 51, true);
            assert_screen_exact(
                &join,
                &left,
                &right,
                SimilarityPredicate::TopK(5),
                "k > inner",
            );
        }
        let right = uniform_matrix(70, 16, 52, true);
        for bytes in [4usize, 4 * 17, 4 * 64, 4 * 1000] {
            let join = TensorJoin::new(
                TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(bytes)),
            );
            for predicate in both_predicates(3, 0.2) {
                let (block, _) = assert_screen_exact(
                    &join,
                    &left,
                    &right,
                    predicate,
                    &format!("budget {bytes}"),
                );
                assert!(block.stats.blocks_computed > 1);
            }
        }
    }

    #[test]
    fn rows_the_screen_cannot_bound_take_the_block_path() {
        // NaN and ±inf rows: the TopK order after a NaN is unspecified, so
        // only the block path's exact push sequence is the contract
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30] {
            let mut left = uniform_matrix(30, 16, 53, true);
            let mut right = uniform_matrix(40, 16, 54, true);
            left.row_mut(7).unwrap()[3] = bad;
            right.row_mut(11).unwrap()[0] = bad;
            let join = TensorJoin::new(TensorJoinConfig::default());
            for predicate in both_predicates(3, 0.2) {
                let (_, screened) =
                    assert_screen_exact(&join, &left, &right, predicate, "bad rows");
                for result in screened {
                    assert_eq!(result.stats.pairs_rescored, result.stats.pairs_compared);
                }
            }
        }
    }

    #[test]
    fn the_screen_starts_at_the_crossover() {
        let right = uniform_matrix(300, 16, 55, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        let scalar = TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Scalar));
        let vnni = screens().len() > 1;
        for outer in [SCREEN_MIN_OUTER_ROWS - 1, SCREEN_MIN_OUTER_ROWS] {
            let left = uniform_matrix(outer, 16, 56, true);
            for predicate in both_predicates(3, 0.5) {
                let result = join.join(&left, &right, predicate).unwrap();
                let block = join.join_with(&left, &right, predicate, None).unwrap();
                assert_eq!(pair_bits(&result), pair_bits(&block));
                let screened = result.stats.pairs_rescored < result.stats.pairs_compared;
                assert_eq!(
                    screened,
                    vnni && outer >= SCREEN_MIN_OUTER_ROWS,
                    "{outer} rows"
                );
                // the NO-SIMD kernel never screens
                let result = scalar.join(&left, &right, predicate).unwrap();
                assert_eq!(result.stats.pairs_rescored, result.stats.pairs_compared);
            }
            // predicates that admit every pair are not screened
            for predicate in [
                SimilarityPredicate::TopK(300),
                SimilarityPredicate::Threshold(-1.0),
            ] {
                let result = join.join(&left, &right, predicate).unwrap();
                assert_eq!(result.stats.pairs_rescored, result.stats.pairs_compared);
            }
        }
    }

    #[test]
    fn the_screen_rescores_under_one_percent_of_a_unit_row_join() {
        // 96 x 9,600 unit rows of dim 64: the shape of a scan_join_warm
        // statement; the count repeats exactly across runs and budgets
        let left = uniform_matrix(96, 64, 57, true);
        let right = uniform_matrix(9_600, 64, 58, true);
        let screen = *screens().last().expect("the reference always exists");
        for predicate in both_predicates(3, 0.45) {
            let mut counts = Vec::new();
            for threads in [1usize, 2, 1, 2] {
                let join = TensorJoin::new(TensorJoinConfig::default().with_threads(threads));
                let block = join.join_with(&left, &right, predicate, None).unwrap();
                let result = join
                    .join_with(&left, &right, predicate, Some(screen))
                    .unwrap();
                assert!(!block.is_empty());
                assert_eq!(pair_bits(&result), pair_bits(&block), "{predicate:?}");
                let stats = result.stats;
                assert!(
                    stats.pairs_rescored * 100 <= stats.pairs_compared,
                    "{predicate:?}: {} of {} rescored",
                    stats.pairs_rescored,
                    stats.pairs_compared
                );
                counts.push(stats.pairs_rescored);
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{predicate:?}: {counts:?}"
            );
        }
    }
}
