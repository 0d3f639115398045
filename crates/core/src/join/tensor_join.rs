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
//! with AVX-512 VNNI every pair is first given an *approximate* score
//! ([`cej_vector::sq8`]: both sides quantised to int8 per row) and only
//! pairs that can qualify get an fp32 score.  Each outer morsel is
//! quantised by its call.  The inner side is prepared once per join
//! ([`TensorJoin::prepare`]), which alone decides whether the join screens:
//! every call follows the side.  A side that windows a catalog table
//! assembles its codes from those the session keeps per embedding slot —
//! each slot's unit row is quantised once, by the first run that needs it
//! ([`PreparedInner::rows_quantized`]) — and screens from the first outer
//! row.  A side the join must quantise itself screens only when the join
//! has enough outer rows to pay for that (`QUANTIZE_BREAK_EVEN_OUTER_ROWS`).
//! A side with stored codes keeps no fp32 copy of its rows: a candidate's
//! row is read back from the embedding arena by slot and normalised again,
//! to the same bits, and the whole side is gathered only if a call takes
//! the block path, once per join.  Each outer row `a` carries a proven
//! bound `ε_a ≥ |fp32 score − approx|` against every inner row, and a
//! floor ([`Floor`]) the screen compares each approximation with as it
//! computes it, in registers, so no block of approximations is ever
//! written: only the pairs that reach their row's floor leave the kernel,
//! as candidates grouped by outer row in ascending inner order.
//!
//! * a threshold `t`: the floor is `t − ε_a`, and every candidate is
//!   rescored;
//! * top-k: the floor is `τ − 2ε_a`, `τ` the k-th best approximation the
//!   row has emitted so far (`-inf` until it has emitted `k`), carried
//!   across the join's blocks.  The floor rises while the screen runs, so a
//!   row's first inner rows emit more candidates than the floor it ends a
//!   block with admits ([`JoinStats::screen_candidates`] counts them all);
//!   only those reaching that final floor are rescored, and, once the row's
//!   collector is full, only those with `approx ≥ kth − ε_a`, `kth` its
//!   k-th best exact score.
//!
//! A pair left out scores strictly below a value `k` pairs reach (or below
//! `t`), so it could never be returned.  Every rescored pair gets
//! [`dot_lanes`]`::<8>` — the bits the GEMM writes for it — and goes
//! through the block path's harvest in ascending inner order: the pairs,
//! their score bits and the tie order are the fp32 block path's.
//! [`JoinStats::pairs_rescored`] counts the exact scores computed.  The
//! screen runs only with the `Unrolled` kernel, for predicates that do not
//! admit every pair, and on finite rows in its magnitude range; otherwise
//! the fp32 block path runs exactly as it did without a screen, with its
//! budgeted score block.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_vector::{
    dot_lanes,
    gemm::block_into_with_pool,
    sq8::{Candidates, Floor, MAX_SCREEN_DIM},
    topk::scan_at_least,
    BufferBudget, GemmConfig, Kernel, Matrix, Screen, Sq8Inner, Sq8Outer, TopK,
};

use crate::result::{JoinPair, JoinResult, JoinStats, TensorPath};
use crate::Result;

use super::{check_joinable, check_predicate};

/// Nanoseconds [`Sq8Inner::quantize`] spends per unit inner row of
/// dimension 64: the median of nine readings (64, 4,000 and 19,200 rows,
/// three sweeps of the table under [`QUANTIZE_BREAK_EVEN_OUTER_ROWS`];
/// 31-47 ns).
const QUANTIZE_NS_PER_ROW: f64 = 36.0;

/// Nanoseconds the fp32 block path spends per pair at dimension 64 — the
/// price the index join's route gives a scanned pair (its sweep: 3.5-5.7;
/// the table's sweeps read 3.1-5.9 over 4,000 and 19,200 inner rows and
/// 16 or more outer rows).
const BLOCK_NS_PER_PAIR: f64 = super::index_join::SCAN_NS_PER_PAIR;

/// Nanoseconds the int8 screen spends per pair at dimension 64 — the
/// screen with its floor compare, the candidates and their rescore, without
/// quantising the inner side: the median of the table's sweeps over 4,000
/// and 19,200 inner rows and 16 or more outer rows (0.58-1.21; the same
/// sweeps read 1.23-1.83, median 1.51, while the screen still wrote a block
/// of approximations and harvested it).
const SCREEN_NS_PER_PAIR: f64 = 0.75;

/// Outer rows a join needs, over all its calls, before quantising an inner
/// side that has no stored codes pays for itself: the side costs
/// [`QUANTIZE_NS_PER_ROW`] per inner row once, and each outer row saves
/// [`BLOCK_NS_PER_PAIR`] − [`SCREEN_NS_PER_PAIR`] per inner row, so the
/// price is `36 / (4.2 − 0.75) ≈ 10.4`, rounded up.  A side assembled from
/// the codes the session keeps per slot pays no quantiser and screens from
/// the first outer row.
///
/// One join over unit rows of dim 64, one thread, the whole run timed:
/// stored codes (assembling the panels from per-row codes, the screen,
/// candidates read back by position and scaled, as the interpreter reads
/// an embedding slot) ÷ the same side on the fp32 block path (the whole
/// side read back by position and scaled, then the GEMM) — the rule for
/// stored codes; and a matrix side quantised by its join and screened ÷
/// that matrix on the block path — the rule for the rest.  Median of three
/// sweeps, each reading the lower quartile of 40-200 runs (AVX-512 VNNI
/// Xeon, 2 vCPUs, a noisy shared host):
///
/// | outer rows | stored codes: 64 inner, top-3 / ≥ 0.62 | 4,000 inner | 19,200 inner | matrix side: 64 inner | 4,000 inner | 19,200 inner |
/// |---|---|---|---|---|---|---|
/// | 1  | 1.03 / 0.76 | 0.13 / 0.13 | 0.12 / 0.12 | 2.82 / 2.41 | 3.28 / 3.19 | 2.95 / 3.05 |
/// | 4  | 1.41 / 0.67 | 0.14 / 0.12 | 0.12 / 0.12 | 2.86 / 2.19 | 1.98 / 1.81 | 2.07 / 1.99 |
/// | 16 | 1.33 / 0.47 | 0.14 / 0.12 | 0.10 / 0.10 | 1.87 / 1.00 | 0.64 / 0.55 | 0.66 / 0.62 |
/// | 24 | 1.18 / 0.42 | 0.14 / 0.11 | 0.10 / 0.10 | 1.56 / 0.74 | 0.51 / 0.41 | 0.50 / 0.47 |
/// | 96 | 1.17 / 0.33 | 0.14 / 0.09 | 0.09 / 0.07 | 1.29 / 0.44 | 0.28 / 0.19 | 0.22 / 0.18 |
///
/// Stored codes win from one outer row on 4,000 and 19,200 inner rows
/// (7-14x) and lose only on 64-row top-3 sides, by up to 1.4x of a join
/// that takes 3-20 µs.  A matrix side loses about 3x at one outer row and
/// wins from 16 on over thousands of inner rows.  Over 64 rows a top-3
/// join still loses 1.3-1.9x (a few µs) at every outer-row count: a row's
/// running top-3 floor settles only after most of a 64-row side, so nearly
/// every pair is emitted and offered to the floor one at a time, which
/// costs more than the 64-column block it replaced (the same sweeps read
/// 1.47x and 1.19x at 16 and 24 outer rows on the block-writing screen).
const QUANTIZE_BREAK_EVEN_OUTER_ROWS: usize =
    (QUANTIZE_NS_PER_ROW / (BLOCK_NS_PER_PAIR - SCREEN_NS_PER_PAIR)).ceil() as usize;

/// Configuration of the tensor join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorJoinConfig {
    /// Compute kernel for the tiled GEMM (64 × 64 tiles, the GEMM's own
    /// default shape).  `Unrolled` also enables the int8 screen where the
    /// CPU has AVX-512 VNNI (module documentation) — same pairs, same score
    /// bits; `Scalar` (the paper's NO-SIMD axis) never screens.
    pub kernel: Kernel,
    /// Buffer budget for the intermediate score block: the fp32 block path
    /// scores blocks of at most this size; the int8 screen, which holds no
    /// block, screens and rescores in blocks of the same shape.
    pub budget: BufferBudget,
}

impl Default for TensorJoinConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::Unrolled,
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

/// Where an inner side's unit rows are read from by position.
pub(crate) trait UnitRows: Sync {
    /// Replaces the contents of `out` with inner rows `rows`,
    /// unit-normalised — the bits
    /// [`cej_vector::norm::normalize_matrix_rows_with`] gives them under
    /// the `Unrolled` kernel — one after another.
    fn unit_rows(&self, rows: &[usize], out: &mut Vec<f32>);

    /// The rows as a matrix, when the source holds them as one.
    fn matrix(&self) -> Option<&Matrix> {
        None
    }
}

impl UnitRows for Cow<'_, Matrix> {
    fn unit_rows(&self, rows: &[usize], out: &mut Vec<f32>) {
        out.clear();
        for &row in rows {
            out.extend_from_slice(self.row(row).expect("inner row in range"));
        }
    }

    fn matrix(&self) -> Option<&Matrix> {
        Some(self)
    }
}

/// An inner side's codes as a per-slot store supplies them to
/// [`TensorJoin::prepare_with`]: the codes (`None` when a row is outside
/// the screen's range), the rows coded to assemble them, and where the
/// side's unit rows are read back.
pub(crate) struct StoredCodes<'a> {
    pub(crate) codes: Option<Sq8Inner>,
    pub(crate) quantized: u64,
    pub(crate) rows: Box<dyn UnitRows + 'a>,
}

/// An inner side prepared once ([`TensorJoin::prepare`]) and scored by
/// every call of one join: the screen the calls run and its codes when the
/// join screens, and one source of its unit rows.  A screened call reads
/// its candidates' rows from the source; a call on the fp32 block path
/// reads the source's matrix — a side read back by position (embedding
/// slots) gathers one the first time a call needs it and keeps it for the
/// rest of the join.
pub struct PreparedInner<'a> {
    rows: usize,
    dim: usize,
    /// The screen every call runs; `None` when the join does not screen.
    screen: Option<Screen>,
    /// The screen's inner side; `None` when the join does not screen or a
    /// row is outside the screen's range.
    codes: Option<Sq8Inner>,
    source: Box<dyn UnitRows + 'a>,
    /// The source's rows gathered into a matrix, when it holds none.
    gathered: OnceLock<Matrix>,
    /// Inner rows quantised preparing the side.
    quantized: u64,
}

impl<'a> PreparedInner<'a> {
    /// A side of unit rows, with the codes quantised from them when the
    /// join runs `screen`.
    fn from_matrix(rows: Cow<'a, Matrix>, screen: Option<Screen>) -> Self {
        let (n, dim) = (rows.rows(), rows.cols());
        let codes = screen.and_then(|_| Sq8Inner::quantize(rows.as_slice(), n, dim));
        let quantized = if screen.is_some() { n as u64 } else { 0 };
        Self::new(n, dim, screen, codes, Box::new(rows), quantized)
    }

    fn new(
        rows: usize,
        dim: usize,
        screen: Option<Screen>,
        codes: Option<Sq8Inner>,
        source: Box<dyn UnitRows + 'a>,
        quantized: u64,
    ) -> Self {
        Self {
            rows,
            dim,
            screen,
            codes,
            source,
            gathered: OnceLock::new(),
            quantized,
        }
    }

    /// Inner rows the int8 screen quantised preparing this side: all of
    /// them for a side prepared from a matrix for a join that screens, only
    /// the embedding slots never coded before for one assembled from stored
    /// codes, 0 when the join does not screen.
    pub fn rows_quantized(&self) -> u64 {
        self.quantized
    }

    /// The unit rows as a matrix, for a call on the fp32 block path.
    fn matrix(&self) -> &Matrix {
        self.source.matrix().unwrap_or_else(|| {
            self.gathered.get_or_init(|| {
                let mut data = Vec::new();
                let all: Vec<usize> = (0..self.rows).collect();
                self.source.unit_rows(&all, &mut data);
                Matrix::from_flat(self.rows, self.dim, data).expect("rows x dim")
            })
        })
    }
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

    /// Prepares an inner side of **unit-normalised** rows for a join whose
    /// calls have `outer_rows` outer rows in all.  The join screens when
    /// the screen can prune pairs (`TensorJoin::screen_for`) and the outer
    /// rows repay quantising the side, which is done here, once
    /// (`QUANTIZE_BREAK_EVEN_OUTER_ROWS` prices it).
    pub fn prepare<'a>(
        &self,
        inner: &'a Matrix,
        outer_rows: usize,
        predicate: SimilarityPredicate,
    ) -> PreparedInner<'a> {
        let (rows, dim) = (inner.rows(), inner.cols());
        let unit_rows = || Cow::Borrowed(inner);
        self.prepare_with(rows, dim, outer_rows, predicate, || None, unit_rows)
    }

    /// [`TensorJoin::prepare`] for an inner side of `rows` rows of
    /// dimension `dim` whose codes a per-slot store may keep: `stored`
    /// supplies them (`None` when no store keeps this side's), asked when
    /// the screen can prune pairs and code the dimension.  A side with
    /// stored codes screens whatever `outer_rows`; otherwise the side is
    /// `unit_rows`, quantised here when the join's outer rows repay it.
    pub(crate) fn prepare_with<'a>(
        &self,
        rows: usize,
        dim: usize,
        outer_rows: usize,
        predicate: SimilarityPredicate,
        stored: impl FnOnce() -> Option<StoredCodes<'a>>,
        unit_rows: impl FnOnce() -> Cow<'a, Matrix>,
    ) -> PreparedInner<'a> {
        let screen = self.screen_for(rows, predicate);
        if screen.is_some() && (1..=MAX_SCREEN_DIM).contains(&dim) {
            if let Some(side) = stored() {
                let (codes, source) = (side.codes, side.rows);
                return PreparedInner::new(rows, dim, screen, codes, source, side.quantized);
            }
        }
        let screen = screen.filter(|_| outer_rows >= QUANTIZE_BREAK_EVEN_OUTER_ROWS);
        PreparedInner::from_matrix(unit_rows(), screen)
    }

    /// Joins the outer rows `left_norm` against a prepared inner side, both
    /// **unit-normalised** (so the cosine similarity is the dot product),
    /// on `pool`.
    ///
    /// The interpreter prepares the inner side once per join and every
    /// outer morsel reuses it.  Pair offsets refer to the row numbering of
    /// the given sides, and `peak_buffer_bytes` is the operator's own
    /// intermediate state, not its inputs: the score block on the fp32
    /// block path, the candidates, their unit rows and the running floors
    /// on the int8 screen.  The call takes
    /// the path the side was prepared for: when the side carries codes and
    /// the screen can bound every outer row, the int8 screen decides which
    /// pairs get an fp32 score (module documentation); otherwise the fp32
    /// block path scores every pair.  The result is the same either way.
    ///
    /// # Errors
    /// Returns [`crate::error::CoreError::InvalidInput`] for dimension
    /// mismatches or degenerate predicates.
    pub fn join(
        &self,
        left_norm: &Matrix,
        inner: &PreparedInner<'_>,
        predicate: SimilarityPredicate,
        pool: &ExecPool,
    ) -> Result<JoinResult> {
        self.join_with(left_norm, inner, predicate, inner.screen, pool)
    }

    /// The screen a join over `inner_rows` rows can prune pairs with, if
    /// any: never for the `Scalar` kernel (the paper's NO-SIMD axis), for a
    /// predicate that admits every pair by construction (top-k with `k` at
    /// least the inner rows; a threshold at or below −1, which every pair
    /// of unit rows reaches up to rounding) — a screen there is paid for
    /// and then followed by a full rescore — or on a CPU without AVX-512
    /// VNNI.
    fn screen_for(&self, inner_rows: usize, predicate: SimilarityPredicate) -> Option<Screen> {
        let admits_every_pair = match predicate {
            SimilarityPredicate::TopK(k) => k >= inner_rows,
            SimilarityPredicate::Threshold(t) => t <= -1.0,
        };
        if self.config.kernel != Kernel::Unrolled || admits_every_pair {
            return None;
        }
        Screen::detect()
    }

    /// [`TensorJoin::join`] with the screen chosen by the caller (`None`:
    /// the fp32 block path).  A side without codes, or an outer row the
    /// screen cannot bound (not finite, or out of its magnitude range),
    /// takes the block path whatever is passed.
    fn join_with(
        &self,
        left_norm: &Matrix,
        inner: &PreparedInner<'_>,
        predicate: SimilarityPredicate,
        screen: Option<Screen>,
        pool: &ExecPool,
    ) -> Result<JoinResult> {
        check_predicate(&predicate)?;
        check_joinable(left_norm.cols(), inner.dim)?;
        let start = Instant::now();
        let mut stats = JoinStats {
            pairs_compared: left_norm.rows() as u64 * inner.rows as u64,
            ..JoinStats::default()
        };
        let pairs = if left_norm.rows() == 0 || inner.rows == 0 {
            stats.tensor_path = Some(TensorPath::Fp32Block);
            Vec::new()
        } else {
            let screened = screen.and_then(|screen| Screened::new(screen, left_norm, inner));
            stats.tensor_path = Some(match screened {
                Some(_) => TensorPath::Int8Screen,
                None => TensorPath::Fp32Block,
            });
            self.blocked_join(left_norm, inner, predicate, screened, pool, &mut stats)
        };
        stats.elapsed = start.elapsed();
        Ok(JoinResult { pairs, stats })
    }

    /// Mini-batched blocked join: both inputs are partitioned along tuple
    /// boundaries so each block fits the buffer budget.  Without `screened`
    /// the block holds fp32 scores of `left` against the inner side's
    /// matrix; with it, the screen emits each block's candidates and no
    /// score block exists.
    fn blocked_join(
        &self,
        left: &Matrix,
        inner: &PreparedInner<'_>,
        predicate: SimilarityPredicate,
        screened: Option<Screened<'_>>,
        pool: &ExecPool,
        stats: &mut JoinStats,
    ) -> Vec<JoinPair> {
        let (left_rows, right_rows) = (left.rows(), inner.rows);
        let (outer_batch, inner_batch) = self.config.budget.batch_shape(left_rows, right_rows);
        let dim = left.cols();
        let gemm = GemmConfig::with_kernel(self.config.kernel);

        // Per-left-row top-k state (threshold joins collect directly),
        // sized for the pairs a row can keep: no more than the inner rows
        let mut topk_state: Option<Vec<TopK>> = match predicate {
            SimilarityPredicate::TopK(k) => Some(
                (0..left_rows)
                    .map(|_| TopK::new(k.min(right_rows)))
                    .collect(),
            ),
            SimilarityPredicate::Threshold(_) => None,
        };
        let mut pairs: Vec<JoinPair> = Vec::new();

        // only the fp32 block path holds a score block
        let mut scores = Vec::new();
        let mut work = ScreenWork::default();
        if screened.is_none() {
            scores = vec![0.0f32; outer_batch * inner_batch];
            stats.peak_buffer_bytes = BufferBudget::block_bytes(outer_batch, inner_batch);
        }

        let mut l_start = 0usize;
        while l_start < left_rows {
            let l_end = (l_start + outer_batch).min(left_rows);
            let l_rows = l_end - l_start;
            let l_block = left
                .rows_as_slice(l_start, l_end)
                .expect("left block in range");
            // the screen's floors carry across the blocks of these rows
            if let Some(screened) = &screened {
                screened.floors(l_start..l_end, predicate, right_rows, &mut work.floors);
            }
            let mut r_start = 0usize;
            while r_start < right_rows {
                let r_end = (r_start + inner_batch).min(right_rows);
                let r_rows = r_end - r_start;
                stats.blocks_computed += 1;
                if let Some(screened) = &screened {
                    let (rows, columns) = (l_start..l_end, r_start..r_end);
                    screened.screen.candidates_into_with_pool(
                        &screened.outer,
                        rows.clone(),
                        screened.inner,
                        columns,
                        pool,
                        &mut work.floors,
                        &mut work.candidates,
                    );
                    stats.screen_candidates += work.candidates.len() as u64;
                    stats.pairs_rescored += match (predicate, &mut topk_state) {
                        (SimilarityPredicate::Threshold(t), _) => {
                            screened.rescore_threshold(rows, &mut work, t, &mut pairs)
                        }
                        (SimilarityPredicate::TopK(_), Some(state)) => {
                            screened.rescore_topk(rows, &mut work, state)
                        }
                        _ => unreachable!("top-k state exists iff the predicate is top-k"),
                    };
                    stats.peak_buffer_bytes = stats.peak_buffer_bytes.max(work.bytes(dim));
                } else {
                    let out = &mut scores[..l_rows * r_rows];
                    let r_block = inner
                        .matrix()
                        .rows_as_slice(r_start, r_end)
                        .expect("right block in range");
                    block_into_with_pool(l_block, r_block, l_rows, r_rows, dim, &gemm, pool, out);
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
                    stats.pairs_rescored += (l_rows * r_rows) as u64;
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

/// The int8 screen of one join call: the outer side quantised, the inner
/// side's codes, each outer row's error bound, and where candidates' unit
/// rows are read for their fp32 score.
struct Screened<'a> {
    screen: Screen,
    outer: Sq8Outer,
    inner: &'a Sq8Inner,
    /// `ε` per outer row: `|fp32 score − approx| ≤ ε` against every inner row.
    bounds: Vec<f32>,
    left: &'a Matrix,
    source: &'a dyn UnitRows,
}

impl<'a> Screened<'a> {
    /// `None` when the inner side has no codes or the outer side has a row
    /// the screen cannot bound.
    fn new(screen: Screen, left: &'a Matrix, inner: &'a PreparedInner<'_>) -> Option<Self> {
        let codes = inner.codes.as_ref()?;
        let outer = Sq8Outer::quantize(left.as_slice(), left.rows(), left.cols())?;
        let bounds = (0..left.rows())
            .map(|row| outer.error_bound(row, codes))
            .collect();
        Some(Self {
            screen,
            outer,
            inner: codes,
            bounds,
            left,
            source: inner.source.as_ref(),
        })
    }

    /// The screen's floors for outer rows `rows` over an inner side of
    /// `inner_rows` rows, into `floors`:
    ///
    /// * a threshold `t`: `t − ε`.  A pair can reach `t` only if
    ///   `approx ≥ t − ε`;
    /// * top-k: `τ − 2ε`, `τ` running over the approximations the row has
    ///   been screened against ([`Floor::running`]), `-inf` until `k` of
    ///   them.  `k` pairs reach `τ`, so their scores are `≥ τ − ε`, and a
    ///   pair with `approx < τ − 2ε` scores strictly below all of them: it
    ///   is not in the row's top-k.
    fn floors(
        &self,
        rows: Range<usize>,
        predicate: SimilarityPredicate,
        inner_rows: usize,
        floors: &mut Vec<Floor>,
    ) {
        floors.clear();
        floors.extend(rows.map(|l| {
            let eps = self.bounds[l];
            match predicate {
                // `next_down` makes the f32 difference a lower bound of the
                // real `t − ε`
                SimilarityPredicate::Threshold(t) => Floor::fixed((t - eps).next_down()),
                SimilarityPredicate::TopK(k) => Floor::running(k.min(inner_rows), 2.0 * eps),
            }
        }));
    }

    /// The fp32 score of outer row `l` and picked candidate `pick`: the
    /// bits the GEMM writes for the pair.
    fn rescore(&self, l: usize, work: &ScreenWork, pick: &Pick) -> f32 {
        let dim = self.left.cols();
        let left = &self.left.as_slice()[l * dim..(l + 1) * dim];
        let at = pick.at as usize * dim;
        dot_lanes::<8>(left, &work.rows[at..at + dim])
    }

    /// Threshold rescore of a block's candidates (outer rows `rows`): each
    /// is rescored and kept if its score reaches `t` — in the ascending
    /// inner order the block path pushes them.  Returns the number
    /// rescored.
    fn rescore_threshold(
        &self,
        rows: Range<usize>,
        work: &mut ScreenWork,
        t: f32,
        pairs: &mut Vec<JoinPair>,
    ) -> u64 {
        work.pick(self.source, self.inner.rows(), |_| f32::NEG_INFINITY);
        for pick in &work.picks {
            let l = rows.start + pick.row as usize;
            let score = self.rescore(l, work, pick);
            if score >= t {
                pairs.push(JoinPair::new(l, pick.column as usize, score));
            }
        }
        work.picks.len() as u64
    }

    /// Top-k rescore of a block's candidates (outer rows `rows`).  A pair
    /// is pushed unless it is provably beaten, strictly, by `k` others:
    ///
    /// * by the `k` pairs whose approximations reach the row's `τ` as the
    ///   screen left it after this block: a pair with `approx` below the
    ///   row's final floor `τ − 2ε` scores below all of them
    ///   (`Screened::floors`).  The floor rose while the screen ran, so the
    ///   candidates emitted early in a row include pairs below it, which
    ///   are skipped here; `τ` ends at the row's `k`-th best approximation
    ///   so far, at least the `τ` a pass over this block alone would give;
    /// * by the collector's `k` kept scores `≥ kth`: a pair with
    ///   `approx < kth − ε` scores below all of them, and its push would be
    ///   refused whatever its id.
    ///
    /// A pair of the final top-k is beaten strictly by fewer than `k`, so it
    /// is always pushed; pushes of other pairs change nothing the collector
    /// returns (it keeps the `k` best by score, then id), so the output is
    /// the block path's, tie order included.
    ///
    /// A row's floor only rises while its pairs are pushed, so the
    /// candidates reaching the floor it starts from — picked for the whole
    /// block first — include every pair a scan under the rising floor
    /// visits; walking them in order and skipping those below the floor in
    /// force is that scan.  Returns the number rescored.
    fn rescore_topk(&self, rows: Range<usize>, work: &mut ScreenWork, state: &mut [TopK]) -> u64 {
        let kept_floor = |c: &TopK, eps: f32| {
            c.threshold()
                .map_or(f32::NEG_INFINITY, |kth| (kth - eps).next_down())
        };
        let start = |i: usize| {
            let l = rows.start + i;
            work.floors[i]
                .value()
                .max(kept_floor(&state[l], self.bounds[l]))
        };
        let starts: Vec<f32> = (0..rows.len()).map(start).collect();
        work.pick(self.source, self.inner.rows(), |i| starts[i]);
        let mut rescored = 0;
        let mut floor = f32::NEG_INFINITY;
        let mut row = usize::MAX;
        for pick in &work.picks {
            if pick.row as usize != row {
                row = pick.row as usize;
                floor = starts[row];
            }
            let l = rows.start + row;
            if pick.approx >= floor {
                let collector = &mut state[l];
                collector.push(pick.column as usize, self.rescore(l, work, pick));
                rescored += 1;
                floor = floor.max(kept_floor(collector, self.bounds[l]));
            }
        }
        rescored
    }
}

/// The screened path's working state, kept across a join's blocks: the
/// rows' floors, a block's candidates, the candidates picked for a
/// rescore and the unit rows they need.
#[derive(Default)]
struct ScreenWork {
    floors: Vec<Floor>,
    candidates: Candidates,
    /// The candidates that reach their row's starting floor, row by row,
    /// each row's ascending.
    picks: Vec<Pick>,
    /// The distinct inner rows picked, whose unit rows `rows` holds in
    /// that order.
    fetched: Vec<usize>,
    /// Per inner row, its position in `fetched` (`u32::MAX`: not fetched);
    /// reset after every block.
    position: Vec<u32>,
    rows: Vec<f32>,
}

/// A candidate picked for a rescore: its outer row in the block, its inner
/// row, its approximation and its unit row's position in
/// [`ScreenWork::rows`].
struct Pick {
    row: u32,
    column: u32,
    approx: f32,
    at: u32,
}

impl ScreenWork {
    /// Picks the candidates of every outer row `i` of the block whose
    /// approximation reaches `floor(i)`, and reads each distinct picked
    /// row once, in one call to the side's source (of `inner_rows` rows).
    fn pick(&mut self, source: &dyn UnitRows, inner_rows: usize, floor: impl Fn(usize) -> f32) {
        let Self {
            candidates,
            picks,
            fetched,
            position,
            rows,
            ..
        } = self;
        picks.clear();
        fetched.clear();
        position.resize(inner_rows, u32::MAX);
        for i in 0..candidates.rows() {
            let floor = floor(i);
            let (columns, approx) = candidates.row(i);
            for (&column, &approx) in columns.iter().zip(approx) {
                if approx < floor {
                    continue;
                }
                let c = column as usize;
                // each inner row's position in `fetched`, first come first
                // placed
                if position[c] == u32::MAX {
                    position[c] = fetched.len() as u32;
                    fetched.push(c);
                }
                let (row, at) = (i as u32, position[c]);
                picks.push(Pick {
                    row,
                    column,
                    approx,
                    at,
                });
            }
        }
        for &c in fetched.iter() {
            position[c] = u32::MAX;
        }
        source.unit_rows(fetched, rows);
    }

    /// Bytes of state the screened path holds for a block of dimension
    /// `dim`: the candidates, the picks, the unit rows read back for them
    /// and the running floors' kept approximations.
    fn bytes(&self, dim: usize) -> usize {
        self.candidates.bytes()
            + self.picks.len() * std::mem::size_of::<Pick>()
            + self.fetched.len() * dim * std::mem::size_of::<f32>()
            + self.floors.iter().map(Floor::bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use cej_vector::{normalize_matrix_rows, SimdIsa};

    use super::*;
    use crate::join::prefetch_nlj::{NljConfig, PrefetchNlJoin};
    use crate::join::tests::{run_string_join, string_pairs};
    use crate::session::JoinStrategy;
    use cej_workload::uniform_matrix;

    /// `join` of `left` against `right` prepared for it, on `pool`.
    fn run_on(
        join: &TensorJoin,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        pool: &ExecPool,
    ) -> Result<JoinResult> {
        let side = join.prepare(right, left.rows(), predicate);
        join.join(left, &side, predicate, pool)
    }

    /// [`run_on`] the process-wide pool.
    fn run(
        join: &TensorJoin,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
    ) -> Result<JoinResult> {
        run_on(join, left, right, predicate, ExecPool::global())
    }

    /// `right` prepared with its codes whatever the shapes, so that a test
    /// can force a screen on any CPU.
    fn coded(right: &Matrix) -> PreparedInner<'_> {
        let screen = Screen::detect().unwrap_or_else(Screen::reference);
        PreparedInner::from_matrix(Cow::Borrowed(right), Some(screen))
    }

    #[test]
    fn matches_prefetch_nlj_threshold() {
        let left = uniform_matrix(25, 24, 1, true);
        let right = uniform_matrix(33, 24, 2, true);
        let predicate = SimilarityPredicate::Threshold(0.2);
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, predicate, ExecPool::global())
            .unwrap();
        let tensor = run(&TensorJoin::default(), &left, &right, predicate).unwrap();
        assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn matches_prefetch_nlj_topk() {
        let left = uniform_matrix(10, 16, 3, true);
        let right = uniform_matrix(50, 16, 4, true);
        let predicate = SimilarityPredicate::TopK(5);
        let nlj = PrefetchNlJoin::new(NljConfig::default())
            .join(&left, &right, predicate, ExecPool::global())
            .unwrap();
        let tensor = run(&TensorJoin::default(), &left, &right, predicate).unwrap();
        assert_eq!(nlj.pair_indices(), tensor.pair_indices());
    }

    #[test]
    fn mini_batching_does_not_change_results() {
        let left = uniform_matrix(40, 16, 5, true);
        let right = uniform_matrix(60, 16, 6, true);
        let predicate = SimilarityPredicate::Threshold(0.1);
        let unbatched = TensorJoinConfig::default().with_budget(BufferBudget::unlimited());
        let unbatched = run(&TensorJoin::new(unbatched), &left, &right, predicate).unwrap();
        let batched = TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 128));
        let batched = run(&TensorJoin::new(batched), &left, &right, predicate).unwrap();
        assert_eq!(unbatched.pair_indices(), batched.pair_indices());
        assert!(batched.stats.blocks_computed > unbatched.stats.blocks_computed);
        assert!(batched.stats.peak_buffer_bytes < unbatched.stats.peak_buffer_bytes);
    }

    #[test]
    fn mini_batching_with_topk_is_correct() {
        let left = uniform_matrix(12, 16, 7, true);
        let right = uniform_matrix(45, 16, 8, true);
        let predicate = SimilarityPredicate::TopK(3);
        let unbatched = TensorJoinConfig::default().with_budget(BufferBudget::unlimited());
        let unbatched = run(&TensorJoin::new(unbatched), &left, &right, predicate).unwrap();
        let batched = TensorJoinConfig::default().with_budget(BufferBudget::from_bytes(4 * 64));
        let batched = run(&TensorJoin::new(batched), &left, &right, predicate).unwrap();
        assert_eq!(unbatched.pair_indices(), batched.pair_indices());
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let left = uniform_matrix(64, 16, 11, true);
        let right = uniform_matrix(48, 16, 12, true);
        let (join, predicate) = (TensorJoin::default(), SimilarityPredicate::Threshold(0.1));
        let single = run_on(&join, &left, &right, predicate, &ExecPool::new(1)).unwrap();
        let multi = run_on(&join, &left, &right, predicate, &ExecPool::new(4)).unwrap();
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
        let result = run(
            &join,
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
        let expected: Vec<JoinPair> = run(&join, &left, &right, everything)
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
        let predicate = SimilarityPredicate::Threshold(0.0);
        let result = run(&TensorJoin::default(), &left, &right, predicate).unwrap();
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
        let predicate = SimilarityPredicate::Threshold(0.2);
        let join = |kernel| TensorJoin::new(TensorJoinConfig::default().with_kernel(kernel));
        let a = run(&join(Kernel::Scalar), &left, &right, predicate).unwrap();
        let b = run(&join(Kernel::Unrolled), &left, &right, predicate).unwrap();
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
        let pool = ExecPool::global();
        for predicate in [
            SimilarityPredicate::Threshold(0.2),
            SimilarityPredicate::TopK(4),
        ] {
            let side = join.prepare(&right, left.rows(), predicate);
            let whole = join.join(&left, &side, predicate, pool).unwrap();
            let mut sliced = Vec::new();
            for start in (0..left.rows()).step_by(7) {
                let end = (start + 7).min(left.rows());
                let part = left.row_slice(start, end).unwrap();
                let part = join.join(&part, &side, predicate, pool).unwrap();
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
        let predicate = SimilarityPredicate::Threshold(0.5);
        assert!(run(&TensorJoin::default(), &left, &right, predicate).is_err());
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

    /// Runs `join` on the fp32 block path and with every screen, on the
    /// process-wide pool, asserting that the pairs, their order and their
    /// score bits, and every stat but the screen's own counts and the path
    /// are the block path's.  Returns the block path's result and the
    /// screened results.
    fn assert_screen_exact(
        join: &TensorJoin,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        what: &str,
    ) -> (JoinResult, Vec<JoinResult>) {
        assert_screen_exact_on(join, left, right, predicate, ExecPool::global(), what)
    }

    /// [`assert_screen_exact`] on `pool`.  A screened join emits at least
    /// the candidates it rescores, exactly those for a threshold.
    fn assert_screen_exact_on(
        join: &TensorJoin,
        left: &Matrix,
        right: &Matrix,
        predicate: SimilarityPredicate,
        pool: &ExecPool,
        what: &str,
    ) -> (JoinResult, Vec<JoinResult>) {
        let side = coded(right);
        // the side is quantised once, by its preparation
        assert_eq!(side.rows_quantized(), right.rows() as u64, "{what}");
        let block = join.join_with(left, &side, predicate, None, pool).unwrap();
        assert_eq!(
            block.stats.pairs_rescored, block.stats.pairs_compared,
            "{what}"
        );
        assert_eq!(block.stats.screen_candidates, 0, "{what}");
        let screened: Vec<JoinResult> = screens()
            .into_iter()
            .map(|screen| {
                let result = join
                    .join_with(left, &side, predicate, Some(screen), pool)
                    .unwrap();
                let what = format!("{what} {predicate:?} screen {}", screen.label());
                assert_eq!(pair_bits(&result), pair_bits(&block), "{what}");
                let without = |s: JoinStats| JoinStats {
                    pairs_rescored: 0,
                    screen_candidates: 0,
                    peak_buffer_bytes: 0,
                    tensor_path: None,
                    elapsed: Duration::ZERO,
                    ..s
                };
                assert_eq!(without(result.stats), without(block.stats), "{what}");
                let stats = result.stats;
                assert!(stats.pairs_rescored <= stats.pairs_compared);
                if stats.tensor_path == Some(TensorPath::Int8Screen) {
                    assert!(stats.screen_candidates >= stats.pairs_rescored, "{what}");
                    if let SimilarityPredicate::Threshold(_) = predicate {
                        assert_eq!(stats.screen_candidates, stats.pairs_rescored, "{what}");
                    }
                }
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
    fn the_fused_screen_rescores_what_a_one_pass_scan_rescores() {
        // the screen emits candidates under each row's running floor and
        // the rescore skips those below the floor the row ends its block
        // with; a reference that sees every approximation once — per inner
        // block, the running τ over all of the row's approximations so far,
        // then one pass rescoring under the rising floor — must make the
        // same pushes: the same collectors and the same pairs_rescored, for
        // one block and for blocks cut inside panels, on pools 1 and 2
        let left = uniform_matrix(40, 24, 64, true);
        let mut right = uniform_matrix(90, 24, 65, true);
        for r in (5..90).step_by(11) {
            let copy = left.row(r % 40).unwrap().to_vec();
            right.row_mut(r).unwrap().copy_from_slice(&copy);
        }
        let side = coded(&right);
        let rescore =
            |l: usize, r: usize| dot_lanes::<8>(left.row(l).unwrap(), right.row(r).unwrap());
        for screen in screens() {
            let screened = Screened::new(screen, &left, &side).unwrap();
            // every approximation: a floor no pair fails
            let mut floors = vec![Floor::fixed(f32::NEG_INFINITY); 40];
            let mut all = Candidates::default();
            let (outer, inner) = (&screened.outer, screened.inner);
            screen.candidates_into(outer, 0..40, inner, 0..90, &mut floors, &mut all);
            assert_eq!(all.len(), 40 * 90);
            for k in [1usize, 3, 16, 17, 64] {
                for bytes in [usize::MAX, 4 * 40 * 37] {
                    let budget = match bytes {
                        usize::MAX => BufferBudget::unlimited(),
                        bytes => BufferBudget::from_bytes(bytes),
                    };
                    let (_, inner_batch) = budget.batch_shape(40, 90);
                    let mut reference: Vec<TopK> = (0..40).map(|_| TopK::new(k)).collect();
                    let mut expected = 0;
                    for (l, collector) in reference.iter_mut().enumerate() {
                        let (eps, (_, approx)) = (screened.bounds[l], all.row(l));
                        let kept = |c: &TopK| {
                            c.threshold()
                                .map_or(f32::NEG_INFINITY, |kth| (kth - eps).next_down())
                        };
                        let mut tau = TopK::new(k);
                        for first in (0..90).step_by(inner_batch) {
                            let block = first..(first + inner_batch).min(90);
                            for c in block.clone() {
                                tau.push(c, approx[c]);
                            }
                            let tau = tau
                                .threshold()
                                .map_or(f32::NEG_INFINITY, |tau| (tau - 2.0 * eps).next_down());
                            let mut floor = tau.max(kept(collector));
                            scan_at_least(&approx[block], floor, |i, _| {
                                collector.push(first + i, rescore(l, first + i));
                                expected += 1;
                                floor = floor.max(kept(collector));
                                floor
                            });
                        }
                    }
                    let reference: Vec<(usize, usize, u32)> = reference
                        .into_iter()
                        .enumerate()
                        .flat_map(|(l, c)| {
                            let sorted = c.into_sorted().into_iter();
                            sorted.map(move |e| (l, e.id, e.score.to_bits()))
                        })
                        .collect();
                    let join = TensorJoin::new(TensorJoinConfig::default().with_budget(budget));
                    let predicate = SimilarityPredicate::TopK(k);
                    for pool in [ExecPool::new(1), ExecPool::new(2)] {
                        let what = format!("{} k {k} budget {bytes} {pool:?}", screen.label());
                        let result = join.join_with(&left, &side, predicate, Some(screen), &pool);
                        let stats = result.as_ref().unwrap().stats;
                        assert_eq!(stats.pairs_rescored, expected, "{what}");
                        assert!(stats.screen_candidates >= expected, "{what}");
                        assert_eq!(pair_bits(&result.unwrap()), reference, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn topk_from_the_running_floor_equals_the_block_path() {
        // k from 1 to past a panel and up to every inner row (a floor that
        // never rises); inner sides with partial panels and blocks cut
        // inside panels (budgets); near-duplicate inner rows so that the
        // approximations tie; pools of 1 and 2
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
            for k in [1usize, 3, 16, 17, 64, 75, 80] {
                let predicate = SimilarityPredicate::TopK(k);
                for pool in [ExecPool::new(1), ExecPool::new(2)] {
                    let what = format!("budget {bytes} {pool:?}");
                    let (block, screened) =
                        assert_screen_exact_on(&join, &left, &right, predicate, &pool, &what);
                    assert_eq!(block.len(), 30 * k.min(75));
                    for result in screened {
                        let stats = result.stats;
                        if k <= 17 {
                            assert!(stats.pairs_rescored < stats.pairs_compared, "{what}");
                        }
                        if k >= 75 {
                            // the floor stays -inf: every pair is emitted
                            assert_eq!(stats.screen_candidates, stats.pairs_compared, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn thresholds_one_ulp_either_side_of_a_score() {
        let left = uniform_matrix(26, 24, 44, true);
        let right = uniform_matrix(40, 24, 45, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        let everything = SimilarityPredicate::Threshold(-1.5);
        let all = run(&join, &left, &right, everything).unwrap();
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

    /// Unit rows read back one by one, the way a side kept as codes reads
    /// a candidate's row from the embedding arena, counting the reads of
    /// the whole side.
    struct RowsByIndex(Matrix, Arc<AtomicUsize>);

    impl UnitRows for RowsByIndex {
        fn unit_rows(&self, rows: &[usize], out: &mut Vec<f32>) {
            if rows.len() == self.0.rows() {
                self.1.fetch_add(1, Ordering::Relaxed);
            }
            out.clear();
            for &row in rows {
                out.extend_from_slice(self.0.row(row).unwrap());
            }
        }
    }

    #[test]
    fn a_prepared_side_equals_the_side_given_as_rows() {
        // the side prepared from rows (a matrix source, quantised by its
        // preparation) against: codes read back by row, with their matrix
        // gathered once the first call takes the block path (codes only,
        // then codes and matrix); rows without codes (a side no call
        // screens); rows read back by row without codes (a refused side).
        // An outer side the screen refuses falls back to the block path.
        let right = uniform_matrix(70, 24, 62, true);
        let codes = || Sq8Inner::quantize(right.as_slice(), 70, 24);
        let gathers = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        let by_row = |gathers: &Arc<AtomicUsize>| {
            Box::new(RowsByIndex(right.clone(), gathers.clone())) as Box<dyn UnitRows>
        };
        let rows = coded(&right);
        let sides = [
            PreparedInner::new(70, 24, Screen::detect(), codes(), by_row(&gathers[0]), 0),
            PreparedInner::from_matrix(Cow::Borrowed(&right), None),
            PreparedInner::new(70, 24, None, None, by_row(&gathers[1]), 0),
        ];
        let mut bad = uniform_matrix(30, 24, 63, true);
        bad.row_mut(4).unwrap()[2] = f32::NAN;
        for left in [uniform_matrix(30, 24, 63, true), bad] {
            for budget in [
                BufferBudget::unlimited(),
                BufferBudget::from_bytes(4 * 30 * 20),
            ] {
                let join = TensorJoin::new(TensorJoinConfig::default().with_budget(budget));
                for predicate in both_predicates(3, 0.3) {
                    let (block, _) = assert_screen_exact(&join, &left, &right, predicate, "rows");
                    let work = |s: JoinStats| JoinStats {
                        elapsed: Duration::ZERO,
                        ..s
                    };
                    for pool in [ExecPool::new(1), ExecPool::new(2)] {
                        for screen in screens().into_iter().map(Some).chain([None]) {
                            let expected = join.join_with(&left, &rows, predicate, screen, &pool);
                            let expected = expected.unwrap();
                            for (i, side) in sides.iter().enumerate() {
                                let result = join.join_with(&left, side, predicate, screen, &pool);
                                let result = result.unwrap();
                                let what = format!("side {i} {predicate:?} {screen:?} {pool:?}");
                                assert_eq!(pair_bits(&result), pair_bits(&block), "{what}");
                                // the same rescores as the side prepared
                                // from rows; a side without codes takes the
                                // block path
                                let expected = if i == 0 { &expected } else { &block };
                                assert_eq!(work(result.stats), work(expected.stats), "{what}");
                            }
                        }
                    }
                }
            }
        }
        // a side read back by row gathers its matrix once, for the first
        // call on the block path, however many calls follow
        for gathers in gathers {
            assert_eq!(gathers.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn the_screen_starts_at_the_crossover() {
        // a side with stored codes screens from the first outer row; a side
        // the join quantises itself only from the break-even on; every call
        // follows its side, whatever its own outer rows
        let right = uniform_matrix(300, 16, 55, true);
        let join = TensorJoin::new(TensorJoinConfig::default());
        let scalar = TensorJoin::new(TensorJoinConfig::default().with_kernel(Kernel::Scalar));
        let vnni = screens().len() > 1;
        let stored = |join: &TensorJoin, predicate| {
            let side = || StoredCodes {
                codes: Sq8Inner::quantize(right.as_slice(), 300, 16),
                quantized: 0,
                rows: Box::new(Cow::Borrowed(&right)),
            };
            let rows = || Cow::Borrowed(&right);
            join.prepare_with(300, 16, 1, predicate, || Some(side()), rows)
        };
        let pool = ExecPool::global();
        let break_even = QUANTIZE_BREAK_EVEN_OUTER_ROWS;
        for outer in [1, 2, 16, 23, break_even - 1, break_even, 24, 96] {
            let left = uniform_matrix(outer, 16, 56, true);
            for predicate in both_predicates(3, 0.5) {
                let what = format!("{outer} rows {predicate:?}");
                // each kernel's fp32 block path
                let block = |join: &TensorJoin| {
                    let block = join.join_with(&left, &coded(&right), predicate, None, pool);
                    let block = block.unwrap();
                    assert_eq!(block.stats.tensor_path, Some(TensorPath::Fp32Block));
                    pair_bits(&block)
                };
                let (unrolled, no_simd) = (block(&join), block(&scalar));
                let screened_on = |result: &JoinResult, block: &[(usize, usize, u32)]| {
                    assert_eq!(pair_bits(result), block, "{what}");
                    let screened = result.stats.pairs_rescored < result.stats.pairs_compared;
                    let path = result.stats.tensor_path;
                    assert_eq!(path == Some(TensorPath::Int8Screen), screened, "{what}");
                    screened
                };
                let screened = |result: &JoinResult| screened_on(result, &unrolled);
                // stored codes: the side screens at any outer rows
                let side = stored(&join, predicate);
                assert_eq!(side.rows_quantized(), 0, "{what}");
                let result = join.join(&left, &side, predicate, pool).unwrap();
                assert_eq!(screened(&result), vnni, "stored codes, {what}");
                // a matrix side: quantised for the join's outer rows when
                // they reach the break-even, and then screened
                let side = join.prepare(&right, outer, predicate);
                let screens = vnni && outer >= break_even;
                let quantized = if screens { 300 } else { 0 };
                assert_eq!(side.rows_quantized(), quantized, "{what}");
                let result = join.join(&left, &side, predicate, pool).unwrap();
                assert_eq!(screened(&result), screens, "matrix side, {what}");
                // calls follow the side: a side prepared for 96 outer rows
                // screens a call of `outer`, one prepared for a single row
                // does not
                let many = join.prepare(&right, 96, predicate);
                let result = join.join(&left, &many, predicate, pool).unwrap();
                assert_eq!(screened(&result), vnni, "side for 96 rows, {what}");
                let one = join.prepare(&right, 1, predicate);
                let result = join.join(&left, &one, predicate, pool).unwrap();
                assert!(!screened(&result), "side for 1 row, {what}");
                // the NO-SIMD kernel never screens
                let result = run(&scalar, &left, &right, predicate).unwrap();
                assert!(!screened_on(&result, &no_simd), "Scalar, {what}");
                let side = stored(&scalar, predicate);
                let result = scalar.join(&left, &side, predicate, pool).unwrap();
                assert!(
                    !screened_on(&result, &no_simd),
                    "Scalar stored codes, {what}"
                );
            }
            // predicates that admit every pair are not screened
            for predicate in [
                SimilarityPredicate::TopK(300),
                SimilarityPredicate::Threshold(-1.0),
            ] {
                for side in [
                    stored(&join, predicate),
                    join.prepare(&right, 96, predicate),
                ] {
                    assert_eq!(side.rows_quantized(), 0);
                    let result = join.join(&left, &side, predicate, pool).unwrap();
                    assert_eq!(result.stats.pairs_rescored, result.stats.pairs_compared);
                    assert_eq!(result.stats.tensor_path, Some(TensorPath::Fp32Block));
                }
            }
        }
    }

    #[test]
    fn the_screened_path_holds_no_score_block() {
        // 96 x 19,200 unit rows of dim 64, the widest scan_join_warm
        // statement: the block path reports its 7.4 MB block, the screen
        // the candidates, their unit rows and its running floors — less
        // than one block — and the block path's pairs and score bits
        let left = uniform_matrix(96, 64, 66, true);
        let right = uniform_matrix(19_200, 64, 67, true);
        let screen = *screens().last().expect("the reference always exists");
        let (join, side, pool) = (TensorJoin::default(), coded(&right), ExecPool::new(1));
        let block_bytes = BufferBudget::block_bytes(96, 19_200);
        for predicate in both_predicates(3, 0.45) {
            let block = join
                .join_with(&left, &side, predicate, None, &pool)
                .unwrap();
            assert_eq!(block.stats.peak_buffer_bytes, block_bytes, "{predicate:?}");
            let result = join.join_with(&left, &side, predicate, Some(screen), &pool);
            let result = result.unwrap();
            assert_eq!(pair_bits(&result), pair_bits(&block), "{predicate:?}");
            let held = result.stats.peak_buffer_bytes;
            assert!(
                0 < held && held < block_bytes / 10,
                "{predicate:?}: {held} B"
            );
        }
    }

    #[test]
    fn the_screen_counts_its_candidates() {
        // a fixed input, pinned on every screen and pool: a threshold's
        // candidates are its rescores; top-k's running floor emits more
        // than the rescore keeps while it settles, on a row's first inner
        // rows, and the more the larger k
        let left = uniform_matrix(24, 64, 68, true);
        let right = uniform_matrix(2_000, 64, 69, true);
        let side = coded(&right);
        let join = TensorJoin::default();
        let pinned: [(SimilarityPredicate, u64, u64); 4] = [
            (SimilarityPredicate::Threshold(0.4), 29, 29),
            (SimilarityPredicate::TopK(1), 326, 36),
            (SimilarityPredicate::TopK(3), 865, 139),
            (SimilarityPredicate::TopK(20), 3_592, 851),
        ];
        for (predicate, candidates, rescored) in pinned {
            for screen in screens() {
                for pool in [ExecPool::new(1), ExecPool::new(2)] {
                    let result = join.join_with(&left, &side, predicate, Some(screen), &pool);
                    let stats = result.unwrap().stats;
                    let what = format!("{predicate:?} {} {pool:?}", screen.label());
                    assert_eq!(stats.screen_candidates, candidates, "{what}");
                    assert_eq!(stats.pairs_rescored, rescored, "{what}");
                }
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
        let (join, side) = (TensorJoin::default(), coded(&right));
        for predicate in both_predicates(3, 0.45) {
            let mut counts = Vec::new();
            for threads in [1usize, 2, 1, 2] {
                let pool = ExecPool::new(threads);
                let block = join.join_with(&left, &side, predicate, None, &pool);
                let block = block.unwrap();
                let result = join.join_with(&left, &side, predicate, Some(screen), &pool);
                let result = result.unwrap();
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
