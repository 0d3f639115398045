//! Blocked similarity-matrix kernel (`A · Bᵀ`) — the physical backbone of the
//! tensor join.
//!
//! Given an `m × d` matrix `A` (outer relation embeddings) and an `n × d`
//! matrix `B` (inner relation embeddings), the tensor join needs the `m × n`
//! score matrix `D = A · Bᵀ` (paper Section IV-C, Figure 6).  This module
//! computes `D` (or a sub-block of it) with:
//!
//! * **cache tiling**: rows of `A` and `B` are processed in small tiles so
//!   the working set of `B` rows stays cache resident and is reused across
//!   many rows of `A` — exactly the cache-locality argument the paper makes
//!   for preferring the tensor formulation over per-pair NLJ.
//! * **kernel selection**: the innermost dot product dispatches through
//!   [`Kernel`], reproducing the SIMD / NO-SIMD axis.
//! * **ISA dispatch**: for the vectorised family, [`block_into`] asks the
//!   CPU once per block which implementation to run
//!   ([`SimdIsa::detect`]).  With AVX2 each cache tile is walked in 4 × 2
//!   register blocks (8 `ymm` accumulators, 6 loads per 8 multiply-adds);
//!   otherwise — and for the rows and columns a block cannot fill — the
//!   portable per-pair loop runs.  Both perform the operations of
//!   [`dot_lanes`](crate::kernels::dot_lanes)`::<8>` in the same order, so a
//!   score does not depend on the path, the tile shape, or where in a block
//!   its pair fell.
//! * **optional multi-threading**: rows of `A` are split across the shared
//!   [`cej_exec::ExecPool`] worker pool, each worker writing a disjoint
//!   slice of the output.

use std::ops::Range;

use cej_exec::ExecPool;
use serde::{Deserialize, Serialize};

use crate::error::VectorError;
use crate::kernels::{Kernel, SimdIsa};
use crate::matrix::Matrix;
use crate::topk::scan_at_least;
use crate::Result;

/// Configuration of the blocked similarity kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmConfig {
    /// Compute kernel for the innermost dot products.
    pub kernel: Kernel,
    /// Tile height (rows of `A` per tile).
    pub tile_rows: usize,
    /// Tile width (rows of `B` per tile).
    pub tile_cols: usize,
    /// Number of worker threads (1 = single-threaded).
    pub threads: usize,
}

impl Default for GemmConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::Unrolled,
            tile_rows: 64,
            tile_cols: 64,
            threads: 1,
        }
    }
}

impl GemmConfig {
    /// Single-threaded configuration with the given kernel.
    pub fn with_kernel(kernel: Kernel) -> Self {
        Self {
            kernel,
            ..Self::default()
        }
    }

    /// Sets the number of threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the tile shape.
    pub fn tiles(mut self, rows: usize, cols: usize) -> Self {
        self.tile_rows = rows.max(1);
        self.tile_cols = cols.max(1);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.tile_rows == 0 || self.tile_cols == 0 {
            return Err(VectorError::InvalidParameter(
                "tile sizes must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// A dense `m × n` score matrix produced by [`similarity_matrix`].
///
/// Scores are raw dot products; callers that need cosine similarity must
/// normalise the inputs first (see [`crate::norm::normalize_matrix_rows`]),
/// which is how the tensor join implements cosine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    /// Number of outer (A) rows.
    pub a_rows: usize,
    /// Number of inner (B) rows.
    pub b_rows: usize,
    scores: Vec<f32>,
}

impl SimilarityMatrix {
    /// Score of pair `(a_row, b_row)`.
    #[inline]
    pub fn score(&self, a_row: usize, b_row: usize) -> f32 {
        self.scores[a_row * self.b_rows + b_row]
    }

    /// Borrow the scores of a single `A` row against every `B` row.
    #[inline]
    pub fn row(&self, a_row: usize) -> &[f32] {
        &self.scores[a_row * self.b_rows..(a_row + 1) * self.b_rows]
    }

    /// Flat row-major score buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.scores
    }

    /// Memory footprint of the score buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.scores.len() * std::mem::size_of::<f32>()
    }

    /// Collects every pair whose score is at least `threshold`.
    pub fn pairs_above(&self, threshold: f32) -> Vec<(usize, usize, f32)> {
        let mut out = Vec::new();
        for a in 0..self.a_rows {
            scan_at_least(self.row(a), threshold, |b, s| {
                out.push((a, b, s));
                threshold
            });
        }
        out
    }
}

/// Computes the full `m × n` score matrix `A · Bᵀ`.
///
/// # Errors
/// Returns [`VectorError::DimensionMismatch`] when the inputs disagree on the
/// embedding dimension, and [`VectorError::InvalidParameter`] for a
/// degenerate configuration.
pub fn similarity_matrix(a: &Matrix, b: &Matrix, config: &GemmConfig) -> Result<SimilarityMatrix> {
    config.validate()?;
    if a.cols() != b.cols() {
        return Err(VectorError::DimensionMismatch {
            left: a.cols(),
            right: b.cols(),
        });
    }
    let mut scores = vec![0.0f32; a.rows() * b.rows()];
    if a.rows() == 0 || b.rows() == 0 {
        return Ok(SimilarityMatrix {
            a_rows: a.rows(),
            b_rows: b.rows(),
            scores,
        });
    }
    block_into_with_pool(
        a.as_slice(),
        b.as_slice(),
        a.rows(),
        b.rows(),
        a.cols(),
        config,
        &ExecPool::new(config.threads),
        &mut scores,
    );
    Ok(SimilarityMatrix {
        a_rows: a.rows(),
        b_rows: b.rows(),
        scores,
    })
}

/// Computes a score block for raw row-major slices, writing into `out`
/// (which must have `a_rows * b_rows` elements).
///
/// This is the building block the tensor join uses for mini-batched
/// execution: it never allocates, so the caller fully controls the
/// intermediate-state memory budget (paper Section V-B, Figure 7).
pub fn block_into(
    a: &[f32],
    b: &[f32],
    a_rows: usize,
    b_rows: usize,
    dim: usize,
    config: &GemmConfig,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), a_rows * dim);
    debug_assert_eq!(b.len(), b_rows * dim);
    debug_assert_eq!(out.len(), a_rows * b_rows);
    let tr = config.tile_rows.max(1);
    let tc = config.tile_cols.max(1);
    match (config.kernel, SimdIsa::detect()) {
        #[cfg(target_arch = "x86_64")]
        (Kernel::Unrolled, SimdIsa::Avx2) => {
            // SAFETY: `SimdIsa::detect` returned `Avx2`, i.e. the running CPU
            // reports AVX2, the one feature the callee is compiled for.
            unsafe { crate::avx2::block_into(a, b, a_rows, b_rows, dim, tr, tc, out) }
        }
        (kernel, _) => block_into_portable(a, b, a_rows, b_rows, dim, kernel, tr, tc, out),
    }
}

/// The per-pair tile loop: every kernel on every CPU, and the reference the
/// AVX2 path is tested against.
#[allow(clippy::too_many_arguments)]
fn block_into_portable(
    a: &[f32],
    b: &[f32],
    a_rows: usize,
    b_rows: usize,
    dim: usize,
    kernel: Kernel,
    tr: usize,
    tc: usize,
    out: &mut [f32],
) {
    for (a_tile, b_tile) in tiles(a_rows, b_rows, tr, tc) {
        // Tile loop: the B tile (tc rows) stays hot in cache while it is
        // reused against every A row of the tile.
        for ar in a_tile {
            let a_row = &a[ar * dim..(ar + 1) * dim];
            let out_row = &mut out[ar * b_rows..(ar + 1) * b_rows];
            for br in b_tile.clone() {
                let b_row = &b[br * dim..(br + 1) * dim];
                out_row[br] = kernel.dot(a_row, b_row);
            }
        }
    }
}

/// The `tr × tc` cache tiles of an `a_rows × b_rows` block as (A rows, B
/// rows) ranges, A-major — the walk both implementations share.
pub(crate) fn tiles(
    a_rows: usize,
    b_rows: usize,
    tr: usize,
    tc: usize,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    (0..a_rows).step_by(tr).flat_map(move |ai| {
        (0..b_rows)
            .step_by(tc)
            .map(move |bi| (ai..(ai + tr).min(a_rows), bi..(bi + tc).min(b_rows)))
    })
}

/// Multi-threaded variant of [`block_into`]: rows of `A` are split into
/// chunks scheduled on `pool`, each worker filling a disjoint row-aligned
/// slice of `out` in place (so the caller's memory budget still holds).
///
/// With a single-thread pool (or a single row of `A`) this degrades to a
/// plain [`block_into`] call on the current thread.
#[allow(clippy::too_many_arguments)]
pub fn block_into_with_pool(
    a: &[f32],
    b: &[f32],
    a_rows: usize,
    b_rows: usize,
    dim: usize,
    config: &GemmConfig,
    pool: &ExecPool,
    out: &mut [f32],
) {
    if pool.threads() <= 1 || a_rows < 2 {
        block_into(a, b, a_rows, b_rows, dim, config, out);
        return;
    }
    pool.parallel_fill(out, a_rows, b_rows, |rows, chunk| {
        let a_chunk = &a[rows.start * dim..rows.end * dim];
        block_into(a_chunk, b, rows.len(), b_rows, dim, config, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dot_lanes;
    use crate::vector::Vector;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    fn matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
        };
        Matrix::from_flat(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    fn naive(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0; a.rows() * b.rows()];
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.row(i).unwrap()[k] * b.row(j).unwrap()[k];
                }
                out[i * b.rows() + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matches_naive_single_thread() {
        let a = matrix(17, 33, 1);
        let b = matrix(23, 33, 2);
        let got = similarity_matrix(&a, &b, &GemmConfig::default()).unwrap();
        let expected = naive(&a, &b);
        for (g, e) in got.as_slice().iter().zip(expected.iter()) {
            assert!(approx(*g, *e));
        }
    }

    #[test]
    fn matches_naive_multi_thread() {
        let a = matrix(40, 16, 3);
        let b = matrix(31, 16, 4);
        let cfg = GemmConfig::default().threads(4).tiles(8, 8);
        let got = similarity_matrix(&a, &b, &cfg).unwrap();
        let expected = naive(&a, &b);
        for (g, e) in got.as_slice().iter().zip(expected.iter()) {
            assert!(approx(*g, *e));
        }
    }

    #[test]
    fn scalar_and_unrolled_kernels_agree() {
        let a = matrix(9, 100, 5);
        let b = matrix(11, 100, 6);
        let s = similarity_matrix(&a, &b, &GemmConfig::with_kernel(Kernel::Scalar)).unwrap();
        let u = similarity_matrix(&a, &b, &GemmConfig::with_kernel(Kernel::Unrolled)).unwrap();
        for (x, y) in s.as_slice().iter().zip(u.as_slice().iter()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = matrix(3, 8, 7);
        let b = matrix(3, 9, 8);
        assert!(similarity_matrix(&a, &b, &GemmConfig::default()).is_err());
    }

    #[test]
    fn empty_inputs_yield_empty_scores() {
        let a = Matrix::zeros(0, 4);
        let b = matrix(3, 4, 9);
        let s = similarity_matrix(&a, &b, &GemmConfig::default()).unwrap();
        assert_eq!(s.a_rows, 0);
        assert!(s.as_slice().is_empty());
    }

    #[test]
    fn score_row_and_pair_access() {
        let a =
            Matrix::from_rows(&[Vector::new(vec![1.0, 0.0]), Vector::new(vec![0.0, 1.0])]).unwrap();
        let b =
            Matrix::from_rows(&[Vector::new(vec![1.0, 0.0]), Vector::new(vec![1.0, 1.0])]).unwrap();
        let s = similarity_matrix(&a, &b, &GemmConfig::default()).unwrap();
        assert!(approx(s.score(0, 0), 1.0));
        assert!(approx(s.score(0, 1), 1.0));
        assert!(approx(s.score(1, 0), 0.0));
        assert_eq!(s.row(1).len(), 2);
        assert_eq!(s.bytes(), 4 * 4);
    }

    #[test]
    fn pairs_above_threshold() {
        let a = Matrix::from_rows(&[Vector::new(vec![1.0, 0.0])]).unwrap();
        let b = Matrix::from_rows(&[
            Vector::new(vec![1.0, 0.0]),
            Vector::new(vec![0.0, 1.0]),
            Vector::new(vec![0.9, 0.1]),
        ])
        .unwrap();
        let s = similarity_matrix(&a, &b, &GemmConfig::default()).unwrap();
        let pairs = s.pairs_above(0.5);
        let ids: Vec<(usize, usize)> = pairs.iter().map(|p| (p.0, p.1)).collect();
        assert_eq!(ids, vec![(0, 0), (0, 2)]);
    }

    #[test]
    fn block_into_subblock_matches_full() {
        let a = matrix(10, 12, 11);
        let b = matrix(8, 12, 12);
        let full = similarity_matrix(&a, &b, &GemmConfig::default()).unwrap();
        // compute rows 4..10 of A against all of B as a standalone block
        let a_chunk = a.rows_as_slice(4, 10).unwrap();
        let mut block = vec![0.0f32; 6 * 8];
        block_into(
            a_chunk,
            b.as_slice(),
            6,
            8,
            12,
            &GemmConfig::default(),
            &mut block,
        );
        for r in 0..6 {
            for c in 0..8 {
                assert!(approx(block[r * 8 + c], full.score(r + 4, c)));
            }
        }
    }

    #[test]
    fn odd_tile_sizes_still_correct() {
        let a = matrix(13, 7, 21);
        let b = matrix(9, 7, 22);
        let cfg = GemmConfig::default().tiles(5, 3);
        let got = similarity_matrix(&a, &b, &cfg).unwrap();
        let expected = naive(&a, &b);
        for (g, e) in got.as_slice().iter().zip(expected.iter()) {
            assert!(approx(*g, *e));
        }
    }

    /// The 8-lane class, pair by pair: what every path must reproduce.
    fn per_pair_reference(
        a: &[f32],
        b: &[f32],
        a_rows: usize,
        b_rows: usize,
        dim: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; a_rows * b_rows];
        for i in 0..a_rows {
            for j in 0..b_rows {
                out[i * b_rows + j] =
                    dot_lanes::<8>(&a[i * dim..(i + 1) * dim], &b[j * dim..(j + 1) * dim]);
            }
        }
        out
    }

    /// Bit equality, except that any NaN equals any NaN: IEEE 754 leaves the
    /// sign and payload of a NaN result to the implementation, and LLVM may
    /// commute the operands of an add whose two inputs are both NaN.
    fn assert_same_bits(got: &[f32], expected: &[f32], what: &str) {
        assert_eq!(got.len(), expected.len(), "{what}");
        for (at, (g, e)) in got.iter().zip(expected).enumerate() {
            assert!(
                g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                "{what}: score {at} is {g:e} ({:#x}), expected {e:e} ({:#x})",
                g.to_bits(),
                e.to_bits()
            );
        }
    }

    /// Deterministic values in (-0.5, 0.5) with the IEEE special cases
    /// sprinkled in when `special` is set: NaN, ±inf, -0.0 and subnormals
    /// land in body lanes and tail lanes, on block and edge rows alike.
    fn floats(n: usize, seed: u32, special: bool) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5;
                if !special {
                    return v;
                }
                match (state >> 3) % 23 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => f32::from_bits(1 + (i as u32 % 7)), // subnormal
                    5 => -f32::MIN_POSITIVE / 2.0,           // subnormal
                    6 => 0.0,
                    _ => v,
                }
            })
            .collect()
    }

    #[test]
    fn dispatched_block_into_is_bit_identical_to_the_eight_lane_class() {
        const ROWS: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130];
        const DIMS: [usize; 6] = [1, 7, 8, 9, 64, 100];
        // default tiles, tiles smaller than / equal to / not a multiple of
        // the 4 x 2 register block, and a tile wider than the input
        const TILES: [(usize, usize); 5] = [(64, 64), (5, 3), (1, 1), (4, 2), (7, 200)];
        for special in [false, true] {
            for (di, &dim) in DIMS.iter().enumerate() {
                // one leading float puts every row off 32-byte (and, for odd
                // dims, off 8-byte) alignment
                let a_buf = floats(1 + 130 * dim, 17 + di as u32, special);
                let b_buf = floats(1 + 130 * dim, 91 + di as u32, special);
                for offset in [0usize, 1] {
                    for &a_rows in &ROWS {
                        for &b_rows in &ROWS {
                            let a = &a_buf[offset..offset + a_rows * dim];
                            let b = &b_buf[offset..offset + b_rows * dim];
                            let expected = per_pair_reference(a, b, a_rows, b_rows, dim);
                            // every tile shape on the small inputs, two on the rest
                            let tiles = if a_rows <= 9 && b_rows <= 9 {
                                &TILES[..]
                            } else {
                                &TILES[..2]
                            };
                            for &(tr, tc) in tiles {
                                let what = format!(
                                    "{a_rows}x{b_rows}x{dim} tiles {tr}x{tc} offset {offset} special {special}"
                                );
                                let cfg = GemmConfig::default().tiles(tr, tc);
                                let mut got = vec![f32::NAN; a_rows * b_rows];
                                block_into(a, b, a_rows, b_rows, dim, &cfg, &mut got);
                                assert_same_bits(&got, &expected, &what);
                                let mut portable = vec![f32::NAN; a_rows * b_rows];
                                block_into_portable(
                                    a,
                                    b,
                                    a_rows,
                                    b_rows,
                                    dim,
                                    Kernel::Unrolled,
                                    tr,
                                    tc,
                                    &mut portable,
                                );
                                assert_same_bits(&portable, &expected, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_score_does_not_depend_on_where_its_pair_fell() {
        // the same pair as an interior register-block cell, an edge row, a
        // 1-row morsel and a pooled chunk
        let dim = 100;
        let a = floats(11 * dim, 5, false);
        let b = floats(9 * dim, 6, false);
        let cfg = GemmConfig::default();
        let mut full = vec![0.0f32; 11 * 9];
        block_into(&a, &b, 11, 9, dim, &cfg, &mut full);
        for row in 0..11 {
            let mut one = vec![0.0f32; 9];
            block_into(
                &a[row * dim..(row + 1) * dim],
                &b,
                1,
                9,
                dim,
                &cfg,
                &mut one,
            );
            assert_same_bits(&one, &full[row * 9..(row + 1) * 9], "1-row morsel");
        }
        let mut pooled = vec![0.0f32; 11 * 9];
        block_into_with_pool(&a, &b, 11, 9, dim, &cfg, &ExecPool::new(3), &mut pooled);
        assert_same_bits(&pooled, &full, "pooled");
    }

    #[test]
    fn scalar_kernel_never_takes_the_vectorised_path() {
        let dim = 64;
        let a = floats(8 * dim, 1, false);
        let b = floats(8 * dim, 2, false);
        let mut got = vec![0.0f32; 64];
        let cfg = GemmConfig::with_kernel(Kernel::Scalar);
        block_into(&a, &b, 8, 8, dim, &cfg, &mut got);
        for i in 0..8 {
            for j in 0..8 {
                let expected = crate::kernels::dot_scalar(
                    &a[i * dim..(i + 1) * dim],
                    &b[j * dim..(j + 1) * dim],
                );
                assert_eq!(got[i * 8 + j].to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn pairs_above_matches_the_per_score_loop() {
        let a = matrix(7, 16, 31);
        let b = matrix(29, 16, 32);
        let s = similarity_matrix(&a, &b, &GemmConfig::default()).unwrap();
        for threshold in [-1.0f32, 0.0, 0.05, 10.0, f32::NAN] {
            let mut expected = Vec::new();
            for i in 0..7 {
                for j in 0..29 {
                    if s.score(i, j) >= threshold {
                        expected.push((i, j, s.score(i, j)));
                    }
                }
            }
            assert_eq!(s.pairs_above(threshold), expected);
        }
    }
}
