//! The AVX2 implementation of the 8-lane class — the crate's `std::arch`
//! code for fp32 scores: the GEMM micro-kernel and the harvest compare
//! under [`scan_at_least`](crate::topk::scan_at_least) (the int8 screen's
//! AVX-512 code is [`crate::vnni`]).
//!
//! **What is detected.**  Nothing here runs unless
//! [`SimdIsa::detect`](crate::kernels::SimdIsa::detect) saw AVX2 on the
//! running CPU (`is_x86_feature_detected!("avx2")`, which also implies AVX
//! and OS support for the `ymm` state).  Every function below is compiled
//! with `#[target_feature(enable = "avx2")]`, which makes calling it from
//! ordinary code `unsafe`: the detection is the proof the call sites cite.
//!
//! **Why unaligned loads are sound.**  Rows of a row-major `f32` matrix
//! start at arbitrary multiples of 4 bytes, so every access uses
//! `_mm256_loadu_ps` / `_mm256_storeu_ps`, which have no alignment
//! requirement; the only obligation left is that the 32 bytes lie inside
//! the slice, which each `// SAFETY:` comment derives from a length check
//! made in safe code above it.
//!
//! **Why no FMA (and no 16 lanes).**  A fused multiply-add rounds once where
//! `acc + x * y` rounds twice, and 16 lanes would split the `k` range into
//! different partial sums — either would be a new rounding class, and a
//! score would then depend on the CPU it was computed on.  The kernels use
//! `_mm256_mul_ps` followed by `_mm256_add_ps`, which LLVM never contracts
//! (Rust emits no `contract` fast-math flag, even under
//! `-C target-cpu=native`), eight lanes wide, reduced in the order of
//! [`dot_lanes`]`::<8>`: checked-in checksums, IVM fingerprints and golden
//! values are the same on every machine.
//!
//! **Why the harvest compare is `ymm`, not `zmm`.**  A compare decides
//! nothing about rounding, so 16 lanes (`_mm512_cmp_ps_mask`) would give the
//! same visits.  It is kept at 8 because it runs on every harvest, the fp32
//! block path's included: a served 16-row `RUN` executes no other 512-bit
//! instruction, and a 16-lane prototype cost such runs the CPU's AVX-512
//! power transitions (throughput −22 to −32 % and `op_p95_ms` ×1.6 in 2 of
//! 6 `serve_live` runs, `setup_s` +15–27 %) for no gain on the screened
//! join over the 8-lane compare.  512-bit code runs only where the int8
//! screen runs.
//!
//! **Why the int8 screen is not a new rounding class.**  The tensor join's
//! AVX-512 screen ([`crate::sq8`]) never produces a score anyone sees: its
//! integer dot products are exact, its approximations only choose which
//! pairs get an fp32 score, with a proven margin, and every score a join
//! returns is still [`dot_lanes`]`::<8>`'s — the bits this module's kernel
//! writes.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_mul_ps,
    _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps,
    _mm256_unpackhi_ps, _mm256_unpacklo_ps, _CMP_GE_OQ,
};

use crate::gemm::tiles;
use crate::kernels::dot_lanes;
use crate::topk::scan_groups;

/// A-rows per register block.
const MR: usize = 4;
/// B-rows per register block.
const NR: usize = 2;
/// Floats per `ymm` register — the lane count of the class.
const LANES: usize = 8;

/// `A · Bᵀ` for row-major slices, cache-tiled `tile_rows × tile_cols` like
/// the portable loop, with a [`MR`]` × `[`NR`] register block inside each
/// tile; rows and columns a tile cannot fill a block with go through
/// [`dot_lanes`]`::<8>`.  Bit-identical to the portable loop for every shape.
///
/// Panics (like the portable loop) when a slice is shorter than its shape.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_into(
    a: &[f32],
    b: &[f32],
    a_rows: usize,
    b_rows: usize,
    dim: usize,
    tile_rows: usize,
    tile_cols: usize,
    out: &mut [f32],
) {
    for (a_tile, b_tile) in tiles(a_rows, b_rows, tile_rows, tile_cols) {
        let a_blocked = a_tile.start + a_tile.len() / MR * MR;
        let b_blocked = b_tile.start + b_tile.len() / NR * NR;
        // Register blocks: each loaded A vector meets NR B vectors and each
        // B vector MR A vectors, so the tile costs (MR + NR) loads per
        // MR * NR multiply-adds instead of 2 per 1.
        for ar in (a_tile.start..a_blocked).step_by(MR) {
            let a_block = &a[ar * dim..(ar + MR) * dim];
            for br in (b_tile.start..b_blocked).step_by(NR) {
                let scores = dot_4x2(a_block, &b[br * dim..(br + NR) * dim], dim);
                for (i, pair) in scores.chunks_exact(NR).enumerate() {
                    let at = (ar + i) * b_rows + br;
                    out[at..at + NR].copy_from_slice(pair);
                }
            }
        }
        // Edges: the B column a block could not pair up, then the A rows
        // below the last full block.
        let mut edge = |ar: usize, br: usize| {
            out[ar * b_rows + br] =
                dot_lanes::<LANES>(&a[ar * dim..(ar + 1) * dim], &b[br * dim..(br + 1) * dim]);
        };
        for ar in a_tile.start..a_blocked {
            for br in b_blocked..b_tile.end {
                edge(ar, br);
            }
        }
        for ar in a_blocked..a_tile.end {
            for br in b_tile.clone() {
                edge(ar, br);
            }
        }
    }
}

/// The register block: the 8 dot products of [`MR`] consecutive A rows
/// (`a`, `MR * dim` floats) with [`NR`] consecutive B rows (`b`, `NR * dim`
/// floats), returned as `[i * NR + j]` for A row `i` and B row `j`.
///
/// One `ymm` accumulator per pair holds its 8 lane partials (`acc = acc +
/// x * y`, two roundings); the accumulators are then transposed so that the
/// lane sum of all 8 pairs is 7 vertical adds in lane order 0, 1, …, 7, and
/// the `dim % 8` tail is added per pair sequentially — the operation order
/// of [`dot_lanes`]`::<8>` for each pair.
#[inline]
#[target_feature(enable = "avx2")]
fn dot_4x2(a: &[f32], b: &[f32], dim: usize) -> [f32; MR * NR] {
    // Memory safety of the loads below rests on these lengths.
    assert!(a.len() == MR * dim && b.len() == NR * dim);
    let body = dim - dim % LANES;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let zero = _mm256_setzero_ps();
    let (mut c00, mut c01, mut c10, mut c11) = (zero, zero, zero, zero);
    let (mut c20, mut c21, mut c30, mut c31) = (zero, zero, zero, zero);
    let mut k = 0;
    while k < body {
        // SAFETY: `k + 8 <= body <= dim`, so for row `r` the 8 floats at
        // `r * dim + k` end at most at `(r + 1) * dim`, inside `a` for
        // `r < MR` and inside `b` for `r < NR` by the assert above;
        // `_mm256_loadu_ps` has no alignment requirement.
        let (a0, a1, a2, a3, b0, b1) = unsafe {
            (
                _mm256_loadu_ps(ap.add(k)),
                _mm256_loadu_ps(ap.add(dim + k)),
                _mm256_loadu_ps(ap.add(2 * dim + k)),
                _mm256_loadu_ps(ap.add(3 * dim + k)),
                _mm256_loadu_ps(bp.add(k)),
                _mm256_loadu_ps(bp.add(dim + k)),
            )
        };
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
        c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
        c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
        k += LANES;
    }
    let mut scores = [0.0f32; MR * NR];
    let totals = sum_lanes_of_8([c00, c01, c10, c11, c20, c21, c30, c31]);
    // SAFETY: `scores` is 8 floats, exactly the 32 bytes the unaligned store
    // writes.
    unsafe { _mm256_storeu_ps(scores.as_mut_ptr(), totals) };
    for k in body..dim {
        for (pair, score) in scores.iter_mut().enumerate() {
            *score += a[pair / NR * dim + k] * b[pair % NR * dim + k];
        }
    }
    scores
}

/// Element `p` of the result is `((r[p][0] + r[p][1]) + …) + r[p][7]`: an
/// 8 × 8 transpose turns the eight horizontal lane sums into seven vertical
/// adds, each pair's lanes still summed left to right.
#[inline]
#[target_feature(enable = "avx2")]
fn sum_lanes_of_8(r: [__m256; 8]) -> __m256 {
    // 32-bit interleave of neighbouring rows, then 64-bit, then the 128-bit
    // halves: `lane[l]` ends up holding lane `l` of every row.
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    let lane = [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ];
    let mut total = lane[0];
    for l in &lane[1..] {
        total = _mm256_add_ps(total, *l);
    }
    total
}

/// [`scan_at_least`](crate::topk::scan_at_least) with each 8-score group
/// compared by one `vcmpps` and `vmovmskps`.  `_CMP_GE_OQ` is Rust's `>=`:
/// ordered, so a NaN on either side compares false, and `-0.0 >= 0.0`.  The
/// set-bit walk, the re-check against the bound in force and the tail are
/// the portable loop's ([`scan_groups`]), so `visit` gets the same calls in
/// the same order.
#[target_feature(enable = "avx2")]
pub(crate) fn scan_at_least(scores: &[f32], bound: f32, visit: impl FnMut(usize, f32) -> f32) {
    scan_groups(scores, bound, visit, |group, bound| {
        // SAFETY: `group` is 8 floats, exactly the 32 bytes the unaligned
        // load reads.
        let x = unsafe { _mm256_loadu_ps(group.as_ptr()) };
        _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_set1_ps(bound))) as u32
    });
}
