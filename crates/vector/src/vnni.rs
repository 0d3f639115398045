//! The AVX-512 implementations of the int8 screen ([`crate::sq8`]): the row
//! quantiser and the VNNI approximate-score block.
//!
//! **What is detected.**  Nothing here runs unless
//! [`Screen::detect`](crate::sq8::Screen::detect) saw `avx512f`, `avx512bw`
//! and `avx512vnni` on the running CPU.  Every function is compiled with
//! those features enabled, which makes calling one from ordinary code
//! `unsafe`: the detection is the proof the call site cites.
//!
//! **The kernel.**  `vpdpbusd` multiplies four unsigned bytes of one operand
//! with four signed bytes of the other and adds the four products to an
//! `i32` lane.  The outer codes are stored as `u8 = q + 128`, so one
//! broadcast group of an outer row against one 64-byte panel group adds
//! `Σ (q_a + 128) q_b` over those four `k` to each of the panel's 16 rows;
//! subtracting the panel row's `128 · Σq_b` leaves the exact `Σ q_a q_b`.
//! Products are at most `255 · 127`, so no lane can overflow for
//! `d ≤` [`MAX_SCREEN_DIM`](crate::sq8::MAX_SCREEN_DIM).  The conversion
//! and the two multiplies `(f32(I) · s_b) · s_a` are the reference's
//! operations in the reference's order, so the block has its bits.
//!
//! **Why the memory accesses are sound.**  Panel groups are read with
//! `_mm512_loadu_si512` and the per-row scales and corrections with
//! `_mm512_loadu_*`, which have no alignment requirement; each `// SAFETY:`
//! comment derives that the 64 bytes lie inside a slice from a length check
//! made in safe code above it.  The quantiser reads a row's tail and writes
//! its codes with masked loads and stores, which touch only the enabled
//! lanes; the mask enables exactly the lanes inside the slice.

use std::arch::x86_64::{
    __m512, __m512i, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_and_si512,
    _mm512_castps_si512, _mm512_castsi512_ps, _mm512_cvtepi32_ps, _mm512_dpbusd_epi32,
    _mm512_loadu_epi32, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_mask_cvtepi32_storeu_epi8,
    _mm512_maskz_loadu_epi32, _mm512_maskz_loadu_ps, _mm512_max_epi32, _mm512_max_epu32,
    _mm512_min_epi32, _mm512_mul_ps, _mm512_reduce_add_epi32, _mm512_reduce_max_epu32,
    _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps, _mm512_setzero_si512, _mm512_storeu_ps,
    _mm512_sub_epi32,
};
use std::ops::Range;

use crate::sq8::{
    row_scalars, sum_lanes, RowCode, Sq8Inner, Sq8Outer, PANEL_GROUP_BYTES, PANEL_ROWS,
    ROUNDING_MAGIC, ROUNDING_MAGIC_BITS,
};

/// [`quantize_row`](crate::sq8::quantize_row) for each of the rows of
/// `data` (`dim` floats each, at most 16 rows) on `zmm` registers: row `i`'s
/// codes go to `codes[i * stride..]`, its [`RowCode`] to `out[i]`.  All rows
/// are measured before any is coded, so that the rows' latency chains
/// (maximum, reduction, division) can overlap.
///
/// Values are taken 16 at a time, with masked loads for a row's tail (a
/// masked-off lane reads as +0.0, which changes neither the maximum, the L1
/// lanes nor `Σq`): the same integer maximum, the same scalars, the same
/// multiply and add per code, the same 16 L1 lanes and their sum — the
/// portable function's bits.
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) fn quantize_rows(
    data: &[f32],
    dim: usize,
    codes: &mut [i8],
    stride: usize,
    out: &mut [RowCode],
) -> Option<()> {
    let rows = data.len() / dim;
    // Memory safety of the masked stores below rests on these.
    assert!(rows <= PANEL_ROWS && out.len() == rows && data.len() == rows * dim);
    assert!(stride >= dim && codes.len() >= rows * stride);
    let mut maxima = [0u32; PANEL_ROWS];
    let mut lanes = [[0.0f32; PANEL_ROWS]; PANEL_ROWS];
    for (i, row) in data.chunks_exact(dim).enumerate() {
        (maxima[i], lanes[i]) = measure(row);
    }
    let mut inverse = [0.0f32; PANEL_ROWS];
    for i in 0..rows {
        let (scale, inv) = row_scalars(maxima[i])?;
        inverse[i] = inv;
        out[i].scale = scale;
        out[i].l1 = sum_lanes(lanes[i]);
    }
    for (i, row) in data.chunks_exact(dim).enumerate() {
        out[i].sum = code(row, inverse[i], &mut codes[i * stride..i * stride + dim]);
    }
    Some(())
}

/// The lanes of chunk `c` (16 values) of a `len`-value row that lie inside it.
#[inline]
fn chunk_mask(len: usize, c: usize) -> __mmask16 {
    let live = (len - c * PANEL_ROWS).min(PANEL_ROWS);
    (u32::MAX >> (32 - live)) as __mmask16
}

/// A row's largest magnitude bits and its 16 L1 lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn measure(row: &[f32]) -> (u32, [f32; PANEL_ROWS]) {
    let magnitude = _mm512_set1_epi32(0x7fff_ffff);
    let (mut max, mut l1) = (_mm512_setzero_si512(), _mm512_setzero_ps());
    for c in 0..row.len().div_ceil(PANEL_ROWS) {
        // SAFETY: `c * 16 < row.len()`, and the mask enables exactly the
        // lanes `c * 16 + l < row.len()`: no byte outside `row` is read.
        let x = unsafe {
            _mm512_maskz_loadu_epi32(
                chunk_mask(row.len(), c),
                row.as_ptr().add(c * PANEL_ROWS).cast(),
            )
        };
        let bits = _mm512_and_si512(x, magnitude);
        max = _mm512_max_epu32(max, bits);
        l1 = _mm512_add_ps(l1, _mm512_castsi512_ps(bits));
    }
    let mut lanes = [0.0f32; PANEL_ROWS];
    // SAFETY: `lanes` is 16 floats, exactly the 64 bytes the store writes.
    unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), l1) };
    (_mm512_reduce_max_epu32(max), lanes)
}

/// Writes the codes of `row` into `codes` (as long as `row`) and returns
/// their sum.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn code(row: &[f32], inverse: f32, codes: &mut [i8]) -> i32 {
    assert_eq!(codes.len(), row.len());
    let (inverse, magic) = (_mm512_set1_ps(inverse), _mm512_set1_ps(ROUNDING_MAGIC));
    let magic_bits = _mm512_set1_epi32(ROUNDING_MAGIC_BITS);
    let (top, bottom) = (_mm512_set1_epi32(127), _mm512_set1_epi32(-127));
    let mut sum = _mm512_setzero_si512();
    for c in 0..row.len().div_ceil(PANEL_ROWS) {
        let mask = chunk_mask(row.len(), c);
        // SAFETY: as in `measure`: only lanes inside `row` are read.
        let x = unsafe { _mm512_maskz_loadu_ps(mask, row.as_ptr().add(c * PANEL_ROWS)) };
        let rounded = _mm512_castps_si512(_mm512_add_ps(_mm512_mul_ps(x, inverse), magic));
        let q = _mm512_sub_epi32(rounded, magic_bits);
        let q = _mm512_max_epi32(_mm512_min_epi32(q, top), bottom);
        sum = _mm512_add_epi32(sum, q);
        // SAFETY: the mask enables exactly the lanes `c * 16 + l <
        // row.len() == codes.len()` (asserted above): no byte outside
        // `codes` is written.
        unsafe {
            _mm512_mask_cvtepi32_storeu_epi8(codes.as_mut_ptr().add(c * PANEL_ROWS), mask, q)
        };
    }
    _mm512_reduce_add_epi32(sum)
}

/// Outer rows per register block.
const MR: usize = 4;
/// Panels per register block.
const NR: usize = 2;
/// Bytes of inner codes per cache tile.
const TILE_BYTES: usize = 32 * 1024;

/// [`Screen::block_into`](crate::sq8::Screen::block_into) on `zmm`
/// registers: outer rows in blocks of [`MR`] against [`NR`] panels at a
/// time (8 accumulators, 6 loads per 8 `vpdpbusd`), edges with smaller
/// blocks.  Panels that straddle either end of `b_rows` are computed whole
/// and only their lanes inside the range are written.
///
/// The caller has checked the ranges, the dimension and `out`'s length.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
pub(crate) fn block_into(
    outer: &Sq8Outer,
    a_rows: Range<usize>,
    inner: &Sq8Inner,
    b_rows: Range<usize>,
    out: &mut [f32],
) {
    if a_rows.is_empty() || b_rows.is_empty() {
        return;
    }
    let panels = b_rows.start / PANEL_ROWS..b_rows.end.div_ceil(PANEL_ROWS);
    // Panel tiles of about 32 KiB stay in L1 while every outer row passes
    // over them.
    let tile = (TILE_BYTES / inner.panel(0).len()).max(NR);
    for first in panels.clone().step_by(tile) {
        let tile = first..(first + tile).min(panels.end);
        let mut ar = a_rows.start;
        while ar + MR <= a_rows.end {
            row_block::<MR>(outer, ar, inner, tile.clone(), &a_rows, &b_rows, out);
            ar += MR;
        }
        while ar < a_rows.end {
            row_block::<1>(outer, ar, inner, tile.clone(), &a_rows, &b_rows, out);
            ar += 1;
        }
    }
}

/// Outer rows `ar..ar + M` against every panel of `panels`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn row_block<const M: usize>(
    outer: &Sq8Outer,
    ar: usize,
    inner: &Sq8Inner,
    panels: Range<usize>,
    a_rows: &Range<usize>,
    b_rows: &Range<usize>,
    out: &mut [f32],
) {
    let mut codes: [&[u32]; M] = [&[]; M];
    for (i, codes) in codes.iter_mut().enumerate() {
        *codes = outer.row_codes(ar + i);
    }
    let first_row = ar - a_rows.start;
    let mut p = panels.start;
    while p + NR <= panels.end {
        let acc = dot_block::<M, NR>(codes, [inner.panel(p), inner.panel(p + 1)]);
        for (j, panel) in (p..p + NR).enumerate() {
            for (i, acc) in acc.iter().enumerate() {
                let scores = approx(acc[j], outer.scale(ar + i), inner, panel);
                store(scores, first_row + i, panel, b_rows, out);
            }
        }
        p += NR;
    }
    if p < panels.end {
        let acc = dot_block::<M, 1>(codes, [inner.panel(p)]);
        for (i, acc) in acc.iter().enumerate() {
            let scores = approx(acc[0], outer.scale(ar + i), inner, p);
            store(scores, first_row + i, p, b_rows, out);
        }
    }
}

/// The register block: for each of the `M` outer rows (code words `codes`)
/// and each of the `N` panels, the 16 lanes `Σ (q_a + 128) q_b`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn dot_block<const M: usize, const N: usize>(
    codes: [&[u32]; M],
    panels: [&[i8]; N],
) -> [[__m512i; N]; M] {
    let groups = codes[0].len();
    // Memory safety of the loads below rests on these lengths.
    assert!(codes.iter().all(|c| c.len() == groups));
    assert!(panels.iter().all(|p| p.len() == groups * PANEL_GROUP_BYTES));
    let mut acc = [[_mm512_setzero_si512(); N]; M];
    for g in 0..groups {
        let mut b = [_mm512_setzero_si512(); N];
        for (b, panel) in b.iter_mut().zip(panels) {
            // SAFETY: `g < groups`, so the 64 bytes at `g * 64` end at most
            // at `groups * 64`, the length of every panel slice asserted
            // above; `_mm512_loadu_si512` has no alignment requirement.
            *b = unsafe { _mm512_loadu_si512(panel.as_ptr().add(g * PANEL_GROUP_BYTES).cast()) };
        }
        for (acc, codes) in acc.iter_mut().zip(codes) {
            let a = _mm512_set1_epi32(codes[g] as i32);
            for (acc, b) in acc.iter_mut().zip(b) {
                *acc = _mm512_dpbusd_epi32(*acc, a, b);
            }
        }
    }
    acc
}

/// `(f32(acc − 128 Σq_b) · s_b) · s_a` for an outer row of scale `s_a` and
/// the 16 rows of panel `panel`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn approx(acc: __m512i, s_a: f32, inner: &Sq8Inner, panel: usize) -> __m512 {
    let (bias, scales) = (inner.panel_bias(panel), inner.panel_scales(panel));
    assert!(bias.len() == PANEL_ROWS && scales.len() == PANEL_ROWS);
    // SAFETY: both slices hold exactly 16 four-byte values (asserted above),
    // the 64 bytes each unaligned load reads.
    let (bias, scales) = unsafe {
        (
            _mm512_loadu_epi32(bias.as_ptr()),
            _mm512_loadu_ps(scales.as_ptr()),
        )
    };
    let dot = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, bias));
    _mm512_mul_ps(_mm512_mul_ps(dot, scales), _mm512_set1_ps(s_a))
}

/// Stores the lanes of panel `panel` that fall inside `b_rows` into row
/// `row` of the row-major `out` (`b_rows.len()` columns).
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn store(scores: __m512, row: usize, panel: usize, b_rows: &Range<usize>, out: &mut [f32]) {
    let first = panel * PANEL_ROWS;
    let lo = first.max(b_rows.start);
    let hi = (first + PANEL_ROWS).min(b_rows.end);
    let at = row * b_rows.len() + lo - b_rows.start;
    let dst = &mut out[at..at + (hi - lo)];
    if dst.len() == PANEL_ROWS {
        // SAFETY: `dst` is 16 floats, exactly the 64 bytes the unaligned
        // store writes.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), scores) };
    } else {
        let mut lanes = [0.0f32; PANEL_ROWS];
        // SAFETY: `lanes` is 16 floats, exactly the 64 bytes the unaligned
        // store writes.
        unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), scores) };
        dst.copy_from_slice(&lanes[lo - first..hi - first]);
    }
}
