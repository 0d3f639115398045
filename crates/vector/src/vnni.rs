//! The AVX-512 implementations of the int8 screen ([`crate::sq8`]): the row
//! quantiser and the VNNI screen, which turns approximate scores into
//! candidates without writing them to a block.
//!
//! **The quantiser** takes 16 rows (one inner panel) at a time and writes
//! each row's codes as `u32` words straight to where the kernel reads them:
//! a word per four codes, into the outer side's row, the per-row form an
//! inner row is kept in, or the row's lane of the panel's 4-code groups.
//! Its chunk loops are monomorphised for rows of 1–8 chunks of 16 floats,
//! where the compiler unrolls them.
//!
//! **The panel assembly** builds an inner panel from 16 rows kept in the
//! per-row form: a 16 × 16 transpose of `u32` words (32-bit and 64-bit
//! interleaves, then two rounds of 128-bit lane shuffles) per 16 groups.
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
//! operations in the reference's order, so the approximations have its
//! bits.  The epilogue compares each register of 16 approximations with
//! its outer row's [`Floor`] in registers (`vcmpps` into a mask, lanes
//! outside the inner range masked off); only a register block in which
//! some lane reaches its floor leaves the hot loop, for an out-of-line,
//! cold `Block::emit` that offers those lanes to their rows' floors in
//! ascending inner order — a running floor of `k ≤ 16` keeps its `k` best
//! approximations sorted in a register and is raised lane by lane without
//! a branch on the data.  No approximation is stored anywhere else: the
//! screen allocates no block.
//!
//! **Why the memory accesses are sound.**  Panel groups are read with
//! `_mm512_loadu_si512` and the per-row scales and corrections with
//! `_mm512_loadu_*`, which have no alignment requirement; each `// SAFETY:`
//! comment derives that the 64 bytes lie inside a slice from a length check
//! made in safe code above it.  The quantiser reads a row's tail with masked
//! loads, which touch only the enabled lanes, and the mask enables exactly
//! the lanes inside the slice.  The screen stores approximations and a
//! running floor's kept values only into local or borrowed arrays of 16
//! floats; candidates leave through bounds-checked slice writes.  The
//! quantiser's code words go through bounds-checked slice writes and one
//! 16-byte store into a 4-word slice; the assembly reads each row's words
//! with masked loads and stores whole 16-word groups into slices of 16.

use std::arch::x86_64::{
    __m128i, __m512, __m512i, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_and_si512,
    _mm512_castps_si512, _mm512_castsi512_ps, _mm512_cmp_ps_mask, _mm512_cvtepi32_epi8,
    _mm512_cvtepi32_ps, _mm512_cvtss_f32, _mm512_dpbusd_epi32, _mm512_loadu_epi32, _mm512_loadu_ps,
    _mm512_loadu_si512, _mm512_mask_blend_ps, _mm512_mask_cmp_ps_mask, _mm512_mask_permutexvar_ps,
    _mm512_maskz_loadu_epi32, _mm512_maskz_loadu_ps, _mm512_max_epi32, _mm512_max_epu32,
    _mm512_min_epi32, _mm512_min_ps, _mm512_mul_ps, _mm512_permute_ps, _mm512_permutexvar_ps,
    _mm512_reduce_add_epi32, _mm512_reduce_max_epu32, _mm512_set1_epi32, _mm512_set1_ps,
    _mm512_set_epi32, _mm512_setzero_ps, _mm512_setzero_si512, _mm512_shuffle_f32x4,
    _mm512_shuffle_i32x4, _mm512_storeu_ps, _mm512_storeu_si512, _mm512_sub_epi32,
    _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
    _mm_extract_epi32, _mm_storeu_si128, _CMP_GE_OQ,
};
use std::ops::Range;

use crate::sq8::{
    row_scalars, Emitted, Floor, Layout, RowCode, Rule, Sq8Inner, Sq8Outer, GROUP, PANEL_ROWS,
    ROUNDING_MAGIC, ROUNDING_MAGIC_BITS,
};

/// [`quantize_row`](crate::sq8::quantize_row) for each of the rows of
/// `data` (`dim` floats each, at most 16 rows) on `zmm` registers: row
/// `i`'s [`RowCode`] goes to `out[i]`, and its codes straight into `words`
/// as `layout` places them — the outer side's rows or one inner panel —
/// with no row-major copy of the codes in between.  `None` when a row is
/// outside the screen's range.
///
/// The chunk loops are compiled for the row's count of 16-float chunks
/// when it is at most 8 (`dim ≤ 128`, every dimension the workloads use),
/// so the compiler unrolls them; wider rows take the loop with a runtime
/// bound.  Both are the same code.
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) fn quantize_batch(
    data: &[f32],
    dim: usize,
    layout: Layout,
    words: &mut [u32],
    out: &mut [RowCode],
) -> Option<()> {
    macro_rules! by_chunks {
        ($panel:literal, $offset:literal) => {
            match dim.div_ceil(PANEL_ROWS) {
                1 => batch::<1, $panel>(data, dim, $offset, words, out),
                2 => batch::<2, $panel>(data, dim, $offset, words, out),
                3 => batch::<3, $panel>(data, dim, $offset, words, out),
                4 => batch::<4, $panel>(data, dim, $offset, words, out),
                5 => batch::<5, $panel>(data, dim, $offset, words, out),
                6 => batch::<6, $panel>(data, dim, $offset, words, out),
                7 => batch::<7, $panel>(data, dim, $offset, words, out),
                8 => batch::<8, $panel>(data, dim, $offset, words, out),
                _ => batch::<0, $panel>(data, dim, $offset, words, out),
            }
        };
    }
    // the outer side stores `q + 128`, which `vpmovdb` truncates to its byte
    match layout {
        Layout::Rows => by_chunks!(false, 128),
        Layout::Codes => by_chunks!(false, 0),
        Layout::Panel => by_chunks!(true, 0),
    }
}

/// [`quantize_batch`] for rows of `C` chunks (`C == 0`: any count) into
/// one panel (`PANEL`) or rows of words (`offset` added to each code: 128
/// for the outer side, 0 for the per-row form).  All rows are measured
/// before any is coded, so that the rows' latency chains (maximum,
/// reduction, division) can overlap.
///
/// Values are taken 16 at a time, with masked loads for a row's tail (a
/// masked-off lane reads as +0.0, which changes neither the maximum, the L1
/// lanes nor `Σq`, and codes to 0): the same integer maximum, the same
/// scalars, the same multiply and add per code, the same 16 L1 lanes and
/// the same tree over them — the portable function's bits.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn batch<const C: usize, const PANEL: bool>(
    data: &[f32],
    dim: usize,
    offset: i32,
    words: &mut [u32],
    out: &mut [RowCode],
) -> Option<()> {
    let rows = data.len() / dim;
    let groups = dim.div_ceil(GROUP);
    assert!(rows <= PANEL_ROWS && out.len() == rows && data.len() == rows * dim);
    let mut maxima = [0u32; PANEL_ROWS];
    let mut l1 = [0.0f32; PANEL_ROWS];
    for (i, row) in data.chunks_exact(dim).enumerate() {
        (maxima[i], l1[i]) = measure::<C>(row);
    }
    let mut inverse = [0.0f32; PANEL_ROWS];
    for i in 0..rows {
        let (scale, inv) = row_scalars(maxima[i])?;
        inverse[i] = inv;
        out[i].scale = scale;
        out[i].l1 = l1[i];
    }
    let (magic, magic_bits) = (
        _mm512_set1_ps(ROUNDING_MAGIC),
        _mm512_set1_epi32(ROUNDING_MAGIC_BITS),
    );
    let (top, bottom) = (_mm512_set1_epi32(127), _mm512_set1_epi32(-127));
    let offset = _mm512_set1_epi32(offset);
    for (i, row) in data.chunks_exact(dim).enumerate() {
        let inverse = _mm512_set1_ps(inverse[i]);
        let mut sum = _mm512_setzero_si512();
        for c in 0..chunk_count::<C>(row.len()) {
            // SAFETY: as in `measure`: only lanes inside `row` are read.
            let x = unsafe {
                _mm512_maskz_loadu_ps(chunk_mask(row.len(), c), row.as_ptr().add(c * PANEL_ROWS))
            };
            let rounded = _mm512_castps_si512(_mm512_add_ps(_mm512_mul_ps(x, inverse), magic));
            let q = _mm512_sub_epi32(rounded, magic_bits);
            let q = _mm512_max_epi32(_mm512_min_epi32(q, top), bottom);
            sum = _mm512_add_epi32(sum, q);
            let bytes = _mm512_cvtepi32_epi8(_mm512_add_epi32(q, offset));
            // chunk `c` holds groups `4c..4c + 4`, the last ones past `dim`
            let (first, live) = (c * GROUP, (groups - c * GROUP).min(GROUP));
            if PANEL {
                put_panel(words, first * PANEL_ROWS + i, live, bytes);
            } else {
                put_row(&mut words[i * groups + first..][..live], bytes);
            }
        }
        out[i].sum = _mm512_reduce_add_epi32(sum);
    }
    Some(())
}

/// Writes the first `live` of the four code words in `bytes` to
/// `panel[at]`, `panel[at + 16]`, … — the word's group in its row's lane.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn put_panel(panel: &mut [u32], at: usize, live: usize, bytes: __m128i) {
    let words = [
        _mm_extract_epi32::<0>(bytes),
        _mm_extract_epi32::<1>(bytes),
        _mm_extract_epi32::<2>(bytes),
        _mm_extract_epi32::<3>(bytes),
    ];
    if live == GROUP {
        let dst = &mut panel[at..at + 3 * PANEL_ROWS + 1];
        for (j, &word) in words.iter().enumerate() {
            dst[j * PANEL_ROWS] = word as u32;
        }
    } else {
        for (j, &word) in words.iter().enumerate().take(live) {
            panel[at + j * PANEL_ROWS] = word as u32;
        }
    }
}

/// Writes the first `dst.len()` (at most four) code words in `bytes` to
/// `dst`, consecutive words of one outer row.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn put_row(dst: &mut [u32], bytes: __m128i) {
    if dst.len() == GROUP {
        // SAFETY: `dst` is 4 words, exactly the 16 bytes the unaligned
        // store writes.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), bytes) };
    } else {
        let mut words = [0u32; GROUP];
        // SAFETY: `words` is 16 bytes, exactly what the unaligned store
        // writes.
        unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), bytes) };
        let live = dst.len();
        dst.copy_from_slice(&words[..live]);
    }
}

/// The number of 16-float chunks of a `len`-float row, which `C` must be
/// when it is not 0: the masks of the loops below are derived from `len`,
/// and only for this count do they stay inside the row.
#[inline(always)]
fn chunk_count<const C: usize>(len: usize) -> usize {
    let chunks = len.div_ceil(PANEL_ROWS);
    assert!(
        C == 0 || C == chunks,
        "compiled for {C} chunks, row has {chunks}"
    );
    if C == 0 {
        chunks
    } else {
        C
    }
}

/// The lanes of chunk `c` (16 values) of a `len`-value row that lie inside it.
#[inline]
fn chunk_mask(len: usize, c: usize) -> __mmask16 {
    let live = (len - c * PANEL_ROWS).min(PANEL_ROWS);
    (u32::MAX >> (32 - live)) as __mmask16
}

/// A row's largest magnitude bits and its L1 norm (16 lanes, summed as
/// [`sum_lanes`](crate::sq8::sum_lanes) does).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn measure<const C: usize>(row: &[f32]) -> (u32, f32) {
    let magnitude = _mm512_set1_epi32(0x7fff_ffff);
    let (mut max, mut l1) = (_mm512_setzero_si512(), _mm512_setzero_ps());
    for c in 0..chunk_count::<C>(row.len()) {
        // SAFETY: `c * 16 < row.len()` (`chunk_count`), and the mask
        // enables exactly the lanes `c * 16 + l < row.len()`: no byte
        // outside `row` is read.
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
    (_mm512_reduce_max_epu32(max), sum_lanes(l1))
}

/// [`sum_lanes`](crate::sq8::sum_lanes) in registers: lane `i` plus lane
/// `i + 8`, then `i + 4`, `i + 2`, `i + 1` — the same additions of the same
/// operands, in the same order.
#[inline]
#[target_feature(enable = "avx512f")]
fn sum_lanes(lanes: __m512) -> f32 {
    let s = _mm512_add_ps(lanes, _mm512_shuffle_f32x4::<0b11_10_11_10>(lanes, lanes));
    let s = _mm512_add_ps(s, _mm512_shuffle_f32x4::<0b01_01_01_01>(s, s));
    let s = _mm512_add_ps(s, _mm512_permute_ps::<0b11_10_11_10>(s));
    let s = _mm512_add_ps(s, _mm512_permute_ps::<0b01_01_01_01>(s));
    _mm512_cvtss_f32(s)
}

/// [`Sq8Inner::from_codes`](crate::sq8::Sq8Inner::from_codes)'s panel
/// assembly: the `groups` code words of each of `rows` (at most 16) go to
/// their lane of `panel` (word `g` of row `i` to `panel[g * 16 + i]`), 16
/// groups at a time as a 16 × 16 transpose of `u32` words in registers.
/// Lanes of rows past `rows.len()` are written as zero.
///
/// The caller has checked that every row holds `groups` words and that
/// `panel` holds `groups * 16`.
#[target_feature(enable = "avx512f")]
pub(crate) fn transpose_panel(rows: &[&[u32]], groups: usize, panel: &mut [u32]) {
    // missing rows read as zero rows, so that every block has 16 loads
    let mut all: [&[u32]; PANEL_ROWS] = [&ZERO_ROW[..groups]; PANEL_ROWS];
    all[..rows.len()].copy_from_slice(rows);
    for first in (0..groups).step_by(PANEL_ROWS) {
        let live = (groups - first).min(PANEL_ROWS);
        let mask = (u32::MAX >> (32 - live)) as __mmask16;
        let r: [__m512i; PANEL_ROWS] = std::array::from_fn(|i| {
            let words = &all[i][first..first + live];
            // SAFETY: the mask enables exactly the first `live` lanes, and
            // `words` holds `live` words: no byte outside it is read.
            unsafe { _mm512_maskz_loadu_epi32(mask, words.as_ptr().cast()) }
        });
        let columns = transpose16(r);
        for (g, column) in columns.iter().enumerate().take(live) {
            let dst = &mut panel[(first + g) * PANEL_ROWS..][..PANEL_ROWS];
            // SAFETY: `dst` is 16 words, exactly the 64 bytes the unaligned
            // store writes.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), *column) };
        }
    }
}

/// Words for the rows a partial panel lacks: the longest row of codes.
static ZERO_ROW: [u32; crate::sq8::MAX_SCREEN_DIM / GROUP] =
    [0; crate::sq8::MAX_SCREEN_DIM / GROUP];

/// A 16 × 16 transpose of `u32` words: word `j` of register `i` becomes
/// word `i` of register `j`.  After the 32- and 64-bit interleaves, `u[4k +
/// c]` holds in its 128-bit lane `l` word `4l + c` of rows `4k..4k + 4`;
/// a 4 × 4 transpose of 128-bit lanes per `c` then gathers word `4l + c`
/// of all 16 rows, rows `4k..4k + 4` in lane `k`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose16(r: [__m512i; PANEL_ROWS]) -> [__m512i; PANEL_ROWS] {
    let t: [__m512i; PANEL_ROWS] = std::array::from_fn(|i| {
        let (a, b) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_epi32(a, b)
        } else {
            _mm512_unpackhi_epi32(a, b)
        }
    });
    let u: [__m512i; PANEL_ROWS] = std::array::from_fn(|i| {
        // rows 4k..4k + 4: t[4k], t[4k + 2] hold words 4l, 4l + 1 of
        // them, t[4k + 1], t[4k + 3] words 4l + 2, 4l + 3
        let (k, c) = (i / 4, i % 4);
        let (a, b) = (t[4 * k + c / 2], t[4 * k + 2 + c / 2]);
        if c % 2 == 0 {
            _mm512_unpacklo_epi64(a, b)
        } else {
            _mm512_unpackhi_epi64(a, b)
        }
    });
    let mut columns = [_mm512_setzero_si512(); PANEL_ROWS];
    for c in 0..GROUP {
        let (a, b, x, y) = (u[c], u[4 + c], u[8 + c], u[12 + c]);
        let ab_low = _mm512_shuffle_i32x4::<0x44>(a, b);
        let ab_high = _mm512_shuffle_i32x4::<0xee>(a, b);
        let xy_low = _mm512_shuffle_i32x4::<0x44>(x, y);
        let xy_high = _mm512_shuffle_i32x4::<0xee>(x, y);
        columns[c] = _mm512_shuffle_i32x4::<0x88>(ab_low, xy_low);
        columns[4 + c] = _mm512_shuffle_i32x4::<0xdd>(ab_low, xy_low);
        columns[8 + c] = _mm512_shuffle_i32x4::<0x88>(ab_high, xy_high);
        columns[12 + c] = _mm512_shuffle_i32x4::<0xdd>(ab_high, xy_high);
    }
    columns
}

/// Outer rows per register block.
const MR: usize = 4;
/// Panels per register block.
const NR: usize = 2;
/// Bytes of inner codes per cache tile.
const TILE_BYTES: usize = 32 * 1024;

/// [`Screen::candidates_into`](crate::sq8::Screen::candidates_into) on
/// `zmm` registers: outer rows in blocks of [`MR`] against [`NR`] panels at
/// a time (8 accumulators, 6 loads per 8 `vpdpbusd`), edges with smaller
/// blocks.  Each panel's 16 approximations of a row are compared in
/// registers with the row's floor; only the lanes that reach it, inside
/// `b_rows`, leave the registers ([`Block::emit`]).  Panels that straddle
/// either end of `b_rows` are computed whole and their lanes outside the
/// range masked off.
///
/// The caller has checked the ranges, the dimension and the length of
/// `floors`.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
pub(crate) fn screen_into(
    outer: &Sq8Outer,
    a_rows: Range<usize>,
    inner: &Sq8Inner,
    b_rows: Range<usize>,
    floors: &mut [Floor],
    emitted: &mut Vec<Emitted>,
) {
    if a_rows.is_empty() || b_rows.is_empty() {
        return;
    }
    let panels = b_rows.start / PANEL_ROWS..b_rows.end.div_ceil(PANEL_ROWS);
    // Panel tiles of about 32 KiB stay in L1 while every outer row passes
    // over them.
    let tile = (TILE_BYTES / std::mem::size_of_val(inner.panel(0))).max(NR);
    let mut block = Block {
        outer,
        inner,
        a_rows: &a_rows,
        b_rows: &b_rows,
        floors,
        emitted,
    };
    for first in panels.clone().step_by(tile) {
        block.tile(first..(first + tile).min(panels.end));
    }
}

/// One [`screen_into`] call: its operands, the rows' floors and the
/// candidates emitted so far.
struct Block<'a> {
    outer: &'a Sq8Outer,
    inner: &'a Sq8Inner,
    a_rows: &'a Range<usize>,
    b_rows: &'a Range<usize>,
    floors: &'a mut [Floor],
    emitted: &'a mut Vec<Emitted>,
}

impl Block<'_> {
    /// Every outer row against the panels of one cache tile, [`MR`] rows
    /// at a time.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn tile(&mut self, panels: Range<usize>) {
        let mut ar = self.a_rows.start;
        while ar + MR <= self.a_rows.end {
            self.rows::<MR>(ar, panels.clone());
            ar += MR;
        }
        while ar < self.a_rows.end {
            self.rows::<1>(ar, panels.clone());
            ar += 1;
        }
    }

    /// Outer rows `ar..ar + M` against every panel of `panels`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn rows<const M: usize>(&mut self, ar: usize, panels: Range<usize>) {
        let (outer, inner) = (self.outer, self.inner);
        let first_row = ar - self.a_rows.start;
        let mut codes: [&[u32]; M] = [&[]; M];
        let mut s_a = [_mm512_setzero_ps(); M];
        let mut floor = [_mm512_setzero_ps(); M];
        for i in 0..M {
            codes[i] = outer.row_codes(ar + i);
            s_a[i] = _mm512_set1_ps(outer.scale(ar + i));
            floor[i] = _mm512_set1_ps(self.floors[first_row + i].value());
        }
        let mut p = panels.start;
        while p + NR <= panels.end {
            let acc = dot_block::<M, NR>(codes, [inner.panel(p), inner.panel(p + 1)]);
            self.panels::<M, NR>(p, first_row, s_a, acc, &mut floor);
            p += NR;
        }
        if p < panels.end {
            let acc = dot_block::<M, 1>(codes, [inner.panel(p)]);
            self.panels::<M, 1>(p, first_row, s_a, acc, &mut floor);
        }
    }

    /// Turns the `M` rows' accumulators against panels `first_panel..
    /// first_panel + N` into approximations, `(f32(acc − 128 Σq_b) · s_b) ·
    /// s_a`, and compares the lanes that fall inside `b_rows` with each
    /// row's floor, `floor[i]` (`≥`, as the reference does).  When a lane
    /// reaches it, the block goes to [`Block::emit`] and the floors are
    /// read back.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn panels<const M: usize, const N: usize>(
        &mut self,
        first_panel: usize,
        first_row: usize,
        s_a: [__m512; M],
        acc: [[__m512i; N]; M],
        floor: &mut [__m512; M],
    ) {
        let mut scores = [[_mm512_setzero_ps(); N]; M];
        let mut hits: [[__mmask16; N]; M] = [[0; N]; M];
        let mut any = 0;
        for j in 0..N {
            let panel = first_panel + j;
            let (bias, scales) = (self.inner.panel_bias(panel), self.inner.panel_scales(panel));
            assert!(bias.len() == PANEL_ROWS && scales.len() == PANEL_ROWS);
            // SAFETY: both slices hold exactly 16 four-byte values (asserted
            // above), the 64 bytes each unaligned load reads.
            let (bias, scales) = unsafe {
                (
                    _mm512_loadu_epi32(bias.as_ptr()),
                    _mm512_loadu_ps(scales.as_ptr()),
                )
            };
            // the panel's lanes inside `b_rows`: `lo..hi` of its 16
            let first = panel * PANEL_ROWS;
            let lo = first.max(self.b_rows.start) - first;
            let hi = (first + PANEL_ROWS).min(self.b_rows.end) - first;
            let live = ((1u32 << hi) - (1u32 << lo)) as __mmask16;
            for i in 0..M {
                let dot = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[i][j], bias));
                scores[i][j] = _mm512_mul_ps(_mm512_mul_ps(dot, scales), s_a[i]);
                hits[i][j] = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(live, scores[i][j], floor[i]);
                any |= hits[i][j];
            }
        }
        if any != 0 {
            self.emit(first_row, first_panel * PANEL_ROWS, &hits, &scores);
            for (i, floor) in floor.iter_mut().enumerate() {
                *floor = _mm512_set1_ps(self.floors[first_row + i].value());
            }
        }
    }

    /// Offers the `hits` lanes of a register block's approximations
    /// `scores` (rows `first_row..first_row + M`, `16 N` inner rows from
    /// `first`) to their rows' floors, each row's lanes in ascending inner
    /// order, each against the floor in force when it is reached, which an
    /// earlier lane may have raised.  Out of line and cold: after a row's
    /// first panels almost no block has a lane that reaches its floor, and
    /// the hot loop keeps no accumulator live across the call.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn emit<const M: usize, const N: usize>(
        &mut self,
        first_row: usize,
        first: usize,
        hits: &[[__mmask16; N]; M],
        scores: &[[__m512; N]; M],
    ) {
        for i in 0..M {
            if hits[i].iter().all(|&hits| hits == 0) {
                continue;
            }
            let row = first_row + i;
            let floor = &mut self.floors[row];
            if let (value, Rule::Lanes { k, top, slack }) = floor.parts() {
                offer_lanes(
                    row,
                    first,
                    &hits[i],
                    &scores[i],
                    (value, *k, top, *slack),
                    self.emitted,
                );
                continue;
            }
            for j in 0..N {
                let mut lanes = [0.0f32; PANEL_ROWS];
                // SAFETY: `lanes` is 16 floats, exactly the 64 bytes the
                // unaligned store writes.
                unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), scores[i][j]) };
                let mut hits = u32::from(hits[i][j]);
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    floor.offer(
                        row,
                        first + j * PANEL_ROWS + lane,
                        lanes[lane],
                        self.emitted,
                    );
                }
            }
        }
    }
}

/// [`Floor::offer`](crate::sq8::Floor::offer) of the `hits` lanes of one
/// row's approximations against `N` panels (`scores`, inner rows from
/// `first`) to a running floor of `k ≤ 16` (`value`, `top`, `slack`: its
/// parts), in ascending order.  The kept approximations stay sorted in a
/// register and each lane is inserted as the portable `insert_lane` does;
/// after every emitted lane the panel's remaining lanes are compared with
/// the raised floor at once, so the loop visits only lanes that are
/// emitted — a stale mask from the block's start would visit every lane
/// of a row's first panels.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn offer_lanes<const N: usize>(
    row: usize,
    first: usize,
    hits: &[__mmask16; N],
    scores: &[__m512; N],
    (value, k, top, slack): (&mut f32, usize, &mut [f32; PANEL_ROWS], f32),
    emitted: &mut Vec<Emitted>,
) {
    // lane `l` of the shifted vector reads lane `l − 1`; lane 0 reads +inf
    let shift = _mm512_set_epi32(14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0);
    let (inf, kth) = (
        _mm512_set1_ps(f32::INFINITY),
        _mm512_set1_epi32(k as i32 - 1),
    );
    // SAFETY: `top` is 16 floats, exactly the 64 bytes the unaligned load
    // reads (and the store below writes).
    let mut best = unsafe { _mm512_loadu_ps(top.as_ptr()) };
    let mut floor = *value;
    for (j, (&hits, &scores)) in hits.iter().zip(scores).enumerate() {
        let mut lanes = [0.0f32; PANEL_ROWS];
        // SAFETY: `lanes` is 16 floats, exactly the 64 bytes the unaligned
        // store writes.
        unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), scores) };
        // the floor may have risen since the block compared this panel
        let mut hits = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(hits, scores, _mm512_set1_ps(floor));
        while hits != 0 {
            let lane = hits.trailing_zeros() as usize;
            let x = lanes[lane];
            emitted.push(Emitted::new(row, first + j * PANEL_ROWS + lane, x));
            let x = _mm512_set1_ps(x);
            let stays = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(best, x);
            let shifted = _mm512_mask_permutexvar_ps(inf, 0xfffe, shift, best);
            best = _mm512_mask_blend_ps(stays, _mm512_min_ps(shifted, x), best);
            let tau = _mm512_cvtss_f32(_mm512_permutexvar_ps(kth, best));
            floor = (tau - slack).next_down();
            // the lanes after this one that still reach the floor
            let rest = hits & hits.wrapping_sub(1);
            hits = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(rest, scores, _mm512_set1_ps(floor));
        }
    }
    // SAFETY: as for the load above.
    unsafe { _mm512_storeu_ps(top.as_mut_ptr(), best) };
    *value = floor;
}

/// The register block: for each of the `M` outer rows (code words `codes`)
/// and each of the `N` panels (`groups` groups of 16 code words each), the
/// 16 lanes `Σ (q_a + 128) q_b`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn dot_block<const M: usize, const N: usize>(
    codes: [&[u32]; M],
    panels: [&[u32]; N],
) -> [[__m512i; N]; M] {
    let groups = codes[0].len();
    // Memory safety of the loads below rests on these lengths.
    assert!(codes.iter().all(|c| c.len() == groups));
    assert!(panels.iter().all(|p| p.len() == groups * PANEL_ROWS));
    let mut acc = [[_mm512_setzero_si512(); N]; M];
    for g in 0..groups {
        let mut b = [_mm512_setzero_si512(); N];
        for (b, panel) in b.iter_mut().zip(panels) {
            // SAFETY: `g < groups`, so the 16 words at `g * 16` end at most
            // at `groups * 16`, the length of every panel slice asserted
            // above; `_mm512_loadu_si512` has no alignment requirement.
            *b = unsafe { _mm512_loadu_si512(panel.as_ptr().add(g * PANEL_ROWS).cast()) };
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
