//! The int8 screen of the tensor join: symmetric per-row scalar quantisation
//! (SQ8), an integer approximation of the score of every pair of a block,
//! a proven bound on how far that approximation can lie from the fp32 score
//! the GEMM computes for the same pair, and the compare that turns the
//! approximations into candidates as they are computed.
//!
//! The tensor join uses it to decide which pairs *can* qualify before paying
//! for their fp32 dot products: a pair whose approximation is further below
//! the threshold (or the k-th best) than the bound cannot qualify, every
//! other pair is rescored with the 8-lane class, so the join returns the same
//! pairs with the same score bits as the unscreened block path.
//!
//! # Quantisation
//!
//! Each row `x` (dimension `d`) gets a scale `s = max|x| / 127` and codes
//! `q_k = clamp(round(x_k · (127 / max|x|)), ±127)` (nearest, ties to even;
//! both divisions and the product in f32), plus its L1 norm `‖x‖₁` (16 f32
//! lanes summed as a tree) and `Σq`.  A zero row has `s = 0`
//! and all-zero codes.  Rows are quantised independently, so where a morsel
//! or a block is cut changes no code.  The codes are stored for the kernel,
//! four to a little-endian `u32` word (codes `4g..4g + 4` in word `g`):
//!
//! * an outer row ([`Sq8Outer`]) as `u8 = q + 128`, `d` padded with code
//!   128 (`q = 0`) to a multiple of 4;
//! * inner rows ([`Sq8Inner`]) as `i8` in panels of 16 rows, k-major: group
//!   `g` of a panel is the 16 words `g` of its rows, 64 bytes, which is one
//!   `vpdpbusd` operand.  Rows past the end of the last panel and `k` past
//!   `d` are zero;
//! * an inner row kept between joins ([`quantize_rows`], the *per-row
//!   form*) as its `⌈d/4⌉` `i8` code words followed by its scale, `‖x‖₁`
//!   and `Σq` ([`row_code_len`] words in all).  A caller that embeds the
//!   same rows in many joins — the interpreter keeps one per embedding
//!   slot — quantises each row once and builds every join's inner side
//!   from the kept codes with [`Sq8Inner::from_codes`], in any order and
//!   with repeats: the same panels, scales and maxima
//!   [`Sq8Inner::quantize`] computes from those rows.  The assembly is a
//!   16 × 16 word transpose per panel and 16 groups (on `zmm` registers
//!   where the CPU has the screen).
//!
//! The quantiser works a panel (16 rows) at a time and writes each row's
//! words straight into their place — the outer row, the per-row form, or
//! the row's lane of each group of the panel — with no row-major copy of
//! the codes in between.  On a CPU with the screen it runs on `zmm`
//! registers (`crate::vnni`), its loops compiled for the row's count of
//! 16-float chunks up to `d = 128`; elsewhere, and as the reference it is
//! tested against, `quantize_row` runs.  Both write the same bits.
//!
//! # The approximation
//!
//! For outer row `a` and inner row `b` the integer `I = Σ_k q_a,k · q_b,k`
//! is exact (`|I| ≤ d · 127² < 2²⁴` for `d ≤` [`MAX_SCREEN_DIM`], so it
//! also converts to f32 exactly), and the approximate score is
//! `approx = (f32(I) · s_b) · s_a`, two f32 multiplies in that order.  Every
//! implementation computes those operations in that order, so the
//! approximation has the same bits on every CPU: the AVX-512 VNNI kernel
//! (`vpdpbusd` on the `u8` outer codes, minus `128 · Σq_b`) and the scalar
//! integer reference ([`Screen::reference`]) are held to each other bit for
//! bit.
//!
//! # The bound
//!
//! [`Sq8Outer::error_bound`] returns `ε_a` with `|S − approx| ≤ ε_a` for
//! every inner row `b`, where `S` is the fp32 score of the 8-lane class
//! ([`dot_lanes`](crate::kernels::dot_lanes)`::<8>`, what the GEMM writes).
//! Write `D = Σ a_k b_k` for the real dot product, `â = s_a q_a` and
//! `b̂ = s_b q_b` for the reconstructions (so `â · b̂ = s_a s_b I`), and
//! `u = 2⁻²⁴` for the unit roundoff.  Then
//! `|S − approx| ≤ |S − D| + |D − â·b̂| + |â·b̂ − approx|`, and:
//!
//! 1. **Quantisation.**  With `e_a = a − â`, `e_b = b − b̂`:
//!    `D − â·b̂ = e_a·b + a·e_b − e_a·e_b`.  Each code is the nearest integer
//!    to `y = fl(x · fl(127 / max))`, and `|y − x / s| ≤ 127 · 3.01u` (three
//!    roundings: the scale, its reciprocal and the product), so
//!    `|e_k| ≤ s (½ + 2.3·10⁻⁵)`.  Hence
//!    `|D − â·b̂| ≤ ½ s_a ‖b‖₁ + ½ s_b ‖a‖₁ + (d/4) s_a s_b`, up to that
//!    relative `5·10⁻⁵`; the bound uses it with `‖b‖₁` and `s_b`
//!    replaced by their maxima over the inner side.
//! 2. **The fp32 score.**  The 8-lane class rounds each product once and
//!    each term then passes through at most `d/8 + 14` additions (its lane,
//!    the lane sum, the tail), so the classical summation bound gives
//!    `|S − D| ≤ γ_n Σ|a_k b_k|` with `n ≤ d + 16` and `γ_n ≤ 1.01 n u`; and
//!    `Σ|a_k b_k| ≤ max|a| · ‖b‖₁ ≤ 127 s_a (1 + u) max‖b‖₁`.
//! 3. **The approximation's rounding.**  Two multiplies: `|â·b̂ − approx| ≤
//!    2.01u |I| s_a s_b ≤ 2.01u · 127² d · s_a max(s_b)`.
//!
//! The three terms are summed in f32 and scaled by `1 + 2⁻¹⁰`.  That factor
//! covers the relative slack left above (`5·10⁻⁵`), the f32 error of the
//! computed L1 norms (`≤ d u ≤ 6.1·10⁻⁵`) and the roundings of evaluating
//! the bound itself (a dozen operations, `≤ 12u`), with room to spare.
//! Finally `10⁻³⁰` is added for underflow: the exact score's products may
//! be subnormal (absolute error `≤ 2⁻¹⁵⁰` each, `≤ d · 2⁻¹⁵⁰` in all),
//! while no approximation underflows (below).
//!
//! # Candidates
//!
//! The screen writes no block of approximations.  [`Screen::candidates_into`]
//! compares each approximation with its outer row's [`Floor`] as soon as it
//! is computed and hands out only the pairs that reach it — `(outer row,
//! inner row, approximation)` — grouped by outer row, each row's in
//! ascending inner order ([`Candidates`]).  A floor is either fixed (a
//! threshold's `t − ε`) or running: `τ − slack` with `τ` the `k`-th best
//! approximation the row has emitted so far, `-inf` until it has emitted
//! `k` (top-k's `τ − 2ε`).  A running floor is raised by every emitted
//! approximation, lane by lane, so a row's candidates are those of one pass
//! over its inner rows in ascending order, the floor in force at each; the
//! caller keeps the floors for the whole join, and where its blocks, the
//! kernel's tiles or a pool cut the pairs changes no candidate.  Both
//! implementations emit the same candidates, approximations bit for bit,
//! in the same order.
//!
//! # Which rows can be screened
//!
//! The bound must hold for any rows the screen accepts, not only unit rows,
//! so quantisation refuses (returns `None`) a side with a row that is not
//! finite, whose largest magnitude exceeds `2³²`, or whose largest magnitude
//! is positive but below `2⁻³²`.  Inside that range no score, approximation
//! or bound overflows (`|approx| < 2²⁴ · 2⁶⁶`), a nonzero approximation is a
//! normal number (`≥ 2⁻⁷⁸`), and the reciprocal scale is finite.  A caller
//! that gets `None` runs the unscreened path; so does every dimension above
//! [`MAX_SCREEN_DIM`] or of zero.

use std::ops::Range;

use cej_exec::ExecPool;

use crate::topk::{TopK, TopKEntry};

/// Largest dimension the screen handles: `d · 127²` must stay below `2²⁴` so
/// that the integer dot product converts to f32 exactly.
pub const MAX_SCREEN_DIM: usize = 1024;

/// Inner rows per panel — the 16 `i32` lanes of a `zmm` register.
pub const PANEL_ROWS: usize = 16;
/// Codes per group — the 4 bytes `vpdpbusd` multiplies into one lane, kept
/// as one `u32` word.
pub(crate) const GROUP: usize = 4;

/// Largest row magnitude the screen accepts (`2³²`).
const MAX_MAGNITUDE: f32 = 4_294_967_296.0;
/// Smallest nonzero row maximum the screen accepts (`2⁻³²`).
const MIN_ROW_MAX: f32 = 1.0 / 4_294_967_296.0;
/// Absolute slack of the bound for subnormal products in the exact score.
const UNDERFLOW_SLACK: f32 = 1e-30;
/// `1.5 · 2²³`: adding it to `|y| < 2²²` rounds `y` to an integer.
pub(crate) const ROUNDING_MAGIC: f32 = 12_582_912.0;
/// The bits of [`ROUNDING_MAGIC`], subtracted to read the integer back.
pub(crate) const ROUNDING_MAGIC_BITS: i32 = 0x4b40_0000;
/// Unit roundoff of f32 (`2⁻²⁴`).
const U: f32 = f32::EPSILON / 2.0;

/// What quantising one row yields besides its codes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct RowCode {
    /// `max|x| / 127`.
    pub(crate) scale: f32,
    /// `‖x‖₁`: 16 lane partial sums over the row in chunks of 16 (the last
    /// chunk zero-padded), then [`sum_lanes`].
    pub(crate) l1: f32,
    /// `Σq`.
    pub(crate) sum: i32,
}

/// The checks and scalars of a row whose largest magnitude has the bits
/// `max_bits`: `(scale, 127 / max)`, or `None` outside the screen's range.
/// Magnitude bits order like magnitudes and a NaN's sort above +inf's, so
/// the upper check also rejects every non-finite row.
#[inline(always)]
pub(crate) fn row_scalars(max_bits: u32) -> Option<(f32, f32)> {
    if max_bits > MAX_MAGNITUDE.to_bits() || (max_bits != 0 && max_bits < MIN_ROW_MAX.to_bits()) {
        return None;
    }
    let max = f32::from_bits(max_bits);
    let inverse = if max == 0.0 { 0.0 } else { 127.0 / max };
    Some((max / 127.0, inverse))
}

/// The code of `x` for a row with reciprocal scale `inverse`.
/// `|x · inverse| ≤ 127 (1 + 2u)`, so adding `1.5 · 2²³` lands in
/// `[2²³, 2²⁴)`, where the f32 spacing is 1: the add rounds to the nearest
/// integer (ties to even), which the low bits of the sum then hold.
#[inline(always)]
pub(crate) fn code(x: f32, inverse: f32) -> i32 {
    let rounded = (x * inverse + ROUNDING_MAGIC).to_bits() as i32 - ROUNDING_MAGIC_BITS;
    rounded.clamp(-127, 127)
}

/// Quantises one row into `codes[..row.len()]` — the portable definition
/// the AVX-512 quantiser reproduces bit for bit — or `None` when the row is
/// outside the screen's range (module documentation).
pub(crate) fn quantize_row(row: &[f32], codes: &mut [i8]) -> Option<RowCode> {
    let max_bits = row
        .iter()
        .fold(0u32, |max, x| max.max(x.to_bits() & 0x7fff_ffff));
    let (scale, inverse) = row_scalars(max_bits)?;
    let mut sum = 0i32;
    for (q, &x) in codes.iter_mut().zip(row) {
        let c = code(x, inverse);
        sum += c;
        *q = c as i8;
    }
    let mut lanes = [0.0f32; PANEL_ROWS];
    for chunk in row.chunks(PANEL_ROWS) {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane += x.abs();
        }
    }
    Some(RowCode {
        scale,
        l1: sum_lanes(lanes),
        sum,
    })
}

/// The L1 lanes' total, folded as a tree — lane `i` plus lane `i + 8`, then
/// `i + 4`, `i + 2`, `i + 1` — so the sum is four additions deep.
#[inline(always)]
pub(crate) fn sum_lanes(mut lanes: [f32; PANEL_ROWS]) -> f32 {
    let mut width = PANEL_ROWS / 2;
    while width > 0 {
        for i in 0..width {
            lanes[i] += lanes[i + width];
        }
        width /= 2;
    }
    lanes[0]
}

/// Where a batch of at most 16 rows writes its code words — word `g` of a
/// row holds its codes `4g..4g + 4` as little-endian bytes, code 0 past
/// `dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// The outer side: `u8` codes `q + 128`, row `i`'s `groups` words at
    /// `i * groups`.
    Rows,
    /// The per-row form an inner row is kept in: `i8` codes, row `i`'s
    /// `groups` words at `i * groups`.
    Codes,
    /// One inner panel: `i8` codes, word `g` of row `i` at `g * 16 + i`.
    Panel,
}

/// Quantises a batch of at most 16 rows of `dim` floats into `words`
/// (laid out as `layout` says) and `out` — with the AVX-512 quantiser when
/// `fast` (the caller saw [`Screen::detect`]), otherwise with
/// [`quantize_row`] — or `None` when a row is outside the screen's range.
fn quantize_batch(
    batch: &[f32],
    dim: usize,
    layout: Layout,
    fast: bool,
    words: &mut [u32],
    out: &mut [RowCode],
) -> Option<()> {
    if fast {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `fast` is only set after `Screen::detect` saw avx512f and
        // avx512bw, the features the callee is compiled for.
        return unsafe { crate::vnni::quantize_batch(batch, dim, layout, words, out) };
    }
    let groups = dim.div_ceil(GROUP);
    let mut codes = [0i8; MAX_SCREEN_DIM];
    for (i, (row, out)) in batch.chunks_exact(dim).zip(out).enumerate() {
        // codes past `dim` are never written: they stay 0
        *out = quantize_row(row, &mut codes[..dim])?;
        for (g, group) in codes[..groups * GROUP].chunks_exact(GROUP).enumerate() {
            let group: [i8; GROUP] = group.try_into().expect("chunks_exact(4) yields 4");
            let word = u32::from_le_bytes(group.map(|q| q as u8));
            match layout {
                // `q + 128` is `q`'s two's-complement byte with the top bit
                // flipped
                Layout::Rows => words[i * groups + g] = word ^ 0x8080_8080,
                Layout::Codes => words[i * groups + g] = word,
                Layout::Panel => words[g * PANEL_ROWS + i] = word,
            }
        }
    }
    Some(())
}

/// Dimension check shared by both sides.
fn screenable_dim(rows: usize, dim: usize, data: &[f32]) -> bool {
    assert_eq!(data.len(), rows * dim, "data must hold rows * dim floats");
    (1..=MAX_SCREEN_DIM).contains(&dim)
}

/// Words of one row in the per-row form ([`quantize_rows`]) at dimension
/// `dim`: its `⌈dim / 4⌉` code words, then its scale, `‖x‖₁` (both as f32
/// bits) and `Σq`.
pub fn row_code_len(dim: usize) -> usize {
    dim.div_ceil(GROUP) + 3
}

/// Quantises row-major rows of `dim` floats into the per-row form an inner
/// row can be kept in between joins: row `i`'s [`row_code_len`] words at
/// `codes[i * row_code_len(dim)..]`, and in `accepted[i]` whether the row
/// is inside the screen's range (a refused row's words are unspecified).
/// The codes are those [`Sq8Inner::quantize`] packs, bit for bit, so
/// [`Sq8Inner::from_codes`] over them rebuilds its panels.
///
/// # Panics
/// Panics when `dim` is 0 or above [`MAX_SCREEN_DIM`], or the lengths of
/// `data`, `codes` and `accepted` disagree.
pub fn quantize_rows(data: &[f32], dim: usize, codes: &mut [u32], accepted: &mut [bool]) {
    quantize_rows_with(data, dim, codes, accepted, Screen::detect().is_some());
}

/// [`quantize_rows`] with the AVX-512 quantiser (`fast`, which the caller
/// has seen [`Screen::detect`] allow) or the portable one.
pub(crate) fn quantize_rows_with(
    data: &[f32],
    dim: usize,
    codes: &mut [u32],
    accepted: &mut [bool],
    fast: bool,
) {
    assert!(screenable_dim(accepted.len(), dim, data), "dimension {dim}");
    let (groups, len) = (dim.div_ceil(GROUP), row_code_len(dim));
    assert_eq!(codes.len(), accepted.len() * len, "words per row");
    let mut words = vec![0u32; PANEL_ROWS * groups];
    let mut out = [RowCode::default(); PANEL_ROWS];
    let batches = data
        .chunks(PANEL_ROWS * dim)
        .zip(codes.chunks_mut(PANEL_ROWS * len));
    for ((batch, codes), accepted) in batches.zip(accepted.chunks_mut(PANEL_ROWS)) {
        let rows = accepted.len();
        let (words, out) = (&mut words[..rows * groups], &mut out[..rows]);
        if quantize_batch(batch, dim, Layout::Codes, fast, words, out).is_some() {
            accepted.fill(true);
        } else {
            // a row of the batch is refused: code the batch row by row
            let one = batch.chunks_exact(dim).zip(words.chunks_exact_mut(groups));
            for (i, (row, words)) in one.enumerate() {
                let out = &mut out[i..=i];
                accepted[i] = quantize_batch(row, dim, Layout::Codes, fast, words, out).is_some();
            }
        }
        let rows = codes.chunks_exact_mut(len).zip(words.chunks_exact(groups));
        for ((code, words), row) in rows.zip(out.iter()) {
            code[..groups].copy_from_slice(words);
            code[groups..].copy_from_slice(&[
                row.scale.to_bits(),
                row.l1.to_bits(),
                row.sum as u32,
            ]);
        }
    }
}

/// The outer side of the screen: one row of `u8` codes (`q + 128`) per
/// outer row, packed four to a `u32` word, with its scale and L1 norm.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Outer {
    rows: usize,
    dim: usize,
    /// `dim` rounded up to whole groups, divided by [`GROUP`].
    groups: usize,
    codes: Vec<u32>,
    scales: Vec<f32>,
    l1: Vec<f32>,
}

impl Sq8Outer {
    /// Quantises `rows` row-major rows of `dim` floats, or `None` when a row
    /// is outside the screen's range or `dim` is 0 or above
    /// [`MAX_SCREEN_DIM`].
    ///
    /// # Panics
    /// Panics when `data.len() != rows * dim`.
    pub fn quantize(data: &[f32], rows: usize, dim: usize) -> Option<Self> {
        Self::quantize_with(data, rows, dim, Screen::detect().is_some())
    }

    /// [`Sq8Outer::quantize`] with the AVX-512 quantiser (`fast`, which
    /// the caller has seen [`Screen::detect`] allow) or the portable one.
    pub(crate) fn quantize_with(data: &[f32], rows: usize, dim: usize, fast: bool) -> Option<Self> {
        if !screenable_dim(rows, dim, data) {
            return None;
        }
        let groups = dim.div_ceil(GROUP);
        let mut codes = vec![0u32; rows * groups];
        let (mut scales, mut l1) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        let mut row_codes = [RowCode::default(); PANEL_ROWS];
        let batches = data.chunks(PANEL_ROWS * dim);
        for (batch, words) in batches.zip(codes.chunks_mut(PANEL_ROWS * groups)) {
            let out = &mut row_codes[..batch.len() / dim];
            quantize_batch(batch, dim, Layout::Rows, fast, words, out)?;
            scales.extend(out.iter().map(|row| row.scale));
            l1.extend(out.iter().map(|row| row.l1));
        }
        Some(Self {
            rows,
            dim,
            groups,
            codes,
            scales,
            l1,
        })
    }

    /// `ε` for outer row `row`: `|S − approx| ≤ ε` for this row against
    /// every row of `inner`, where `S` is the pair's 8-lane fp32 score (the
    /// derivation is in the module documentation).
    ///
    /// # Panics
    /// Panics when `row` is out of range or the sides differ in dimension.
    pub fn error_bound(&self, row: usize, inner: &Sq8Inner) -> f32 {
        assert_eq!(self.dim, inner.dim, "both sides must share a dimension");
        let d = self.dim as f32;
        let (sa, l1a) = (self.scales[row], self.l1[row]);
        let (sb, l1b) = (inner.max_scale, inner.max_l1);
        let quantisation = 0.5 * sa * l1b + 0.5 * sb * l1a + 0.25 * d * sa * sb;
        let exact_score = (d + 16.0) * 1.01 * U * 127.0 * sa * l1b;
        let approximation = 2.01 * U * (127.0 * 127.0) * d * sa * sb;
        (quantisation + exact_score + approximation) * (1.0 + 1.0 / 1024.0) + UNDERFLOW_SLACK
    }

    /// The `groups` code words of row `row`.
    #[inline]
    pub(crate) fn row_codes(&self, row: usize) -> &[u32] {
        &self.codes[row * self.groups..(row + 1) * self.groups]
    }

    /// The scale of row `row`.
    #[inline]
    pub(crate) fn scale(&self, row: usize) -> f32 {
        self.scales[row]
    }
}

/// The inner side of the screen: `i8` codes in 16-row panels, k-major in
/// 4-byte groups, with per-row scales and `128 · Σq` (the correction for the
/// outer side's `+128`), padded to whole panels, and the side's largest
/// scale and L1 norm (the inputs of [`Sq8Outer::error_bound`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Inner {
    rows: usize,
    dim: usize,
    groups: usize,
    panels: Vec<u32>,
    scales: Vec<f32>,
    bias: Vec<i32>,
    max_scale: f32,
    max_l1: f32,
}

impl Sq8Inner {
    /// Quantises and packs `rows` row-major rows of `dim` floats, or `None`
    /// when a row is outside the screen's range or `dim` is 0 or above
    /// [`MAX_SCREEN_DIM`].
    ///
    /// # Panics
    /// Panics when `data.len() != rows * dim`.
    pub fn quantize(data: &[f32], rows: usize, dim: usize) -> Option<Self> {
        Self::quantize_with(data, rows, dim, Screen::detect().is_some())
    }

    /// [`Sq8Inner::quantize`] with the AVX-512 quantiser (`fast`, which
    /// the caller has seen [`Screen::detect`] allow) or the portable one.
    /// Either writes each batch of 16 rows straight into its panel.
    pub(crate) fn quantize_with(data: &[f32], rows: usize, dim: usize, fast: bool) -> Option<Self> {
        if !screenable_dim(rows, dim, data) {
            return None;
        }
        let groups = dim.div_ceil(GROUP);
        let padded_rows = rows.div_ceil(PANEL_ROWS) * PANEL_ROWS;
        let mut panels = vec![0u32; padded_rows * groups];
        let mut scales = vec![0.0; padded_rows];
        let mut bias = vec![0; padded_rows];
        let (mut max_scale, mut max_l1) = (0.0f32, 0.0f32);
        let mut row_codes = [RowCode::default(); PANEL_ROWS];
        let batches = data.chunks(PANEL_ROWS * dim);
        for (b, (batch, panel)) in batches
            .zip(panels.chunks_mut(PANEL_ROWS * groups))
            .enumerate()
        {
            let out = &mut row_codes[..batch.len() / dim];
            quantize_batch(batch, dim, Layout::Panel, fast, panel, out)?;
            for (i, row) in out.iter().enumerate() {
                let r = b * PANEL_ROWS + i;
                bias[r] = 128 * row.sum;
                scales[r] = row.scale;
                max_scale = max_scale.max(row.scale);
                max_l1 = max_l1.max(row.l1);
            }
        }
        Some(Self {
            rows,
            dim,
            groups,
            panels,
            scales,
            bias,
            max_scale,
            max_l1,
        })
    }

    /// Packs rows kept in the per-row form ([`quantize_rows`]) into panels,
    /// one inner row per item in the order given — a row may come more than
    /// once — with [`Sq8Inner::quantize`]'s outputs, bit for bit, for the
    /// rows the codes were quantised from.  `None` when `dim` is 0 or above
    /// [`MAX_SCREEN_DIM`].  On a CPU with the screen each panel is a 16 × 16
    /// word transpose on `zmm` registers.
    ///
    /// The error bound of the screen holds for codes `quantize_rows` wrote
    /// for accepted rows; other words make a side whose screen may drop
    /// qualifying pairs.
    ///
    /// # Panics
    /// Panics when a row does not hold [`row_code_len`]`(dim)` words, or the
    /// iterator yields a different number of rows than its length.
    pub fn from_codes<'a, I>(dim: usize, rows: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a [u32]>,
        I::IntoIter: ExactSizeIterator,
    {
        Self::from_codes_with(
            Screen::detect().unwrap_or_else(Screen::reference),
            dim,
            rows,
        )
    }

    /// [`Sq8Inner::from_codes`] with `screen`'s assembly: the AVX-512
    /// transpose for the VNNI kernel, the portable loop for the reference.
    /// Both write the same panels.
    ///
    /// # Panics
    /// As [`Sq8Inner::from_codes`].
    pub fn from_codes_with<'a, I>(screen: Screen, dim: usize, rows: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a [u32]>,
        I::IntoIter: ExactSizeIterator,
    {
        if !(1..=MAX_SCREEN_DIM).contains(&dim) {
            return None;
        }
        let mut items = rows.into_iter();
        let rows = items.len();
        let (groups, len) = (dim.div_ceil(GROUP), row_code_len(dim));
        let padded_rows = rows.div_ceil(PANEL_ROWS) * PANEL_ROWS;
        let mut panels = vec![0u32; padded_rows * groups];
        let mut scales = vec![0.0; padded_rows];
        let mut bias = vec![0; padded_rows];
        let (mut max_scale, mut max_l1) = (0.0f32, 0.0f32);
        for (p, panel) in panels.chunks_exact_mut(PANEL_ROWS * groups).enumerate() {
            let mut words: [&[u32]; PANEL_ROWS] = [&[]; PANEL_ROWS];
            let mut live = 0;
            for (word, code) in words.iter_mut().zip(items.by_ref().take(PANEL_ROWS)) {
                assert_eq!(code.len(), len, "a row of dimension {dim}");
                let (code_words, scalars) = code.split_at(groups);
                let (scale, l1) = (f32::from_bits(scalars[0]), f32::from_bits(scalars[1]));
                *word = code_words;
                let r = p * PANEL_ROWS + live;
                bias[r] = 128 * scalars[2] as i32;
                scales[r] = scale;
                max_scale = max_scale.max(scale);
                max_l1 = max_l1.max(l1);
                live += 1;
            }
            assert!(
                live == PANEL_ROWS.min(rows - p * PANEL_ROWS),
                "the iterator ended early"
            );
            screen.transpose_panel(&words[..live], groups, panel);
        }
        assert!(items.next().is_none(), "the iterator outlasted its length");
        Some(Self {
            rows,
            dim,
            groups,
            panels,
            scales,
            bias,
            max_scale,
            max_l1,
        })
    }

    /// The number of inner rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The code words of panel `panel`: `groups` groups of 16 words, word
    /// `i` of a group holding four codes of the panel's row `i`.
    #[inline]
    pub(crate) fn panel(&self, panel: usize) -> &[u32] {
        let len = self.groups * PANEL_ROWS;
        &self.panels[panel * len..(panel + 1) * len]
    }

    /// The 16 scales of panel `panel`.
    #[inline]
    pub(crate) fn panel_scales(&self, panel: usize) -> &[f32] {
        &self.scales[panel * PANEL_ROWS..(panel + 1) * PANEL_ROWS]
    }

    /// The 16 `128 · Σq` corrections of panel `panel`.
    #[inline]
    pub(crate) fn panel_bias(&self, panel: usize) -> &[i32] {
        &self.bias[panel * PANEL_ROWS..(panel + 1) * PANEL_ROWS]
    }

    /// Code `k` of inner row `row`.
    fn code(&self, row: usize, k: usize) -> i8 {
        let panel = self.panel(row / PANEL_ROWS);
        panel[k / GROUP * PANEL_ROWS + row % PANEL_ROWS].to_le_bytes()[k % GROUP] as i8
    }
}

/// The floor an outer row's approximations must reach to be emitted as
/// candidates by [`Screen::candidates_into`].  A caller keeps one per outer
/// row for a whole join, so that a running floor carries across the
/// kernel's tiles and the caller's blocks.
#[derive(Debug, Clone)]
pub struct Floor {
    /// The floor in force: an approximation `≥` it is emitted.
    value: f32,
    rule: Rule,
}

/// How a [`Floor`] moves.
#[derive(Debug, Clone)]
pub(crate) enum Rule {
    /// It does not.
    Fixed,
    /// A running floor for `k ≤ 16`: `top` holds the row's best emitted
    /// approximations in descending order, `-inf` where there are none
    /// yet; lanes past `k − 1` are scratch.  The floor is
    /// `(top[k − 1] − slack)` rounded down.
    Lanes {
        k: usize,
        top: [f32; PANEL_ROWS],
        slack: f32,
    },
    /// A running floor for larger `k`: the `k` best emitted approximations
    /// by inner row.
    Heap { best: TopK, slack: f32 },
}

impl Floor {
    /// A floor that stays `value` — a threshold's `t − ε`.
    pub fn fixed(value: f32) -> Self {
        Self {
            value,
            rule: Rule::Fixed,
        }
    }

    /// A floor that follows the row's emitted approximations: `-inf` until
    /// `k` have been emitted, then `τ − slack` rounded down (`next_down`, so
    /// that the f32 difference is a lower bound of the real one), `τ` the
    /// `k`-th best approximation emitted so far.  Every approximation not
    /// emitted lies below the floor and so below `τ`, so `τ` is also the
    /// `k`-th best the row has been screened against: a value `k` distinct
    /// pairs reach, which only rises and ends at the row's `k`-th best
    /// approximation.
    ///
    /// # Panics
    /// Panics when `k` is 0.
    pub fn running(k: usize, slack: f32) -> Self {
        assert!(k > 0, "a running floor keeps at least one approximation");
        let rule = if k <= PANEL_ROWS {
            Rule::Lanes {
                k,
                top: [f32::NEG_INFINITY; PANEL_ROWS],
                slack,
            }
        } else {
            Rule::Heap {
                best: TopK::new(k),
                slack,
            }
        };
        Self {
            value: f32::NEG_INFINITY,
            rule,
        }
    }

    /// The floor in force.
    #[inline]
    pub fn value(&self) -> f32 {
        self.value
    }

    /// Bytes of state the floor holds: a running floor's kept
    /// approximations.
    pub fn bytes(&self) -> usize {
        match &self.rule {
            Rule::Fixed => 0,
            Rule::Lanes { top, .. } => std::mem::size_of_val(top),
            Rule::Heap { best, .. } => best.len() * std::mem::size_of::<TopKEntry>(),
        }
    }

    /// The floor in force and how it moves, for a kernel that raises it
    /// itself.
    #[inline]
    pub(crate) fn parts(&mut self) -> (&mut f32, &mut Rule) {
        (&mut self.value, &mut self.rule)
    }

    /// Emits outer row `row`'s (of the call) approximation `approx` against
    /// inner row `column` into `emitted` if it reaches the floor in force,
    /// and raises a running floor to it.
    #[inline(always)]
    pub(crate) fn offer(
        &mut self,
        row: usize,
        column: usize,
        approx: f32,
        emitted: &mut Vec<Emitted>,
    ) {
        if approx < self.value {
            return;
        }
        emitted.push(Emitted::new(row, column, approx));
        match &mut self.rule {
            Rule::Fixed => {}
            Rule::Lanes { k, top, slack } => {
                insert_lane(top, approx);
                self.value = (top[*k - 1] - *slack).next_down();
            }
            Rule::Heap { best, slack } => {
                best.push(column, approx);
                if let Some(tau) = best.threshold() {
                    self.value = (tau - *slack).next_down();
                }
            }
        }
    }
}

/// Inserts `x` into `top`, kept in descending order, after every value
/// `≥ x`; the last lane drops out.  Lane by lane: a lane holding a value
/// `≥ x` keeps it, the first other lane takes `x` and the rest take their
/// left neighbour — what the AVX-512 kernel computes in registers.
#[inline(always)]
fn insert_lane(top: &mut [f32; PANEL_ROWS], x: f32) {
    let old = *top;
    for lane in 0..PANEL_ROWS {
        if old[lane] < x {
            let left = if lane == 0 {
                f32::INFINITY
            } else {
                old[lane - 1]
            };
            top[lane] = left.min(x);
        }
    }
}

/// One candidate as the screen emits it: the outer row (of the call), the
/// inner row and the approximation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Emitted {
    row: u32,
    column: u32,
    approx: f32,
}

impl Emitted {
    #[inline(always)]
    pub(crate) fn new(row: usize, column: usize, approx: f32) -> Self {
        Self {
            row: row as u32,
            column: column as u32,
            approx,
        }
    }
}

/// The pairs a [`Screen::candidates_into`] call emitted, grouped by outer
/// row (the call's rows in order), each row's in ascending inner order.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    /// Where each outer row's candidates end in `columns` and `approx`.
    ends: Vec<usize>,
    /// The inner row of each candidate.
    columns: Vec<u32>,
    /// The approximation of each candidate.
    approx: Vec<f32>,
    /// The candidates in the order the screen emitted them, before
    /// grouping.
    emitted: Vec<Emitted>,
}

impl Candidates {
    /// The number of candidates.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` when no pair was emitted.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The number of outer rows of the call.
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Outer row `i`'s (of the call) candidates: their inner rows,
    /// ascending, and their approximations.
    ///
    /// # Panics
    /// Panics when `i` is not a row of the call.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let span = start..self.ends[i];
        (&self.columns[span.clone()], &self.approx[span])
    }

    /// Bytes of candidate state held: each candidate as emitted and as
    /// grouped.
    pub fn bytes(&self) -> usize {
        let grouped = std::mem::size_of::<u32>() + std::mem::size_of::<f32>();
        self.len() * (std::mem::size_of::<Emitted>() + grouped)
    }

    fn clear(&mut self) {
        self.ends.clear();
        self.columns.clear();
        self.approx.clear();
        self.emitted.clear();
    }

    /// Groups the emitted candidates of `rows` outer rows by row with a
    /// counting sort, which keeps each row's emission order — ascending
    /// inner order, in which the screen visits a row's inner rows.
    fn group(&mut self, rows: usize) {
        let Self {
            ends,
            columns,
            approx,
            emitted,
        } = self;
        // counts, then starts, then (advanced past each row's last) ends
        ends.clear();
        ends.resize(rows, 0);
        for e in emitted.iter() {
            ends[e.row as usize] += 1;
        }
        let mut start = 0;
        for end in ends.iter_mut() {
            (*end, start) = (start, start + *end);
        }
        columns.resize(emitted.len(), 0);
        approx.resize(emitted.len(), 0.0);
        for e in emitted.iter() {
            let at = &mut ends[e.row as usize];
            (columns[*at], approx[*at]) = (e.column, e.approx);
            *at += 1;
        }
    }

    /// Appends `other`'s rows after this one's.
    fn append(&mut self, other: &Candidates) {
        let base = self.columns.len();
        self.ends.extend(other.ends.iter().map(|end| base + end));
        self.columns.extend_from_slice(&other.columns);
        self.approx.extend_from_slice(&other.approx);
    }
}

/// Which implementation computes the approximate scores.  Both produce the
/// same bits (module documentation); only [`Screen::detect`] can hand out
/// the `std::arch` one, so holding it is proof the CPU has the features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScreenIsa {
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
    Reference,
}

/// An implementation of the screen: the approximate scores and the floor
/// compare that turns them into candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Screen {
    isa: ScreenIsa,
}

impl Screen {
    /// The AVX-512 VNNI kernel when the running CPU reports `avx512f`,
    /// `avx512bw` and `avx512vnni` (the probe is cached by the standard
    /// library, like [`SimdIsa::detect`](crate::kernels::SimdIsa::detect)'s),
    /// otherwise `None`: there is no portable fast path, and a caller
    /// without a screen runs the fp32 block.
    #[inline]
    pub fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return Some(Self {
                isa: ScreenIsa::Avx512Vnni,
            });
        }
        None
    }

    /// The scalar integer reference: the kernel's candidates, with the
    /// same bits, on every CPU, one pair at a time (for tests and for
    /// checking the kernel).
    pub fn reference() -> Self {
        Self {
            isa: ScreenIsa::Reference,
        }
    }

    /// Stable label for test output and reports.
    pub fn label(&self) -> &'static str {
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx512Vnni => "avx512-vnni",
            ScreenIsa::Reference => "reference",
        }
    }

    /// Writes the per-row code words of up to 16 rows (`groups` each) into
    /// their lanes of a zeroed panel: word `g` of row `i` to
    /// `panel[g * 16 + i]`.
    fn transpose_panel(&self, rows: &[&[u32]], groups: usize, panel: &mut [u32]) {
        assert!(rows.len() <= PANEL_ROWS && panel.len() == groups * PANEL_ROWS);
        assert!(rows.iter().all(|row| row.len() == groups));
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `Screen::candidates_into`: `Avx512Vnni` is proof of
            // the features the callee is compiled for.
            ScreenIsa::Avx512Vnni => unsafe { crate::vnni::transpose_panel(rows, groups, panel) },
            ScreenIsa::Reference => {
                for (i, row) in rows.iter().enumerate() {
                    for (g, &word) in row.iter().enumerate() {
                        panel[g * PANEL_ROWS + i] = word;
                    }
                }
            }
        }
    }

    /// Screens outer rows `a_rows` against inner rows `b_rows`: every pair
    /// whose approximate score reaches its outer row's floor in force goes
    /// to `out` as a candidate, grouped by outer row in `a_rows`' order and,
    /// within a row, in ascending inner order; no score block is written.
    /// `floors` holds one [`Floor`] per outer row of `a_rows` and is raised
    /// as candidates are emitted (a running floor), so a caller that screens
    /// a row in several calls — inner rows in ascending blocks — hands the
    /// same floors to each: a row's candidates are then those of one pass
    /// over its inner rows in ascending order, however the calls, the
    /// kernel's tiles or a pool cut it.  `out` is overwritten.
    ///
    /// # Panics
    /// Panics when a range is out of bounds, the sides differ in dimension,
    /// `floors` has the wrong length, or an inner row number exceeds
    /// `u32::MAX`.
    pub fn candidates_into(
        &self,
        outer: &Sq8Outer,
        a_rows: Range<usize>,
        inner: &Sq8Inner,
        b_rows: Range<usize>,
        floors: &mut [Floor],
        out: &mut Candidates,
    ) {
        assert!(a_rows.start <= a_rows.end && a_rows.end <= outer.rows);
        assert!(b_rows.start <= b_rows.end && b_rows.end <= inner.rows);
        assert!(u32::try_from(b_rows.end).is_ok(), "inner rows fit a u32");
        assert_eq!(outer.dim, inner.dim, "both sides must share a dimension");
        assert_eq!(floors.len(), a_rows.len(), "one floor per outer row");
        out.emitted.clear();
        let rows = a_rows.len();
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx512Vnni => {
                // SAFETY: `ScreenIsa::Avx512Vnni` is only constructed by
                // `Screen::detect`, after the running CPU reported avx512f,
                // avx512bw and avx512vnni — the features the callee is
                // compiled for.
                unsafe {
                    crate::vnni::screen_into(outer, a_rows, inner, b_rows, floors, &mut out.emitted)
                }
            }
            ScreenIsa::Reference => {
                reference_screen(outer, a_rows, inner, b_rows, floors, &mut out.emitted)
            }
        }
        out.group(rows);
    }

    /// [`Screen::candidates_into`] with the outer rows split across `pool`
    /// the way [`block_into_with_pool`](crate::gemm::block_into_with_pool)
    /// splits them: each worker screens a disjoint range of rows with their
    /// floors into candidates of its own, which are then appended in row
    /// order — the same candidates as one call.
    ///
    /// # Panics
    /// As [`Screen::candidates_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn candidates_into_with_pool(
        &self,
        outer: &Sq8Outer,
        a_rows: Range<usize>,
        inner: &Sq8Inner,
        b_rows: Range<usize>,
        pool: &ExecPool,
        floors: &mut [Floor],
        out: &mut Candidates,
    ) {
        if pool.threads() <= 1 || a_rows.len() < 2 {
            self.candidates_into(outer, a_rows, inner, b_rows, floors, out);
            return;
        }
        assert_eq!(floors.len(), a_rows.len(), "one floor per outer row");
        // one part per task, each owning its rows' floors and candidates
        let tasks = pool.threads().min(a_rows.len());
        let mut parts = Vec::with_capacity(tasks);
        let (mut floors, mut start) = (floors, a_rows.start);
        for t in 0..tasks {
            let end = a_rows.start + a_rows.len() * (t + 1) / tasks;
            let (rows, rest) = floors.split_at_mut(end - start);
            parts.push((start..end, rows, Candidates::default()));
            (floors, start) = (rest, end);
        }
        pool.parallel_fill(&mut parts, tasks, 1, |_, parts| {
            for (rows, floors, part) in parts {
                self.candidates_into(outer, rows.clone(), inner, b_rows.clone(), floors, part);
            }
        });
        out.clear();
        for (_, _, part) in &parts {
            out.append(part);
        }
    }
}

/// The approximation of one pair, spelled out: the exact integer dot
/// product of the codes, then `(f32(I) · s_b) · s_a`.
fn reference_score(outer: &Sq8Outer, a: usize, inner: &Sq8Inner, b: usize) -> f32 {
    let dot: i32 = (0..outer.dim)
        .map(|k| {
            let word = outer.row_codes(a)[k / GROUP];
            let code = i32::from(word.to_le_bytes()[k % GROUP]) - 128;
            code * i32::from(inner.code(b, k))
        })
        .sum();
    (dot as f32 * inner.scales[b]) * outer.scales[a]
}

/// The screen one pair at a time: each outer row's inner rows in ascending
/// order, each approximation offered to the row's floor.
fn reference_screen(
    outer: &Sq8Outer,
    a_rows: Range<usize>,
    inner: &Sq8Inner,
    b_rows: Range<usize>,
    floors: &mut [Floor],
    emitted: &mut Vec<Emitted>,
) {
    for ((i, a), floor) in a_rows.enumerate().zip(floors) {
        for b in b_rows.clone() {
            floor.offer(i, b, reference_score(outer, a, inner, b), emitted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values in (-0.5, 0.5).
    fn floats(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn codes_round_to_nearest_and_keep_the_row_maximum() {
        let row = [1.0f32, -0.5, 0.25, 0.0, -1.0, 0.003];
        let outer = Sq8Outer::quantize(&row, 1, 6).unwrap();
        let inner = Sq8Inner::quantize(&row, 1, 6).unwrap();
        let expected = [127i8, -64, 32, 0, -127, 0];
        for (k, &q) in expected.iter().enumerate() {
            assert_eq!(inner.code(0, k), q, "inner code {k}");
            let word = outer.row_codes(0)[k / GROUP];
            assert_eq!(word.to_le_bytes()[k % GROUP], (q as u8) ^ 0x80);
        }
        // the padding of the second group: outer code 128 (q = 0), inner 0
        assert_eq!(outer.row_codes(0)[1].to_le_bytes()[2..], [128, 128]);
        assert_eq!((inner.code(0, 6), inner.code(0, 7)), (0, 0));
        assert_eq!(inner.bias[0], 128 * (127 - 64 + 32 - 127));
        assert_eq!(outer.scale(0), 1.0 / 127.0);
        assert_eq!(outer.l1[0], 1.0 + 0.5 + 0.25 + 0.0 + 1.0 + 0.003);
    }

    /// Every output of both sides, with floats as bits.
    type SideBits = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<i32>, [u32; 2]);

    fn side_bits(outer: &Sq8Outer, inner: &Sq8Inner) -> SideBits {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut outer_floats = bits(&outer.scales);
        outer_floats.extend(bits(&outer.l1));
        (
            outer.codes.clone(),
            outer_floats,
            inner.panels.clone(),
            bits(&inner.scales),
            inner.bias.clone(),
            [inner.max_scale.to_bits(), inner.max_l1.to_bits()],
        )
    }

    /// Both sides of `data` by the portable quantiser and, where the CPU
    /// has it, by the AVX-512 one writing words and panels directly: the
    /// same bits everywhere, or `None` from all four.  Returns the portable
    /// sides.
    fn assert_quantisers_agree(
        data: &[f32],
        rows: usize,
        dim: usize,
        what: &str,
    ) -> Option<(Sq8Outer, Sq8Inner)> {
        let outer = Sq8Outer::quantize_with(data, rows, dim, false);
        let inner = Sq8Inner::quantize_with(data, rows, dim, false);
        assert_eq!(outer.is_some(), inner.is_some(), "{what}");
        // the per-row form: the same words from either quantiser, refused
        // rows excepted
        let per_row = |fast| {
            let mut codes = vec![0u32; rows * row_code_len(dim)];
            let mut accepted = vec![false; rows];
            quantize_rows_with(data, dim, &mut codes, &mut accepted, fast);
            let codes = codes.chunks_exact(row_code_len(dim)).zip(&accepted);
            let kept = codes.filter(|(_, ok)| **ok).map(|(code, _)| code.to_vec());
            (kept.collect::<Vec<_>>(), accepted.iter().all(|ok| *ok))
        };
        let (portable_rows, all_accepted) = per_row(false);
        assert_eq!(all_accepted, inner.is_some(), "{what}");
        if Screen::detect().is_some() {
            assert!(per_row(true) == (portable_rows, all_accepted), "{what}");
            let fast_outer = Sq8Outer::quantize_with(data, rows, dim, true);
            let fast_inner = Sq8Inner::quantize_with(data, rows, dim, true);
            assert_eq!(fast_outer.is_some(), outer.is_some(), "{what}");
            assert_eq!(fast_inner.is_some(), inner.is_some(), "{what}");
            if let (Some(o), Some(i), Some(fo), Some(fi)) = (&outer, &inner, fast_outer, fast_inner)
            {
                assert!(side_bits(o, i) == side_bits(&fo, &fi), "{what}");
            }
        }
        outer.zip(inner)
    }

    /// Uniform rows of `dim` values with, row by row, zero rows, spiky rows
    /// (one component 1, the rest round to code 0), rows on the half-code
    /// grid (every component a tie), `-0.0` and subnormal components, and
    /// rows whose maximum sits exactly on either end of the accepted range.
    fn hard_rows(rows: usize, dim: usize, seed: u32) -> Vec<f32> {
        let mut data = floats(rows * dim, seed);
        for (r, row) in data.chunks_exact_mut(dim).enumerate() {
            match r % 9 {
                0 => row.fill(0.0),
                1 => {
                    row.iter_mut().for_each(|x| *x *= 0.003);
                    row[r % dim] = 1.0;
                }
                2 => {
                    for (k, x) in row.iter_mut().enumerate() {
                        *x = ((k * 37 + r) % 255) as f32 - 127.0 + 0.5;
                    }
                }
                3 => {
                    for (k, x) in row.iter_mut().enumerate() {
                        *x = [-0.0, f32::MIN_POSITIVE / 8.0, -1e-40][k % 3];
                    }
                    row[0] = -0.75;
                }
                4 => {
                    row.iter_mut().for_each(|x| *x *= 1e9);
                    row[dim / 2] = MAX_MAGNITUDE;
                }
                5 => {
                    row.iter_mut().for_each(|x| *x *= 1e-12);
                    row[dim - 1] = -MIN_ROW_MAX;
                }
                _ => {}
            }
        }
        data
    }

    #[test]
    fn the_cpus_quantiser_is_the_portable_one_bit_for_bit() {
        // every dimension up to five chunks and a few wider ones, batches
        // with and without a partial panel; the portable codes are the
        // definition's nearest codes
        for dim in (1..=80usize).chain([100, 128, 129, 200, 1024]) {
            for rows in [1usize, 7, 16, 23] {
                let data = hard_rows(rows, dim, dim as u32);
                let what = format!("dim {dim} rows {rows}");
                let (outer, inner) = assert_quantisers_agree(&data, rows, dim, &what).unwrap();
                for (r, row) in data.chunks_exact(dim).enumerate() {
                    let codes: Vec<i8> = (0..dim).map(|k| inner.code(r, k)).collect();
                    let outer_codes = outer.row_codes(r);
                    for (k, &q) in codes.iter().enumerate() {
                        let byte = outer_codes[k / GROUP].to_le_bytes()[k % GROUP];
                        assert_eq!(byte, (q as u8) ^ 0x80, "{what} row {r} code {k}");
                    }
                    // the padding: outer code 128 (q = 0), inner code 0
                    for k in dim..dim.div_ceil(GROUP) * GROUP {
                        assert_eq!(outer_codes[k / GROUP].to_le_bytes()[k % GROUP], 128);
                        assert_eq!(inner.code(r, k), 0);
                    }
                    let sum: i32 = codes.iter().map(|&q| i32::from(q)).sum();
                    assert_eq!(inner.bias[r], 128 * sum, "{what} row {r}");
                    let scale = inner.scales[r];
                    if scale == 0.0 {
                        assert!(codes.iter().all(|&q| q == 0));
                        continue;
                    }
                    for (&x, &q) in row.iter().zip(&codes) {
                        let y = x / scale;
                        assert!(
                            (y - f32::from(q)).abs() <= 0.5001,
                            "{x} -> {q} at scale {scale}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panels_written_directly_equal_the_portable_quantiser() {
        // what a workload quantises: up to 10,080 rows, partial panels at
        // both ends of the range of row counts, every listed dimension
        const ROWS: [usize; 5] = [1, 15, 16, 17, 10_080];
        for dim in [1usize, 7, 15, 16, 17, 32, 63, 64, 65, 100, 128, 1024] {
            let data = hard_rows(10_080, dim, 7 * dim as u32);
            for rows in ROWS {
                let what = format!("dim {dim} rows {rows}");
                let data = &data[..rows * dim];
                assert!(assert_quantisers_agree(data, rows, dim, &what).is_some());
            }
            // a row just outside either end of the range, first, inside the
            // second panel or last: `None` from every quantiser
            for bad in [MAX_MAGNITUDE.next_up(), MIN_ROW_MAX.next_down()] {
                for at in [0usize, 17, 40] {
                    let mut data = data[..41 * dim].to_vec();
                    data[at * dim..(at + 1) * dim].fill(0.0);
                    data[at * dim + dim / 3] = -bad;
                    let what = format!("dim {dim} {bad:e} at row {at}");
                    assert!(assert_quantisers_agree(&data, 41, dim, &what).is_none());
                }
            }
        }
    }

    #[test]
    fn rows_outside_the_range_are_refused() {
        let accepted = |row: [f32; 4]| {
            let (outer, inner) = (
                Sq8Outer::quantize(&row, 1, 4),
                Sq8Inner::quantize(&row, 1, 4),
            );
            assert_eq!(outer.is_some(), inner.is_some());
            outer.is_some()
        };
        // anywhere in a row: not finite, or too large
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e10] {
            assert!(!accepted([0.5, bad, 0.0, 0.0]), "{bad}");
        }
        // tiny components are fine next to a normal maximum, not as one
        for tiny in [1e-12f32, -f32::MIN_POSITIVE / 4.0] {
            assert!(accepted([0.5, tiny, 0.0, 0.0]), "{tiny}");
            assert!(!accepted([0.0, tiny, 0.0, 0.0]), "{tiny}");
        }
        // zero rows are fine; dims 0 and above the limit are not
        assert!(Sq8Inner::quantize(&[0.0; 8], 2, 4).is_some());
        assert!(Sq8Inner::quantize(&[], 3, 0).is_none());
        let wide = vec![0.1f32; MAX_SCREEN_DIM + 1];
        assert!(Sq8Outer::quantize(&wide, 1, MAX_SCREEN_DIM + 1).is_none());
        assert!(Sq8Outer::quantize(&wide[1..], 1, MAX_SCREEN_DIM).is_some());
    }
}
