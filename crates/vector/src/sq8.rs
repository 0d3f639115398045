//! The int8 screen of the tensor join: symmetric per-row scalar quantisation
//! (SQ8), an integer approximation of every score of a block, and a proven
//! bound on how far that approximation can lie from the fp32 score the GEMM
//! computes for the same pair.
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
//! or a block is cut changes no code.  The codes are stored for the kernel:
//!
//! * an outer row ([`Sq8Outer`]) as `u8 = q + 128`, four codes to a `u32`
//!   word, `d` zero-padded (code 128) to a multiple of 4;
//! * inner rows ([`Sq8Inner`]) as `i8` in panels of 16 rows, k-major in
//!   4-byte groups: group `g` of a panel is the 64 bytes `q[row][4g..4g+4]`
//!   for its 16 rows, which is one `vpdpbusd` operand.  Rows past the end of
//!   the last panel and `k` past `d` are zero.
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

/// Largest dimension the screen handles: `d · 127²` must stay below `2²⁴` so
/// that the integer dot product converts to f32 exactly.
pub const MAX_SCREEN_DIM: usize = 1024;

/// Inner rows per panel — the 16 `i32` lanes of a `zmm` register.
pub(crate) const PANEL_ROWS: usize = 16;
/// Codes per group — the 4 bytes `vpdpbusd` multiplies into one lane.
pub(crate) const GROUP: usize = 4;
/// Bytes of one group of one panel: one `zmm` operand.
pub(crate) const PANEL_GROUP_BYTES: usize = PANEL_ROWS * GROUP;

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
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Quantises `data` with the fastest quantiser this CPU has, 16 rows at a
/// time: `visit(row, codes, row_code)` for each row, in order, or `None` at
/// the first batch with a row outside the screen's range.  `codes` is padded
/// with zeros to whole groups.
fn quantize_each(
    data: &[f32],
    dim: usize,
    mut visit: impl FnMut(usize, &[i8], RowCode),
) -> Option<()> {
    let stride = dim.div_ceil(GROUP) * GROUP;
    let mut codes = vec![0i8; PANEL_ROWS * stride];
    let empty = RowCode {
        scale: 0.0,
        l1: 0.0,
        sum: 0,
    };
    let mut row_codes = [empty; PANEL_ROWS];
    let fast = Screen::detect().is_some();
    for (b, batch) in data.chunks(PANEL_ROWS * dim).enumerate() {
        let out = &mut row_codes[..batch.len() / dim];
        if fast {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Screen::detect` saw avx512f and avx512bw, the
            // features the callee is compiled for.
            unsafe { crate::vnni::quantize_rows(batch, dim, &mut codes, stride, out) }?;
        } else {
            let rows = batch.chunks_exact(dim).zip(codes.chunks_exact_mut(stride));
            for ((row, codes), out) in rows.zip(out.iter_mut()) {
                *out = quantize_row(row, codes)?;
            }
        }
        for (i, (codes, row_code)) in codes.chunks_exact(stride).zip(out.iter()).enumerate() {
            visit(b * PANEL_ROWS + i, codes, *row_code);
        }
    }
    Some(())
}

/// Dimension check shared by both sides.
fn screenable_dim(rows: usize, dim: usize, data: &[f32]) -> bool {
    assert_eq!(data.len(), rows * dim, "data must hold rows * dim floats");
    (1..=MAX_SCREEN_DIM).contains(&dim)
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
        if !screenable_dim(rows, dim, data) {
            return None;
        }
        let groups = dim.div_ceil(GROUP);
        let mut out = Self {
            rows,
            dim,
            groups,
            codes: Vec::with_capacity(rows * groups),
            scales: Vec::with_capacity(rows),
            l1: Vec::with_capacity(rows),
        };
        quantize_each(data, dim, |_, codes, row| {
            // `q + 128` is `q`'s two's-complement byte with the top bit flipped
            out.codes.extend(codes.chunks_exact(GROUP).map(|g| {
                u32::from_le_bytes([g[0] as u8, g[1] as u8, g[2] as u8, g[3] as u8]) ^ 0x8080_8080
            }));
            out.scales.push(row.scale);
            out.l1.push(row.l1);
        })?;
        Some(out)
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
    pub(crate) fn row_codes(&self, row: usize) -> &[u32] {
        &self.codes[row * self.groups..(row + 1) * self.groups]
    }

    /// The scale of row `row`.
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
    panels: Vec<i8>,
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
        if !screenable_dim(rows, dim, data) {
            return None;
        }
        let groups = dim.div_ceil(GROUP);
        let padded_rows = rows.div_ceil(PANEL_ROWS) * PANEL_ROWS;
        let mut out = Self {
            rows,
            dim,
            groups,
            panels: vec![0i8; padded_rows * groups * GROUP],
            scales: vec![0.0; padded_rows],
            bias: vec![0; padded_rows],
            max_scale: 0.0,
            max_l1: 0.0,
        };
        quantize_each(data, dim, |r, codes, row| {
            let panel = &mut out.panels[r / PANEL_ROWS * groups * PANEL_GROUP_BYTES..];
            let lane = r % PANEL_ROWS * GROUP;
            for (g, group) in codes.chunks_exact(GROUP).enumerate() {
                let at = g * PANEL_GROUP_BYTES + lane;
                panel[at..at + GROUP].copy_from_slice(group);
            }
            out.bias[r] = 128 * row.sum;
            out.scales[r] = row.scale;
            out.max_scale = out.max_scale.max(row.scale);
            out.max_l1 = out.max_l1.max(row.l1);
        })?;
        Some(out)
    }

    /// The codes of panel `panel` (`groups` groups of 64 bytes).
    pub(crate) fn panel(&self, panel: usize) -> &[i8] {
        let len = self.groups * PANEL_GROUP_BYTES;
        &self.panels[panel * len..(panel + 1) * len]
    }

    /// The 16 scales of panel `panel`.
    pub(crate) fn panel_scales(&self, panel: usize) -> &[f32] {
        &self.scales[panel * PANEL_ROWS..(panel + 1) * PANEL_ROWS]
    }

    /// The 16 `128 · Σq` corrections of panel `panel`.
    pub(crate) fn panel_bias(&self, panel: usize) -> &[i32] {
        &self.bias[panel * PANEL_ROWS..(panel + 1) * PANEL_ROWS]
    }

    /// Code `k` of inner row `row`.
    fn code(&self, row: usize, k: usize) -> i8 {
        let panel = self.panel(row / PANEL_ROWS);
        panel[k / GROUP * PANEL_GROUP_BYTES + row % PANEL_ROWS * GROUP + k % GROUP]
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

/// An implementation of the screen's approximate-score block.
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

    /// The scalar integer reference: the same bits as the kernel on every
    /// CPU, one pair at a time (for tests and for checking the kernel).
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

    /// Writes the approximate score of every pair of outer rows `a_rows`
    /// and inner rows `b_rows` into `out`, row-major
    /// (`a_rows.len() × b_rows.len()`) — the layout of the GEMM's score
    /// block, so a caller can screen into the same buffer.
    ///
    /// # Panics
    /// Panics when a range is out of bounds, the sides differ in dimension,
    /// or `out` has the wrong length.
    pub fn block_into(
        &self,
        outer: &Sq8Outer,
        a_rows: Range<usize>,
        inner: &Sq8Inner,
        b_rows: Range<usize>,
        out: &mut [f32],
    ) {
        assert!(a_rows.start <= a_rows.end && a_rows.end <= outer.rows);
        assert!(b_rows.start <= b_rows.end && b_rows.end <= inner.rows);
        assert_eq!(outer.dim, inner.dim, "both sides must share a dimension");
        assert_eq!(out.len(), a_rows.len() * b_rows.len());
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx512Vnni => {
                // SAFETY: `ScreenIsa::Avx512Vnni` is only constructed by
                // `Screen::detect`, after the running CPU reported avx512f,
                // avx512bw and avx512vnni — the features the callee is
                // compiled for.
                unsafe { crate::vnni::block_into(outer, a_rows, inner, b_rows, out) }
            }
            ScreenIsa::Reference => reference_block(outer, a_rows, inner, b_rows, out),
        }
    }

    /// [`Screen::block_into`] with the outer rows split across `pool` the
    /// way [`block_into_with_pool`](crate::gemm::block_into_with_pool)
    /// splits them: each worker fills a disjoint row-aligned slice of `out`.
    ///
    /// # Panics
    /// As [`Screen::block_into`].
    pub fn block_into_with_pool(
        &self,
        outer: &Sq8Outer,
        a_rows: Range<usize>,
        inner: &Sq8Inner,
        b_rows: Range<usize>,
        pool: &ExecPool,
        out: &mut [f32],
    ) {
        if pool.threads() <= 1 || a_rows.len() < 2 {
            self.block_into(outer, a_rows, inner, b_rows, out);
            return;
        }
        let first = a_rows.start;
        pool.parallel_fill(out, a_rows.len(), b_rows.len(), |rows, chunk| {
            let rows = first + rows.start..first + rows.end;
            self.block_into(outer, rows, inner, b_rows.clone(), chunk);
        });
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

fn reference_block(
    outer: &Sq8Outer,
    a_rows: Range<usize>,
    inner: &Sq8Inner,
    b_rows: Range<usize>,
    out: &mut [f32],
) {
    let width = b_rows.len();
    for (i, a) in a_rows.enumerate() {
        for (j, b) in b_rows.clone().enumerate() {
            out[i * width + j] = reference_score(outer, a, inner, b);
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

    #[test]
    fn the_cpus_quantiser_is_the_portable_one_bit_for_bit() {
        // every dimension up to four chunks, values across the range,
        // including exact halves of the code grid (ties), zeros and -0.0
        for dim in 1..=64usize {
            let mut data = floats(7 * dim, dim as u32);
            for (i, x) in data.iter_mut().enumerate() {
                match i % 11 {
                    0 => *x = 0.0,
                    1 => *x = -0.0,
                    2 => *x *= 1e6,
                    3 => *x = (i % 255) as f32 - 127.0 + 0.5,
                    _ => {}
                }
            }
            let stride = dim.div_ceil(GROUP) * GROUP;
            for batch in data.chunks(PANEL_ROWS * dim) {
                let rows = batch.len() / dim;
                let mut portable = vec![0i8; rows * stride];
                let expected: Vec<RowCode> = batch
                    .chunks_exact(dim)
                    .zip(portable.chunks_exact_mut(stride))
                    .map(|(row, codes)| quantize_row(row, codes).unwrap())
                    .collect();
                #[cfg(target_arch = "x86_64")]
                if Screen::detect().is_some() {
                    let mut fast = vec![0i8; rows * stride];
                    let mut got = vec![expected[0]; rows];
                    // SAFETY: `Screen::detect` saw avx512f and avx512bw.
                    unsafe { crate::vnni::quantize_rows(batch, dim, &mut fast, stride, &mut got) };
                    assert_eq!(got, expected, "dim {dim}");
                    assert_eq!(fast, portable, "dim {dim}");
                }
                for ((row, codes), row_code) in batch
                    .chunks_exact(dim)
                    .zip(portable.chunks_exact(stride))
                    .zip(&expected)
                {
                    let codes = &codes[..dim];
                    assert_eq!(
                        row_code.sum,
                        codes.iter().map(|&q| i32::from(q)).sum::<i32>()
                    );
                    if row_code.scale == 0.0 {
                        assert!(codes.iter().all(|&q| q == 0));
                        continue;
                    }
                    for (&x, &q) in row.iter().zip(codes) {
                        let y = x / row_code.scale;
                        assert!(
                            (y - f32::from(q)).abs() <= 0.5001,
                            "{x} -> {q} at scale {}",
                            row_code.scale
                        );
                    }
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
