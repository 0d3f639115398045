//! Scalar and vectorised compute kernels.
//!
//! The paper evaluates every operator both with and without SIMD
//! acceleration (Figures 8, 9, 11).  We reproduce that axis with two kernel
//! families:
//!
//! * **Scalar** kernels: a straightforward element-by-element loop with a
//!   single sequential accumulator.  The loop-carried dependency on the
//!   accumulator prevents LLVM from auto-vectorising the floating-point
//!   reduction, so this is a faithful stand-in for the paper's `NO-SIMD`
//!   configuration.
//! * **Lane-unrolled** kernels: an 8-lane unrolled loop with independent
//!   partial accumulators ([`dot_lanes`]`::<8>`).  LLVM turns the body into
//!   packed SIMD instructions on x86-64 and aarch64, standing in for the
//!   paper's AVX-512 `SIMD` configuration.
//!
//! Operators take a [`Kernel`] value so benchmarks can switch between the
//! families at run time.
//!
//! ## One rounding class, several implementations
//!
//! The vectorised family has exactly one floating-point operation order —
//! the **8-lane class**: eight per-lane partial sums (`acc[l] += x[l] *
//! y[l]`, multiply then add, never fused), a left-to-right sum of the eight
//! lanes, then the `len % 8` tail added sequentially.  [`dot_lanes`]`::<8>`
//! is its portable definition.  The CPU picks, once, which *implementation*
//! of that class runs ([`SimdIsa::detect`]): on x86-64 with AVX2 the GEMM
//! uses `std::arch` code that performs the same operations in the same
//! order on `ymm` registers, and the score harvest
//! ([`scan_at_least`](crate::topk::scan_at_least)) compares eight scores
//! per instruction; everywhere else the portable loops run.  A
//! score therefore never depends on the machine, on which path computed it,
//! or on any setting — there is no knob.
//!
//! The tensor join's int8 screen ([`crate::sq8`], AVX-512 VNNI) does not add
//! a class: it decides, with a proven error bound, which pairs need a score
//! at all, and each pair it lets through is scored by [`dot_lanes`]`::<8>`.
//! A join's pairs and score bits are the same with or without it.

use serde::{Deserialize, Serialize};

/// Number of independent accumulator lanes of the vectorised kernel family.
pub const UNROLL_LANES: usize = 8;

/// Which implementation of the 8-lane class the vectorised family runs on.
/// Decided by the CPU, never by configuration; every variant produces the
/// same bits (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// `std::arch` AVX2 code for the GEMM micro-kernel and the harvest
    /// compare (x86-64 CPUs that report AVX2).
    Avx2,
    /// The portable lane-unrolled loops, vectorised by LLVM for whatever the
    /// build targets.
    Portable,
}

impl SimdIsa {
    /// The implementation this CPU gets.  The feature probe behind it is
    /// cached by the standard library, so calling this per block is free.
    #[inline]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdIsa::Avx2;
        }
        SimdIsa::Portable
    }

    /// Stable label for reports and bench artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Portable => "portable",
        }
    }
}

/// Which compute kernel family an operator should use.
///
/// See the module documentation for how this maps onto the paper's
/// SIMD / NO-SIMD experimental axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Kernel {
    /// Element-at-a-time kernel with a single accumulator (paper: `NO-SIMD`).
    Scalar,
    /// 8-lane unrolled kernel that auto-vectorises (paper: `SIMD`).
    #[default]
    Unrolled,
}

impl Kernel {
    /// Dot product of two equally sized slices using this kernel: the
    /// 8-lane class for `Unrolled`, the sequential loop for `Scalar` — the
    /// paper's NO-SIMD axis.
    ///
    /// # Panics
    /// Debug-asserts that the slices have equal length; in release builds the
    /// shorter length wins (consistent with `zip`).
    #[inline]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Kernel::Scalar => dot_scalar(a, b),
            Kernel::Unrolled => dot_unrolled(a, b),
        }
    }

    /// L2 norm of a slice using this kernel.
    #[inline]
    pub fn l2_norm(&self, a: &[f32]) -> f32 {
        match self {
            Kernel::Scalar => l2_norm_scalar(a),
            Kernel::Unrolled => self.dot(a, a).sqrt(),
        }
    }

    /// Human-readable label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Scalar => "NO-SIMD",
            Kernel::Unrolled => "SIMD",
        }
    }
}

/// Scalar dot product: one accumulator, no unrolling.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Dot product with `W` independent accumulators.  `W = 8` is the portable
/// definition of the 8-lane class every vectorised kernel reproduces bit for
/// bit (see the module documentation); no other width is instantiated.
///
/// The inner loop iterates `chunks_exact` slices, so the bounds of every
/// lane access are known to LLVM and the body compiles to packed multiply
/// and add instructions without bounds checks.  The accumulation order is
/// fixed: `W` per-lane partials, a left-to-right lane sum, then the
/// sequential remainder.
#[inline]
pub fn dot_lanes<const W: usize>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(W);
    let mut cb = b[..n].chunks_exact(W);
    let mut acc = [0.0f32; W];
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        // Independent accumulators break the reduction dependency chain so
        // the loop auto-vectorises into packed multiply/add instructions.
        for lane in 0..W {
            acc[lane] += xs[lane] * ys[lane];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        total += x * y;
    }
    total
}

/// The 8-lane unrolled dot product: [`dot_lanes`]`::<8>`.
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    dot_lanes::<UNROLL_LANES>(a, b)
}

/// Scalar L2 norm.
#[inline]
pub fn l2_norm_scalar(a: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for x in a {
        acc += x * x;
    }
    acc.sqrt()
}

/// Unrolled L2 norm.
#[inline]
pub fn l2_norm_unrolled(a: &[f32]) -> f32 {
    dot_unrolled(a, a).sqrt()
}

/// `out[i] += alpha * x[i]` (unrolled); used by embedding training updates.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, v) in out.iter_mut().zip(x.iter()) {
        *o += alpha * *v;
    }
}

/// Sum of a slice (8-lane partial accumulators, `chunks_exact` inner loop;
/// same accumulation order as the index-based predecessor).
#[inline]
pub fn sum(a: &[f32]) -> f32 {
    let mut chunks = a.chunks_exact(UNROLL_LANES);
    let mut acc = [0.0f32; UNROLL_LANES];
    for xs in &mut chunks {
        for lane in 0..UNROLL_LANES {
            acc[lane] += xs[lane];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for v in chunks.remainder() {
        total += *v;
    }
    total
}

/// Comparison operator for the selection-vector filter kernel
/// [`filter_cmp`].  Mirrors the relational layer's comparison semantics so
/// batch predicate evaluation can dispatch simple `column <op> literal`
/// filters straight to a tight, auto-vectorisable loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// Whether `lhs <op> rhs` holds.  `None` orderings (NaN) compare false
    /// for every operator except `NotEq`, matching IEEE semantics.
    #[inline]
    pub fn holds<T: PartialOrd>(&self, lhs: &T, rhs: &T) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::NotEq => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::LtEq => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::GtEq => lhs >= rhs,
        }
    }
}

/// Expands to a `match` on `$op` whose every arm calls `$kernel($args…,
/// holds)` with `holds` the arm's own comparison closure against `$rhs`:
/// the operator is matched once per call, and each arm's loop is compiled
/// for one operator, with no branch on it per lane.
macro_rules! per_op {
    ($op:expr, $rhs:expr, $kernel:ident($($arg:expr),*)) => {{
        let rhs = $rhs;
        match $op {
            CmpOp::Eq => $kernel($($arg,)* |v| v == rhs),
            CmpOp::NotEq => $kernel($($arg,)* |v| v != rhs),
            CmpOp::Lt => $kernel($($arg,)* |v| v < rhs),
            CmpOp::LtEq => $kernel($($arg,)* |v| v <= rhs),
            CmpOp::Gt => $kernel($($arg,)* |v| v > rhs),
            CmpOp::GtEq => $kernel($($arg,)* |v| v >= rhs),
        }
    }};
}

/// Selection-vector filter: compacts the lanes of `sel` whose value passes
/// `value <op> rhs` into a fresh selection vector, in `sel`'s order, repeats
/// included.
///
/// `sel` holds row offsets into `values`; only selected lanes are compared,
/// so a filter above a filter touches survivors only — the vectorised
/// executor's "mark, don't copy" contract.  A contiguous window of rows has
/// [`filter_cmp_window`], which reads the column in order instead of
/// through the selection.
///
/// The selection vector is walked in 8-lane groups: the comparisons of a
/// group are evaluated branch-free into a bit mask, and only its set bits
/// are visited, so a group of failing lanes costs its compare and nothing
/// more.
///
/// # Panics
/// Panics on a selected lane that is out of bounds for `values`.
#[inline]
pub fn filter_cmp<T: PartialOrd + Copy>(values: &[T], sel: &[u32], op: CmpOp, rhs: T) -> Vec<u32> {
    per_op!(op, rhs, select_lanes(values, sel))
}

/// Window filter: the rows `first_row..first_row + values.len()` whose value
/// passes `value <op> rhs`, ascending, where `values` is that window of the
/// column.  The same survivors as [`filter_cmp`] over the window's rows as a
/// selection, without reading one: the slice is compared in order, eight
/// lanes to a bit mask, and compacted as [`filter_cmp`] compacts.
///
/// # Panics
/// Panics when a row id of the window does not fit in `u32`.
#[inline]
pub fn filter_cmp_window<T: PartialOrd + Copy>(
    values: &[T],
    first_row: u32,
    op: CmpOp,
    rhs: T,
) -> Vec<u32> {
    let fits = u32::try_from(values.len()).is_ok_and(|len| first_row.checked_add(len).is_some());
    assert!(fits, "window rows must fit in u32");
    per_op!(op, rhs, window_lanes(values, first_row))
}

/// Appends `row(lane)` for every lane set in `bits`, in lane order, visiting
/// only the set bits as [`crate::topk::scan_at_least`] does: a group of
/// failing lanes costs its compare and nothing more.
#[inline(always)]
fn push_set_lanes(out: &mut Vec<u32>, mut bits: u32, row: impl Fn(usize) -> u32) {
    while bits != 0 {
        let lane = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out.push(row(lane));
    }
}

/// [`filter_cmp`]'s loop for one operator.
#[inline(always)]
fn select_lanes<T: Copy>(values: &[T], sel: &[u32], holds: impl Fn(T) -> bool) -> Vec<u32> {
    let mut out = Vec::with_capacity(sel.len());
    let mut groups = sel.chunks_exact(UNROLL_LANES);
    for group in &mut groups {
        let group: &[u32; UNROLL_LANES] = group.try_into().expect("chunks_exact(8) yields 8");
        let mut bits = 0u32;
        for (lane, &row) in group.iter().enumerate() {
            bits |= u32::from(holds(values[row as usize])) << lane;
        }
        push_set_lanes(&mut out, bits, |lane| group[lane]);
    }
    for &row in groups.remainder() {
        if holds(values[row as usize]) {
            out.push(row);
        }
    }
    out
}

/// [`filter_cmp_window`]'s loop for one operator.
#[inline(always)]
fn window_lanes<T: Copy>(values: &[T], first_row: u32, holds: impl Fn(T) -> bool) -> Vec<u32> {
    let mut out = Vec::with_capacity(values.len());
    let mut groups = values.chunks_exact(UNROLL_LANES);
    let mut first = first_row;
    for group in &mut groups {
        let group: &[T; UNROLL_LANES] = group.try_into().expect("chunks_exact(8) yields 8");
        let mut bits = 0u32;
        for (lane, &value) in group.iter().enumerate() {
            bits |= u32::from(holds(value)) << lane;
        }
        push_set_lanes(&mut out, bits, |lane| first + lane as u32);
        first += UNROLL_LANES as u32;
    }
    for (lane, &value) in groups.remainder().iter().enumerate() {
        if holds(value) {
            out.push(first + lane as u32);
        }
    }
    out
}

/// Selection-vector dot product: scores `query` against only the selected
/// rows of a row-major `rows × dim` buffer, producing one score per
/// selected lane (in lane order).
///
/// This is the batched probe-side primitive: a join operator consuming a
/// column batch scores exactly the survivors of the batch's selection
/// vector, skipping filtered lanes entirely.
///
/// # Panics
/// Panics (via slice indexing) when a selected lane is out of bounds for
/// the buffer.
#[inline]
pub fn dot_select(
    kernel: Kernel,
    query: &[f32],
    data: &[f32],
    dim: usize,
    sel: &[u32],
) -> Vec<f32> {
    let mut out = Vec::with_capacity(sel.len());
    for &lane in sel {
        let start = lane as usize * dim;
        out.push(kernel.dot(query, &data[start..start + dim]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn scalar_and_unrolled_dot_agree() {
        let a: Vec<f32> = (0..103).map(|i| (i as f32) * 0.01 - 0.5).collect();
        let b: Vec<f32> = (0..103).map(|i| ((i * 7) % 13) as f32 * 0.1).collect();
        assert!(approx(dot_scalar(&a, &b), dot_unrolled(&a, &b)));
    }

    #[test]
    fn dot_of_empty_slices_is_zero() {
        assert_eq!(dot_scalar(&[], &[]), 0.0);
        assert_eq!(dot_unrolled(&[], &[]), 0.0);
    }

    #[test]
    fn dot_handles_non_multiple_of_lanes() {
        let a = vec![1.0f32; 13];
        let b = vec![2.0f32; 13];
        assert!(approx(dot_unrolled(&a, &b), 26.0));
    }

    #[test]
    fn norms_agree() {
        let a: Vec<f32> = (0..57).map(|i| i as f32 * 0.3).collect();
        assert!(approx(l2_norm_scalar(&a), l2_norm_unrolled(&a)));
    }

    #[test]
    fn kernel_dispatch_matches_free_functions() {
        let a: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..40).map(|i| (40 - i) as f32).collect();
        assert_eq!(Kernel::Scalar.dot(&a, &b), dot_scalar(&a, &b));
        assert_eq!(Kernel::Unrolled.dot(&a, &b), dot_unrolled(&a, &b));
        assert_eq!(Kernel::Scalar.l2_norm(&a), l2_norm_scalar(&a));
        assert_eq!(Kernel::Unrolled.l2_norm(&a), l2_norm_unrolled(&a));
    }

    #[test]
    fn kernel_labels() {
        assert_eq!(Kernel::Scalar.label(), "NO-SIMD");
        assert_eq!(Kernel::Unrolled.label(), "SIMD");
        assert_eq!(Kernel::default(), Kernel::Unrolled);
    }

    #[test]
    fn axpy_accumulates() {
        let x = vec![1.0f32, 2.0, 3.0];
        let mut out = vec![10.0f32, 10.0, 10.0];
        axpy(0.5, &x, &mut out);
        assert_eq!(out, vec![10.5, 11.0, 11.5]);
    }

    #[test]
    fn sum_matches_iterator_sum() {
        let a: Vec<f32> = (0..29).map(|i| i as f32).collect();
        let expected: f32 = a.iter().sum();
        assert!(approx(sum(&a), expected));
    }

    #[test]
    fn filter_cmp_matches_scalar_reference() {
        let values: Vec<i64> = (0..100).map(|i| (i * 37 + 11) % 100).collect();
        let sel: Vec<u32> = (0..100).step_by(3).collect();
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            let fast = filter_cmp(&values, &sel, op, 50i64);
            let reference: Vec<u32> = sel
                .iter()
                .copied()
                .filter(|&lane| op.holds(&values[lane as usize], &50i64))
                .collect();
            assert_eq!(fast, reference, "op {op:?}");
        }
    }

    #[test]
    fn filter_cmp_float_nan_lanes_fail_ordered_comparisons() {
        let values = [1.0f64, f64::NAN, 3.0];
        let sel = [0u32, 1, 2];
        assert_eq!(filter_cmp(&values, &sel, CmpOp::Gt, 0.0), vec![0, 2]);
        assert_eq!(filter_cmp(&values, &sel, CmpOp::NotEq, 1.0), vec![1, 2]);
    }

    #[test]
    fn dot_select_matches_per_row_dot_for_both_kernels() {
        let dim = 24;
        let rows = 17;
        let data: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.13).sin()).collect();
        let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).cos()).collect();
        let sel: Vec<u32> = vec![0, 3, 3, 9, 16];
        for kernel in [Kernel::Scalar, Kernel::Unrolled] {
            let scores = dot_select(kernel, &query, &data, dim, &sel);
            assert_eq!(scores.len(), sel.len());
            for (score, &lane) in scores.iter().zip(sel.iter()) {
                let start = lane as usize * dim;
                let reference = kernel.dot(&query, &data[start..start + dim]);
                assert_eq!(*score, reference, "lane {lane}");
            }
        }
        assert!(dot_select(Kernel::Unrolled, &query, &data, dim, &[]).is_empty());
    }

    #[test]
    fn unrolled_dot_is_the_eight_lane_class() {
        let a: Vec<f32> = (0..257).map(|i| (i as f32 * 0.013).sin()).collect();
        let b: Vec<f32> = (0..257).map(|i| (i as f32 * 0.029).cos()).collect();
        // the class, spelled out: 8 lane partials, left-to-right lane sum,
        // sequential tail
        let mut acc = [0.0f32; 8];
        for k in 0..256 {
            acc[k % 8] += a[k] * b[k];
        }
        let mut expected = acc[0];
        for lane in &acc[1..] {
            expected += lane;
        }
        expected += a[256] * b[256];
        for got in [
            dot_lanes::<8>(&a, &b),
            dot_unrolled(&a, &b),
            Kernel::Unrolled.dot(&a, &b),
        ] {
            assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn simd_isa_labels_and_detection() {
        assert_eq!(SimdIsa::Avx2.label(), "avx2");
        assert_eq!(SimdIsa::Portable.label(), "portable");
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(SimdIsa::detect(), SimdIsa::Portable);
        // the CPU decides, and decides the same thing every time
        assert_eq!(SimdIsa::detect(), SimdIsa::detect());
    }

    #[test]
    fn cmp_op_holds_all_operators() {
        assert!(CmpOp::Eq.holds(&1, &1));
        assert!(CmpOp::NotEq.holds(&1, &2));
        assert!(CmpOp::Lt.holds(&1, &2));
        assert!(CmpOp::LtEq.holds(&2, &2));
        assert!(CmpOp::Gt.holds(&3, &2));
        assert!(CmpOp::GtEq.holds(&2, &2));
        assert!(!CmpOp::Eq.holds(&1, &2));
    }
}
