//! Property tests of the tensor join's int8 screen (`cej_vector::sq8`).
//!
//! * The bound: for random and adversarial rows — spiky rows, components on
//!   the half-code grid, equal magnitudes, near-duplicate and negated rows,
//!   mixed magnitudes, rows scaled to the ends of the accepted range, zero
//!   rows — the 8-lane fp32 score and the approximation of every pair differ
//!   by at most the outer row's `error_bound`.
//! * The bits: the approximation every implementation emits is the formula
//!   spelled out here from scratch — codes `round_ties_even(x · 127 / max)`,
//!   `I = Σ q_a q_b` in `i32`, `(f32(I) · s_b) · s_a` — for the scalar
//!   reference on every CPU and for the AVX-512 VNNI kernel where the CPU has
//!   it, over sub-blocks that start and end inside 16-row panels (read as
//!   the candidates of a floor no pair fails).
//! * The candidates: under fixed floors and running top-k floors, every
//!   implementation emits the candidates of a one-pass scan of the formula's
//!   approximations — the same outer rows, inner rows and approximation
//!   bits, in the same order — on the same sub-blocks, in one call, on a
//!   pool, and in two calls sharing the floors; so the VNNI kernel's equal
//!   the reference's.
//! * The per-row form: an inner side assembled from rows quantised one by
//!   one and kept (`quantize_rows`, `Sq8Inner::from_codes`) — in any order,
//!   with repeats — is the side `Sq8Inner::quantize` packs from the same
//!   rows, with either screen's assembly.

use std::io::Write;
use std::ops::Range;

use cej_exec::ExecPool;
use cej_vector::sq8::{quantize_rows, row_code_len, Candidates, Floor};
use cej_vector::{dot_lanes, Screen, Sq8Inner, Sq8Outer, TopK};
use proptest::prelude::*;

/// Deterministic values in (-1, 1).
fn uniform(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// `rows` rows of `dim` values of one family; `outer` (when given) lets a
/// family copy or negate outer rows so that scores reach their extremes.
fn family(kind: usize, rows: usize, dim: usize, seed: u64, outer: Option<&[f32]>) -> Vec<f32> {
    let mut data = uniform(rows * dim, seed);
    let noise = uniform(rows * dim, seed ^ 0xabcd);
    for (r, row) in data.chunks_exact_mut(dim).enumerate() {
        match kind {
            // spiky: one dominant component, every other code rounds to 0
            1 => {
                row.iter_mut().for_each(|x| *x *= 0.003);
                row[r % dim] = if r % 2 == 0 { 1.0 } else { -1.0 };
            }
            // on the half-code grid: every component is a tie
            2 => {
                for (k, x) in row.iter_mut().enumerate() {
                    *x = ((k * 37 + r) % 254) as f32 - 126.5;
                }
                row[0] = 127.0;
            }
            // equal magnitudes
            3 => row.iter_mut().for_each(|x| *x = x.signum() * 0.25),
            // near-duplicates and negations of outer rows
            4 => {
                if let Some(outer) = outer {
                    let source = &outer[(r % (outer.len() / dim)) * dim..][..dim];
                    let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
                    for ((x, s), n) in row.iter_mut().zip(source).zip(&noise[r * dim..]) {
                        *x = sign * s + 1e-4 * n;
                    }
                }
            }
            // magnitudes spread over six decades
            5 => {
                for (k, x) in row.iter_mut().enumerate() {
                    *x *= 10f32.powi(-((k + r) as i32 % 7));
                }
            }
            // zero rows among uniform ones
            6 if r % 3 == 0 => row.fill(0.0),
            _ => {}
        }
    }
    data
}

/// The approximate score of one pair, from scratch.
fn approx_from_scratch(a: &[f32], b: &[f32]) -> f32 {
    let quantize = |row: &[f32]| -> (f32, Vec<i32>) {
        let max = row.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let inverse = if max == 0.0 { 0.0 } else { 127.0 / max };
        let codes = row
            .iter()
            .map(|x| ((x * inverse).round_ties_even() as i32).clamp(-127, 127));
        (max / 127.0, codes.collect())
    };
    let ((sa, qa), (sb, qb)) = (quantize(a), quantize(b));
    let dot: i32 = qa.iter().zip(&qb).map(|(x, y)| x * y).sum();
    (dot as f32 * sb) * sa
}

/// The scalar reference, and the VNNI kernel where the CPU has it — said
/// once past the test harness's capture, so a CI log shows which ran.
fn screens() -> Vec<Screen> {
    let vnni = Screen::detect();
    static REPORT: std::sync::Once = std::sync::Once::new();
    REPORT.call_once(|| {
        let _ = writeln!(
            std::io::stderr(),
            "property_sq8: {}",
            vnni.map_or("no AVX-512 VNNI on this CPU, reference screen only", |s| s
                .label())
        );
    });
    std::iter::once(Screen::reference()).chain(vnni).collect()
}

/// One screen call's candidates as `(outer row of the call, inner row,
/// approximation bits)`, in their order.
fn listed(candidates: &Candidates) -> Vec<(usize, u32, u32)> {
    (0..candidates.rows())
        .flat_map(|i| {
            let (columns, approx) = candidates.row(i);
            let row = columns.iter().zip(approx);
            row.map(move |(&c, a)| (i, c, a.to_bits()))
        })
        .collect()
}

/// The floors a screen call runs under.
#[derive(Debug, Clone, Copy)]
enum Floors {
    /// A fixed floor at `-inf`: every pair is a candidate.
    Everything,
    /// A fixed floor.
    Fixed(f32),
    /// Running floors for top-`k` with a slack.
    Running(usize, f32),
}

impl Floors {
    fn fresh(self, rows: usize) -> Vec<Floor> {
        let floor = match self {
            Floors::Everything => Floor::fixed(f32::NEG_INFINITY),
            Floors::Fixed(at) => Floor::fixed(at),
            Floors::Running(k, slack) => Floor::running(k, slack),
        };
        vec![floor; rows]
    }
}

/// `screen`'s candidates of `a_rows × b_rows` under fresh `floors`: in
/// one call, in one call on a two-thread pool, or with the inner
/// rows cut at `cut` into two calls that share the floors.
#[allow(clippy::too_many_arguments)]
fn screened(
    screen: Screen,
    outer: &Sq8Outer,
    a_rows: Range<usize>,
    inner: &Sq8Inner,
    b_rows: Range<usize>,
    floors: Floors,
    how: &str,
) -> Vec<(usize, u32, u32)> {
    let mut floors = floors.fresh(a_rows.len());
    let mut out = Candidates::default();
    match how {
        "one call" => screen.candidates_into(outer, a_rows, inner, b_rows, &mut floors, &mut out),
        "pool" => {
            let pool = ExecPool::new(2);
            screen.candidates_into_with_pool(
                outer,
                a_rows,
                inner,
                b_rows,
                &pool,
                &mut floors,
                &mut out,
            )
        }
        _ => {
            // two calls: each call's rows in order, the second's after
            let cut = b_rows.start + b_rows.len() / 3;
            let mut first = listed(&{
                screen.candidates_into(
                    outer,
                    a_rows.clone(),
                    inner,
                    b_rows.start..cut,
                    &mut floors,
                    &mut out,
                );
                out.clone()
            });
            screen.candidates_into(outer, a_rows, inner, cut..b_rows.end, &mut floors, &mut out);
            first.extend(listed(&out));
            first.sort_by_key(|&(i, c, _)| (i, c));
            return first;
        }
    }
    listed(&out)
}

/// Every screen's approximations over `a_rows × b_rows` against the
/// formula, bit for bit — the candidates of a floor no pair fails — and,
/// under floors pairs do fail (a fixed one, running ones for top-1, -3 and
/// -17), the candidates of a one-pass scan of the formula's
/// approximations: same rows, inner rows and approximation bits, in the
/// same order.  Each in one call, on a two-thread pool, and in two calls
/// that cut the inner rows and share the floors.
fn assert_block_bits(
    a: &[f32],
    b: &[f32],
    dim: usize,
    a_rows: Range<usize>,
    b_rows: Range<usize>,
    what: &str,
) {
    let (outer_rows, inner_rows) = (a.len() / dim, b.len() / dim);
    let outer = Sq8Outer::quantize(a, outer_rows, dim).expect("outer in range");
    let inner = Sq8Inner::quantize(b, inner_rows, dim).expect("inner in range");
    let formula: Vec<Vec<f32>> = a_rows
        .clone()
        .map(|ar| {
            let a = &a[ar * dim..(ar + 1) * dim];
            let b = b_rows.clone().map(|br| &b[br * dim..(br + 1) * dim]);
            b.map(|b| approx_from_scratch(a, b)).collect()
        })
        .collect();
    // a fixed floor near the middle of the scores, and the running floors'
    // slack: a tenth of the largest approximation
    let largest = formula.iter().flatten().fold(0.0f32, |m, x| m.max(x.abs()));
    let specs = [
        Floors::Everything,
        Floors::Fixed(0.0),
        Floors::Fixed(largest / 2.0),
        Floors::Running(1, 0.0),
        Floors::Running(3, largest / 10.0),
        Floors::Running(17, 0.0),
    ];
    for spec in specs {
        // the one-pass scan: each row's approximations in ascending inner
        // order against the floor in force, which an emitted one raises
        let mut expected = Vec::new();
        for (i, row) in formula.iter().enumerate() {
            let (mut floor, mut best) = match spec {
                Floors::Everything => (f32::NEG_INFINITY, None),
                Floors::Fixed(at) => (at, None),
                Floors::Running(k, slack) => (f32::NEG_INFINITY, Some((TopK::new(k), slack))),
            };
            for (br, &approx) in b_rows.clone().zip(row) {
                if approx >= floor {
                    expected.push((i, br as u32, approx.to_bits()));
                    if let Some((best, slack)) = &mut best {
                        best.push(br, approx);
                        if let Some(tau) = best.threshold() {
                            floor = (tau - *slack).next_down();
                        }
                    }
                }
            }
        }
        if let Floors::Everything = spec {
            assert_eq!(expected.len(), a_rows.len() * b_rows.len());
        }
        for screen in screens() {
            for how in ["one call", "pool", "two calls"] {
                let got = screened(
                    screen,
                    &outer,
                    a_rows.clone(),
                    &inner,
                    b_rows.clone(),
                    spec,
                    how,
                );
                let first_difference = got.iter().zip(&expected).position(|(g, e)| g != e);
                assert!(
                    got == expected,
                    "{what} {} floors {spec:?} {how}: {} candidates, expected {}; first \
                     difference at {first_difference:?}",
                    screen.label(),
                    got.len(),
                    expected.len(),
                );
            }
        }
    }
}

#[test]
fn every_screen_writes_the_formulas_bits() {
    // sub-blocks that start and end inside panels, single rows and columns,
    // edges of the 4-row register block; at dim 1,024 a cache tile is two
    // panels, so the running floors are carried across tiles
    for dim in [1usize, 3, 4, 5, 16, 63, 64, 65, 100, 130, 1024] {
        let a = uniform(11 * dim, dim as u64);
        let b = uniform(53 * dim, 1000 + dim as u64);
        for (a_rows, b_rows) in [
            (0..11, 0..53),
            (3..10, 5..37),
            (4..5, 17..18),
            (0..8, 32..53),
            (2..3, 0..16),
            (5..5, 0..9),
        ] {
            let what = format!("dim {dim} rows {a_rows:?} x {b_rows:?}");
            assert_block_bits(&a, &b, dim, a_rows, b_rows, &what);
        }
    }
}

#[test]
fn the_largest_integer_dot_product_converts_exactly() {
    // every code ±127 at the largest dimension: |I| = 1,024 · 127², the
    // top of the exact-conversion range
    let dim = cej_vector::sq8::MAX_SCREEN_DIM;
    let a: Vec<f32> = (0..3 * dim)
        .map(|k| if k % 5 == 0 { -0.5 } else { 0.5 })
        .collect();
    let b: Vec<f32> = (0..20 * dim)
        .map(|k| if k % 3 == 0 { 2.0 } else { -2.0 })
        .collect();
    assert_block_bits(&a, &b, dim, 0..3, 0..20, "max dim");
}

/// `rows` rows kept in the per-row form: `row_code_len(dim)` words per row,
/// and whether each row was accepted.
fn per_row(data: &[f32], rows: usize, dim: usize) -> (Vec<u32>, Vec<bool>) {
    let mut codes = vec![0u32; rows * row_code_len(dim)];
    let mut accepted = vec![false; rows];
    quantize_rows(data, dim, &mut codes, &mut accepted);
    (codes, accepted)
}

/// Asserts that the side each screen assembles from the kept rows `sel`
/// (`kept`: every row's code) is the side the quantiser packs from those
/// rows gathered, bit for bit.  Every float of a side is a scale or an L1
/// norm — never NaN, never `-0.0` — so equal floats are equal bits; small
/// sides also compare their `Debug` text, which spells out every value.
fn assert_assembly(data: &[f32], dim: usize, kept: &[u32], sel: &[usize], what: &str) {
    let len = row_code_len(dim);
    let mut gathered = Vec::with_capacity(sel.len() * dim);
    for &s in sel {
        gathered.extend_from_slice(&data[s * dim..(s + 1) * dim]);
    }
    let expected = Sq8Inner::quantize(&gathered, sel.len(), dim).expect("rows in range");
    for screen in screens() {
        let rows = sel.iter().map(|&s| &kept[s * len..(s + 1) * len]);
        let assembled = Sq8Inner::from_codes_with(screen, dim, rows).expect("dimension in range");
        assert!(assembled == expected, "{what} {}", screen.label());
        if sel.len() * len <= 1 << 14 {
            assert_eq!(
                format!("{assembled:?}"),
                format!("{expected:?}"),
                "{what} {}",
                screen.label()
            );
        }
    }
}

#[test]
fn panels_assembled_from_per_row_codes_equal_the_quantisers() {
    const ROWS: [usize; 5] = [1, 15, 16, 17, 10_080];
    for dim in [1usize, 7, 15, 16, 17, 63, 64, 65, 100, 128, 129, 1024] {
        // uniform rows, every third a zero row, every fifth a spiky one;
        // rows are coded independently, so the codes of the first `rows`
        // are the first `rows` codes
        let mut data = family(6, 10_080, dim, dim as u64, None);
        for (r, row) in data.chunks_exact_mut(dim).enumerate().step_by(5) {
            row.iter_mut().for_each(|x| *x *= 0.003);
            row[r % dim] = -1.0;
        }
        let (kept, accepted) = per_row(&data, 10_080, dim);
        assert!(accepted.iter().all(|ok| *ok), "dim {dim}");
        for rows in ROWS {
            // the kept rows in order, a permutation with repeats (rows that
            // share a string share a slot), and one slot in every lane
            let in_order: Vec<usize> = (0..rows).collect();
            let mixed: Vec<usize> = (0..rows).map(|i| (i * 7919 + 13) % rows).collect();
            let what = format!("dim {dim} rows {rows}");
            assert_assembly(&data, dim, &kept, &in_order, &what);
            assert_assembly(&data, dim, &kept, &mixed, &format!("{what} permuted"));
            let one = vec![rows / 2; rows];
            assert_assembly(&data, dim, &kept, &one, &format!("{what} repeated"));
        }
        // a refused row is not accepted — the block path, as the
        // quantiser's `None` for any side holding it — and its neighbours
        // are coded as if it were not there
        let mut bad = data[..40 * dim].to_vec();
        bad[17 * dim + dim / 2] = f32::NAN;
        bad[33 * dim] = 1e10;
        let (codes, accepted) = per_row(&bad, 40, dim);
        for (r, ok) in accepted.iter().enumerate() {
            assert_eq!(!ok, r == 17 || r == 33, "dim {dim} row {r}");
        }
        assert!(Sq8Inner::quantize(&bad, 40, dim).is_none());
        let len = row_code_len(dim);
        for r in (0..40).filter(|r| *r != 17 && *r != 33) {
            let at = r * len..(r + 1) * len;
            assert_eq!(codes[at.clone()], kept[at], "dim {dim} row {r}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_bound_holds_for_random_and_adversarial_rows(
        seed in 0u64..1_000_000,
        dim in 1usize..140,
        outer_kind in 0usize..7,
        inner_kind in 0usize..7,
        scale_exp in -30i64..31,
    ) {
        let scale = 2f32.powi(scale_exp as i32);
        let mut a = family(outer_kind, 9, dim, seed, None);
        let mut b = family(inner_kind, 40, dim, seed + 1, Some(&a));
        a.iter_mut().for_each(|x| *x *= scale);
        b.iter_mut().for_each(|x| *x *= 1.0 / scale.sqrt());
        // a row whose maximum fell below 2^-32 is refused (tested in the
        // unit tests); so are the other side's
        let (Some(outer), Some(inner)) =
            (Sq8Outer::quantize(&a, 9, dim), Sq8Inner::quantize(&b, 40, dim))
        else {
            return Ok(());
        };
        // every approximation: the candidates of a floor no pair fails
        let mut floors = vec![Floor::fixed(f32::NEG_INFINITY); 9];
        let mut candidates = Candidates::default();
        Screen::reference().candidates_into(&outer, 0..9, &inner, 0..40, &mut floors, &mut candidates);
        let approx: Vec<f32> = (0..9).flat_map(|i| candidates.row(i).1.to_vec()).collect();
        prop_assert_eq!(approx.len(), 9 * 40);
        for i in 0..9 {
            let eps = outer.error_bound(i, &inner);
            prop_assert!(eps.is_finite() && eps > 0.0);
            for j in 0..40 {
                let exact = dot_lanes::<8>(&a[i * dim..(i + 1) * dim], &b[j * dim..(j + 1) * dim]);
                let diff = (f64::from(exact) - f64::from(approx[i * 40 + j])).abs();
                prop_assert!(
                    diff <= f64::from(eps),
                    "kinds {}/{} dim {} scale 2^{}: |{:e} - {:e}| = {:e} > {:e}",
                    outer_kind, inner_kind, dim, scale_exp, exact, approx[i * 40 + j], diff, eps
                );
            }
        }
    }
}

#[test]
fn the_vnni_kernel_emits_the_references_candidates() {
    // the join's shapes: unit-length rows, floors from the outer rows' own
    // bounds (a threshold's `t − ε`, top-k's running `τ − 2ε`), where after
    // a row's first panels almost every panel has no candidate; the inner
    // range cut inside panels and screened in blocks that share the floors
    let Some(vnni) = Screen::detect() else {
        let _ = writeln!(
            std::io::stderr(),
            "property_sq8: no AVX-512 VNNI on this CPU, kernel-vs-reference check not run"
        );
        return;
    };
    let dim = 64;
    let unit = |rows: usize, seed: u64| {
        let mut data = uniform(rows * dim, seed);
        for row in data.chunks_exact_mut(dim) {
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            row.iter_mut().for_each(|x| *x /= norm);
        }
        data
    };
    let (a, b) = (unit(37, 11), unit(1_203, 12));
    let outer = Sq8Outer::quantize(&a, 37, dim).expect("outer in range");
    let inner = Sq8Inner::quantize(&b, 1_203, dim).expect("inner in range");
    let bounds: Vec<f32> = (0..37).map(|i| outer.error_bound(i, &inner)).collect();
    let predicates: [(&str, &dyn Fn(f32) -> Floor); 4] = [
        ("threshold 0.3", &|eps| {
            Floor::fixed((0.3 - eps).next_down())
        }),
        ("top-1", &|eps| Floor::running(1, 2.0 * eps)),
        ("top-3", &|eps| Floor::running(3, 2.0 * eps)),
        ("top-40", &|eps| Floor::running(40, 2.0 * eps)),
    ];
    for (what, floor) in predicates {
        for blocks in [&[(0, 1_203)][..], &[(5, 500), (500, 1_000), (1_000, 1_203)]] {
            let run = |screen: Screen| {
                let mut floors: Vec<Floor> = bounds[3..37].iter().map(|&e| floor(e)).collect();
                let mut out = Candidates::default();
                let mut all = Vec::new();
                for &(start, end) in blocks {
                    screen.candidates_into(
                        &outer,
                        3..37,
                        &inner,
                        start..end,
                        &mut floors,
                        &mut out,
                    );
                    all.push(listed(&out));
                }
                all
            };
            let (got, expected) = (run(vnni), run(Screen::reference()));
            let emitted: usize = expected.iter().map(Vec::len).sum();
            assert!(emitted > 0 && emitted < 34 * 1_203 / 4, "{what}: {emitted}");
            assert!(got == expected, "{what} {blocks:?}");
        }
    }
}
