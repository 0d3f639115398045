//! Property test: the filter kernels are `CmpOp::holds`, lane by lane.
//!
//! Random `Int64`-shaped (`i64`) and `Date`-shaped (`i32`) columns draw
//! their values from the type's extremes and a few small numbers.  For every
//! operator and every `rhs` at or next to a value the column can hold:
//!
//! * [`filter_cmp_window`] over windows of 0, 1, 7, 8, 9 and 1,000 rows that
//!   start at a non-zero row returns exactly the rows a per-lane `op.holds`
//!   keeps, ascending;
//! * [`filter_cmp`] over the same rows as a selection returns the same;
//! * [`filter_cmp`] over unsorted selections with repeats keeps their order
//!   and their repeats.

use std::fmt::Debug;

use cej_vector::{filter_cmp, filter_cmp_window, CmpOp};
use proptest::prelude::*;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

/// Window lengths: empty, one lane, around one 8-lane group, many groups.
const WINDOWS: [usize; 6] = [0, 1, 7, 8, 9, 1000];

/// Rows of every generated column; every window fits after its start.
const ROWS: usize = 1024;

/// The first `HELD` values of a domain are what columns hold; the rest are
/// the neighbours of held values that are not held themselves, so every
/// `rhs` lands below, at and above some value.
const HELD: usize = 9;

const INT64: [i64; 13] = [
    i64::MIN,
    i64::MIN + 1,
    -2,
    -1,
    0,
    1,
    2,
    i64::MAX - 1,
    i64::MAX,
    i64::MIN + 2,
    -3,
    3,
    i64::MAX - 2,
];

const DATE: [i32; 13] = [
    i32::MIN,
    i32::MIN + 1,
    -2,
    -1,
    0,
    1,
    2,
    i32::MAX - 1,
    i32::MAX,
    i32::MIN + 2,
    -3,
    3,
    i32::MAX - 2,
];

fn check<T: PartialOrd + Copy + Debug>(
    domain: &[T],
    picks: &[usize],
    start: usize,
    sels: &[Vec<u32>],
) {
    let column: Vec<T> = picks.iter().map(|&pick| domain[pick]).collect();
    for op in OPS {
        for &rhs in domain {
            let reference = |rows: &mut dyn Iterator<Item = u32>| -> Vec<u32> {
                rows.filter(|&row| op.holds(&column[row as usize], &rhs))
                    .collect()
            };
            for len in WINDOWS {
                let rows = start as u32..(start + len) as u32;
                let expected = reference(&mut rows.clone());
                let window = filter_cmp_window(&column[start..start + len], start as u32, op, rhs);
                assert_eq!(window, expected, "window {rows:?} {op:?} {rhs:?}");
                let lanes: Vec<u32> = rows.clone().collect();
                let selected = filter_cmp(&column, &lanes, op, rhs);
                assert_eq!(selected, expected, "selection {rows:?} {op:?} {rhs:?}");
            }
            for sel in sels {
                let expected = reference(&mut sel.iter().copied());
                let got = filter_cmp(&column, sel, op, rhs);
                assert_eq!(got, expected, "selection {sel:?} {op:?} {rhs:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn filter_kernels_keep_exactly_the_lanes_that_hold(
        picks in proptest::collection::vec(0usize..HELD, ROWS),
        start in 1usize..ROWS - 1000,
        random_sel in proptest::collection::vec(0usize..ROWS, 0..40),
    ) {
        let random_sel = random_sel.into_iter().map(|row| row as u32).collect();
        let sels = [vec![2, 0, 2], vec![0, 0, 2], random_sel];
        check(&INT64, &picks, start, &sels);
        check(&DATE, &picks, start, &sels);
    }
}
