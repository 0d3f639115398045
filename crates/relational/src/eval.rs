//! Predicate evaluation over tables.
//!
//! One evaluator, two entry points: a **window** of contiguous rows
//! ([`evaluate_predicate_window`]; [`evaluate_predicate`] is the window of
//! every row) and a **selection** of rows ([`evaluate_predicate_select`]).
//! Both return the surviving rows in order, and both share every path:
//!
//! * `column <op> literal` over an `Int64` or `Date` column goes to the
//!   `cej-vector` filter kernels — [`filter_cmp_window`] reads a window's
//!   column slice in order, [`filter_cmp`] reads through a selection;
//! * `a AND b` evaluates `b` on `a`'s survivors only;
//! * everything else (floats, whose NaN compares equal here, strings,
//!   booleans, `OR`, `NOT`) is evaluated row by row.
//!
//! A scan pre-filter runs here once per morsel, ahead of the context-enhanced
//! join, and the interpreter gives it the window whenever no delete reached
//! into the morsel's rows: a filter pays a compare per row and the
//! compaction of its survivors, never a branch per row.

use std::ops::Range;

use cej_storage::{Column, ScalarValue, SelectionBitmap, StorageError, Table};
use cej_vector::{filter_cmp, filter_cmp_window, CmpOp};

use crate::error::RelationalError;
use crate::expr::{CompareOp, Expr};
use crate::Result;

/// Evaluates a boolean predicate against every row of `table`, producing a
/// selection bitmap: the window of all rows.
///
/// # Errors
/// Returns [`RelationalError::UnknownColumn`] for unresolved column
/// references and [`RelationalError::TypeError`] for non-boolean expressions
/// or incompatible comparisons — the error evaluating the whole expression
/// row after row meets first.  Nothing is evaluated over an empty table, so
/// it never fails.
pub fn evaluate_predicate(expr: &Expr, table: &Table) -> Result<SelectionBitmap> {
    let rows = table.num_rows();
    let end = u32::try_from(rows).map_err(|_| {
        RelationalError::from(StorageError::InvalidArgument(format!(
            "{rows} rows exceed u32 row ids"
        )))
    })?;
    let mut bits = vec![false; rows];
    for row in evaluate_predicate_window(expr, table, 0..end)? {
        bits[row as usize] = true;
    }
    Ok(SelectionBitmap::from_bools(bits))
}

/// Evaluates a boolean predicate over the contiguous rows `rows` of
/// `table`, returning the survivors, ascending.
///
/// # Errors
/// [`evaluate_predicate`]'s errors over those rows, and
/// [`StorageError::RowOutOfBounds`] for a non-empty window that reaches
/// past the table's end.
pub fn evaluate_predicate_window(expr: &Expr, table: &Table, rows: Range<u32>) -> Result<Vec<u32>> {
    if rows.is_empty() {
        // nothing is evaluated over an empty input
        return Ok(Vec::new());
    }
    if rows.end as usize > table.num_rows() {
        return Err(StorageError::RowOutOfBounds {
            row: rows.end as usize - 1,
            rows: table.num_rows(),
        }
        .into());
    }
    evaluate(expr, table, &Lanes::Window(rows))
}

/// Evaluates a boolean predicate over the lanes named by a selection vector,
/// returning the surviving lanes (a refined selection vector, in `sel`'s
/// order, repeats included).
///
/// This is the vectorised executor's `Filter` path: instead of materialising
/// the upstream rows and re-scanning them, the predicate is applied directly
/// to the base table restricted to the still-selected lanes.
///
/// # Errors
/// Identical to [`evaluate_predicate`] over the selected lanes.
pub fn evaluate_predicate_select(expr: &Expr, table: &Table, sel: &[u32]) -> Result<Vec<u32>> {
    if sel.is_empty() {
        // nothing is evaluated over an empty input
        return Ok(Vec::new());
    }
    evaluate(expr, table, &Lanes::Select(sel))
}

/// The rows one evaluation visits, in order.
enum Lanes<'a> {
    /// Every row of a range that lies inside the table.
    Window(Range<u32>),
    /// The rows a selection vector names, repeats included.
    Select(&'a [u32]),
}

/// Both entry points' body, over non-empty lanes.
///
/// The vectorised path fails exactly where row-at-a-time evaluation does
/// (a column has one type, so whether a sub-expression fails does not
/// depend on the row), but a conjunction visits its arms in another order:
/// when two sub-expressions fail differently it may meet the other error
/// first.  So an error is re-derived row by row, which reports the one
/// row-at-a-time evaluation meets.  Errors are rare; the re-run costs
/// nothing on the path that succeeds.
fn evaluate(expr: &Expr, table: &Table, lanes: &Lanes<'_>) -> Result<Vec<u32>> {
    vectorised(expr, table, lanes).or_else(|_| evaluate_rowwise(expr, table, lanes))
}

/// [`evaluate`] before an error is re-derived row by row.
fn vectorised(expr: &Expr, table: &Table, lanes: &Lanes<'_>) -> Result<Vec<u32>> {
    match expr {
        // `a AND b`: evaluate `b` only on `a`'s survivors — exactly the row
        // path's short-circuit `&&` semantics
        Expr::And(a, b) => {
            let first = vectorised(a, table, lanes)?;
            vectorised(b, table, &Lanes::Select(&first))
        }
        Expr::Compare { left, op, right } => {
            if let (Expr::Column(name), Expr::Literal(rv)) = (left.as_ref(), right.as_ref()) {
                if let Some(out) = compare_fast_path(name, *op, rv, table, lanes) {
                    return Ok(out);
                }
            }
            evaluate_rowwise(expr, table, lanes)
        }
        _ => evaluate_rowwise(expr, table, lanes),
    }
}

/// Vectorised `column <op> literal` comparison for totally-ordered column
/// types.  Returns `None` when the shape or types don't qualify, so the
/// caller falls back to row-wise evaluation (which reports the errors).
fn compare_fast_path(
    name: &str,
    op: CompareOp,
    rhs: &ScalarValue,
    table: &Table,
    lanes: &Lanes<'_>,
) -> Option<Vec<u32>> {
    let column = table.column_by_name(name).ok()?;
    let cmp = match op {
        CompareOp::Eq => CmpOp::Eq,
        CompareOp::NotEq => CmpOp::NotEq,
        CompareOp::Lt => CmpOp::Lt,
        CompareOp::LtEq => CmpOp::LtEq,
        CompareOp::Gt => CmpOp::Gt,
        CompareOp::GtEq => CmpOp::GtEq,
    };
    match (column, rhs) {
        (Column::Int64(values), ScalarValue::Int64(x)) => Some(kernel(values, lanes, cmp, *x)),
        (Column::Date(values), ScalarValue::Date(x)) => Some(kernel(values, lanes, cmp, *x)),
        // floats use `unwrap_or(Equal)` NaN semantics row-wise, and
        // other type pairings may be errors — let row-wise handle them
        _ => None,
    }
}

/// The filter kernel for the lanes' shape.
fn kernel<T: PartialOrd + Copy>(values: &[T], lanes: &Lanes<'_>, op: CmpOp, rhs: T) -> Vec<u32> {
    match lanes {
        Lanes::Window(rows) => {
            let window = &values[rows.start as usize..rows.end as usize];
            filter_cmp_window(window, rows.start, op, rhs)
        }
        Lanes::Select(sel) => filter_cmp(values, sel, op, rhs),
    }
}

/// Row-at-a-time evaluation of the whole expression over the lanes.
fn evaluate_rowwise(expr: &Expr, table: &Table, lanes: &Lanes<'_>) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    let mut keep = |row: u32| -> Result<()> {
        if evaluate_bool(expr, table, row as usize)? {
            out.push(row);
        }
        Ok(())
    };
    match lanes {
        Lanes::Window(rows) => rows.clone().try_for_each(&mut keep)?,
        Lanes::Select(sel) => sel.iter().try_for_each(|&row| keep(row))?,
    }
    Ok(out)
}

/// Evaluates an expression to a boolean for a single row.
fn evaluate_bool(expr: &Expr, table: &Table, row: usize) -> Result<bool> {
    match expr {
        Expr::And(a, b) => Ok(evaluate_bool(a, table, row)? && evaluate_bool(b, table, row)?),
        Expr::Or(a, b) => Ok(evaluate_bool(a, table, row)? || evaluate_bool(b, table, row)?),
        Expr::Not(inner) => Ok(!evaluate_bool(inner, table, row)?),
        Expr::Compare { left, op, right } => {
            let lv = evaluate_scalar(left, table, row)?;
            let rv = evaluate_scalar(right, table, row)?;
            compare(&lv, *op, &rv)
        }
        Expr::Literal(ScalarValue::Bool(b)) => Ok(*b),
        Expr::Column(name) => {
            let v = column_value(name, table, row)?;
            match v {
                ScalarValue::Bool(b) => Ok(b),
                other => Err(RelationalError::TypeError(format!(
                    "column {name} used as predicate but has type {}",
                    other.data_type()
                ))),
            }
        }
        Expr::Literal(other) => Err(RelationalError::TypeError(format!(
            "literal {other} is not a boolean predicate"
        ))),
    }
}

/// Evaluates an expression to a scalar for a single row.
fn evaluate_scalar(expr: &Expr, table: &Table, row: usize) -> Result<ScalarValue> {
    match expr {
        Expr::Column(name) => column_value(name, table, row),
        Expr::Literal(v) => Ok(v.clone()),
        other => Err(RelationalError::TypeError(format!(
            "expression {other} cannot be evaluated as a scalar operand"
        ))),
    }
}

fn column_value(name: &str, table: &Table, row: usize) -> Result<ScalarValue> {
    table
        .column_by_name(name)
        .map_err(|_| RelationalError::UnknownColumn(name.to_string()))?
        .get(row)
        .map_err(RelationalError::from)
}

fn compare(left: &ScalarValue, op: CompareOp, right: &ScalarValue) -> Result<bool> {
    use std::cmp::Ordering;
    let ord = left.partial_cmp_same_type(right).map_err(|_| {
        RelationalError::TypeError(format!(
            "cannot compare {} with {}",
            left.data_type(),
            right.data_type()
        ))
    })?;
    Ok(match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::NotEq => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::LtEq => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::GtEq => ord != Ordering::Less,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_date, lit_i64, lit_str};
    use cej_storage::TableBuilder;

    fn table() -> Table {
        TableBuilder::new()
            .int64("id", vec![1, 2, 3, 4])
            .utf8(
                "word",
                vec!["bbq".into(), "grill".into(), "dbms".into(), "sql".into()],
            )
            .date("taken", vec![100, 200, 300, 400])
            .bool("flag", vec![true, false, true, false])
            .build()
            .unwrap()
    }

    #[test]
    fn integer_range_predicate() {
        let t = table();
        let sel = evaluate_predicate(&col("id").gt(lit_i64(2)), &t).unwrap();
        assert_eq!(sel.selected_indices(), vec![2, 3]);
    }

    #[test]
    fn date_predicate_matches_paper_example() {
        let t = table();
        let sel = evaluate_predicate(&col("taken").gt_eq(lit_i64(0)), &t);
        // comparing Date with Int64 is a type error — dates must use date literals
        assert!(sel.is_err());
        let pred = col("taken").gt(crate::expr::lit(ScalarValue::Date(150)));
        let sel = evaluate_predicate(&pred, &t).unwrap();
        assert_eq!(sel.count_selected(), 3);
        let _ = lit_date("2023-12-02").unwrap();
    }

    #[test]
    fn string_equality() {
        let t = table();
        let sel = evaluate_predicate(&col("word").eq(lit_str("dbms")), &t).unwrap();
        assert_eq!(sel.selected_indices(), vec![2]);
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let pred = col("id")
            .lt(lit_i64(3))
            .and(col("flag").eq(crate::expr::lit(ScalarValue::Bool(true))));
        let sel = evaluate_predicate(&pred, &t).unwrap();
        assert_eq!(sel.selected_indices(), vec![0]);

        let pred = col("id").eq(lit_i64(1)).or(col("id").eq(lit_i64(4)));
        let sel = evaluate_predicate(&pred, &t).unwrap();
        assert_eq!(sel.selected_indices(), vec![0, 3]);

        let pred = col("flag").not();
        let sel = evaluate_predicate(&pred, &t).unwrap();
        assert_eq!(sel.selected_indices(), vec![1, 3]);
    }

    #[test]
    fn bare_boolean_column_as_predicate() {
        let t = table();
        let sel = evaluate_predicate(&col("flag"), &t).unwrap();
        assert_eq!(sel.selected_indices(), vec![0, 2]);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        assert!(matches!(
            evaluate_predicate(&col("missing").gt(lit_i64(1)), &t),
            Err(RelationalError::UnknownColumn(_))
        ));
    }

    #[test]
    fn type_errors_reported() {
        let t = table();
        // string compared with integer
        assert!(evaluate_predicate(&col("word").gt(lit_i64(1)), &t).is_err());
        // non-boolean column as predicate
        assert!(evaluate_predicate(&col("id"), &t).is_err());
        // non-boolean literal as predicate
        assert!(evaluate_predicate(&lit_i64(1), &t).is_err());
        // nested non-scalar operand
        let nested = Expr::Compare {
            left: Box::new(col("id").gt(lit_i64(1))),
            op: CompareOp::Eq,
            right: Box::new(lit_i64(1)),
        };
        assert!(evaluate_predicate(&nested, &t).is_err());
    }

    #[test]
    fn all_comparison_operators() {
        let t = table();
        let cases = vec![
            (col("id").eq(lit_i64(2)), vec![1]),
            (col("id").not_eq(lit_i64(2)), vec![0, 2, 3]),
            (col("id").lt(lit_i64(2)), vec![0]),
            (col("id").lt_eq(lit_i64(2)), vec![0, 1]),
            (col("id").gt(lit_i64(3)), vec![3]),
            (col("id").gt_eq(lit_i64(3)), vec![2, 3]),
        ];
        for (pred, expected) in cases {
            assert_eq!(
                evaluate_predicate(&pred, &t).unwrap().selected_indices(),
                expected
            );
        }
    }

    use cej_storage::ScalarValue;

    fn all_lanes(t: &Table) -> Vec<u32> {
        (0..t.num_rows() as u32).collect()
    }

    #[test]
    fn select_path_agrees_with_bitmap_path() {
        let t = table();
        let preds = vec![
            col("id").gt(lit_i64(2)),
            col("id").not_eq(lit_i64(2)),
            col("taken").gt(crate::expr::lit(ScalarValue::Date(150))),
            col("word").eq(lit_str("dbms")),
            col("flag").not(),
            col("id")
                .lt(lit_i64(3))
                .and(col("flag").eq(crate::expr::lit(ScalarValue::Bool(true)))),
            col("id").eq(lit_i64(1)).or(col("id").eq(lit_i64(4))),
        ];
        for pred in preds {
            let bitmap = evaluate_predicate(&pred, &t).unwrap();
            let expected: Vec<u32> = bitmap
                .selected_indices()
                .into_iter()
                .map(|i| i as u32)
                .collect();
            let got = evaluate_predicate_select(&pred, &t, &all_lanes(&t)).unwrap();
            assert_eq!(got, expected, "predicate {pred}");
        }
    }

    #[test]
    fn select_path_refines_an_existing_selection() {
        let t = table();
        // start from lanes {1, 2, 3}; id > 2 keeps {2, 3}
        let got = evaluate_predicate_select(&col("id").gt(lit_i64(2)), &t, &[1, 2, 3]).unwrap();
        assert_eq!(got, vec![2, 3]);
        // empty input short-circuits without touching columns
        let got = evaluate_predicate_select(&col("missing").gt(lit_i64(0)), &t, &[]).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn select_path_reports_row_path_errors() {
        let t = table();
        assert!(matches!(
            evaluate_predicate_select(&col("missing").gt(lit_i64(1)), &t, &all_lanes(&t)),
            Err(RelationalError::UnknownColumn(_))
        ));
        // Date vs Int64 literal is a type error on both paths (the fast path
        // must decline rather than coerce)
        assert!(
            evaluate_predicate_select(&col("taken").gt(lit_i64(0)), &t, &all_lanes(&t)).is_err()
        );
    }

    /// The row-at-a-time bitmap loop `evaluate_predicate` once was: the
    /// whole expression on each row in turn, the first error wins.  The
    /// reference the one evaluator is held to.
    fn row_at_a_time(expr: &Expr, table: &Table) -> Result<SelectionBitmap> {
        let mut bits = Vec::with_capacity(table.num_rows());
        for row in 0..table.num_rows() {
            bits.push(evaluate_bool(expr, table, row)?);
        }
        Ok(SelectionBitmap::from_bools(bits))
    }

    /// [`row_at_a_time`] over the rows `rows` of `table` (a gathered copy),
    /// its survivors named by their rows in `table`.
    fn reference_over(expr: &Expr, table: &Table, rows: &[u32]) -> Result<Vec<u32>> {
        let gathered = table.gather(rows).unwrap();
        let bitmap = row_at_a_time(expr, &gathered)?;
        Ok(bitmap.iter_selected().map(|i| rows[i]).collect())
    }

    /// 19 rows, so a window holds two 8-lane groups and a tail; a NaN score.
    fn wide_table() -> Table {
        let n = 19;
        TableBuilder::new()
            .int64("id", (0..n).map(|i| (i * 7) % 5).collect())
            .utf8("word", (0..n).map(|i| format!("w{}", i % 3)).collect())
            .date("taken", (0..n).map(|i| 100 * (i as i32 % 4)).collect())
            .bool("flag", (0..n).map(|i| i % 2 == 0).collect())
            .float64(
                "score",
                (0..n)
                    .map(|i| if i == 5 { f64::NAN } else { i as f64 / 10.0 })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn one_evaluator_matches_the_row_at_a_time_loop_errors_included() {
        let date = |d| crate::expr::lit(ScalarValue::Date(d));
        let float = crate::expr::lit_f64;
        let boolean = |b| crate::expr::lit(ScalarValue::Bool(b));
        let missing = || col("missing").gt(lit_i64(1));
        let preds = [
            // the compare fast path, both types, every operator
            col("id").eq(lit_i64(2)),
            col("id").not_eq(lit_i64(2)),
            col("id").lt(lit_i64(2)),
            col("id").lt_eq(lit_i64(2)),
            col("id").gt(lit_i64(2)),
            col("id").gt_eq(lit_i64(2)),
            col("taken").eq(date(200)),
            col("taken").gt_eq(date(200)),
            // conjunctions: the right arm sees the left arm's survivors
            col("id").lt(lit_i64(3)).and(col("taken").gt(date(0))),
            col("id")
                .gt(lit_i64(0))
                .and(col("flag").eq(boolean(true)))
                .and(col("word").eq(lit_str("w1"))),
            // a false arm hides an unknown column; a leading one fails
            boolean(false).and(missing()),
            col("id").gt(lit_i64(100)).and(missing()),
            missing().and(col("id").gt(lit_i64(0))),
            col("id").gt(lit_i64(2)).and(missing()),
            // OR and NOT
            col("id").eq(lit_i64(1)).or(col("id").eq(lit_i64(4))),
            col("id").lt(lit_i64(100)).or(missing()),
            col("id").lt(lit_i64(2)).or(missing()),
            col("flag").not(),
            col("id").gt(lit_i64(2)).not(),
            // Float64 with a NaN row: NaN compares equal row-wise
            col("score").gt(float(0.5)),
            col("score").eq(float(1.0)),
            col("score").not_eq(float(1.0)),
            col("score").lt_eq(float(0.3)).and(col("id").gt(lit_i64(0))),
            // type mismatches
            col("word").gt(lit_i64(1)),
            col("taken").gt_eq(lit_i64(0)),
            col("score").lt(lit_i64(1)),
            col("id").gt(float(1.0)),
            col("id"),
            lit_i64(1),
            col("id").gt(lit_i64(0)).and(col("word").gt(lit_i64(1))),
            // two arms failing differently: row by row the right arm's type
            // error comes first (row 0 passes the left arm), the left arm's
            // unknown column only on row 1
            col("id")
                .lt(lit_i64(1))
                .or(missing())
                .and(col("word").gt(lit_i64(1))),
        ];
        let wide = wide_table();
        let empty = wide.gather(&[]).unwrap();
        for pred in &preds {
            for t in [&wide, &table(), &empty] {
                let n = t.num_rows() as u32;
                assert_eq!(
                    evaluate_predicate(pred, t),
                    row_at_a_time(pred, t),
                    "{pred} over {n} rows"
                );
                let windows = [0..n, 1..n, 1..n.min(10), n.min(3)..n.min(3)];
                for rows in windows {
                    let lanes: Vec<u32> = rows.clone().collect();
                    let expected = reference_over(pred, t, &lanes);
                    let got = evaluate_predicate_window(pred, t, rows.clone());
                    assert_eq!(got, expected, "{pred} window {rows:?}");
                    let got = evaluate_predicate_select(pred, t, &lanes);
                    assert_eq!(got, expected, "{pred} selection {rows:?}");
                }
                if n > 3 {
                    // unsorted, with repeats: order and repeats are kept
                    let sel = [3, 0, 3, 1];
                    let got = evaluate_predicate_select(pred, t, &sel);
                    assert_eq!(got, reference_over(pred, t, &sel), "{pred} {sel:?}");
                }
            }
        }
        // the pair of differing errors really differs between the arms
        let split = preds.last().unwrap();
        assert!(matches!(
            evaluate_predicate(split, &wide),
            Err(RelationalError::TypeError(_))
        ));
    }

    #[test]
    fn a_window_past_the_end_is_an_error_and_an_empty_one_is_not() {
        let t = table();
        let pred = col("id").gt(lit_i64(0));
        assert!(matches!(
            evaluate_predicate_window(&pred, &t, 2..5),
            Err(RelationalError::Storage(
                StorageError::RowOutOfBounds { .. }
            ))
        ));
        assert_eq!(evaluate_predicate_window(&pred, &t, 9..9), Ok(vec![]));
        assert_eq!(evaluate_predicate_window(&pred, &t, 2..4), Ok(vec![2, 3]));
    }
}
