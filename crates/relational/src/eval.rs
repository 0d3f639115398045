//! Predicate evaluation over tables.
//!
//! Evaluation is row-at-a-time over columnar data — adequate for the
//! experiment scales here, where predicate evaluation is never the
//! bottleneck (the paper's bottleneck analysis is entirely about model calls
//! and vector arithmetic).

use cej_storage::{Column, ScalarValue, SelectionBitmap, Table};
use cej_vector::{filter_cmp, CmpOp};

use crate::error::RelationalError;
use crate::expr::{CompareOp, Expr};
use crate::Result;

/// Evaluates a boolean predicate against every row of `table`, producing a
/// selection bitmap.
///
/// # Errors
/// Returns [`RelationalError::UnknownColumn`] for unresolved column
/// references and [`RelationalError::TypeError`] for non-boolean expressions
/// or incompatible comparisons.
pub fn evaluate_predicate(expr: &Expr, table: &Table) -> Result<SelectionBitmap> {
    let mut bits = Vec::with_capacity(table.num_rows());
    for row in 0..table.num_rows() {
        bits.push(evaluate_bool(expr, table, row)?);
    }
    Ok(SelectionBitmap::from_bools(bits))
}

/// Evaluates a boolean predicate over the lanes named by a selection vector,
/// returning the surviving lanes (a refined selection vector, in order).
///
/// This is the vectorised executor's `Filter` path: instead of materialising
/// the upstream rows and re-scanning them, the predicate is applied directly
/// to the base table restricted to the still-selected lanes.  Simple
/// `column <op> literal` comparisons over totally-ordered types are
/// dispatched to the SIMD-friendly [`filter_cmp`] kernel; everything else
/// (including floats, whose row-path semantics treat NaN as equal) falls back
/// to the same row-at-a-time evaluation as [`evaluate_predicate`], so both
/// paths agree bit-for-bit on survivors and on error behaviour.
///
/// # Errors
/// Identical to [`evaluate_predicate`] over the selected lanes.
pub fn evaluate_predicate_select(expr: &Expr, table: &Table, sel: &[u32]) -> Result<Vec<u32>> {
    if sel.is_empty() {
        // nothing is evaluated over an empty selection
        return Ok(Vec::new());
    }
    match expr {
        // `a AND b`: evaluate `b` only on `a`'s survivors — exactly the row
        // path's short-circuit `&&` semantics.
        Expr::And(a, b) => {
            let first = evaluate_predicate_select(a, table, sel)?;
            evaluate_predicate_select(b, table, &first)
        }
        Expr::Compare { left, op, right } => {
            if let (Expr::Column(name), Expr::Literal(rv)) = (left.as_ref(), right.as_ref()) {
                if let Some(out) = compare_fast_path(name, *op, rv, table, sel) {
                    return Ok(out);
                }
            }
            evaluate_rowwise_select(expr, table, sel)
        }
        _ => evaluate_rowwise_select(expr, table, sel),
    }
}

/// Vectorised `column <op> literal` comparison for totally-ordered column
/// types.  Returns `None` when the shape or types don't qualify, so the
/// caller falls back to row-wise evaluation (which reports the same errors
/// as [`evaluate_predicate`]).
fn compare_fast_path(
    name: &str,
    op: CompareOp,
    rhs: &ScalarValue,
    table: &Table,
    sel: &[u32],
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
        (Column::Int64(values), ScalarValue::Int64(x)) => Some(filter_cmp(values, sel, cmp, *x)),
        (Column::Date(values), ScalarValue::Date(x)) => Some(filter_cmp(values, sel, cmp, *x)),
        // floats use `unwrap_or(Equal)` NaN semantics row-wise, and
        // other type pairings may be errors — let row-wise handle them
        _ => None,
    }
}

/// Row-at-a-time fallback for [`evaluate_predicate_select`].
fn evaluate_rowwise_select(expr: &Expr, table: &Table, sel: &[u32]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    for &lane in sel {
        if evaluate_bool(expr, table, lane as usize)? {
            out.push(lane);
        }
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
}
