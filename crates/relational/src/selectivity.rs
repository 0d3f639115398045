//! Statistics-driven selectivity estimation and plan-time predicate checking.
//!
//! [`estimate_selectivity`] walks a predicate [`Expr`] against a table's
//! [`TableStats`] and returns the estimated fraction of surviving rows:
//!
//! * `col = v`   → exact heavy-hitter mass from degenerate histogram buckets,
//!   else `1/ndv`, else `0` outside the observed `[min, max]`;
//! * `col < v` (and friends) → equi-depth histogram mass;
//! * `a AND b`   → `s(a) · s(b)` (attribute-value independence);
//! * `a OR b`    → `s(a) + s(b) − s(a)·s(b)`;
//! * `NOT a`     → `1 − s(a)`.
//!
//! Anything the statistics cannot answer (cross-column comparisons, missing
//! columns, non-orderable types) falls back to the classic constants — which
//! is exactly what the whole plan used to be estimated with.
//!
//! [`check_predicate`] is the plan-time companion: it resolves every column
//! reference against a schema and type-checks comparisons, so malformed
//! predicates fail at `prepare()` instead of mid-execution.

use cej_storage::{ColumnStats, DataType, ScalarValue, Schema, TableStats};

use crate::error::RelationalError;
use crate::expr::{CompareOp, Expr};
use crate::Result;

/// Fallback selectivity when statistics cannot answer (the System-R
/// constant the planner used for *every* filter before statistics existed).
pub const DEFAULT_SELECTIVITY: f64 = 0.5;

/// Estimated fraction of scanned pairs that satisfy `sim >= t`, assuming
/// cosine scores spread over `[-1, 1]`.  Used for output-cardinality
/// estimates (not for path selection): by the join orderer, the planner, and
/// a prepared query that re-binds its threshold.
pub fn threshold_selectivity(threshold: f32) -> f64 {
    ((1.0 - threshold as f64) / 2.0).clamp(0.0, 1.0)
}

/// Fallback selectivity for inequality comparisons without a histogram.
pub const DEFAULT_INEQUALITY_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimates the fraction of rows of a relation described by `stats` that
/// satisfy `expr`.  Always in `[0, 1]`.
pub fn estimate_selectivity(expr: &Expr, stats: &TableStats) -> f64 {
    estimate(expr, stats).clamp(0.0, 1.0)
}

fn estimate(expr: &Expr, stats: &TableStats) -> f64 {
    match expr {
        Expr::And(a, b) => estimate(a, stats) * estimate(b, stats),
        Expr::Or(a, b) => {
            let (sa, sb) = (estimate(a, stats), estimate(b, stats));
            sa + sb - sa * sb
        }
        Expr::Not(inner) => 1.0 - estimate(inner, stats),
        Expr::Compare { left, op, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => compare_column_literal(stats, c, *op, v),
            (Expr::Literal(v), Expr::Column(c)) => compare_column_literal(stats, c, flip(*op), v),
            (Expr::Column(a), Expr::Column(b)) => compare_columns(stats, a, *op, b),
            _ => DEFAULT_SELECTIVITY,
        },
        // A bare boolean column: estimate the mass of `true`.
        Expr::Column(name) => match stats.column(name) {
            Some(cs) => cs.eq_fraction(&ScalarValue::Bool(true)),
            None => DEFAULT_SELECTIVITY,
        },
        Expr::Literal(ScalarValue::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Literal(_) => DEFAULT_SELECTIVITY,
    }
}

/// Mirrors the comparison so the column is always on the left.
fn flip(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::LtEq => CompareOp::GtEq,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::GtEq => CompareOp::LtEq,
        CompareOp::Eq | CompareOp::NotEq => op,
    }
}

fn compare_column_literal(
    stats: &TableStats,
    column: &str,
    op: CompareOp,
    value: &ScalarValue,
) -> f64 {
    let Some(cs) = stats.column(column) else {
        return DEFAULT_SELECTIVITY;
    };
    match op {
        CompareOp::Eq => cs.eq_fraction(value),
        CompareOp::NotEq => 1.0 - cs.eq_fraction(value),
        CompareOp::Lt => range_fraction(cs, value, false),
        CompareOp::LtEq => range_fraction(cs, value, true),
        CompareOp::Gt => 1.0 - range_fraction(cs, value, true),
        CompareOp::GtEq => 1.0 - range_fraction(cs, value, false),
    }
}

/// `P(col < v)` (or `<=` when `inclusive`), via the histogram when one
/// exists, with an ordering-based boundary check for histogram-less but
/// orderable columns (strings), and the classic constant otherwise.
fn range_fraction(cs: &ColumnStats, value: &ScalarValue, inclusive: bool) -> f64 {
    let hist = if inclusive {
        cs.fraction_leq(value)
    } else {
        cs.fraction_lt(value)
    };
    if let Some(f) = hist {
        return f;
    }
    // No histogram (e.g. strings): min/max still bound the answer exactly
    // when the literal falls outside the observed range.
    if let (Some(min), Some(max)) = (&cs.min, &cs.max) {
        use std::cmp::Ordering;
        if let (Ok(vs_min), Ok(vs_max)) = (
            value.partial_cmp_same_type(min),
            value.partial_cmp_same_type(max),
        ) {
            if vs_min == Ordering::Less || (!inclusive && vs_min == Ordering::Equal) {
                return 0.0;
            }
            if vs_max == Ordering::Greater || (inclusive && vs_max == Ordering::Equal) {
                return 1.0;
            }
        }
    }
    DEFAULT_INEQUALITY_SELECTIVITY
}

fn compare_columns(stats: &TableStats, a: &str, op: CompareOp, b: &str) -> f64 {
    match op {
        // The classic equi-join style estimate: 1 / max(ndv_a, ndv_b).
        CompareOp::Eq => {
            let ndv = stats
                .column(a)
                .map(|s| s.distinct_count)
                .unwrap_or(1)
                .max(stats.column(b).map(|s| s.distinct_count).unwrap_or(1))
                .max(1);
            1.0 / ndv as f64
        }
        CompareOp::NotEq => 1.0 - compare_columns(stats, a, CompareOp::Eq, b),
        _ => DEFAULT_INEQUALITY_SELECTIVITY,
    }
}

// ---------------------------------------------------------------------------
// Plan-time predicate checking
// ---------------------------------------------------------------------------

/// Checks that `expr` is a well-typed boolean predicate over `schema`:
/// every referenced column exists, comparisons combine identical orderable
/// types, and the boolean structure is sound.  Mirrors exactly what
/// [`crate::eval::evaluate_predicate`] would reject at execution time, but
/// runs at plan time so a `prepare()` surfaces the typed error.
///
/// # Errors
/// [`RelationalError::UnknownColumn`] for unresolved references,
/// [`RelationalError::TypeError`] for type mismatches.
pub fn check_predicate(expr: &Expr, schema: &Schema) -> Result<()> {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => {
            check_predicate(a, schema)?;
            check_predicate(b, schema)
        }
        Expr::Not(inner) => check_predicate(inner, schema),
        Expr::Compare { left, op: _, right } => {
            let lt = operand_type(left, schema)?;
            let rt = operand_type(right, schema)?;
            if lt != rt {
                return Err(RelationalError::TypeError(format!(
                    "cannot compare {lt} with {rt} in {expr}"
                )));
            }
            if matches!(lt, DataType::Vector(_)) {
                return Err(RelationalError::TypeError(format!(
                    "vector columns are not orderable: {expr}"
                )));
            }
            Ok(())
        }
        Expr::Column(name) => match resolve(name, schema)? {
            DataType::Bool => Ok(()),
            other => Err(RelationalError::TypeError(format!(
                "column {name} used as predicate but has type {other}"
            ))),
        },
        Expr::Literal(ScalarValue::Bool(_)) => Ok(()),
        Expr::Literal(other) => Err(RelationalError::TypeError(format!(
            "literal {other} is not a boolean predicate"
        ))),
    }
}

fn operand_type(expr: &Expr, schema: &Schema) -> Result<DataType> {
    match expr {
        Expr::Column(name) => resolve(name, schema),
        Expr::Literal(v) => Ok(v.data_type()),
        other => Err(RelationalError::TypeError(format!(
            "expression {other} cannot be used as a comparison operand"
        ))),
    }
}

fn resolve(name: &str, schema: &Schema) -> Result<DataType> {
    schema
        .field(name)
        .map(|f| f.data_type)
        .map_err(|_| RelationalError::UnknownColumn(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, lit_f64, lit_i64, lit_str};
    use cej_storage::TableBuilder;

    fn stats() -> TableStats {
        TableBuilder::new()
            .int64("filter", (0..1000).map(|i| i % 100).collect())
            .int64(
                "skewed",
                (0..1000).map(|i| if i < 700 { 0 } else { i }).collect(),
            )
            .utf8("word", (0..1000).map(|i| format!("w{}", i % 50)).collect())
            .bool("flag", (0..1000).map(|i| i % 4 == 0).collect())
            .build()
            .unwrap()
            .analyze()
    }

    #[test]
    fn uniform_range_estimates_track_truth() {
        let s = stats();
        for cut in [10, 30, 50, 90] {
            let est = estimate_selectivity(&col("filter").lt(lit_i64(cut)), &s);
            let actual = cut as f64 / 100.0;
            assert!(
                (est - actual).abs() < 0.06,
                "cut {cut}: est {est} vs actual {actual}"
            );
        }
        // flipped literal-column order
        let est = estimate_selectivity(&lit_i64(50).gt(col("filter")), &s);
        assert!((est - 0.5).abs() < 0.06, "flipped est {est}");
    }

    #[test]
    fn skew_heavy_hitter_eq_is_exact() {
        let s = stats();
        let est = estimate_selectivity(&col("skewed").eq(lit_i64(0)), &s);
        assert!((est - 0.7).abs() < 0.05, "hitter est {est}");
        let tail = estimate_selectivity(&col("skewed").eq(lit_i64(750)), &s);
        assert!(tail < 0.05, "tail est {tail}");
        let out = estimate_selectivity(&col("skewed").eq(lit_i64(5000)), &s);
        assert_eq!(out, 0.0);
    }

    #[test]
    fn boolean_combinators_compose() {
        let s = stats();
        let and = estimate_selectivity(&col("filter").lt(lit_i64(50)).and(col("flag")), &s);
        assert!((and - 0.5 * 0.25).abs() < 0.05, "and est {and}");
        let or = estimate_selectivity(
            &col("filter")
                .lt(lit_i64(50))
                .or(col("filter").gt_eq(lit_i64(50))),
            &s,
        );
        assert!(or > 0.7, "or est {or}");
        let not = estimate_selectivity(&col("flag").not(), &s);
        assert!((not - 0.75).abs() < 0.05, "not est {not}");
    }

    #[test]
    fn string_and_fallback_estimates() {
        let s = stats();
        let eq = estimate_selectivity(&col("word").eq(lit_str("w7")), &s);
        assert!((eq - 1.0 / 50.0).abs() < 1e-6);
        // out-of-range string equality is impossible
        assert_eq!(
            estimate_selectivity(&col("word").eq(lit_str("zzz")), &s),
            0.0
        );
        // string ranges outside the observed bounds are exact
        assert_eq!(estimate_selectivity(&col("word").lt(lit_str("a")), &s), 0.0);
        assert_eq!(
            estimate_selectivity(&col("word").lt_eq(lit_str("zzz")), &s),
            1.0
        );
        // inside the range: the classic 1/3
        let mid = estimate_selectivity(&col("word").lt(lit_str("w3")), &s);
        assert!((mid - DEFAULT_INEQUALITY_SELECTIVITY).abs() < 1e-9);
        // unknown column: 0.5
        let unknown = estimate_selectivity(&col("missing").lt(lit_i64(3)), &s);
        assert!((unknown - DEFAULT_SELECTIVITY).abs() < 1e-9);
        // cross-column equality: 1/max(ndv)
        let cross = estimate_selectivity(&col("filter").eq(col("skewed")), &s);
        assert!(cross <= 1.0 / 100.0 + 1e-9);
        let cross_range = estimate_selectivity(&col("filter").lt(col("skewed")), &s);
        assert!((cross_range - DEFAULT_INEQUALITY_SELECTIVITY).abs() < 1e-9);
    }

    #[test]
    fn literal_predicates() {
        let s = stats();
        assert_eq!(estimate_selectivity(&lit(ScalarValue::Bool(true)), &s), 1.0);
        assert_eq!(
            estimate_selectivity(&lit(ScalarValue::Bool(false)), &s),
            0.0
        );
        assert!((estimate_selectivity(&lit_i64(1), &s) - DEFAULT_SELECTIVITY).abs() < 1e-9);
    }

    #[test]
    fn check_predicate_accepts_valid_and_rejects_invalid() {
        let t = TableBuilder::new()
            .int64("id", vec![1])
            .utf8("word", vec!["x".into()])
            .bool("flag", vec![true])
            .build()
            .unwrap();
        let schema = t.schema();
        assert!(check_predicate(&col("id").gt(lit_i64(1)), schema).is_ok());
        assert!(check_predicate(&col("flag").and(col("id").eq(lit_i64(2))), schema).is_ok());
        assert!(check_predicate(&col("word").eq(lit_str("x")).not(), schema).is_ok());
        // unknown column
        assert!(matches!(
            check_predicate(&col("nope").gt(lit_i64(1)), schema),
            Err(RelationalError::UnknownColumn(_))
        ));
        // type mismatch in comparison
        assert!(matches!(
            check_predicate(&col("word").gt(lit_i64(1)), schema),
            Err(RelationalError::TypeError(_))
        ));
        assert!(matches!(
            check_predicate(&col("id").lt(lit_f64(1.0)), schema),
            Err(RelationalError::TypeError(_))
        ));
        // non-boolean column / literal as predicate
        assert!(check_predicate(&col("id"), schema).is_err());
        assert!(check_predicate(&lit_i64(1), schema).is_err());
        // nested non-scalar operand
        let nested = Expr::Compare {
            left: Box::new(col("id").gt(lit_i64(1))),
            op: CompareOp::Eq,
            right: Box::new(lit_i64(1)),
        };
        assert!(check_predicate(&nested, schema).is_err());
    }
}
