//! Relational scalar expressions.
//!
//! Only the expression surface the paper's queries need is implemented:
//! column references, literals, comparisons, and boolean combinators — enough
//! to express the running example ("`taken > 2023-12-02`") and the
//! selectivity-controlled filters of the evaluation.

use std::collections::BTreeSet;
use std::fmt;

use cej_storage::{scalar::date, ScalarValue};
use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::Result;

/// Comparison operators over orderable scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    NotEq,
    /// Less than.
    Lt,
    /// Less than or equal.
    LtEq,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    GtEq,
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "!=",
            CompareOp::Lt => "<",
            CompareOp::LtEq => "<=",
            CompareOp::Gt => ">",
            CompareOp::GtEq => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar predicate expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal value.
    Literal(ScalarValue),
    /// Comparison between two sub-expressions.
    Compare {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: CompareOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// The set of column names referenced by this expression.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) => {}
            Expr::Compare { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(inner) => inner.collect_columns(out),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    fn compare(self, op: CompareOp, other: Expr) -> Expr {
        Expr::Compare {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.compare(CompareOp::Eq, other)
    }

    /// `self != other`.
    pub fn not_eq(self, other: Expr) -> Expr {
        self.compare(CompareOp::NotEq, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.compare(CompareOp::Lt, other)
    }

    /// `self <= other`.
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.compare(CompareOp::LtEq, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.compare(CompareOp::Gt, other)
    }

    /// `self >= other`.
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.compare(CompareOp::GtEq, other)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Compare { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(inner) => write!(f, "(NOT {inner})"),
        }
    }
}

/// Column reference helper.
pub fn col(name: &str) -> Expr {
    Expr::Column(name.to_string())
}

/// Generic literal helper.
pub fn lit(value: ScalarValue) -> Expr {
    Expr::Literal(value)
}

/// Integer literal helper.
pub fn lit_i64(value: i64) -> Expr {
    Expr::Literal(ScalarValue::Int64(value))
}

/// Float literal helper.
pub fn lit_f64(value: f64) -> Expr {
    Expr::Literal(ScalarValue::Float64(value))
}

/// String literal helper.
pub fn lit_str(value: &str) -> Expr {
    Expr::Literal(ScalarValue::Utf8(value.to_string()))
}

/// Date literal helper from an ISO `YYYY-MM-DD` string.
///
/// # Errors
/// Returns [`RelationalError::Storage`] wrapping a parse error for malformed
/// literals.
pub fn lit_date(iso: &str) -> Result<Expr> {
    let days = date::parse_iso(iso).map_err(RelationalError::from)?;
    Ok(Expr::Literal(ScalarValue::Date(days)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_compose() {
        let e = col("taken")
            .gt(lit_date("2023-12-02").unwrap())
            .and(col("id").lt_eq(lit_i64(10)));
        let cols = e.referenced_columns();
        assert!(cols.contains("taken"));
        assert!(cols.contains("id"));
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let e = col("a")
            .eq(lit_i64(3))
            .or(col("b").not_eq(lit_str("x")).not());
        let s = e.to_string();
        assert!(s.contains("a = 3"));
        assert!(s.contains("OR"));
        assert!(s.contains("NOT"));
    }

    #[test]
    fn all_compare_ops_display() {
        for (op, s) in [
            (CompareOp::Eq, "="),
            (CompareOp::NotEq, "!="),
            (CompareOp::Lt, "<"),
            (CompareOp::LtEq, "<="),
            (CompareOp::Gt, ">"),
            (CompareOp::GtEq, ">="),
        ] {
            assert_eq!(op.to_string(), s);
        }
    }

    #[test]
    fn lit_date_parses_and_rejects() {
        assert!(lit_date("2024-01-31").is_ok());
        assert!(lit_date("garbage").is_err());
    }

    #[test]
    fn float_and_literal_helpers() {
        assert_eq!(lit_f64(0.5), Expr::Literal(ScalarValue::Float64(0.5)));
        assert_eq!(
            lit(ScalarValue::Bool(true)),
            Expr::Literal(ScalarValue::Bool(true))
        );
    }
}
