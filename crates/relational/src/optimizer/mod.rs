//! Rule-based logical optimizer.
//!
//! The optimizer applies the algebraic equivalences of Section III-C /
//! Section IV as rewrite rules until a fixpoint is reached:
//!
//! * [`PredicatePushdown`] — relational selections move below the embedding
//!   operator and below the context-enhanced join, so that the expensive
//!   model invocations and vector comparisons only see pre-filtered inputs
//!   (the paper's E-Selection equivalence and selection pushdown).
//! * [`SelectionMerge`] — adjacent selections are fused into a conjunction to
//!   avoid repeated scans.
//! * [`RedundantEmbedElimination`] — duplicate applications of the same
//!   embedding operator are collapsed; together with the prefetching join
//!   operators in `cej-core`, this realises the `(|R| + |S|) · M` model cost
//!   of the optimised cost model rather than the naive `|R| · |S| · M`.

pub mod join_order;
pub mod pushdown;
pub mod rules;

use crate::algebra::LogicalPlan;
use crate::catalog::Catalog;
use crate::error::RelationalError;
use crate::Result;

pub use join_order::{physical_output_columns, reorder_joins, MAX_DP_RELATIONS};
pub use pushdown::PredicatePushdown;
pub use rules::{RedundantEmbedElimination, SelectionMerge};

/// A rewrite rule over logical plans.  Rules are shared by every
/// connection of a served session, so implementations must be `Send + Sync`
/// to be installed (they are typically stateless unit structs).
pub trait OptimizerRule {
    /// Rule name (for plan explanations and tests).
    fn name(&self) -> &'static str;

    /// Attempts to rewrite the plan.  Returns `Ok(None)` when the rule does
    /// not apply; a returned plan must be semantically equivalent.
    fn apply(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<Option<LogicalPlan>>;
}

/// Computes the output column names of a plan, resolving scans against the
/// catalog.  Used by rules that must decide whether a predicate can be pushed
/// into one side of a join.
pub fn output_columns(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<String>> {
    match plan {
        LogicalPlan::Scan { table } => {
            let schema = catalog.schema(table)?;
            Ok(schema.fields().iter().map(|f| f.name.clone()).collect())
        }
        LogicalPlan::Selection { input, .. } => output_columns(input, catalog),
        LogicalPlan::Projection { columns, .. } => Ok(columns.clone()),
        LogicalPlan::Embed { spec, input } => {
            let mut cols = output_columns(input, catalog)?;
            cols.push(spec.output_column.clone());
            Ok(cols)
        }
        LogicalPlan::Rename { columns, .. } => {
            Ok(columns.iter().map(|(_, to)| to.clone()).collect())
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::EJoin { left, right, .. } => {
            let mut cols = output_columns(left, catalog)?;
            cols.extend(output_columns(right, catalog)?);
            Ok(cols)
        }
    }
}

/// The rule-driven optimizer.
pub struct Optimizer {
    rules: Vec<Box<dyn OptimizerRule + Send + Sync>>,
    max_passes: usize,
}

impl Optimizer {
    /// Creates an optimizer with the default rule set.
    pub fn with_default_rules() -> Self {
        Self {
            rules: vec![
                Box::new(SelectionMerge),
                Box::new(PredicatePushdown),
                Box::new(RedundantEmbedElimination),
            ],
            max_passes: 16,
        }
    }

    /// Creates an optimizer with a custom rule set.
    pub fn new(rules: Vec<Box<dyn OptimizerRule + Send + Sync>>) -> Self {
        Self {
            rules,
            max_passes: 16,
        }
    }

    /// Names of the installed rules, in application order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Rewrites the plan to a fixpoint (bounded by an internal pass limit).
    ///
    /// # Errors
    /// Propagates rule errors (e.g. unknown tables while resolving schemas)
    /// and reports non-converging rule sets as [`RelationalError::InvalidPlan`].
    pub fn optimize(&self, plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
        let mut current = plan;
        for _ in 0..self.max_passes {
            let mut changed = false;
            for rule in &self.rules {
                if let Some(rewritten) = rule.apply(&current, catalog)? {
                    current = rewritten;
                    changed = true;
                }
            }
            if !changed {
                return Ok(current);
            }
        }
        Err(RelationalError::InvalidPlan(format!(
            "optimizer did not converge within {} passes",
            self.max_passes
        )))
    }
}

/// Applies a transformation bottom-up to every node of the plan, rebuilding
/// parents whose children changed.  `f` returns `Some(new_node)` to replace a
/// node and `None` to keep it.
pub(crate) fn transform_up<F>(plan: &LogicalPlan, f: &F) -> (LogicalPlan, bool)
where
    F: Fn(&LogicalPlan) -> Option<LogicalPlan>,
{
    // First rebuild children.
    let (rebuilt, changed) = match plan {
        LogicalPlan::Scan { .. } => (plan.clone(), false),
        LogicalPlan::Selection { predicate, input } => {
            let (child, ch) = transform_up(input, f);
            (
                LogicalPlan::Selection {
                    predicate: predicate.clone(),
                    input: Box::new(child),
                },
                ch,
            )
        }
        LogicalPlan::Projection { columns, input } => {
            let (child, ch) = transform_up(input, f);
            (
                LogicalPlan::Projection {
                    columns: columns.clone(),
                    input: Box::new(child),
                },
                ch,
            )
        }
        LogicalPlan::Embed { spec, input } => {
            let (child, ch) = transform_up(input, f);
            (
                LogicalPlan::Embed {
                    spec: spec.clone(),
                    input: Box::new(child),
                },
                ch,
            )
        }
        LogicalPlan::Rename { columns, input } => {
            let (child, ch) = transform_up(input, f);
            (
                LogicalPlan::Rename {
                    columns: columns.clone(),
                    input: Box::new(child),
                },
                ch,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            left_column,
            right_column,
        } => {
            let (l, cl) = transform_up(left, f);
            let (r, cr) = transform_up(right, f);
            (
                LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_column: left_column.clone(),
                    right_column: right_column.clone(),
                },
                cl || cr,
            )
        }
        LogicalPlan::EJoin {
            left,
            right,
            left_column,
            right_column,
            model,
            predicate,
        } => {
            let (l, cl) = transform_up(left, f);
            let (r, cr) = transform_up(right, f);
            (
                LogicalPlan::EJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_column: left_column.clone(),
                    right_column: right_column.clone(),
                    model: model.clone(),
                    predicate: *predicate,
                },
                cl || cr,
            )
        }
    };
    // Then give the callback a chance to rewrite this node.
    if let Some(new_node) = f(&rebuilt) {
        (new_node, true)
    } else {
        (rebuilt, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{EmbedSpec, SimilarityPredicate};
    use crate::expr::{col, lit_i64};
    use cej_storage::TableBuilder;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(
            "r",
            TableBuilder::new()
                .int64("r_id", vec![1])
                .utf8("r_word", vec!["a".into()])
                .build()
                .unwrap(),
        );
        c.register(
            "s",
            TableBuilder::new()
                .int64("s_id", vec![1])
                .utf8("s_word", vec!["b".into()])
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn output_columns_resolution() {
        let c = catalog();
        let scan = LogicalPlan::scan("r");
        assert_eq!(output_columns(&scan, &c).unwrap(), vec!["r_id", "r_word"]);
        let emb = LogicalPlan::scan("r").embed(EmbedSpec::new("r_word", "m"));
        assert_eq!(
            output_columns(&emb, &c).unwrap(),
            vec!["r_id", "r_word", "r_word_emb"]
        );
        let proj = LogicalPlan::scan("r").project(&["r_word"]);
        assert_eq!(output_columns(&proj, &c).unwrap(), vec!["r_word"]);
        let join = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "r_word",
            "s_word",
            "m",
            SimilarityPredicate::TopK(1),
        );
        assert_eq!(
            output_columns(&join, &c).unwrap(),
            vec!["r_id", "r_word", "s_id", "s_word"]
        );
        assert!(output_columns(&LogicalPlan::scan("missing"), &c).is_err());
    }

    #[test]
    fn optimizer_reaches_fixpoint_on_trivial_plan() {
        let c = catalog();
        let plan = LogicalPlan::scan("r");
        let opt = Optimizer::with_default_rules();
        assert_eq!(opt.optimize(plan.clone(), &c).unwrap(), plan);
        assert_eq!(opt.rule_names().len(), 3);
    }

    #[test]
    fn transform_up_rebuilds_parents() {
        let plan = LogicalPlan::scan("r").select(col("r_id").gt(lit_i64(0)));
        // Replace every Scan with a scan of "s".
        let (rewritten, changed) = transform_up(&plan, &|node| match node {
            LogicalPlan::Scan { table } if table == "r" => Some(LogicalPlan::scan("s")),
            _ => None,
        });
        assert!(changed);
        match rewritten {
            LogicalPlan::Selection { input, .. } => {
                assert_eq!(*input, LogicalPlan::scan("s"));
            }
            other => panic!("unexpected shape: {other}"),
        }
    }

    #[test]
    fn non_converging_rule_reports_error() {
        struct Flip;
        impl OptimizerRule for Flip {
            fn name(&self) -> &'static str {
                "flip"
            }
            fn apply(&self, plan: &LogicalPlan, _: &Catalog) -> Result<Option<LogicalPlan>> {
                // always "changes" the plan by cloning it
                Ok(Some(plan.clone()))
            }
        }
        let c = catalog();
        let opt = Optimizer::new(vec![Box::new(Flip)]);
        assert!(matches!(
            opt.optimize(LogicalPlan::scan("r"), &c),
            Err(RelationalError::InvalidPlan(_))
        ));
    }
}
