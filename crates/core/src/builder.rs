//! Fluent query construction: `session.query("r").ejoin(...).run()`.
//!
//! The paper's declarative promise is that "the user should only specify the
//! model and a threshold"; hand-assembling [`LogicalPlan`] trees is more
//! ceremony than that.  [`QueryBuilder`] (obtained from
//! [`crate::session::ContextJoinSession::query`]) wraps the plan builders in
//! a fluent chain and connects directly to the session's prepare/execute
//! entry points:
//!
//! ```ignore
//! let report = session
//!     .query("photos")
//!     .select(col("year").gt_eq(lit_i64(2023)))
//!     .ejoin("products", ("caption", "title"), "fasttext", sim_gte(0.9))
//!     .run()?;
//! ```

use cej_relational::{EmbedSpec, Expr, LogicalPlan, SimilarityPredicate};

use crate::prepared::PreparedQuery;
use crate::session::{ContextJoinSession, ExecutionReport};
use crate::Result;

/// `similarity >= threshold` — the paper's range predicate.
pub fn sim_gte(threshold: f32) -> SimilarityPredicate {
    SimilarityPredicate::Threshold(threshold)
}

/// Keep the `k` most similar inner tuples per outer tuple.
pub fn top_k(k: usize) -> SimilarityPredicate {
    SimilarityPredicate::TopK(k)
}

/// A fluent builder over [`LogicalPlan`], bound to a session so finished
/// queries can be prepared, explained, or run in place.
pub struct QueryBuilder<'s> {
    session: &'s ContextJoinSession,
    plan: LogicalPlan,
}

impl<'s> QueryBuilder<'s> {
    pub(crate) fn new(session: &'s ContextJoinSession, table: &str) -> Self {
        Self {
            session,
            plan: LogicalPlan::scan(table),
        }
    }

    /// Adds a relational selection.
    #[must_use]
    pub fn select(mut self, predicate: Expr) -> Self {
        self.plan = self.plan.select(predicate);
        self
    }

    /// Projects to a subset of columns.
    #[must_use]
    pub fn project(mut self, columns: &[&str]) -> Self {
        self.plan = self.plan.project(columns);
        self
    }

    /// Applies the embedding operator.
    #[must_use]
    pub fn embed(mut self, spec: EmbedSpec) -> Self {
        self.plan = self.plan.embed(spec);
        self
    }

    /// Hash equi-join against a base table: `on = (left_column,
    /// right_column)`.  Column names are preserved on both sides (the two
    /// tables must not share a column name), and chained `join`/`ejoin`
    /// calls compose into an N-table query whose join order is chosen by the
    /// optimizer's DP pass — the chain order is *not* the execution order.
    #[must_use]
    pub fn join(mut self, table: &str, on: (&str, &str)) -> Self {
        self.plan = LogicalPlan::join(self.plan, LogicalPlan::scan(table), on.0, on.1);
        self
    }

    /// Hash equi-join against an arbitrary right-hand plan (e.g. a filtered
    /// subquery built with another [`QueryBuilder::build`]).
    #[must_use]
    pub fn join_plan(mut self, right: LogicalPlan, on: (&str, &str)) -> Self {
        self.plan = LogicalPlan::join(self.plan, right, on.0, on.1);
        self
    }

    /// Context-enhanced join against a base table:
    /// `on = (left_column, right_column)`.  May be chained — each `ejoin`
    /// prefixes the accumulated left side's columns with `l_` and the new
    /// table's with `r_`, and appends a `similarity` column.
    #[must_use]
    pub fn ejoin(
        self,
        table: &str,
        on: (&str, &str),
        model: &str,
        predicate: SimilarityPredicate,
    ) -> Self {
        self.ejoin_with(LogicalPlan::scan(table), on, model, predicate)
    }

    /// Context-enhanced join against an arbitrary right-hand plan (e.g. a
    /// filtered subquery built with another [`QueryBuilder::build`]).
    #[must_use]
    pub fn ejoin_with(
        mut self,
        right: LogicalPlan,
        on: (&str, &str),
        model: &str,
        predicate: SimilarityPredicate,
    ) -> Self {
        self.plan = LogicalPlan::e_join(self.plan, right, on.0, on.1, model, predicate);
        self
    }

    /// Finishes the chain, returning the logical plan (the old
    /// `execute(&LogicalPlan)` entry point accepts it unchanged).
    pub fn build(self) -> LogicalPlan {
        self.plan
    }

    /// Optimises and physically plans the query (plan once, execute many).
    ///
    /// # Errors
    /// Propagates optimisation and planning errors.
    pub fn prepare(self) -> Result<PreparedQuery<'s>> {
        self.session.prepare(&self.plan)
    }

    /// Renders the physical plan (access path, cost estimates) without
    /// executing.
    ///
    /// # Errors
    /// Propagates optimisation and planning errors.
    pub fn explain(self) -> Result<String> {
        Ok(self.prepare()?.explain())
    }

    /// Plans and executes the query, rendering estimated-vs-actual rows per
    /// operator (`EXPLAIN ANALYZE`).
    ///
    /// # Errors
    /// Propagates planning and execution errors.
    pub fn explain_analyze(self) -> Result<crate::prepared::ExplainAnalyze> {
        self.prepare()?.explain_analyze()
    }

    /// Prepares and executes the query once.
    ///
    /// # Errors
    /// Propagates planning and execution errors.
    pub fn run(self) -> Result<ExecutionReport> {
        self.prepare()?.run()
    }
}
