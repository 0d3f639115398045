//! Prepared queries: plan once, execute many (and bind many).
//!
//! [`PreparedQuery`] is the product of
//! [`crate::session::ContextJoinSession::prepare`]: the logical plan has been
//! optimised and lowered to a [`PhysicalPlan`] exactly once, and every
//! [`PreparedQuery::run`] re-executes that same physical plan against the
//! session's shared state — the `Arc`-shared
//! [`cej_relational::physical::ModelRegistry`], the per-model embedding
//! caches, and the persistent HNSW indexes of the
//! [`crate::index_manager::IndexManager`].  A warm run of an index join
//! therefore performs **zero model calls** (for unchanged inputs) and **zero
//! HNSW construction**, which is the "plan-once / execute-many" contract a
//! server workload issuing many small joins needs.
//!
//! Two observability/parameterisation extensions ride on that contract:
//!
//! * [`PreparedQuery::explain_analyze`] executes the plan and renders the
//!   planner's estimated rows next to the recorded actual rows of every
//!   operator (with per-operator q-errors) — the feedback loop that shows
//!   whether the statistics the plan was costed with still hold;
//! * [`PreparedQuery::bind_threshold`] is the `sim_gte(?)`-style bind
//!   parameter: it re-binds every similarity threshold in the *already
//!   planned* operator tree and re-estimates the affected output
//!   cardinalities, so one prepared query serves a whole family of
//!   thresholds without re-running the optimizer, planner, or advisor.

use std::sync::Arc;

use cej_obs::{AttrValue, SpanId, Trace};
use cej_relational::physical::ModelRegistry;
use cej_relational::{LogicalPlan, SimilarityPredicate};

use crate::error::CoreError;
use crate::executor::{ExecContext, ExecOutcome};
use crate::ivm::IvmPolicy;
use crate::physical_plan::{InnerInput, PhysicalPlan};
use crate::planner::threshold_selectivity;
use crate::session::{ContextJoinSession, ExecutionReport};
use crate::Result;

/// The outcome of [`PreparedQuery::explain_analyze`]: the rendered
/// estimated-vs-actual operator tree plus the full execution report it was
/// measured from.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// The operator tree with per-operator estimated rows, actual rows, and
    /// q-errors.
    pub text: String,
    /// The execution report of the run that produced the actuals.
    pub report: ExecutionReport,
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// A query that has been optimised and physically planned once and can be
/// executed any number of times — including concurrently from many threads,
/// since `run` takes `&self` and all session state is internally
/// synchronised.
///
/// Holds its own handle onto the shared session state (catalog, caches,
/// indexes) plus the registry snapshot it was planned against.  The
/// lifetime parameter preserves the original borrow-scoped API (dropping
/// the prepared query before re-registering tables); a server that needs
/// to *store* prepared statements unbinds it with
/// [`PreparedQuery::detach`].
pub struct PreparedQuery<'s> {
    session: ContextJoinSession,
    registry: Arc<ModelRegistry>,
    optimized: LogicalPlan,
    physical: PhysicalPlan,
    /// Wall time of the three planning phases (rewrite, join ordering,
    /// physical lowering) in microseconds, measured once at `prepare` time
    /// and replayed as `phase.*` spans on every traced run.
    plan_micros: [u64; 3],
    _borrow: std::marker::PhantomData<&'s ContextJoinSession>,
}

impl<'s> PreparedQuery<'s> {
    pub(crate) fn new(
        session: ContextJoinSession,
        registry: Arc<ModelRegistry>,
        optimized: LogicalPlan,
        physical: PhysicalPlan,
        plan_micros: [u64; 3],
    ) -> Self {
        Self {
            session,
            registry,
            optimized,
            physical,
            plan_micros,
            _borrow: std::marker::PhantomData,
        }
    }

    /// Unbinds the prepared query from the session borrow, returning an
    /// owned (`'static`) statement that shares the same session state.
    /// This is what a serving layer stores in its statement cache: the
    /// session lives on in the handle inside.
    pub fn detach(self) -> PreparedQuery<'static> {
        PreparedQuery {
            session: self.session,
            registry: self.registry,
            optimized: self.optimized,
            physical: self.physical,
            plan_micros: self.plan_micros,
            _borrow: std::marker::PhantomData,
        }
    }

    /// The session handle this query executes against (shared state).
    pub(crate) fn exec_session(&self) -> &ContextJoinSession {
        &self.session
    }

    /// The registry snapshot this query was planned against.
    pub(crate) fn exec_registry(&self) -> Arc<ModelRegistry> {
        self.registry.clone()
    }

    /// Turns this prepared query into a delta-maintained
    /// [`crate::ivm::StandingQuery`] with the default [`IvmPolicy`]: one
    /// seeding run now, then every
    /// [`crate::session::ContextJoinSession::apply_delta`] that touches one
    /// of its tables updates the maintained result incrementally (or by a
    /// full re-run when propagation would not be exact) and queues a
    /// [`crate::ivm::ResultDelta`] frame.
    ///
    /// # Errors
    /// Propagates execution errors from the seeding run.
    pub fn subscribe(self) -> Result<crate::ivm::StandingQuery> {
        self.subscribe_with(IvmPolicy::default())
    }

    /// [`PreparedQuery::subscribe`] with explicit maintenance tunables.
    ///
    /// # Errors
    /// Propagates execution errors from the seeding run.
    pub fn subscribe_with(self, policy: IvmPolicy) -> Result<crate::ivm::StandingQuery> {
        crate::ivm::subscribe(self.detach(), policy)
    }

    /// The optimised logical plan this query was planned from.
    pub fn optimized_plan(&self) -> &LogicalPlan {
        &self.optimized
    }

    /// The physical plan executed by every [`PreparedQuery::run`].
    pub fn physical_plan(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// FNV-1a fingerprint of the physical operator tree.  Two prepared
    /// queries with the same fingerprint execute the same plan, so standing
    /// queries over them emit identical frame content for the same table
    /// change — the property the serving layer's DELTA fan-out cache keys
    /// on (together with [`crate::ivm::ResultDelta::seq`]).
    pub fn fingerprint(&self) -> u64 {
        let rendered = format!("{:?}", self.physical);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in rendered.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Renders the physical operator tree with the planner's access-path
    /// choice and cost estimates — available before (and unchanged by)
    /// execution.
    pub fn explain(&self) -> String {
        self.physical.explain()
    }

    /// Executes the plan.  Repeated calls reuse the optimised plan, the
    /// shared model registry, memoised embeddings, and persistent indexes.
    ///
    /// # Errors
    /// Propagates catalog, evaluation, embedding, index, and join errors.
    pub fn run(&self) -> Result<ExecutionReport> {
        self.run_with_pool(*cej_exec::ExecPool::global())
    }

    /// [`PreparedQuery::run`] with an explicit worker-pool budget, instead of
    /// the process-wide `CEJ_THREADS` default.  Results are byte-identical
    /// across budgets (only timing and scheduler counters differ) — this is
    /// how equivalence tests sweep thread counts inside one process.
    ///
    /// # Errors
    /// Propagates the same errors as [`PreparedQuery::run`].
    pub fn run_with_pool(&self, pool: cej_exec::ExecPool) -> Result<ExecutionReport> {
        self.run_traced_with(&Trace::disabled(), pool)
    }

    /// [`PreparedQuery::run`] recording into a caller-provided
    /// [`cej_obs::Trace`].  On a sampled trace this attaches the plan
    /// fingerprint, the `phase.rewrite`/`phase.order`/`phase.lower` planning
    /// spans (measured at `prepare` time), a `phase.execute` span carrying
    /// run statistics, and one span per physical operator with its actual
    /// rows, morsels, and inclusive wall time.  Results are byte-identical
    /// with tracing on or off: spans are synthesised *after* the run from
    /// the per-operator metrics the executor records unconditionally, so
    /// the execution path itself never branches on the trace.
    ///
    /// # Errors
    /// Propagates the same errors as [`PreparedQuery::run`].
    pub fn run_traced(&self, trace: &Trace) -> Result<ExecutionReport> {
        self.run_traced_with(trace, *cej_exec::ExecPool::global())
    }

    /// [`PreparedQuery::run_traced`] with an explicit pool budget.
    ///
    /// # Errors
    /// Propagates the same errors as [`PreparedQuery::run`].
    pub fn run_traced_with(
        &self,
        trace: &Trace,
        pool: cej_exec::ExecPool,
    ) -> Result<ExecutionReport> {
        let ctx = ExecContext {
            catalog: self.session.catalog(),
            registry: &self.registry,
            embeddings: self.session.embedding_caches(),
            indexes: self.session.index_manager(),
            pool,
        };
        let started = std::time::Instant::now();
        let outcome = self.physical.execute(&ctx)?;
        let elapsed_us = started.elapsed().as_micros() as u64;
        let trace_id = if trace.is_sampled() {
            self.annotate_trace(trace, &outcome, elapsed_us);
            trace.id()
        } else if cej_obs::slow_query_us().is_some_and(|limit| elapsed_us >= limit) {
            // Slow queries are captured even when sampling skipped them:
            // the per-operator metrics were recorded unconditionally, so
            // the full trace is reconstructed post-hoc at zero cost to the
            // fast path (one `Instant` and this comparison).
            let forced = Trace::forced("slow query");
            self.annotate_trace(&forced, &outcome, elapsed_us);
            forced.finish()
        } else {
            None
        };
        Ok(ExecutionReport {
            table: outcome.table,
            optimized_plan: self.optimized.clone(),
            join_stats: outcome.stats.join_stats,
            embedding_stats: outcome.stats.embedding_stats,
            access_path: outcome.stats.access_path,
            matched_pairs: outcome.stats.matched_pairs,
            index_builds: outcome.stats.index_builds,
            index_reuses: outcome.stats.index_reuses,
            index_evictions: outcome.stats.index_evictions,
            operator_rows: outcome.operator_rows,
            operator_micros: outcome.operator_micros,
            operator_morsels: outcome.operator_morsels,
            scheduler: outcome.stats.scheduler,
            trace_id,
        })
    }

    /// Converts a finished run's unconditionally-recorded metrics into
    /// spans: planning phases, the execute phase with run-level attributes,
    /// and the per-operator tree.
    fn annotate_trace(&self, trace: &Trace, outcome: &ExecOutcome, elapsed_us: u64) {
        trace.set_fingerprint(self.fingerprint());
        let root = trace.root();
        let [rewrite_us, order_us, lower_us] = self.plan_micros;
        trace.add_span(root, "phase.rewrite", 0, rewrite_us, Vec::new());
        trace.add_span(root, "phase.order", 0, order_us, Vec::new());
        trace.add_span(root, "phase.lower", 0, lower_us, Vec::new());
        let stats = &outcome.stats;
        let mut attrs: Vec<(&'static str, AttrValue)> = vec![
            ("rows", outcome.table.num_rows().into()),
            ("matched_pairs", stats.matched_pairs.into()),
            ("index_builds", stats.index_builds.into()),
            ("index_reuses", stats.index_reuses.into()),
            ("index_evictions", stats.index_evictions.into()),
            ("embed_calls", stats.embedding_stats.model_calls.into()),
            ("embed_hits", stats.embedding_stats.cache_hits.into()),
            ("pool_tasks", stats.scheduler.tasks_executed.into()),
            ("pool_steals", stats.scheduler.steals.into()),
        ];
        if let Some(path) = stats.access_path {
            attrs.push(("access_path", format!("{path:?}").into()));
        }
        let execute = trace.add_span(root, "phase.execute", 0, elapsed_us, attrs);
        let mut cursor = 0usize;
        add_operator_spans(
            trace,
            execute,
            &self.physical,
            &outcome.operator_rows,
            &outcome.operator_micros,
            &outcome.operator_morsels,
            &mut cursor,
        );
    }

    /// Executes the plan and renders the operator tree with estimated and
    /// *actual* rows side by side — `EXPLAIN ANALYZE`.  The actual counts are
    /// the per-operator outputs recorded by the executor during this very
    /// run ([`ExecutionReport::operator_rows`]), and each operator carries
    /// its measured wall time in microseconds (inclusive of its inputs;
    /// morsel-parallel fused chains report the chain's wall time on every
    /// fused operator).
    ///
    /// # Errors
    /// Propagates the same errors as [`PreparedQuery::run`].
    pub fn explain_analyze(&self) -> Result<ExplainAnalyze> {
        self.explain_analyze_traced(&Trace::disabled())
    }

    /// [`PreparedQuery::explain_analyze`] recording the measuring run into
    /// a caller-provided [`cej_obs::Trace`] — the serving layer's `ANALYZE`
    /// path, so an analysed query also shows up under `TRACE LAST`.
    ///
    /// # Errors
    /// Propagates the same errors as [`PreparedQuery::run`].
    pub fn explain_analyze_traced(&self, trace: &Trace) -> Result<ExplainAnalyze> {
        let report = self.run_traced(trace)?;
        let mut text = self
            .physical
            .explain_analyze_timed(&report.operator_rows, &report.operator_micros);
        let pool = &report.scheduler;
        text.push_str(&format!(
            "scheduler: tasks={} steals={} injected={} wakeups={} queue_depth={} workers={}\n",
            pool.tasks_executed,
            pool.steals,
            pool.injected,
            pool.wakeups,
            pool.queue_depth,
            pool.workers
        ));
        Ok(ExplainAnalyze { text, report })
    }

    /// Re-binds the plan's similarity threshold to `threshold`, returning a
    /// new prepared query that shares this one's session state.  No
    /// optimisation, lowering, or access-path selection is repeated — the
    /// affected output-cardinality estimates are recomputed bottom-up from
    /// the new threshold, through every operator of the (possibly
    /// DP-reordered) tree (the advisor's scan-vs-probe costs are invariant in
    /// the threshold *value*, so the planned access path stays correct).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidInput`] when the plan has no threshold
    /// predicate to bind (e.g. a pure top-k join or a join-less plan), and
    /// [`CoreError::AmbiguousThresholdBind`] on a multi-ejoin plan with more
    /// than one `sim_gte` join — use [`PreparedQuery::bind_threshold_at`] to
    /// name the target.
    pub fn bind_threshold(&self, threshold: f32) -> Result<PreparedQuery<'s>> {
        let candidates = self.threshold_join_count();
        if candidates > 1 {
            return Err(CoreError::AmbiguousThresholdBind(candidates));
        }
        self.bind(threshold, None)
    }

    /// Re-binds the threshold of one specific `sim_gte` ejoin: `index` counts
    /// the plan's threshold joins in the order [`PreparedQuery::explain`]
    /// renders them (outermost first), starting at 0.  Top-k joins are not
    /// counted.  Cardinality estimates re-derive through the whole tree, so
    /// enclosing hash joins and ejoins above the re-bound one reflect it.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidInput`] when `index` is out of range.
    pub fn bind_threshold_at(&self, index: usize, threshold: f32) -> Result<PreparedQuery<'s>> {
        let candidates = self.threshold_join_count();
        if index >= candidates {
            return Err(CoreError::InvalidInput(format!(
                "threshold join index {index} out of range: plan has \
                 {candidates} sim_gte ejoin(s)"
            )));
        }
        self.bind(threshold, Some(index))
    }

    /// Number of `sim_gte` (threshold) ejoins in the plan, in explain order.
    pub fn threshold_join_count(&self) -> usize {
        self.physical
            .join_nodes()
            .iter()
            .filter(|n| matches!(n.predicate, SimilarityPredicate::Threshold(_)))
            .count()
    }

    fn bind(&self, threshold: f32, target: Option<usize>) -> Result<PreparedQuery<'s>> {
        let mut physical = self.physical.clone();
        let mut next = 0usize;
        let bound = rebind_physical(&mut physical, threshold, target, &mut next);
        if bound == 0 {
            return Err(CoreError::InvalidInput(
                "no sim_gte threshold predicate to bind in this plan".into(),
            ));
        }
        let mut optimized = self.optimized.clone();
        let mut next = 0usize;
        rebind_logical(&mut optimized, threshold, target, &mut next);
        Ok(PreparedQuery::new(
            self.session.clone(),
            self.registry.clone(),
            optimized,
            physical,
            self.plan_micros,
        ))
    }
}

/// Synthesises one span per physical operator under `parent`, consuming
/// pre-order slots from the executor's metric vectors (the same slot order
/// `explain_analyze` renders in).  A persistent-index inner side executes
/// no operator slot; it is rendered as a zero-duration `IndexProbe` span.
fn add_operator_spans(
    trace: &Trace,
    parent: SpanId,
    plan: &PhysicalPlan,
    rows: &[u64],
    micros: &[u64],
    morsels: &[u64],
    cursor: &mut usize,
) {
    let slot = *cursor;
    *cursor += 1;
    let mut attrs: Vec<(&'static str, AttrValue)> = Vec::new();
    if let Some(r) = rows.get(slot) {
        attrs.push(("rows", (*r).into()));
    }
    if let Some(m) = morsels.get(slot) {
        attrs.push(("morsels", (*m).into()));
    }
    let dur_us = micros.get(slot).copied().unwrap_or(0);
    let id = trace.add_span(parent, &operator_span_name(plan), 0, dur_us, attrs);
    match plan {
        PhysicalPlan::TableScan { .. } => {}
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Embed { input, .. }
        | PhysicalPlan::Rename { input, .. } => {
            add_operator_spans(trace, id, input, rows, micros, morsels, cursor);
        }
        PhysicalPlan::Join(node) => {
            add_operator_spans(trace, id, &node.outer, rows, micros, morsels, cursor);
            match &node.inner {
                InnerInput::Plan(inner) => {
                    add_operator_spans(trace, id, inner, rows, micros, morsels, cursor);
                }
                InnerInput::Indexed(indexed) => {
                    trace.add_span(
                        id,
                        &format!("IndexProbe {}.{}", indexed.key.table, indexed.key.column),
                        0,
                        0,
                        vec![("model", indexed.key.model.clone().into())],
                    );
                }
            }
        }
        PhysicalPlan::HashJoin(node) => {
            add_operator_spans(trace, id, &node.left, rows, micros, morsels, cursor);
            add_operator_spans(trace, id, &node.right, rows, micros, morsels, cursor);
        }
    }
}

/// Short operator label for a synthesised span.
fn operator_span_name(plan: &PhysicalPlan) -> String {
    match plan {
        PhysicalPlan::TableScan { table, .. } => format!("TableScan {table}"),
        PhysicalPlan::Filter { .. } => "Filter".to_string(),
        PhysicalPlan::Project { .. } => "Project".to_string(),
        PhysicalPlan::Embed { .. } => "Embed".to_string(),
        PhysicalPlan::Rename { .. } => "Rename".to_string(),
        PhysicalPlan::HashJoin(node) => {
            format!("HashJoin {}={}", node.left_column, node.right_column)
        }
        PhysicalPlan::Join(node) => format!(
            "{} {}~{}",
            node.op.name(),
            node.left_column,
            node.right_column
        ),
    }
}

/// Rewrites `Threshold` join predicates in the physical tree and re-estimates
/// output cardinalities bottom-up, so operators *above* a re-bound join
/// (filters on `similarity`, projections, enclosing joins) also reflect the
/// new threshold.  Estimated costs keep their plan-time values — binding
/// never re-runs the advisor.
///
/// `target` selects which threshold ejoin to rebind, counted pre-order (the
/// order `explain` renders them) via `next`; `None` rebinds all of them.
/// Returns the number of predicates re-bound.
fn rebind_physical(
    plan: &mut PhysicalPlan,
    threshold: f32,
    target: Option<usize>,
    next: &mut usize,
) -> usize {
    match plan {
        PhysicalPlan::TableScan { .. } => 0,
        PhysicalPlan::Filter {
            input,
            selectivity,
            est,
            ..
        } => {
            let bound = rebind_physical(input, threshold, target, next);
            est.rows = input.estimate().rows * *selectivity;
            bound
        }
        PhysicalPlan::Project { input, est, .. }
        | PhysicalPlan::Embed { input, est, .. }
        | PhysicalPlan::Rename { input, est, .. } => {
            let bound = rebind_physical(input, threshold, target, next);
            est.rows = input.estimate().rows;
            bound
        }
        PhysicalPlan::HashJoin(node) => {
            // A hash join's output estimate is (input product) / key-domain;
            // the key domain is threshold-invariant, so scale the plan-time
            // estimate by the change in the input-cardinality product.
            let old = node.left.estimate().rows.max(1.0) * node.right.estimate().rows.max(1.0);
            let mut bound = rebind_physical(&mut node.left, threshold, target, next);
            bound += rebind_physical(&mut node.right, threshold, target, next);
            let new = node.left.estimate().rows.max(1.0) * node.right.estimate().rows.max(1.0);
            node.est.rows *= new / old;
            bound
        }
        PhysicalPlan::Join(node) => {
            let targeted = if matches!(node.predicate, SimilarityPredicate::Threshold(_)) {
                let index = *next;
                *next += 1;
                target.is_none() || target == Some(index)
            } else {
                false
            };
            let mut bound = rebind_physical(&mut node.outer, threshold, target, next);
            let inner_rows = match &mut node.inner {
                InnerInput::Plan(inner) => {
                    bound += rebind_physical(inner, threshold, target, next);
                    inner.estimate().rows
                }
                InnerInput::Indexed(ii) => ii.est_rows,
            };
            if targeted {
                node.predicate = SimilarityPredicate::Threshold(threshold);
                bound += 1;
            }
            // re-estimate at bind time with the planner's own formulas: the
            // (possibly re-bound) threshold model, or top-k over the
            // (possibly re-estimated) outer side
            node.est.rows = match node.predicate {
                SimilarityPredicate::TopK(k) => node.outer.estimate().rows * k as f64,
                SimilarityPredicate::Threshold(t) => {
                    node.outer.estimate().rows * inner_rows * threshold_selectivity(t)
                }
            };
            bound
        }
    }
}

/// Mirrors the threshold rebinding on the optimised logical plan (kept for
/// reporting consistency — `ExecutionReport::optimized_plan`).  The same
/// pre-order counter as [`rebind_physical`] keeps the logical and physical
/// target indexes aligned: lowering is structural, so the N-th threshold
/// ejoin pre-order is the same join in both trees.
fn rebind_logical(plan: &mut LogicalPlan, threshold: f32, target: Option<usize>, next: &mut usize) {
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Selection { input, .. }
        | LogicalPlan::Projection { input, .. }
        | LogicalPlan::Embed { input, .. }
        | LogicalPlan::Rename { input, .. } => rebind_logical(input, threshold, target, next),
        LogicalPlan::Join { left, right, .. } => {
            rebind_logical(left, threshold, target, next);
            rebind_logical(right, threshold, target, next);
        }
        LogicalPlan::EJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let targeted = if matches!(predicate, SimilarityPredicate::Threshold(_)) {
                let index = *next;
                *next += 1;
                target.is_none() || target == Some(index)
            } else {
                false
            };
            rebind_logical(left, threshold, target, next);
            rebind_logical(right, threshold, target, next);
            if targeted {
                *predicate = SimilarityPredicate::Threshold(threshold);
            }
        }
    }
}

impl Clone for PreparedQuery<'_> {
    fn clone(&self) -> Self {
        Self {
            session: self.session.clone(),
            registry: self.registry.clone(),
            optimized: self.optimized.clone(),
            physical: self.physical.clone(),
            plan_micros: self.plan_micros,
            _borrow: std::marker::PhantomData,
        }
    }
}

impl std::fmt::Debug for PreparedQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("physical", &self.physical)
            .finish_non_exhaustive()
    }
}
