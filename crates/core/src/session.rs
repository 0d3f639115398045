//! End-to-end declarative API: from a logical plan with an `EJoin` node to a
//! joined table.
//!
//! [`ContextJoinSession`] is the "hybrid vector-relational engine" of the
//! paper in miniature.  The user registers tables and embedding models,
//! writes a declarative plan (by hand or through
//! [`ContextJoinSession::query`]'s fluent builder), and the session splits
//! the work into two explicit stages:
//!
//! * **Plan** ([`ContextJoinSession::prepare`]): the optimizer pushes
//!   relational predicates below the embedding (Section III-C / IV), then
//!   the [`crate::planner::Planner`] lowers the result to a
//!   [`crate::physical_plan::PhysicalPlan`], consulting the
//!   [`AccessPathAdvisor`] *at plan time* — the Section V cost-based choice,
//!   inspectable via `explain()` before anything runs.
//! * **Execute** ([`crate::prepared::PreparedQuery::run`]): the physical
//!   plan runs against session-owned shared state — one `Arc`-shared
//!   [`ModelRegistry`], per-model embedding caches, and persistent HNSW
//!   indexes in the [`IndexManager`] — so repeated executions pay no model
//!   calls for cached strings and no HNSW construction for resident indexes.
//!
//! [`ContextJoinSession::execute`] is a thin `prepare().run()` wrapper, so
//! the original one-shot `execute(&LogicalPlan)` path keeps working
//! unchanged.
//!
//! ## Shared sessions
//!
//! A session is a cheap handle over `Arc`-shared state: the (internally
//! synchronised) catalog, the model registry, the per-model embedding
//! caches, and the persistent index manager.  [`ContextJoinSession::clone`]
//! returns a second handle onto the *same* state, which is how the serving
//! layer gives every connection its own handle while all of them share one
//! catalog, one set of caches, and one index manager.  Any number of
//! threads may run prepared queries concurrently; registration methods
//! keep their `&mut self` signatures (a handle is trivially made `mut`)
//! and apply copy-on-write under the hood, so queries already in flight
//! keep the snapshots they were planned against.

use std::sync::Arc;

use cej_embedding::{Embedder, EmbeddingStats};
use cej_relational::{physical::ModelRegistry, reorder_joins, Catalog, LogicalPlan, Optimizer};
use cej_storage::{Delta, Table};

use crate::access_path::{AccessPath, AccessPathAdvisor};
use crate::builder::QueryBuilder;
use crate::error::CoreError;
use crate::executor::{EmbeddingCachePool, RunEmbedder};
use crate::index_manager::IndexManager;
use crate::ivm::{ChangeOutcome, IvmRuntime, IvmStats, StandingQuery, TableChange};
use crate::join::embed_all;
use crate::join::index_join::IndexJoinConfig;
use crate::join::prefetch_nlj::NljConfig;
use crate::join::tensor_join::TensorJoinConfig;
use crate::planner::Planner;
use crate::prepared::PreparedQuery;
use crate::result::JoinStats;
use crate::Result;

/// Which physical join operator the session should use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum JoinStrategy {
    /// Cost-based access-path selection between the tensor scan and the
    /// index probe (the paper's recommended policy).
    #[default]
    Auto,
    /// The naive per-pair-embedding NLJ (for demonstration only).
    NaiveNlj,
    /// The prefetch-optimised parallel NLJ.
    PrefetchNlj(NljConfig),
    /// The blocked tensor join.
    Tensor(TensorJoinConfig),
    /// The HNSW index-probe join.
    Index(IndexJoinConfig),
}

/// Everything the session reports about one executed query.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The materialised join output.
    pub table: Table,
    /// The optimised logical plan that was executed.
    pub optimized_plan: LogicalPlan,
    /// Operator-level statistics of the join.
    pub join_stats: JoinStats,
    /// Model access counters observed during the query (deltas over the
    /// session's shared embedding cache — a warm prepared run reports 0).
    pub embedding_stats: EmbeddingStats,
    /// The access path that was chosen (None when the plan had no join).
    pub access_path: Option<AccessPath>,
    /// Number of joined pairs.
    pub matched_pairs: usize,
    /// HNSW indexes built during this execution (cold index joins).
    pub index_builds: u64,
    /// Persistent HNSW indexes reused during this execution (warm runs).
    pub index_reuses: u64,
    /// Persistent HNSW indexes evicted by the memory budget during this
    /// execution.
    pub index_evictions: u64,
    /// Actual output rows of every physical operator, in the pre-order the
    /// plan renders in — the "actual" column of `explain_analyze()`.
    pub operator_rows: Vec<u64>,
    /// Measured wall time of every physical operator in microseconds, same
    /// pre-order as `operator_rows`.  Times are *inclusive* of the inputs',
    /// and the stages fused into one morsel chain (and the scan under them)
    /// all report the chain's wall time.  Timing only — excluded from the
    /// byte-identity contract across thread budgets and morsel sizes.
    pub operator_micros: Vec<u64>,
    /// Morsels (selections over a base table) each physical operator
    /// processed — for a join, the morsels its output was cut into — same
    /// pre-order as `operator_rows`.  A source counts `ceil(rows /
    /// DEFAULT_BATCH_ROWS)`, at least 1, per segment it reads (a scanned
    /// table version's segments, dead rows included; a join's one output),
    /// and every stage above it counts the same.  A morsel is the unit of
    /// per-task fixed cost (see [`cej_storage::DEFAULT_BATCH_ROWS`]), so this
    /// is how many times the run paid it.  Like timing, excluded from the
    /// byte-identity contract.
    pub operator_morsels: Vec<u64>,
    /// Persistent worker-pool activity observed across this run (tasks
    /// executed, steals, injector submissions, queue depth) — the scheduler
    /// side of `explain_analyze()`.  Process-wide deltas: under concurrent
    /// serving they measure contention, not per-run attribution.
    pub scheduler: cej_exec::PoolMetrics,
    /// Id of the [`cej_obs::Trace`] that captured this run — set when the
    /// run was traced (sampled, forced, or slow-query captured), `None`
    /// otherwise.  Look the trace up with [`cej_obs::trace_by_id`].
    pub trace_id: Option<u64>,
}

/// What one [`ContextJoinSession::apply_delta`] did: the published table
/// version plus how the session's standing queries absorbed the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Version number of the table after this delta.
    pub version: u64,
    /// Base rows the delta appended.
    pub added_rows: usize,
    /// Base rows the delta removed.
    pub removed_rows: usize,
    /// Standing queries that read the table (propagated + refreshed).
    pub standing_updated: usize,
    /// Standing queries updated by exact delta propagation.
    pub propagated: usize,
    /// Standing queries updated by a full re-run (non-linear operator,
    /// oversized delta, or divergence recovery).
    pub refreshed: usize,
}

/// The `Arc`-shared state behind every [`ContextJoinSession`] handle.
struct SessionState {
    catalog: Catalog,
    registry: parking_lot::RwLock<Arc<ModelRegistry>>,
    strategy: parking_lot::RwLock<JoinStrategy>,
    advisor: parking_lot::RwLock<AccessPathAdvisor>,
    optimizer: Optimizer,
    embeddings: EmbeddingCachePool,
    indexes: IndexManager,
    ivm: IvmRuntime,
}

/// The end-to-end hybrid vector-relational session: a cheap handle over
/// shared state (see the module docs on shared sessions).
pub struct ContextJoinSession {
    state: Arc<SessionState>,
}

impl Default for ContextJoinSession {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for ContextJoinSession {
    /// Returns another handle onto the **same** session state (catalog,
    /// models, caches, indexes) — not a copy.  This is the sharing primitive
    /// the serving layer hands each connection.
    fn clone(&self) -> Self {
        Self {
            state: self.state.clone(),
        }
    }
}

impl ContextJoinSession {
    /// Creates an empty session with the default optimizer and advisor.
    pub fn new() -> Self {
        Self {
            state: Arc::new(SessionState {
                catalog: Catalog::new(),
                registry: parking_lot::RwLock::new(Arc::new(ModelRegistry::new())),
                strategy: parking_lot::RwLock::new(JoinStrategy::Auto),
                advisor: parking_lot::RwLock::new(AccessPathAdvisor::default()),
                optimizer: Optimizer::with_default_rules(),
                embeddings: EmbeddingCachePool::new(),
                indexes: IndexManager::new(),
                ivm: IvmRuntime::default(),
            }),
        }
    }

    /// Registers (or replaces) a base table.  Replacing a table invalidates
    /// every persistent index built over it.
    ///
    /// Order matters under concurrency: the new table is published *before*
    /// the invalidation, so a concurrent index build either embeds the new
    /// rows (fine) or overlaps the invalidation epoch and is discarded at
    /// publication — a graph over the replaced rows can never be cached.
    pub fn register_table(&mut self, name: &str, table: Table) -> &mut Self {
        self.state.catalog.register(name, table);
        self.state.indexes.invalidate_table(name);
        self
    }

    /// Removes a table, dropping its statistics and every persistent index
    /// built over it.  Returns whether the table existed.  (The serving
    /// layer reaps per-connection probe tables with this.)
    pub fn unregister_table(&mut self, name: &str) -> bool {
        let existed = self.state.catalog.unregister(name);
        // reap (not just invalidate): also forget the table's invalidation
        // epoch, so churning scratch tables never accumulate state
        self.state.indexes.reap_table(name);
        existed
    }

    /// Registers (or replaces) an embedding model.  Replacing a model drops
    /// its memoised embedding cache *and* every persistent index built from
    /// its vectors (a resident graph would otherwise be probed with the new
    /// model's embeddings).  Copy-on-write: queries already prepared keep
    /// the registry snapshot they were planned against, and embed through a
    /// private cache from then on — the shared one belongs to the new model.
    pub fn register_model<E: Embedder + 'static>(&mut self, name: &str, model: E) -> &mut Self {
        let model: Arc<dyn Embedder> = Arc::new(model);
        {
            let mut registry = self.state.registry.write();
            let mut next = (**registry).clone();
            next.register(name, model.clone());
            *registry = Arc::new(next);
        }
        self.state.embeddings.replace(name, model);
        self.state.indexes.invalidate_model(name);
        self
    }

    /// Forces a particular physical join strategy (default: cost-based).
    pub fn with_strategy(&mut self, strategy: JoinStrategy) -> &mut Self {
        *self.state.strategy.write() = strategy;
        self
    }

    /// Replaces the access-path advisor (e.g. with a recalibrated cost
    /// model) consulted at plan time.
    pub fn with_advisor(&mut self, advisor: AccessPathAdvisor) -> &mut Self {
        *self.state.advisor.write() = advisor;
        self
    }

    /// Caps the resident memory of persistent HNSW indexes at `bytes`,
    /// evicting least-recently-used indexes beyond it.  Also configurable
    /// via the `CEJ_INDEX_BUDGET` environment variable at session creation
    /// (plain bytes with optional `k`/`m`/`g` suffix).
    pub fn with_index_budget(&mut self, bytes: usize) -> &mut Self {
        self.state.indexes.set_budget(Some(bytes));
        self
    }

    /// The table catalog (internally synchronised — lookups and
    /// registrations are thread-safe through this reference).
    pub fn catalog(&self) -> &Catalog {
        &self.state.catalog
    }

    /// The session's shared model registry snapshot (`Arc`-shared with
    /// prepared queries — never rebuilt per execution; re-registration
    /// swaps the `Arc` copy-on-write).
    pub fn model_registry(&self) -> Arc<ModelRegistry> {
        self.state.registry.read().clone()
    }

    /// The session's persistent HNSW index cache.
    pub fn index_manager(&self) -> &IndexManager {
        &self.state.indexes
    }

    /// The session's per-model embedding caches.
    pub fn embedding_caches(&self) -> &EmbeddingCachePool {
        &self.state.embeddings
    }

    /// The access-path advisor consulted at plan time.
    pub fn advisor(&self) -> AccessPathAdvisor {
        *self.state.advisor.read()
    }

    /// Starts a fluent query against a registered table.
    pub fn query(&self, table: &str) -> QueryBuilder<'_> {
        QueryBuilder::new(self, table)
    }

    /// Optimises and physically plans a query once; the returned
    /// [`PreparedQuery`] can be executed any number of times (and from any
    /// number of threads — see [`crate::prepared::PreparedQuery::detach`]).
    ///
    /// # Errors
    /// Propagates optimisation and planning errors (unknown tables or models
    /// surface here, before execution).
    pub fn prepare(&self, plan: &LogicalPlan) -> Result<PreparedQuery<'_>> {
        let registry = self.model_registry();
        // Each planning phase is timed so traced runs can report
        // plan/order/lower wall times next to execution (the phase spans of
        // `TRACE`); timing two Instants per phase is negligible against the
        // optimizer work itself.
        let start = std::time::Instant::now();
        let optimized = self
            .state
            .optimizer
            .optimize(plan.clone(), &self.state.catalog)?;
        let rewrite_us = start.elapsed().as_micros() as u64;
        // Join-order selection runs between the rewrite optimizer (whose
        // pushdowns shape the per-relation inputs the DP costs) and physical
        // lowering (which prices the access paths of the chosen tree).
        let start = std::time::Instant::now();
        let optimized = reorder_joins(&optimized, &self.state.catalog)?;
        let order_us = start.elapsed().as_micros() as u64;
        let planner = Planner::new(self.advisor(), *self.state.strategy.read());
        let start = std::time::Instant::now();
        let physical = planner.plan(
            &optimized,
            &self.state.catalog,
            &registry,
            &self.state.indexes,
        )?;
        let lower_us = start.elapsed().as_micros() as u64;
        Ok(PreparedQuery::new(
            self.clone(),
            registry,
            optimized,
            physical,
            [rewrite_us, order_us, lower_us],
        ))
    }

    /// Renders the physical plan for `plan` — operator tree, selected access
    /// path, and per-operator cost estimates — without executing it.
    ///
    /// # Errors
    /// Propagates optimisation and planning errors.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        Ok(self.prepare(plan)?.explain())
    }

    /// Plans and executes `plan`, rendering the operator tree with estimated
    /// and actual rows side by side (`EXPLAIN ANALYZE`).
    ///
    /// # Errors
    /// Propagates planning and execution errors.
    pub fn explain_analyze(&self, plan: &LogicalPlan) -> Result<crate::prepared::ExplainAnalyze> {
        self.prepare(plan)?.explain_analyze()
    }

    /// Optimises, plans, and executes a logical plan once — a thin
    /// `prepare().run()` wrapper kept for the original one-shot API.
    ///
    /// # Errors
    /// Propagates optimisation, planning, relational execution, embedding,
    /// and join errors.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<ExecutionReport> {
        self.prepare(plan)?.run()
    }

    /// [`ContextJoinSession::execute`] recording into a caller-provided
    /// [`cej_obs::Trace`]: planning runs under a `prepare` span and the run
    /// itself via [`crate::prepared::PreparedQuery::run_traced`] (phase and
    /// per-operator spans).  A disabled trace costs nothing extra beyond
    /// slow-query wall-time measurement.
    ///
    /// # Errors
    /// Propagates the same errors as [`ContextJoinSession::execute`].
    pub fn execute_traced(
        &self,
        plan: &LogicalPlan,
        trace: &cej_obs::Trace,
    ) -> Result<ExecutionReport> {
        let span = trace.span("prepare");
        let prepared = self.prepare(plan)?;
        drop(span);
        prepared.run_traced(trace)
    }

    /// The session's IVM runtime (standing-query registry plus delta
    /// bookkeeping).
    pub(crate) fn ivm_runtime(&self) -> &IvmRuntime {
        &self.state.ivm
    }

    /// Aggregate IVM counters: registered standing queries, applied deltas,
    /// propagation/refresh split, and propagation-latency percentiles.
    pub fn ivm_stats(&self) -> IvmStats {
        self.state.ivm.stats()
    }

    /// The delta-propagation latency histogram (a shared handle onto the
    /// live cells) — what the serving layer registers under `METRICS`.
    pub fn ivm_latency_histogram(&self) -> cej_obs::Histogram {
        self.state.ivm.latency_histogram()
    }

    /// Looks up a registered standing query by id (a second handle onto the
    /// same mailbox — what the serving layer's `SUBSCRIBE <id>` resolves).
    pub fn standing_query(&self, id: u64) -> Option<StandingQuery> {
        self.state.ivm.get(id)
    }

    /// Deregisters a standing query: later deltas no longer maintain it.
    /// Outstanding handles keep their (now frozen) state.  Returns whether
    /// the id was registered.
    pub fn unsubscribe(&self, id: u64) -> bool {
        self.state.ivm.unregister(id)
    }

    /// Applies a batch mutation to a registered table and drives the whole
    /// incremental-maintenance pipeline:
    ///
    /// 1. the catalog publishes a new [`cej_storage::TableVersion`] that
    ///    shares every row segment the delta left alone — appended rows are
    ///    one more segment, removed rows are masked — and folds the change
    ///    into the table's statistics incrementally;
    /// 2. resident HNSW indexes over the table are **extended in place**
    ///    for append-only deltas (new vectors inserted into a clone of the
    ///    persistent graph, atomically swapped in) or invalidated when rows
    ///    were removed (row ids shift);
    /// 3. every standing query that reads the table absorbs the change —
    ///    by exact delta propagation where linear, by a full re-run where
    ///    not — and queues a [`crate::ivm::ResultDelta`] frame.
    ///
    /// Whole applications are serialised on an internal gate, so every
    /// standing query observes table changes in one global order.
    ///
    /// # Errors
    /// Propagates schema/key-type mismatches from the delta check, and
    /// catalog, embedding, index, and execution errors from maintenance.
    pub fn apply_delta(&self, table: &str, delta: &Delta) -> Result<DeltaReport> {
        let trace = cej_obs::Trace::start(&format!("apply {table}"));
        let _gate = self.state.ivm.apply_gate.lock();
        let span = trace.span("catalog.apply");
        let (head, applied) = self
            .state
            .catalog
            .apply_delta(table, delta)
            .map_err(CoreError::from)?;
        drop(span);
        let span = trace.span("index.maintain");
        if applied.removed.num_rows() == 0 {
            span.attr("mode", "extend");
            self.extend_table_indexes(table, &applied.added)?;
        } else {
            span.attr("mode", "invalidate");
            self.state.indexes.invalidate_table(table);
        }
        drop(span);
        let version = head.version();
        let change = TableChange {
            table: table.to_string(),
            added: applied.added,
            removed: applied.removed,
        };
        // Process-wide apply sequence: every frame produced by this call
        // carries the same `seq`, so a serving layer can recognise that two
        // standing queries over the same plan just rendered the same body
        // (the fan-out cache key is `(plan fingerprint, seq)`).  Starts at 1
        // so 0 stays reserved for snapshot frames.
        static APPLY_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let seq = APPLY_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let start = std::time::Instant::now();
        let span = trace.span("ivm.propagate");
        let queries = self.state.ivm.queries();
        let mut outcomes = Vec::with_capacity(queries.len());
        for query in &queries {
            outcomes.push(query.on_table_change(&change, version, seq)?);
        }
        drop(span);
        self.state.ivm.record_apply(&outcomes, start.elapsed());
        let propagated = outcomes
            .iter()
            .filter(|o| **o == ChangeOutcome::Propagated)
            .count();
        let refreshed = outcomes
            .iter()
            .filter(|o| **o == ChangeOutcome::Refreshed)
            .count();
        trace.attr("version", version);
        trace.attr("seq", seq);
        trace.attr("added_rows", change.added.num_rows());
        trace.attr("removed_rows", change.removed.num_rows());
        trace.attr("propagated", propagated);
        trace.attr("refreshed", refreshed);
        trace.finish();
        Ok(DeltaReport {
            version,
            added_rows: change.added.num_rows(),
            removed_rows: change.removed.num_rows(),
            standing_updated: propagated + refreshed,
            propagated,
            refreshed,
        })
    }

    /// Append-only index maintenance: embeds the appended rows' strings for
    /// every resident index over `table` and publishes extended graphs in
    /// one atomic swap.  Indexes whose extension fails (e.g. a replaced
    /// column) are simply dropped and rebuilt on next use.  Always bumps the
    /// table's publication epoch, fencing in-flight builds over the old
    /// snapshot.
    fn extend_table_indexes(&self, table: &str, added: &Table) -> Result<()> {
        let keys = self.state.indexes.keys_for_table(table);
        let registry = self.model_registry();
        let mut replacements = Vec::new();
        for key in keys {
            let Some(index) = self.state.indexes.get(&key) else {
                continue;
            };
            let Ok(column) = added.column_by_name(&key.column) else {
                continue;
            };
            let Ok(strings) = column.as_utf8() else {
                continue;
            };
            let Ok(cache) = self.state.embeddings.cache(&key.model, &registry) else {
                continue;
            };
            let run = RunEmbedder::new(cache.as_ref());
            let matrix = embed_all(&run, strings)?;
            if let Ok(extended) = index.extend(&matrix) {
                replacements.push((key, Arc::new(extended)));
            }
        }
        self.state.indexes.publish_replacements(table, replacements);
        Ok(())
    }

    /// Resolves a model by name from the shared registry.
    ///
    /// # Errors
    /// Returns an unknown-model error when absent.
    pub fn shared_model(&self, name: &str) -> Result<Arc<dyn Embedder>> {
        self.state
            .registry
            .read()
            .model(name)
            .map_err(CoreError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{sim_gte, top_k};
    use crate::join::tests::{walking_config, walking_products};
    use cej_embedding::{FastTextConfig, FastTextModel};
    use cej_relational::{col, lit_i64, SimilarityPredicate};
    use cej_storage::TableBuilder;

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    fn session() -> ContextJoinSession {
        let mut s = ContextJoinSession::new();
        s.register_table(
            "photos",
            TableBuilder::new()
                .int64("photo_id", vec![1, 2, 3, 4])
                .utf8(
                    "caption",
                    vec![
                        "barbecue".into(),
                        "database".into(),
                        "laptop".into(),
                        "vacation".into(),
                    ],
                )
                .int64("year", vec![2021, 2022, 2023, 2024])
                .build()
                .unwrap(),
        );
        s.register_table(
            "products",
            TableBuilder::new()
                .int64("product_id", vec![10, 20, 30])
                .utf8(
                    "title",
                    vec!["barbecues".into(), "databases".into(), "notebooks".into()],
                )
                .build()
                .unwrap(),
        );
        s.register_model("fasttext", model());
        s
    }

    fn join_plan(predicate: SimilarityPredicate) -> LogicalPlan {
        LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("products"),
            "caption",
            "title",
            "fasttext",
            predicate,
        )
    }

    #[test]
    fn threshold_join_produces_expected_schema_and_matches() {
        let s = session();
        let report = s
            .execute(&join_plan(SimilarityPredicate::Threshold(0.5)))
            .unwrap();
        let table = &report.table;
        assert!(table.schema().field("l_caption").is_ok());
        assert!(table.schema().field("r_title").is_ok());
        assert!(table.schema().field("similarity").is_ok());
        // barbecue-barbecues and database-databases must match
        let captions = table
            .column_by_name("l_caption")
            .unwrap()
            .as_utf8()
            .unwrap();
        let titles = table.column_by_name("r_title").unwrap().as_utf8().unwrap();
        let pairs: Vec<(String, String)> = captions
            .iter()
            .cloned()
            .zip(titles.iter().cloned())
            .collect();
        assert!(pairs.contains(&("barbecue".into(), "barbecues".into())));
        assert!(pairs.contains(&("database".into(), "databases".into())));
        assert_eq!(report.matched_pairs, table.num_rows());
        assert!(report.access_path.is_some());
    }

    #[test]
    fn prefetch_embedding_counts_are_linear() {
        let s = session();
        let report = s
            .execute(&join_plan(SimilarityPredicate::Threshold(0.5)))
            .unwrap();
        // 4 left + 3 right distinct strings = 7 model calls through the cache
        assert_eq!(report.embedding_stats.model_calls, 7);
        assert_eq!(report.join_stats.model_calls, 7);
    }

    #[test]
    fn repeated_execute_reuses_the_session_embedding_cache() {
        let s = session();
        let plan = join_plan(SimilarityPredicate::Threshold(0.5));
        let cold = s.execute(&plan).unwrap();
        assert_eq!(cold.embedding_stats.model_calls, 7);
        let warm = s.execute(&plan).unwrap();
        // same strings, same session: everything is memoised
        assert_eq!(warm.embedding_stats.model_calls, 0);
        assert_eq!(warm.table.num_rows(), cold.table.num_rows());
    }

    #[test]
    fn topk_join_returns_k_rows_per_left_tuple() {
        let mut s = session();
        s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
        let report = s.execute(&join_plan(SimilarityPredicate::TopK(1))).unwrap();
        assert_eq!(report.table.num_rows(), 4);
    }

    #[test]
    fn relational_predicate_pushed_below_join_reduces_model_calls() {
        let s = session();
        let plan =
            join_plan(SimilarityPredicate::Threshold(0.5)).select(col("year").gt_eq(lit_i64(2023)));
        let report = s.execute(&plan).unwrap();
        // after pushdown only 2 left rows survive: 2 + 3 = 5 model calls
        assert_eq!(report.embedding_stats.model_calls, 5);
        assert_eq!(report.optimized_plan.selections_below_embedding(), 1);
        // all output rows satisfy the relational predicate
        let years = report
            .table
            .column_by_name("l_year")
            .unwrap()
            .as_int64()
            .unwrap();
        assert!(years.iter().all(|&y| y >= 2023));
    }

    #[test]
    fn all_strategies_agree_on_threshold_join() {
        let strategies = vec![
            JoinStrategy::NaiveNlj,
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            JoinStrategy::Tensor(TensorJoinConfig::default()),
        ];
        let mut reference: Option<Vec<(String, String)>> = None;
        for strategy in strategies {
            let mut s = session();
            s.with_strategy(strategy);
            let report = s
                .execute(&join_plan(SimilarityPredicate::Threshold(0.5)))
                .unwrap();
            let captions = report
                .table
                .column_by_name("l_caption")
                .unwrap()
                .as_utf8()
                .unwrap()
                .to_vec();
            let titles = report
                .table
                .column_by_name("r_title")
                .unwrap()
                .as_utf8()
                .unwrap()
                .to_vec();
            let mut pairs: Vec<(String, String)> = captions.into_iter().zip(titles).collect();
            pairs.sort();
            match &reference {
                None => reference = Some(pairs),
                Some(expected) => assert_eq!(&pairs, expected, "strategy {strategy:?} diverged"),
            }
        }
    }

    #[test]
    fn index_strategy_executes_and_caches_the_index() {
        // a catalogue long enough against its narrow graph to be walked
        let mut s = session();
        s.register_table("products", walking_products());
        s.with_strategy(JoinStrategy::Index(walking_config()));
        let report = s.execute(&join_plan(SimilarityPredicate::TopK(1))).unwrap();
        assert_eq!(report.access_path, Some(AccessPath::IndexProbe));
        let route = report.join_stats.index_route.map(|r| r.path);
        assert_eq!(route, Some(crate::IndexPath::Walk));
        assert_eq!(report.table.num_rows(), 4);
        assert!(report.join_stats.probe_stats.distance_computations > 0);
        assert_eq!(report.index_builds, 1);
        // a second one-shot execute reuses the persistent index
        let warm = s.execute(&join_plan(SimilarityPredicate::TopK(1))).unwrap();
        assert_eq!(warm.index_builds, 0);
        assert_eq!(warm.index_reuses, 1);
        assert_eq!(s.index_manager().stats().builds, 1);
    }

    #[test]
    fn purely_relational_plan_still_executes() {
        let s = session();
        let plan = LogicalPlan::scan("photos").select(col("year").gt(lit_i64(2022)));
        let report = s.execute(&plan).unwrap();
        assert_eq!(report.table.num_rows(), 2);
        assert!(report.access_path.is_none());
        assert_eq!(report.matched_pairs, 0);
    }

    #[test]
    fn selection_above_join_on_joined_columns() {
        let s = session();
        // predicate references both sides, so it cannot be pushed down and is
        // evaluated over the join output
        let plan = join_plan(SimilarityPredicate::Threshold(0.5))
            .select(col("similarity").gt_eq(cej_relational::lit_f64(0.9)));
        let report = s.execute(&plan).unwrap();
        let sims = report
            .table
            .column_by_name("similarity")
            .unwrap()
            .as_float64()
            .unwrap();
        assert!(sims.iter().all(|&s| s >= 0.9));
    }

    #[test]
    fn unknown_model_and_table_errors() {
        let mut s = ContextJoinSession::new();
        s.register_table(
            "t",
            TableBuilder::new()
                .utf8("w", vec!["a".into()])
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("t"),
            LogicalPlan::scan("t"),
            "w",
            "w",
            "missing-model",
            SimilarityPredicate::TopK(1),
        );
        assert!(s.execute(&plan).is_err());
        let s2 = session();
        let bad_table = LogicalPlan::e_join(
            LogicalPlan::scan("nope"),
            LogicalPlan::scan("products"),
            "caption",
            "title",
            "fasttext",
            SimilarityPredicate::TopK(1),
        );
        assert!(s2.execute(&bad_table).is_err());
        // both surface at plan time already
        assert!(s.prepare(&plan).is_err());
        assert!(s2.prepare(&bad_table).is_err());
    }

    #[test]
    fn join_on_non_string_column_is_type_error() {
        let s = session();
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("products"),
            "photo_id",
            "title",
            "fasttext",
            SimilarityPredicate::TopK(1),
        );
        assert!(s.execute(&plan).is_err());
    }

    #[test]
    fn explain_matches_executed_access_path() {
        let s = session();
        let plan = join_plan(SimilarityPredicate::TopK(1));
        let prepared = s.prepare(&plan).unwrap();
        let text = prepared.explain();
        assert!(text.contains("scan cost") && text.contains("probe cost"));
        let report = prepared.run().unwrap();
        let path = report.access_path.unwrap();
        assert!(
            text.contains(&format!("access path: {}", path.label())),
            "explain `{text}` must name the executed path {path:?}"
        );
    }

    #[test]
    fn query_builder_matches_hand_built_plan() {
        let s = session();
        let built = s
            .query("photos")
            .select(col("year").gt_eq(lit_i64(2023)))
            .ejoin("products", ("caption", "title"), "fasttext", sim_gte(0.5))
            .build();
        let hand = LogicalPlan::e_join(
            LogicalPlan::scan("photos").select(col("year").gt_eq(lit_i64(2023))),
            LogicalPlan::scan("products"),
            "caption",
            "title",
            "fasttext",
            SimilarityPredicate::Threshold(0.5),
        );
        assert_eq!(built, hand);
        let report = s
            .query("photos")
            .ejoin("products", ("caption", "title"), "fasttext", top_k(1))
            .run()
            .unwrap();
        assert_eq!(report.table.num_rows(), 4);
    }

    #[test]
    fn model_registry_is_shared_not_rebuilt() {
        let s = session();
        let before = Arc::as_ptr(&s.model_registry());
        let _ = s.execute(&join_plan(SimilarityPredicate::TopK(1))).unwrap();
        let _ = s.execute(&join_plan(SimilarityPredicate::TopK(1))).unwrap();
        assert_eq!(
            before,
            Arc::as_ptr(&s.model_registry()),
            "execute must not rebuild the registry"
        );
        assert!(s.shared_model("fasttext").is_ok());
        assert!(s.shared_model("bert").is_err());
    }

    #[test]
    fn reregistering_a_model_invalidates_its_indexes_and_cache() {
        let mut s = session();
        s.with_strategy(JoinStrategy::Index(IndexJoinConfig {
            params: cej_index::HnswParams::tiny(),
            range_probe_k: 3,
        }));
        let plan = join_plan(SimilarityPredicate::TopK(1));
        s.execute(&plan).unwrap();
        assert_eq!(s.index_manager().stats().resident, 1);
        // replacing the model drops both the memoised vectors and the graph
        // built from them — probing the old graph with new-model embeddings
        // would silently return wrong pairs
        s.register_model("fasttext", model());
        assert_eq!(s.index_manager().stats().resident, 0);
        assert_eq!(s.embedding_caches().cached_entries(), 0);
        let report = s.execute(&plan).unwrap();
        assert_eq!(report.index_builds, 1);
        assert_eq!(report.embedding_stats.model_calls, 7);
    }

    #[test]
    fn reregistering_a_table_invalidates_its_indexes() {
        let mut s = session();
        s.with_strategy(JoinStrategy::Index(IndexJoinConfig {
            params: cej_index::HnswParams::tiny(),
            range_probe_k: 3,
        }));
        let plan = join_plan(SimilarityPredicate::TopK(1));
        s.execute(&plan).unwrap();
        assert_eq!(s.index_manager().stats().resident, 1);
        s.register_table(
            "products",
            TableBuilder::new()
                .int64("product_id", vec![1])
                .utf8("title", vec!["grill".into()])
                .build()
                .unwrap(),
        );
        assert_eq!(s.index_manager().stats().resident, 0);
        assert_eq!(s.index_manager().stats().invalidations, 1);
        let report = s.execute(&plan).unwrap();
        assert_eq!(report.index_builds, 1, "index must be rebuilt");
        assert_eq!(report.table.num_rows(), 4);
    }
}
