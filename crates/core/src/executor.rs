//! The state a [`PhysicalPlan`] executes against, and what a run reports.
//!
//! Execution itself is one interpreter, [`crate::batch_exec`]; this module
//! holds what it runs *on*.  The interpreter is deliberately dumb: every
//! decision (operator choice, access path, persistent-vs-ephemeral index)
//! was already made by the [`crate::planner::Planner`] and is recorded in
//! the plan, so executing the same [`PhysicalPlan`] twice performs the same
//! physical work — minus whatever the shared state already holds:
//!
//! * [`EmbeddingCachePool`] — one counting [`CachedEmbedder`] per model,
//!   owned by the session and shared by every query, so repeated executions
//!   re-pay zero model calls for already-embedded strings — and, beside each
//!   cache, one row → slot map per scanned string column
//!   ([`ColumnSlots`]), so warm runs fetch a tuple's vector by row id
//!   instead of hashing its string again;
//! * [`crate::index_manager::IndexManager`] — persistent HNSW indexes keyed
//!   by `(table, column, model, params)`, so warm index-join runs perform no
//!   HNSW construction at all.
//!
//! Per-run statistics ([`RunStats`]) are reported as *deltas* over the shared
//! counters, so `ExecutionReport::embedding_stats` keeps its familiar
//! meaning: model calls paid by *this* execution.

use cej_embedding::{CachedEmbedder, Embedder, EmbeddingStats, UNRESOLVED_SLOT};
use cej_relational::{physical::ModelRegistry, Catalog};
use cej_storage::{Table, DEFAULT_BATCH_ROWS};
use cej_vector::{Matrix, Vector};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::access_path::AccessPath;
use crate::error::CoreError;
use crate::physical_plan::PhysicalPlan;
use crate::result::JoinStats;
use crate::Result;

/// Adapter so a shared `Arc<dyn Embedder>` can be wrapped by
/// [`CachedEmbedder`] (which needs an owned `Embedder`).
pub struct SharedEmbedder(Arc<dyn Embedder>);

impl Embedder for SharedEmbedder {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn embed(&self, input: &str) -> Vector {
        self.0.embed(input)
    }
}

/// The concrete cache type the pool hands out: a counting, memoising wrapper
/// around a registry model.
pub type SharedCache = CachedEmbedder<SharedEmbedder>;

/// A per-run counting view over a shared [`SharedCache`].
///
/// Join operators and the `Embed` node receive this instead of the raw
/// cache: every request still flows through (and fills) the shared memo,
/// but the hit/miss tally lands in run-local counters.  Under concurrent
/// executions on one shared session this is what keeps each
/// [`RunStats::embedding_stats`] *isolated* — diffing the shared cache's
/// global counters around a run would blame this run for calls made by
/// whichever queries happened to overlap with it.
pub struct RunEmbedder<'r> {
    cache: &'r SharedCache,
    model_calls: AtomicU64,
    cache_hits: AtomicU64,
}

impl<'r> RunEmbedder<'r> {
    /// Wraps a shared cache with fresh run-local counters.
    pub fn new(cache: &'r SharedCache) -> Self {
        Self {
            cache,
            model_calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// The calls this run paid and the hits it was served so far.
    pub fn stats(&self) -> EmbeddingStats {
        EmbeddingStats {
            model_calls: self.model_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    fn record(&self, delta: EmbeddingStats) {
        self.model_calls
            .fetch_add(delta.model_calls, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(delta.cache_hits, Ordering::Relaxed);
    }

    /// Embeds rows `sel` of a string column, one matrix row per lane in
    /// `sel` order.
    ///
    /// With the column's slot map, rows the map already knows are fetched by
    /// slot — no string is touched — and only the others are resolved
    /// through their strings, once, and remembered.  Without one this is the
    /// string path over borrowed `&str`s.  Both read the same arena, so the
    /// vectors are the same bits, and both count the same way: the first
    /// touch of a never-seen string is a model call, every other lane a hit.
    pub(crate) fn embed_rows(
        &self,
        column: &[String],
        sel: &[u32],
        slots: Option<&ColumnSlots>,
    ) -> Matrix {
        let text = |row: u32| column[row as usize].as_str();
        let Some(memo) = slots else {
            let strings: Vec<&str> = sel.iter().map(|&row| text(row)).collect();
            let (matrix, delta) = self.cache.embed_strs_counted(&strings);
            self.record(delta);
            return matrix;
        };
        let mut model_calls = 0;
        loop {
            // a cleared cache moves the generation: everything this
            // iteration learnt is then stale and it starts over
            let generation = self.cache.generation();
            let mut slots = memo.lookup(generation, sel);
            let unresolved: Vec<usize> = (0..sel.len())
                .filter(|&lane| slots[lane] == UNRESOLVED_SLOT)
                .collect();
            if !unresolved.is_empty() {
                let strings: Vec<&str> = unresolved.iter().map(|&lane| text(sel[lane])).collect();
                let resolved = self
                    .cache
                    .resolve(&strings)
                    .expect("the pool hands out caching wrappers");
                model_calls += resolved.model_calls;
                if resolved.generation != generation {
                    continue;
                }
                for (&lane, &slot) in unresolved.iter().zip(&resolved.slots) {
                    slots[lane] = slot;
                }
                let rows = unresolved.iter().map(|&lane| sel[lane]);
                memo.remember(generation, rows.zip(resolved.slots));
            }
            if let Some(matrix) = self.cache.gather_slots(generation, &slots) {
                let cache_hits = (sel.len() as u64).saturating_sub(model_calls);
                self.cache.add_hits(cache_hits);
                self.record(EmbeddingStats {
                    model_calls,
                    cache_hits,
                });
                return matrix;
            }
        }
    }
}

impl Embedder for RunEmbedder<'_> {
    fn dim(&self) -> usize {
        self.cache.dim()
    }

    fn embed(&self, input: &str) -> Vector {
        let (vector, paid) = self.cache.embed_counted(input);
        self.record(EmbeddingStats {
            model_calls: u64::from(paid),
            cache_hits: u64::from(!paid),
        });
        vector
    }

    fn embed_batch(&self, inputs: &[String]) -> Matrix {
        let (matrix, delta) = self.cache.embed_batch_counted(inputs);
        self.record(delta);
        matrix
    }
}

/// The remembered `row → slot` assignment of one string column of one table
/// segment against one model's cache: which arena row holds the embedding of
/// the string in row *r*.
///
/// Filled lazily, for exactly the lanes runs select (a pre-filtered row that
/// no run ever admits is never embedded); 4 bytes per row of a table the
/// catalog already holds.  The map belongs to one cache *generation*: after
/// [`CachedEmbedder::clear_cache`] it forgets everything on next use.
pub struct ColumnSlots {
    /// The snapshot the rows index into.  Holding the `Weak` keeps the
    /// allocation's address from being reused, which is what makes that
    /// address a sound map key while this entry exists.
    table: Weak<Table>,
    state: RwLock<SlotState>,
}

struct SlotState {
    generation: u64,
    /// `UNRESOLVED_SLOT` = not resolved yet.
    slots: Vec<u32>,
}

impl ColumnSlots {
    fn new(table: &Arc<Table>) -> Self {
        Self {
            table: Arc::downgrade(table),
            state: RwLock::new(SlotState {
                generation: 0,
                slots: vec![UNRESOLVED_SLOT; table.num_rows()],
            }),
        }
    }

    /// The slots of rows `sel` as far as they are known under `generation`.
    fn lookup(&self, generation: u64, sel: &[u32]) -> Vec<u32> {
        let state = self.state.read();
        if state.generation != generation {
            return vec![UNRESOLVED_SLOT; sel.len()];
        }
        sel.iter().map(|&row| state.slots[row as usize]).collect()
    }

    /// Records `(row, slot)` pairs resolved under `generation`.
    fn remember(&self, generation: u64, resolved: impl Iterator<Item = (u32, u32)>) {
        let mut state = self.state.write();
        if state.generation > generation {
            // a newer generation already owns the map
            return;
        }
        if state.generation < generation {
            state.slots.fill(UNRESOLVED_SLOT);
            state.generation = generation;
        }
        for (row, slot) in resolved {
            state.slots[row as usize] = slot;
        }
    }
}

/// What the pool keeps per model: the shared cache and, beside it, the slot
/// maps of the columns embedded through it, keyed by (table allocation
/// address, column position).  Dropping the entry drops both, so a
/// re-registered model can never be served slots of its predecessor's arena.
struct ModelEntry {
    cache: Arc<SharedCache>,
    columns: HashMap<(usize, usize), Arc<ColumnSlots>>,
}

impl ModelEntry {
    fn new(model: Arc<dyn Embedder>) -> Self {
        ModelEntry {
            cache: Arc::new(CachedEmbedder::new(SharedEmbedder(model))),
            columns: HashMap::new(),
        }
    }

    /// Whether `cache` is this entry's shared cache (and not a private one,
    /// or a predecessor's).
    fn shares(&self, cache: &Arc<SharedCache>) -> bool {
        Arc::ptr_eq(&self.cache, cache)
    }

    /// The entry's shared cache if `model` is the model it wraps, else a
    /// private cache over `model`.
    fn cache_of(&self, model: Arc<dyn Embedder>) -> Arc<SharedCache> {
        if Arc::ptr_eq(&self.cache.inner().0, &model) {
            self.cache.clone()
        } else {
            Arc::new(CachedEmbedder::new(SharedEmbedder(model)))
        }
    }
}

/// Session-owned pool of per-model embedding caches.
///
/// The cache for a model survives across queries (and is shared with every
/// prepared query), which is what makes warm executions free of model calls;
/// it is dropped when the model is re-registered.
///
/// Beside each cache the pool keeps the [`ColumnSlots`] of the base-table
/// columns that were embedded through it.  A map is tied to one *allocation*
/// of rows — one segment of a published table version.  A delta shares the
/// segments it leaves alone (a delete only swaps their live mask), so their
/// maps stay in use; the segment an append or a merge adds, like a
/// re-registered table, simply has no map yet, and maps whose rows are gone
/// are swept whenever a new one is inserted — so the maps are bounded by the
/// live segments, with no budget to tune.
#[derive(Default)]
pub struct EmbeddingCachePool {
    caches: RwLock<HashMap<String, ModelEntry>>,
}

impl std::fmt::Debug for EmbeddingCachePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingCachePool")
            .field("models", &self.caches.read().keys().len())
            .finish()
    }
}

impl EmbeddingCachePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache a run whose registry snapshot is `registry` embeds `model`
    /// through: the pool's shared cache when the snapshot resolves the name
    /// to the model the pool holds (created from the registry on first
    /// use), and a private, unshared cache when it resolves to another one
    /// — a statement prepared before the model was re-registered keeps its
    /// old model, and must neither be served the new model's vectors nor
    /// leave its own in the pool.
    ///
    /// # Errors
    /// Returns [`cej_relational::RelationalError::UnknownModel`] (wrapped)
    /// when the registry has no such model.
    pub fn cache(&self, model: &str, registry: &ModelRegistry) -> Result<Arc<SharedCache>> {
        let resolved = registry.model(model).map_err(CoreError::from)?;
        if let Some(entry) = self.caches.read().get(model) {
            return Ok(entry.cache_of(resolved));
        }
        let mut write = self.caches.write();
        let entry = write
            .entry(model.to_string())
            .or_insert_with(|| ModelEntry::new(resolved.clone()));
        Ok(entry.cache_of(resolved))
    }

    /// Whether `cache` is the cache every run currently shares for `model`.
    /// `false` for the private cache of a statement whose registry snapshot
    /// predates a re-registration of the model: nothing derived from such a
    /// cache's vectors (slot maps, persistent indexes) may be published
    /// under the model's name.
    pub(crate) fn shares(&self, model: &str, cache: &Arc<SharedCache>) -> bool {
        self.caches
            .read()
            .get(model)
            .is_some_and(|entry| entry.shares(cache))
    }

    /// The slot map of column `column` of `table` under `model`, created
    /// (and dead maps swept) on first use.  `None` when `cache` is no longer
    /// the pool's cache for `model` — the model was re-registered meanwhile,
    /// and the caller embeds through strings instead.
    pub(crate) fn column_slots(
        &self,
        model: &str,
        cache: &Arc<SharedCache>,
        table: &Arc<Table>,
        column: usize,
    ) -> Option<Arc<ColumnSlots>> {
        let key = (Arc::as_ptr(table) as usize, column);
        {
            let read = self.caches.read();
            let entry = read.get(model)?;
            if !entry.shares(cache) {
                return None;
            }
            if let Some(slots) = entry.columns.get(&key) {
                return Some(slots.clone());
            }
        }
        let mut write = self.caches.write();
        for entry in write.values_mut() {
            entry
                .columns
                .retain(|_, slots| slots.table.strong_count() > 0);
        }
        let entry = write.get_mut(model)?;
        if !entry.shares(cache) {
            return None;
        }
        let slots = entry
            .columns
            .entry(key)
            .or_insert_with(|| Arc::new(ColumnSlots::new(table)));
        Some(slots.clone())
    }

    /// Makes `model` the pool's model behind `name`, with an empty cache and
    /// no slot maps (used when the model is re-registered: memoised vectors
    /// came from the old model).  The pool has to be *told* the new model —
    /// were the entry only dropped, the first run to ask would decide whose
    /// vectors everyone shares, and that run may hold a stale registry.
    pub fn replace(&self, name: &str, model: Arc<dyn Embedder>) {
        self.caches
            .write()
            .insert(name.to_string(), ModelEntry::new(model));
    }

    /// Empties every cache and drops its slot maps; each entry keeps its
    /// model, for the reason [`EmbeddingCachePool::replace`] gives.
    pub fn clear(&self) {
        for entry in self.caches.write().values_mut() {
            *entry = ModelEntry::new(entry.cache.inner().0.clone());
        }
    }

    /// Aggregate counters over every per-model cache.
    pub fn stats(&self) -> EmbeddingStats {
        let read = self.caches.read();
        let mut total = EmbeddingStats::default();
        for entry in read.values() {
            let s = entry.cache.stats();
            total.model_calls += s.model_calls;
            total.cache_hits += s.cache_hits;
        }
        total
    }

    /// Total number of memoised embeddings across all models.
    pub fn cached_entries(&self) -> usize {
        self.caches
            .read()
            .values()
            .map(|entry| entry.cache.cached_entries())
            .sum()
    }

    /// Number of slot maps held: one per (table segment, column, model)
    /// that was embedded by row, including maps of dropped tables not yet
    /// swept by the next insertion.
    pub fn slot_maps(&self) -> usize {
        self.caches
            .read()
            .values()
            .map(|entry| entry.columns.len())
            .sum()
    }
}

/// Everything a [`PhysicalPlan`] needs to execute: the catalog, the model
/// registry, and the session-owned shared caches.  All references — a
/// context is cheap to construct per run and holds no per-query state.
pub struct ExecContext<'s> {
    /// Table catalog to scan from.
    pub catalog: &'s Catalog,
    /// Model registry plans resolve model names against.
    pub registry: &'s ModelRegistry,
    /// Shared per-model embedding caches.
    pub embeddings: &'s EmbeddingCachePool,
    /// Shared persistent HNSW indexes.
    pub indexes: &'s crate::index_manager::IndexManager,
    /// Worker-pool budget for intra-query parallelism (morsel-driven batch
    /// pipelines, partitioned hash joins, parallel GEMM).  Defaults to the
    /// process-wide `CEJ_THREADS` budget; tests override it to sweep thread
    /// counts in-process.
    pub pool: cej_exec::ExecPool,
}

/// Statistics of one plan execution (deltas over the shared caches).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Operator-level statistics of the (outermost) join.
    pub join_stats: JoinStats,
    /// Model access performed by this run (run-local counters, exact even
    /// under concurrent executions on a shared session).
    pub embedding_stats: EmbeddingStats,
    /// Worker-pool activity across this run: tasks/steals/injections are
    /// process-wide deltas over the persistent scheduler (concurrent runs
    /// overlap in them — they are a *contention* signal, not an attribution),
    /// `queue_depth`/`workers` are sampled at run end.
    pub scheduler: cej_exec::PoolMetrics,
    /// The access path executed (None when the plan had no join).
    pub access_path: Option<AccessPath>,
    /// Number of joined pairs of the (outermost) join.
    pub matched_pairs: usize,
    /// HNSW indexes built during this run (cold index joins).
    pub index_builds: u64,
    /// Persistent HNSW indexes reused during this run (warm index joins).
    pub index_reuses: u64,
    /// Persistent HNSW indexes evicted by the memory budget during this run.
    pub index_evictions: u64,
}

/// The outcome of executing a physical plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The materialised output table.
    pub table: Table,
    /// Execution statistics.
    pub stats: RunStats,
    /// Actual output rows of every operator, in the pre-order the plan
    /// renders in — the "actual" side of
    /// [`PhysicalPlan::explain_analyze`].  Length equals
    /// [`PhysicalPlan::operator_count`].
    pub operator_rows: Vec<u64>,
    /// Inclusive per-operator wall time in microseconds, same slot order as
    /// `operator_rows`.  Timing, not semantics: excluded from byte-identity
    /// contracts.
    pub operator_micros: Vec<u64>,
    /// Morsels processed per operator, same slot order — how finely the
    /// operator's work was split for the worker pool, and how many times it
    /// paid a morsel's fixed cost (see `ExecutionReport::operator_morsels`).
    pub operator_morsels: Vec<u64>,
}

impl PhysicalPlan {
    /// Executes the plan against the given context, recording the actual
    /// output rows of every operator alongside the usual run statistics.
    /// Operators exchange morsels of [`DEFAULT_BATCH_ROWS`] rows.
    ///
    /// # Errors
    /// Propagates catalog, evaluation, embedding, index, and join errors.
    pub fn execute(&self, ctx: &ExecContext<'_>) -> Result<ExecOutcome> {
        self.execute_with(ctx, DEFAULT_BATCH_ROWS)
    }

    /// [`PhysicalPlan::execute`] with an explicit morsel size (clamped to at
    /// least one row; `usize::MAX` is the whole-table morsel).  Results are
    /// byte-identical for every size — this is the seam equivalence tests
    /// sweep, not a tuning knob.
    ///
    /// # Errors
    /// Propagates catalog, evaluation, embedding, index, and join errors.
    pub fn execute_with(&self, ctx: &ExecContext<'_>, morsel_rows: usize) -> Result<ExecOutcome> {
        crate::batch_exec::execute(self, ctx, morsel_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_path::AccessPathAdvisor;
    use crate::index_manager::IndexManager;
    use crate::planner::Planner;
    use crate::session::JoinStrategy;
    use cej_embedding::{FastTextConfig, FastTextModel};
    use cej_relational::{col, lit_i64, EmbedSpec, LogicalPlan};
    use cej_storage::TableBuilder;

    struct Fixture {
        catalog: Catalog,
        registry: ModelRegistry,
        embeddings: EmbeddingCachePool,
        indexes: IndexManager,
    }

    impl Fixture {
        fn new() -> Self {
            let catalog = Catalog::new();
            catalog.register(
                "photos",
                TableBuilder::new()
                    .int64("id", vec![1, 2, 3])
                    .utf8(
                        "caption",
                        vec!["bbq party".into(), "database talk".into(), "grill".into()],
                    )
                    .build()
                    .unwrap(),
            );
            let mut registry = ModelRegistry::new();
            let model = FastTextModel::new(FastTextConfig {
                dim: 16,
                buckets: 1000,
                ..FastTextConfig::default()
            })
            .unwrap();
            registry.register("fasttext", Arc::new(model));
            Self {
                catalog,
                registry,
                embeddings: EmbeddingCachePool::new(),
                indexes: IndexManager::new(),
            }
        }

        fn ctx(&self) -> ExecContext<'_> {
            ExecContext {
                catalog: &self.catalog,
                registry: &self.registry,
                embeddings: &self.embeddings,
                indexes: &self.indexes,
                pool: *cej_exec::ExecPool::global(),
            }
        }

        fn run(&self, plan: &LogicalPlan) -> Result<ExecOutcome> {
            let planner = Planner::new(AccessPathAdvisor::default(), JoinStrategy::Auto);
            let physical = planner.plan(plan, &self.catalog, &self.registry, &self.indexes)?;
            physical.execute(&self.ctx())
        }
    }

    #[test]
    fn scan_filter_project_execute() {
        let f = Fixture::new();
        let plan = LogicalPlan::scan("photos")
            .select(col("id").gt(lit_i64(1)))
            .project(&["caption"]);
        let out = f.run(&plan).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.num_columns(), 1);
        assert!(out.stats.access_path.is_none());
    }

    #[test]
    fn embed_node_appends_vector_column_through_the_shared_cache() {
        let f = Fixture::new();
        let plan = LogicalPlan::scan("photos").embed(EmbedSpec::new("caption", "fasttext"));
        let out = f.run(&plan).unwrap();
        assert_eq!(out.table.num_columns(), 3);
        assert!(out.table.schema().field("caption_emb").is_ok());
        // the embed operator pays one model call per distinct string...
        assert_eq!(out.stats.embedding_stats.model_calls, 3);
        // ...and a warm re-run of the same plan pays none
        let warm = f.run(&plan).unwrap();
        assert_eq!(warm.stats.embedding_stats.model_calls, 0);
        assert_eq!(warm.table.num_columns(), 3);
    }

    #[test]
    fn nested_join_model_calls_are_not_double_counted() {
        let f = Fixture::new();
        // inner side is itself an EJoin; its model calls must be counted once
        let inner = LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("photos"),
            "caption",
            "caption",
            "fasttext",
            cej_relational::SimilarityPredicate::TopK(1),
        );
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            inner,
            "caption",
            "l_caption",
            "fasttext",
            cej_relational::SimilarityPredicate::TopK(1),
        );
        let out = f.run(&plan).unwrap();
        // 3 distinct captions across every side: exactly 3 real model calls
        assert_eq!(out.stats.embedding_stats.model_calls, 3);
    }

    #[test]
    fn cache_pool_shares_and_invalidates() {
        let f = Fixture::new();
        let a = f.embeddings.cache("fasttext", &f.registry).unwrap();
        let b = f.embeddings.cache("fasttext", &f.registry).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(f.embeddings.cache("missing", &f.registry).is_err());
        a.embed("hello");
        assert_eq!(f.embeddings.stats().model_calls, 1);
        assert_eq!(f.embeddings.cached_entries(), 1);
        f.embeddings
            .replace("fasttext", f.registry.model("fasttext").unwrap());
        let c = f.embeddings.cache("fasttext", &f.registry).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(f.embeddings.cached_entries(), 0);
        f.embeddings.clear();
        assert_eq!(f.embeddings.stats().model_calls, 0);
        assert!(format!("{:?}", f.embeddings).contains("EmbeddingCachePool"));
    }

    #[test]
    fn an_append_keeps_the_base_segments_slot_map() {
        let f = Fixture::new();
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("photos"),
            "caption",
            "caption",
            "fasttext",
            cej_relational::SimilarityPredicate::TopK(1),
        );
        f.run(&plan).unwrap();
        let cache = f.embeddings.cache("fasttext", &f.registry).unwrap();
        let base = f.catalog.table("photos").unwrap();
        let slots = |table| f.embeddings.column_slots("fasttext", &cache, table, 1);
        let before = slots(&base).unwrap();
        assert_eq!(f.embeddings.slot_maps(), 1);

        let sunset = TableBuilder::new()
            .int64("id", vec![4])
            .utf8("caption", vec!["sunset".into()])
            .build()
            .unwrap();
        let (head, _) = f
            .catalog
            .apply_delta("photos", &cej_storage::Delta::Append(sunset))
            .unwrap();
        // the registered rows are still what a scan reads first...
        assert_eq!(head.segments().len(), 2);
        assert!(Arc::ptr_eq(head.segments()[0].rows(), &base));
        let out = f.run(&plan).unwrap();
        assert_eq!(out.table.num_rows(), 4);
        // ...so only the appended string is new to the model, the base rows
        // are served from the map the first run filled, and the one map
        // added belongs to the appended segment
        assert_eq!(out.stats.embedding_stats.model_calls, 1);
        assert!(Arc::ptr_eq(&before, &slots(&base).unwrap()));
        assert_eq!(f.embeddings.slot_maps(), 2);
        let known = before.lookup(cache.generation(), &[0, 1, 2]);
        assert!(known.iter().all(|&slot| slot != UNRESOLVED_SLOT));
    }

    #[test]
    fn self_join_via_planner_reports_delta_stats() {
        let f = Fixture::new();
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("photos"),
            "caption",
            "caption",
            "fasttext",
            cej_relational::SimilarityPredicate::TopK(1),
        );
        let cold = f.run(&plan).unwrap();
        assert_eq!(cold.stats.embedding_stats.model_calls, 3);
        assert_eq!(cold.stats.matched_pairs, 3);
        let warm = f.run(&plan).unwrap();
        assert_eq!(warm.stats.embedding_stats.model_calls, 0);
        assert!(warm.stats.embedding_stats.cache_hits > 0);
    }
}
