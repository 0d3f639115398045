//! Session-owned registry of persistent HNSW indexes.
//!
//! The paper's index-join analysis (Section IV-B) charges the HNSW build
//! cost against the probe path only "when no index exists" — which assumes an
//! engine that can *keep* an index across queries.  [`IndexManager`] is that
//! piece: it caches built [`HnswIndex`] handles keyed by
//! [`IndexKey`] `(table, column, model, params)` so a prepared query probes
//! the same graph on every execution instead of rebuilding it, and it
//! invalidates all indexes of a table when the table is re-registered.
//!
//! A server holding many `(table, column, model, params)` combinations also
//! needs bounded memory: the manager enforces an optional byte budget with
//! least-recently-used eviction (sized by [`HnswIndex::memory_bytes`]),
//! configured through the session builder or the `CEJ_INDEX_BUDGET`
//! environment variable (`bytes`, with optional `k`/`m`/`g` suffix).
//!
//! All methods take `&self` (interior mutability) so the cache can be shared
//! between a session and any number of live
//! [`crate::prepared::PreparedQuery`] handles.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cej_index::{HnswIndex, HnswParams};
use parking_lot::RwLock;

use crate::Result;

/// Identity of a persistent index: which base-table column it covers, under
/// which embedding model, built with which HNSW parameters.
///
/// Two queries share an index handle exactly when all four components agree;
/// [`HnswParams`] is part of the key because both the graph structure
/// (`M`, `efConstruction`, metric, seed) and the probe behaviour
/// (`efSearch`, beam width) are baked into a built [`HnswIndex`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKey {
    /// Catalog name of the indexed base table.
    pub table: String,
    /// The context-rich string column the embeddings were derived from.
    pub column: String,
    /// Name of the embedding model in the session's registry.
    pub model: String,
    /// HNSW build/search parameters.
    pub params: HnswParams,
}

impl IndexKey {
    /// Creates a key.
    pub fn new(table: &str, column: &str, model: &str, params: HnswParams) -> Self {
        Self {
            table: table.to_string(),
            column: column.to_string(),
            model: model.to_string(),
            params,
        }
    }

    /// Short `table.column/model` label for plan rendering.
    pub fn label(&self) -> String {
        format!("{}.{}/{}", self.table, self.column, self.model)
    }
}

/// Cumulative counters of the manager's activity, observable by tests and
/// benchmarks (the "zero HNSW inserts on a warm run" guarantee is asserted
/// through [`IndexManagerStats::builds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexManagerStats {
    /// Number of indexes built (cache misses).
    pub builds: u64,
    /// Number of lookups served by an already-built index.
    pub hits: u64,
    /// Number of indexes dropped by table re-registration.
    pub invalidations: u64,
    /// Number of indexes evicted by the memory budget (LRU).
    pub evictions: u64,
    /// Number of indexes currently resident.
    pub resident: usize,
    /// Total bytes held by resident indexes.
    pub memory_bytes: usize,
}

/// One resident index plus its LRU clock stamp and (immutable) size,
/// computed once at insert so budget enforcement and stats never re-walk
/// the graph.
struct CachedIndex {
    index: Arc<HnswIndex>,
    bytes: usize,
    last_used: AtomicU64,
}

/// The session-owned cache of built [`HnswIndex`] handles.
#[derive(Default)]
pub struct IndexManager {
    indexes: RwLock<HashMap<IndexKey, CachedIndex>>,
    budget: RwLock<Option<usize>>,
    /// Keys with a build in flight — the single-flight gate that makes many
    /// threads racing on the same cold key yield exactly one build (`std`
    /// primitives because the build waiters need a condvar).
    building: Mutex<HashSet<IndexKey>>,
    build_done: Condvar,
    /// Per-table and per-model invalidation epochs.  Builds snapshot their
    /// key's pair before reading inputs and re-check it at publication: a
    /// build that overlapped an invalidation of *its own* table or model
    /// must not enter the cache (its graph may embed the replaced rows),
    /// though its handle still serves the building run.  Keyed per name so
    /// unrelated registrations (e.g. the server's per-connection probe
    /// tables) never discard other tables' in-flight builds.
    epochs: Mutex<EpochMaps>,
    builds: AtomicU64,
    hits: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    clock: AtomicU64,
}

/// The per-name invalidation counters behind [`PublicationEpoch`].
#[derive(Debug, Default)]
struct EpochMaps {
    tables: HashMap<String, u64>,
    models: HashMap<String, u64>,
}

/// A snapshot of one key's (table, model) invalidation epochs — see
/// [`IndexManager::publication_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicationEpoch {
    table: u64,
    model: u64,
}

/// Clears a key's in-flight marker (and wakes waiters) even when the build
/// panics or errors, so a failed build never wedges later callers.
struct BuildGuard<'a> {
    manager: &'a IndexManager,
    key: &'a IndexKey,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        let mut building = self
            .manager
            .building
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        building.remove(self.key);
        drop(building);
        self.manager.build_done.notify_all();
    }
}

impl std::fmt::Debug for IndexManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("IndexManager")
            .field("resident", &stats.resident)
            .field("memory_bytes", &stats.memory_bytes)
            .field("builds", &stats.builds)
            .field("hits", &stats.hits)
            .field("invalidations", &stats.invalidations)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

/// Estimated resident footprint of a (not yet built) HNSW index over `rows`
/// vectors of `dim` f32 components: vectors, adjacency lists (≈ `M0` links
/// at layer 0 plus `M` across the geometric upper layers), and the level
/// array.  Used by the eviction-aware access-path check — it only needs to
/// be right to well under an order of magnitude to catch "this index can
/// never fit the budget".
pub fn estimate_index_bytes(rows: usize, dim: usize, params: &HnswParams) -> usize {
    let vectors = rows * dim * std::mem::size_of::<f32>();
    let adjacency = rows * (params.m0 + params.m) * std::mem::size_of::<u32>();
    let levels = rows * std::mem::size_of::<usize>();
    vectors + adjacency + levels
}

/// Parses a human-friendly byte budget: plain bytes, with an optional
/// trailing `b` and an optional `k` / `m` / `g` binary multiplier
/// (`"64m"`, `"512kb"`, `"2g"`, `"1048576"`).
pub fn parse_budget(s: &str) -> Option<usize> {
    let t = s.trim().to_ascii_lowercase();
    let t = t.strip_suffix('b').unwrap_or(&t);
    let (digits, multiplier) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(prefix) => {
            let mult = match t.chars().last() {
                Some('k') => 1usize << 10,
                Some('m') => 1usize << 20,
                _ => 1usize << 30,
            };
            (prefix, mult)
        }
        None => (t, 1usize),
    };
    digits
        .trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.saturating_mul(multiplier))
}

impl IndexManager {
    /// Creates an empty manager.  The memory budget defaults to unlimited,
    /// or to `CEJ_INDEX_BUDGET` when the environment variable is set.
    pub fn new() -> Self {
        let manager = Self::default();
        if let Some(budget) = std::env::var("CEJ_INDEX_BUDGET")
            .ok()
            .and_then(|s| parse_budget(&s))
        {
            *manager.budget.write() = Some(budget);
        }
        manager
    }

    /// Sets (or clears) the resident-memory budget in bytes and immediately
    /// evicts down to it.  A single index larger than the budget stays
    /// resident while in use — evicting it would only force a rebuild loop.
    pub fn set_budget(&self, bytes: Option<usize>) {
        *self.budget.write() = bytes;
        let mut write = self.indexes.write();
        self.enforce_budget(&mut write, None);
    }

    /// The configured resident-memory budget, if any.
    pub fn budget(&self) -> Option<usize> {
        *self.budget.read()
    }

    /// Whether an index for `key` is resident.
    pub fn contains(&self, key: &IndexKey) -> bool {
        self.indexes.read().contains_key(key)
    }

    /// The resident index for `key`, if any (does not count as a hit, but
    /// refreshes the entry's LRU position).
    pub fn get(&self, key: &IndexKey) -> Option<Arc<HnswIndex>> {
        let read = self.indexes.read();
        read.get(key).map(|entry| {
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            entry.index.clone()
        })
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the resident index for `key`, building (and caching) it with
    /// `build` on a miss.  The boolean is `true` when the index was built by
    /// this call.  Inserting over budget evicts least-recently-used entries
    /// (never the one being returned).
    ///
    /// The build runs outside the lock.  Builds are **single-flight**: when
    /// many threads race on the same cold key, exactly one runs `build`
    /// while the rest block and then share the built handle — a thundering
    /// herd of prepared queries costs one HNSW construction, not one per
    /// thread.
    ///
    /// # Errors
    /// Propagates errors from `build` (only to the caller whose closure ran;
    /// blocked waiters retry and trigger a fresh build).
    pub fn get_or_build(
        &self,
        key: &IndexKey,
        build: impl FnOnce() -> Result<HnswIndex>,
    ) -> Result<(Arc<HnswIndex>, bool)> {
        let (index, built, _) =
            self.get_or_build_tracked_from(self.publication_epoch(key), key, build)?;
        Ok((index, built))
    }

    /// The current invalidation epoch of `key`'s table and model.  Callers
    /// that read their build inputs (table rows) *before* calling
    /// [`IndexManager::get_or_build_tracked_from`] snapshot this first, so
    /// a re-registration landing between the input read and the build is
    /// still detected and the stale graph never enters the cache.  Epochs
    /// are per-name: registrations of unrelated tables never invalidate
    /// this key's build.
    pub fn publication_epoch(&self, key: &IndexKey) -> PublicationEpoch {
        let epochs = self.epochs.lock().unwrap_or_else(|e| e.into_inner());
        PublicationEpoch {
            table: epochs.tables.get(&key.table).copied().unwrap_or(0),
            model: epochs.models.get(&key.model).copied().unwrap_or(0),
        }
    }

    /// [`IndexManager::get_or_build`] with an explicit epoch snapshot (see
    /// [`IndexManager::publication_epoch`]), plus the number of LRU
    /// evictions this very call performed, so executions on a shared
    /// manager can attribute evictions run-locally instead of diffing the
    /// global counter (which would blame one run for a concurrent run's
    /// evictions).
    ///
    /// # Errors
    /// Propagates errors from `build`.
    pub fn get_or_build_tracked_from(
        &self,
        epoch: PublicationEpoch,
        key: &IndexKey,
        build: impl FnOnce() -> Result<HnswIndex>,
    ) -> Result<(Arc<HnswIndex>, bool, u64)> {
        // The epoch guard is symmetric.  Writes: a build whose inputs
        // predate an invalidation must not be cached.  Reads: a caller
        // whose *table snapshot* predates an invalidation must not use the
        // cache either — the resident index may cover newer rows than the
        // caller read, and probing it would return row ids the caller maps
        // into the wrong snapshot.  Such a straggler gets a private
        // ephemeral index over its own snapshot instead (epoch and hit are
        // checked under one `indexes` read guard: invalidations bump the
        // epoch under the `indexes` write lock, so the pair is atomic).
        enum Probe {
            Hit(Arc<HnswIndex>),
            Stale,
            Miss,
        }
        let probe_cache = || {
            let read = self.indexes.read();
            if self.publication_epoch(key) != epoch {
                return Probe::Stale;
            }
            match read.get(key) {
                Some(entry) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    entry.last_used.store(self.tick(), Ordering::Relaxed);
                    Probe::Hit(entry.index.clone())
                }
                None => Probe::Miss,
            }
        };
        loop {
            match probe_cache() {
                Probe::Hit(index) => return Ok((index, false, 0)),
                Probe::Stale => {
                    let built = Arc::new(build()?);
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    return Ok((built, true, 0));
                }
                Probe::Miss => {}
            }
            let mut building = self.building.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the gate: a builder publishes to `indexes`
            // *before* clearing its marker, so a miss here while no build is
            // marked means this thread must build.
            match probe_cache() {
                Probe::Hit(index) => return Ok((index, false, 0)),
                Probe::Stale => {
                    drop(building);
                    let built = Arc::new(build()?);
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    return Ok((built, true, 0));
                }
                Probe::Miss => {}
            }
            if building.contains(key) {
                let (guard, _timeout) = self
                    .build_done
                    .wait_timeout(building, std::time::Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                drop(guard);
                continue;
            }
            building.insert(key.clone());
            break;
        }
        let guard = BuildGuard { manager: self, key };
        // `epoch` was snapshotted before the caller read its build inputs:
        // if an invalidation (table or model re-registration) has landed
        // since, the result may embed replaced rows and must not be
        // published — later queries would silently probe a stale graph.
        let built = Arc::new(build()?);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let tick = self.tick();
        let mut write = self.indexes.write();
        let mut evicted = 0;
        let resident = if self.publication_epoch(key) == epoch {
            let entry = write.entry(key.clone()).or_insert_with(|| CachedIndex {
                bytes: built.memory_bytes(),
                index: built.clone(),
                last_used: AtomicU64::new(0),
            });
            entry.last_used.store(tick, Ordering::Relaxed);
            let resident = entry.index.clone();
            evicted = self.enforce_budget(&mut write, Some(key));
            resident
        } else {
            // raced with an invalidation: serve this run, cache nothing
            built
        };
        drop(write);
        drop(guard); // publishes before waking waiters (guard order matters)
        Ok((resident, true, evicted))
    }

    /// Evicts least-recently-used entries until the resident set fits the
    /// budget, returning how many were evicted.  Two classes of entry are
    /// never evicted: `protect` (the entry being handed out right now) and
    /// any entry with outstanding `Arc` handles (a query is probing it —
    /// evicting it would only guarantee an immediate rebuild).  A resident
    /// set held entirely in-use may therefore exceed the budget transiently.
    fn enforce_budget(
        &self,
        write: &mut HashMap<IndexKey, CachedIndex>,
        protect: Option<&IndexKey>,
    ) -> u64 {
        let Some(budget) = *self.budget.read() else {
            return 0;
        };
        let mut total: usize = write.values().map(|e| e.bytes).sum();
        let mut evicted = 0u64;
        while total > budget {
            let victim = write
                .iter()
                .filter(|(key, entry)| {
                    Some(*key) != protect && Arc::strong_count(&entry.index) == 1
                })
                .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                .map(|(key, entry)| (key.clone(), entry.bytes));
            match victim {
                Some((key, bytes)) => {
                    write.remove(&key);
                    total -= bytes;
                    evicted += 1;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // only protected / in-use entries remain
            }
        }
        evicted
    }

    /// Total bytes of resident indexes that are currently *in use* (their
    /// `Arc` handle is held outside the cache).  These cannot be evicted, so
    /// the planner subtracts them from the budget when judging whether a
    /// prospective index could ever stay resident.
    pub fn pinned_bytes(&self) -> usize {
        self.indexes
            .read()
            .values()
            .filter(|entry| Arc::strong_count(&entry.index) > 1)
            .map(|entry| entry.bytes)
            .sum()
    }

    /// Whether an index of `bytes` could stay resident under the current
    /// budget and pinned set: `true` with no budget, otherwise `bytes` must
    /// fit into the budget minus the bytes pinned by in-flight queries.
    /// The eviction-aware half of access-path costing: planning a probe
    /// path whose index can never stay warm just thrashes build → evict →
    /// rebuild.
    pub fn would_stay_resident(&self, bytes: usize) -> bool {
        // copy the budget out before touching the index map — never hold
        // both locks at once
        let budget = *self.budget.read();
        match budget {
            None => true,
            Some(budget) => bytes <= budget.saturating_sub(self.pinned_bytes()),
        }
    }

    /// Drops every index over `table` (called when the table is
    /// re-registered, because resident graphs embed the old rows).  Returns
    /// the number of indexes dropped.
    pub fn invalidate_table(&self, table: &str) -> usize {
        self.invalidate_where(
            |key| key.table == table,
            |epochs| {
                *epochs.tables.entry(table.to_string()).or_insert(0) += 1;
            },
        )
    }

    /// [`IndexManager::invalidate_table`] plus removal of the table's epoch
    /// entry — the teardown path for throwaway tables (e.g. the server's
    /// per-connection probe tables), so a churning server never accumulates
    /// epoch entries for dead names.  Only safe for names that are
    /// re-registered through the session (whose register path invalidates
    /// *after* publishing): any zombie publication under the reset epoch is
    /// dropped by that invalidation before the name is queried again.
    pub fn reap_table(&self, table: &str) -> usize {
        let dropped = self.invalidate_table(table);
        self.epochs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .tables
            .remove(table);
        dropped
    }

    /// Atomically replaces `table`'s resident indexes with `replacements`
    /// (graphs extended over the table's new rows) and bumps the table's
    /// invalidation epoch in the same critical section.
    ///
    /// This is the index half of applying a delta: the catalog publishes the
    /// new table version, the caller extends each resident graph with the
    /// appended vectors, and this method swaps them in so that (a) queries
    /// that snapshot the table *after* the swap hit the extended graph
    /// directly, (b) stragglers holding the pre-delta snapshot observe the
    /// epoch bump and fall back to a private build over their own snapshot,
    /// and (c) an in-flight build against the old rows can never publish
    /// over the replacement.  Entries of `table` not named in `replacements`
    /// are dropped (their graphs cover the old rows).
    pub fn publish_replacements(&self, table: &str, replacements: Vec<(IndexKey, Arc<HnswIndex>)>) {
        let mut write = self.indexes.write();
        // Same discipline as `invalidate_where`: the epoch bump happens under
        // the `indexes` write lock so publication/read checks see the bump
        // and the swap as one atomic event.
        {
            let mut epochs = self.epochs.lock().unwrap_or_else(|e| e.into_inner());
            *epochs.tables.entry(table.to_string()).or_insert(0) += 1;
        }
        let before = write.len();
        write.retain(|key, _| key.table != table);
        self.invalidations
            .fetch_add((before - write.len()) as u64, Ordering::Relaxed);
        let tick = self.tick();
        for (key, index) in replacements {
            debug_assert_eq!(key.table, table, "replacement key must match the table");
            write.insert(
                key,
                CachedIndex {
                    bytes: index.memory_bytes(),
                    index,
                    last_used: AtomicU64::new(tick),
                },
            );
        }
        self.enforce_budget(&mut write, None);
    }

    /// The keys of every resident index over `table`, so a delta applier can
    /// enumerate which graphs need extending before calling
    /// [`IndexManager::publish_replacements`].
    pub fn keys_for_table(&self, table: &str) -> Vec<IndexKey> {
        self.indexes
            .read()
            .keys()
            .filter(|key| key.table == table)
            .cloned()
            .collect()
    }

    /// Drops every index built with `model` (called when the model is
    /// re-registered, because resident graphs hold the old model's vectors).
    /// Returns the number of indexes dropped.
    pub fn invalidate_model(&self, model: &str) -> usize {
        self.invalidate_where(
            |key| key.model == model,
            |epochs| {
                *epochs.models.entry(model.to_string()).or_insert(0) += 1;
            },
        )
    }

    fn invalidate_where(
        &self,
        stale: impl Fn(&IndexKey) -> bool,
        bump: impl FnOnce(&mut EpochMaps),
    ) -> usize {
        let mut write = self.indexes.write();
        // Bumped under the same write lock the publication path checks the
        // epoch under, so "build overlapped this invalidation" is decided
        // race-free: either the build published first (and is removed right
        // here), or it observes the bump and discards itself.
        bump(&mut self.epochs.lock().unwrap_or_else(|e| e.into_inner()));
        let before = write.len();
        write.retain(|key, _| !stale(key));
        let dropped = before - write.len();
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drops every resident index (counters are retained).
    pub fn clear(&self) {
        self.indexes.write().clear();
    }

    /// Current counters plus the resident index count and memory footprint
    /// (an O(residents) integer sum — per-index sizes are cached at insert).
    pub fn stats(&self) -> IndexManagerStats {
        let read = self.indexes.read();
        IndexManagerStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: read.len(),
            memory_bytes: read.values().map(|e| e.bytes).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_workload::clustered_matrix;

    fn key(table: &str) -> IndexKey {
        IndexKey::new(table, "word", "ft", HnswParams::tiny())
    }

    fn build_small() -> Result<HnswIndex> {
        let (vectors, _) = clustered_matrix(40, 8, 4, 0.05, 3);
        HnswIndex::build(vectors, HnswParams::tiny()).map_err(crate::CoreError::from)
    }

    #[test]
    fn build_once_then_hit() {
        let manager = IndexManager::new();
        assert!(!manager.contains(&key("t")));
        let (first, built) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(built);
        let (second, built_again) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(!built_again);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = manager.stats();
        assert_eq!((stats.builds, stats.hits, stats.resident), (1, 1, 1));
        assert!(stats.memory_bytes > 0);
        assert!(manager.get(&key("t")).is_some());
    }

    #[test]
    fn distinct_keys_build_distinct_indexes() {
        let manager = IndexManager::new();
        manager.get_or_build(&key("a"), build_small).unwrap();
        manager.get_or_build(&key("b"), build_small).unwrap();
        let other_params = IndexKey::new("a", "word", "ft", HnswParams::tiny().with_ef_search(99));
        manager.get_or_build(&other_params, build_small).unwrap();
        assert_eq!(manager.stats().resident, 3);
        assert_eq!(manager.stats().builds, 3);
    }

    #[test]
    fn invalidation_is_per_table() {
        let manager = IndexManager::new();
        manager.get_or_build(&key("a"), build_small).unwrap();
        manager.get_or_build(&key("b"), build_small).unwrap();
        assert_eq!(manager.invalidate_table("a"), 1);
        assert!(!manager.contains(&key("a")));
        assert!(manager.contains(&key("b")));
        assert_eq!(manager.stats().invalidations, 1);
        // rebuilding after invalidation is a fresh build
        let (_, built) = manager.get_or_build(&key("a"), build_small).unwrap();
        assert!(built);
        assert_eq!(manager.stats().builds, 3);
        manager.clear();
        assert_eq!(manager.stats().resident, 0);
        assert_eq!(manager.stats().builds, 3, "clear keeps counters");
    }

    #[test]
    fn build_errors_are_not_cached() {
        let manager = IndexManager::new();
        let err = manager.get_or_build(&key("t"), || {
            Err(crate::CoreError::InvalidInput("boom".into()))
        });
        assert!(err.is_err());
        assert!(!manager.contains(&key("t")));
        assert_eq!(manager.stats().builds, 0);
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let manager = IndexManager::new();
        manager.get_or_build(&key("a"), build_small).unwrap();
        let one_index = manager.stats().memory_bytes;
        assert!(one_index > 0);
        // room for two indexes but not three
        manager.set_budget(Some(one_index * 2 + one_index / 2));
        manager.get_or_build(&key("b"), build_small).unwrap();
        assert_eq!(manager.stats().resident, 2);
        // touch "a" so "b" becomes the LRU victim
        assert!(manager.get(&key("a")).is_some());
        manager.get_or_build(&key("c"), build_small).unwrap();
        let stats = manager.stats();
        assert_eq!(stats.resident, 2, "third build must evict one");
        assert_eq!(stats.evictions, 1);
        assert!(manager.contains(&key("a")), "recently used survives");
        assert!(!manager.contains(&key("b")), "LRU entry evicted");
        assert!(manager.contains(&key("c")), "new entry resident");
        assert!(stats.memory_bytes <= manager.budget().unwrap());
    }

    #[test]
    fn over_budget_single_index_stays_resident() {
        let manager = IndexManager::new();
        manager.set_budget(Some(1));
        let (_, built) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(built);
        // the only (protected) index survives even though it exceeds the budget
        assert_eq!(manager.stats().resident, 1);
        // the next build for a different key evicts the now-unprotected one
        manager.get_or_build(&key("u"), build_small).unwrap();
        let stats = manager.stats();
        assert_eq!(stats.resident, 1);
        assert!(manager.contains(&key("u")));
        assert!(stats.evictions >= 1);
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let manager = IndexManager::new();
        manager.get_or_build(&key("a"), build_small).unwrap();
        manager.get_or_build(&key("b"), build_small).unwrap();
        assert_eq!(manager.stats().resident, 2);
        manager.set_budget(Some(1));
        assert_eq!(manager.stats().resident, 0, "no protected entry here");
        manager.set_budget(None);
        manager.get_or_build(&key("a"), build_small).unwrap();
        manager.get_or_build(&key("b"), build_small).unwrap();
        assert_eq!(manager.stats().resident, 2, "unlimited again");
    }

    #[test]
    fn concurrent_cold_key_builds_exactly_once() {
        // Eight threads race on the same cold key: single-flight must yield
        // one build, seven hits, and one shared handle.
        let manager = Arc::new(IndexManager::new());
        let build_calls = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let manager = manager.clone();
            let build_calls = build_calls.clone();
            handles.push(std::thread::spawn(move || {
                let (index, _) = manager
                    .get_or_build(&key("t"), || {
                        build_calls.fetch_add(1, Ordering::SeqCst);
                        // widen the race window so waiters really queue up
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        build_small()
                    })
                    .unwrap();
                Arc::as_ptr(&index) as usize
            }));
        }
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(build_calls.load(Ordering::SeqCst), 1, "exactly one build");
        let stats = manager.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 7, "all waiters must be served as hits");
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "every thread shares one handle"
        );
    }

    #[test]
    fn build_overlapping_an_invalidation_is_not_cached() {
        // A table re-registration lands while an index over the old rows is
        // mid-build: the building run is still served, but the stale graph
        // must not enter the shared cache (later queries would probe old
        // rows against the new table).
        let manager = Arc::new(IndexManager::new());
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let builder = {
            let manager = manager.clone();
            std::thread::spawn(move || {
                manager.get_or_build(&key("t"), || {
                    started_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                    build_small()
                })
            })
        };
        started_rx.recv().unwrap();
        manager.invalidate_table("t"); // re-registration, mid-build
        resume_tx.send(()).unwrap();
        let (index, built) = builder.join().unwrap().unwrap();
        assert!(built);
        assert!(!index.is_empty(), "the building run is still served");
        assert!(
            !manager.contains(&key("t")),
            "a build that overlapped an invalidation must not be cached"
        );
        let (_, rebuilt) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(rebuilt, "the next query must rebuild against the new rows");
    }

    #[test]
    fn stale_snapshot_never_uses_a_newer_cached_index() {
        // The read-side epoch guard: a caller whose table snapshot predates
        // a re-registration must not be served the (newer-generation)
        // cached index — probing it would return row ids the caller maps
        // into the wrong snapshot.  It gets a private ephemeral build.
        let manager = IndexManager::new();
        let stale_epoch = manager.publication_epoch(&key("t"));
        manager.invalidate_table("t"); // re-registration after the snapshot
        let (cached, _) = manager.get_or_build(&key("t"), build_small).unwrap();
        let (served, built, evicted) = manager
            .get_or_build_tracked_from(stale_epoch, &key("t"), build_small)
            .unwrap();
        assert!(built, "the stale caller pays a private build");
        assert_eq!(evicted, 0);
        assert!(
            !Arc::ptr_eq(&served, &cached),
            "the newer cached index must not be handed to a stale snapshot"
        );
        // the cache itself is untouched by the ephemeral build
        let (again, rebuilt) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(!rebuilt);
        assert!(Arc::ptr_eq(&again, &cached));
    }

    #[test]
    fn reap_table_forgets_the_epoch_entry() {
        let manager = IndexManager::new();
        manager.invalidate_table("t"); // the name now has a non-zero epoch
        let bumped = manager.publication_epoch(&key("t"));
        assert_ne!(bumped, PublicationEpoch { table: 0, model: 0 });
        manager.get_or_build(&key("t"), build_small).unwrap();
        assert_eq!(manager.reap_table("t"), 1);
        assert!(!manager.contains(&key("t")));
        // the epoch entry is gone: a fresh snapshot reads the default again
        // (no per-name state survives the reap — the anti-leak guarantee)
        assert_eq!(
            manager.publication_epoch(&key("t")),
            PublicationEpoch { table: 0, model: 0 }
        );
    }

    #[test]
    fn unrelated_invalidations_do_not_discard_in_flight_builds() {
        // Epochs are per table/model: a registration of some *other* table
        // (e.g. a server connection's scratch probe table) mid-build must
        // not stop this build from being cached — otherwise steady probe
        // traffic would make every index rebuild forever.
        let manager = Arc::new(IndexManager::new());
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let builder = {
            let manager = manager.clone();
            std::thread::spawn(move || {
                manager.get_or_build(&key("t"), || {
                    started_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                    build_small()
                })
            })
        };
        started_rx.recv().unwrap();
        manager.invalidate_table("__probe_7"); // unrelated table, mid-build
        manager.invalidate_model("other-model"); // unrelated model, mid-build
        resume_tx.send(()).unwrap();
        let (_, built) = builder.join().unwrap().unwrap();
        assert!(built);
        assert!(
            manager.contains(&key("t")),
            "unrelated invalidations must not discard the build"
        );
        let (_, rebuilt) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(!rebuilt, "the cached index must be reused");
    }

    #[test]
    fn failed_build_does_not_wedge_the_single_flight_gate() {
        let manager = IndexManager::new();
        let err = manager.get_or_build(&key("t"), || {
            Err(crate::CoreError::InvalidInput("boom".into()))
        });
        assert!(err.is_err());
        // the in-flight marker must be gone: a retry builds fresh
        let (_, built) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(built);
    }

    #[test]
    fn in_use_entries_survive_eviction_pressure() {
        let manager = IndexManager::new();
        let (held, _) = manager.get_or_build(&key("hot"), build_small).unwrap();
        // a budget below one index: the held (in-use) entry still survives
        manager.set_budget(Some(1));
        assert!(manager.contains(&key("hot")), "in-use entry never evicted");
        assert!(manager.pinned_bytes() > 0);
        assert!(!manager.would_stay_resident(held.memory_bytes()));
        // new builds cannot displace it while the handle is out
        manager.get_or_build(&key("cold"), build_small).unwrap();
        assert!(manager.contains(&key("hot")));
        drop(held);
        assert_eq!(manager.pinned_bytes(), 0);
        // with the handle dropped, pressure finally reclaims it
        manager.get_or_build(&key("cold2"), build_small).unwrap();
        assert!(!manager.contains(&key("hot")));
        manager.set_budget(None);
        assert!(manager.would_stay_resident(usize::MAX));
    }

    #[test]
    fn publish_replacements_swaps_graphs_and_fences_stale_readers() {
        let manager = IndexManager::new();
        let (old, _) = manager.get_or_build(&key("t"), build_small).unwrap();
        manager.get_or_build(&key("other"), build_small).unwrap();
        let stale_epoch = manager.publication_epoch(&key("t"));
        assert_eq!(manager.keys_for_table("t"), vec![key("t")]);
        let replacement = Arc::new(build_small().unwrap());
        manager.publish_replacements("t", vec![(key("t"), replacement.clone())]);
        // a fresh reader hits the replacement without building
        let (served, built) = manager.get_or_build(&key("t"), build_small).unwrap();
        assert!(!built, "replacement must be a cache hit");
        assert!(Arc::ptr_eq(&served, &replacement));
        assert!(!Arc::ptr_eq(&served, &old));
        // a reader holding the pre-delta snapshot must not see the new graph
        let (private, built, _) = manager
            .get_or_build_tracked_from(stale_epoch, &key("t"), build_small)
            .unwrap();
        assert!(built, "stale snapshot pays a private build");
        assert!(!Arc::ptr_eq(&private, &replacement));
        // unrelated tables are untouched
        assert!(manager.contains(&key("other")));
    }

    #[test]
    fn budget_parsing() {
        assert_eq!(parse_budget("1024"), Some(1024));
        assert_eq!(parse_budget("64k"), Some(64 << 10));
        assert_eq!(parse_budget("64kb"), Some(64 << 10));
        assert_eq!(parse_budget(" 2M "), Some(2 << 20));
        assert_eq!(parse_budget("1g"), Some(1 << 30));
        assert_eq!(parse_budget("1GB"), Some(1 << 30));
        assert_eq!(parse_budget("nope"), None);
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("k"), None);
    }
}
