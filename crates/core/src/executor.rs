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
//!   instead of hashing its string again, and the int8 screen's code of
//!   every slot's unit row (`SlotCodes`), so a warm screened tensor join
//!   assembles its inner side from codes instead of gathering, normalising
//!   and quantising it again;
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
use cej_vector::norm::normalize_with;
use cej_vector::sq8::{quantize_rows, row_code_len};
use cej_vector::{Kernel, Matrix, Sq8Inner, Vector};
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
    /// `sel` order — each row unit-normalised with `unit`'s kernel when
    /// given, in the same pass that copies it out of the arena.
    ///
    /// With the column's slot map, rows the map already knows are fetched by
    /// slot — no string is touched — and only the others are resolved
    /// through their strings, once, and remembered.  Without one the strings
    /// are resolved, borrowed from the column.  Both read the same arena, so
    /// the vectors are the same bits, and both count the same way: the first
    /// touch of a never-seen string is a model call, every other lane a hit.
    pub(crate) fn embed_rows(
        &self,
        column: &[String],
        sel: &[u32],
        slots: Option<&ColumnSlots>,
        unit: Option<Kernel>,
    ) -> Matrix {
        self.with_slots(column, sel, slots, |generation, slots| {
            gather_vectors(self.cache, generation, slots, unit)
        })
    }

    /// Calls `with(generation, slots)` with the slots of rows `sel` (by the
    /// column's slot map `memo` where it knows them, through the strings
    /// otherwise) until it succeeds — `None` means the cache generation
    /// moved underneath it, and the slots are resolved again, paying only
    /// for strings nobody has resolved since — then counts the run's model
    /// calls and hits the way [`RunEmbedder::embed_rows`] does.
    pub(crate) fn with_slots<T>(
        &self,
        column: &[String],
        sel: &[u32],
        memo: Option<&ColumnSlots>,
        mut with: impl FnMut(u64, &[u32]) -> Option<T>,
    ) -> T {
        let mut model_calls = 0;
        loop {
            // a cleared cache moves the generation: everything this
            // iteration learnt is then stale and it starts over
            let Some((generation, slots)) = self.try_slots(column, sel, memo, &mut model_calls)
            else {
                continue;
            };
            if let Some(out) = with(generation, &slots) {
                let cache_hits = (sel.len() as u64).saturating_sub(model_calls);
                self.cache.add_hits(cache_hits);
                self.record(EmbeddingStats {
                    model_calls,
                    cache_hits,
                });
                return out;
            }
        }
    }

    /// One attempt of [`RunEmbedder::with_slots`] at the slots of `sel`
    /// under one generation, adding the model calls it paid to
    /// `model_calls`; `None` when the generation moved meanwhile.
    fn try_slots(
        &self,
        column: &[String],
        sel: &[u32],
        memo: Option<&ColumnSlots>,
        model_calls: &mut u64,
    ) -> Option<(u64, Vec<u32>)> {
        let text = |row: u32| column[row as usize].as_str();
        let resolve = |strings: &[&str]| {
            self.cache
                .resolve(strings)
                .expect("the pool hands out caching wrappers")
        };
        let Some(memo) = memo else {
            let strings: Vec<&str> = sel.iter().map(|&row| text(row)).collect();
            let resolved = resolve(&strings);
            *model_calls += resolved.model_calls;
            return Some((resolved.generation, resolved.slots));
        };
        let generation = self.cache.generation();
        let mut slots = memo.lookup(generation, sel);
        let unresolved: Vec<usize> = (0..sel.len())
            .filter(|&lane| slots[lane] == UNRESOLVED_SLOT)
            .collect();
        if !unresolved.is_empty() {
            let strings: Vec<&str> = unresolved.iter().map(|&lane| text(sel[lane])).collect();
            let resolved = resolve(&strings);
            *model_calls += resolved.model_calls;
            if resolved.generation != generation {
                return None;
            }
            for (&lane, &slot) in unresolved.iter().zip(&resolved.slots) {
                slots[lane] = slot;
            }
            let rows = unresolved.iter().map(|&lane| sel[lane]);
            memo.remember(generation, rows.zip(resolved.slots));
        }
        Some((generation, slots))
    }
}

/// Rows copied out of the arena per read of the cache: a block of a few
/// KiB, normalised while it is still in L1, with the memo's lock released
/// between blocks.
const GATHER_BLOCK_ROWS: usize = 64;

/// The vectors of `slots` as a matrix, each row unit-normalised with
/// `unit`'s kernel when given — one pass: every block of
/// [`GATHER_BLOCK_ROWS`] rows is normalised right after it is copied out,
/// with no lock held.  The same bits as `gather_slots` followed by
/// [`cej_vector::norm::normalize_matrix_rows_with`].  `None` when
/// `generation` is no longer current.
pub(crate) fn gather_vectors(
    cache: &SharedCache,
    generation: u64,
    slots: &[u32],
    unit: Option<Kernel>,
) -> Option<Matrix> {
    let dim = cache.dim();
    let mut data = Vec::with_capacity(slots.len() * dim);
    for block in slots.chunks(GATHER_BLOCK_ROWS) {
        let start = data.len();
        if !cache.extend_slots(generation, block.iter().copied(), &mut data) {
            return None;
        }
        if let Some(kernel) = unit {
            for row in data[start..].chunks_exact_mut(dim.max(1)) {
                normalize_with(row, kernel);
            }
        }
    }
    Some(Matrix::from_flat(slots.len(), dim, data).expect("one row per slot"))
}

/// Slots per chunk of a [`SlotCodes`] store (like the arena's chunks).
const CODE_CHUNK_SLOTS: usize = 1024;

/// What a [`SlotCodes`] store knows about one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CodeState {
    /// Not coded under the store's generation yet.
    Uncoded,
    /// The unit row is outside the screen's range: a side holding the slot
    /// takes the fp32 block path.
    Refused,
    /// Coded: the slot's record holds its code.
    Coded,
}

/// One chunk of [`CODE_CHUNK_SLOTS`] slots: what is known about each, and
/// a record per slot — its code in the per-row form of
/// [`cej_vector::sq8`], then the factor that normalises its arena row
/// (`1 / ‖x‖`, 1 for a zero row) as f32 bits.
#[derive(Clone)]
struct CodeChunk {
    states: Box<[CodeState]>,
    records: Box<[u32]>,
}

/// The codes of one generation, shared by the runs that read them.  A
/// writer changes the store's table in place when no run holds it, and
/// copies what it changes (a chunk at a time) when one does.
#[derive(Clone)]
struct CodeTable {
    generation: u64,
    chunks: Vec<Arc<CodeChunk>>,
}

/// A slot's chunk and its position in the chunk.
fn locate(slot: u32) -> (usize, usize) {
    (
        slot as usize / CODE_CHUNK_SLOTS,
        slot as usize % CODE_CHUNK_SLOTS,
    )
}

impl CodeTable {
    fn empty(generation: u64) -> Self {
        Self {
            generation,
            chunks: Vec::new(),
        }
    }

    fn state(&self, slot: u32) -> CodeState {
        let (chunk, at) = locate(slot);
        self.chunks
            .get(chunk)
            .map_or(CodeState::Uncoded, |chunk| chunk.states[at])
    }

    /// The record of a coded or refused slot, `stride` words.
    fn record(&self, slot: u32, stride: usize) -> &[u32] {
        let (chunk, at) = locate(slot);
        &self.chunks[chunk].records[at * stride..(at + 1) * stride]
    }

    /// Keeps `code` (empty for a refused slot) and `factor` for `slot`.
    fn set(&mut self, slot: u32, stride: usize, code: &[u32], factor: f32) {
        let (chunk, at) = locate(slot);
        while self.chunks.len() <= chunk {
            self.chunks.push(Arc::new(CodeChunk {
                states: vec![CodeState::Uncoded; CODE_CHUNK_SLOTS].into_boxed_slice(),
                records: vec![0; CODE_CHUNK_SLOTS * stride].into_boxed_slice(),
            }));
        }
        let chunk = Arc::make_mut(&mut self.chunks[chunk]);
        let record = &mut chunk.records[at * stride..(at + 1) * stride];
        let (factor_bits, words) = record
            .split_last_mut()
            .expect("a record ends in the factor");
        *factor_bits = factor.to_bits();
        chunk.states[at] = if code.is_empty() {
            CodeState::Refused
        } else {
            words.copy_from_slice(code);
            CodeState::Coded
        };
    }
}

/// The int8 screen codes of one model's embedding slots: each slot's unit
/// row (normalised with the `Unrolled` kernel, the one kernel that screens)
/// quantised once, in the per-row form of [`cej_vector::sq8`], so a
/// screened tensor join assembles its inner side from them instead of
/// gathering, normalising and quantising the rows on every run.
///
/// Kept beside the slot maps in the pool's entry for the model and under
/// the same rules: dropped with the entry when the model is re-registered,
/// reset when the cache's generation moves, never used for a private cache.
/// Chunks of [`CODE_CHUNK_SLOTS`] slots are allocated whole and never
/// resized — per slot ⌈d/4⌉ code words, the scale, `‖x‖₁`, `Σq`, the
/// normalising factor and a state byte, 81 bytes at d = 64 — so growth has
/// no doubling spike.  Readers take a snapshot (an `Arc`) and read it
/// without a lock; no lock is held across a kernel call or a call into the
/// cache.
pub(crate) struct SlotCodes {
    dim: usize,
    table: RwLock<Arc<CodeTable>>,
}

/// An inner side's codes, as [`SlotCodes::side`] assembles them.
pub(crate) struct CodedSide {
    /// The screen's inner side, `None` when a slot's unit row is refused.
    pub(crate) codes: Option<Sq8Inner>,
    /// Per lane, the factor that normalises the lane's arena row.
    pub(crate) factors: Vec<f32>,
    /// Slots this call coded: the distinct slots no run had coded before.
    pub(crate) quantized: u64,
}

impl SlotCodes {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            table: RwLock::new(Arc::new(CodeTable::empty(0))),
        }
    }

    /// Words per slot record: the code, then the factor.
    fn stride(&self) -> usize {
        row_code_len(self.dim) + 1
    }

    /// The table of `generation`, empty when the store holds another one.
    fn snapshot(&self, generation: u64) -> Arc<CodeTable> {
        let table = self.table.read().clone();
        if table.generation == generation {
            table
        } else {
            Arc::new(CodeTable::empty(generation))
        }
    }

    /// The inner side of the (possibly repeating) `slots`, resolved under
    /// `generation`: slots never coded are gathered from `cache`,
    /// normalised and quantised once, then every lane's code is packed into
    /// panels.  `None` when the generation moved before the codes were
    /// kept — the caller resolves its slots again.
    pub(crate) fn side(
        &self,
        cache: &SharedCache,
        generation: u64,
        slots: &[u32],
    ) -> Option<CodedSide> {
        if cache.generation() != generation {
            return None;
        }
        let (len, stride) = (row_code_len(self.dim), self.stride());
        let (mut missing, mut refused) = (Vec::new(), false);
        let seen = self.snapshot(generation);
        for &slot in slots {
            match seen.state(slot) {
                CodeState::Uncoded => missing.push(slot),
                CodeState::Refused => refused = true,
                CodeState::Coded => {}
            }
        }
        missing.sort_unstable();
        missing.dedup();
        let table = if missing.is_empty() {
            seen
        } else {
            // a run holding the table would make the insert copy chunks
            drop(seen);
            let mut unit = gather_vectors(cache, generation, &missing, None)?;
            let factors: Vec<f32> = unit
                .as_mut_slice()
                .chunks_exact_mut(self.dim)
                .map(|row| normalize_with(row, Kernel::Unrolled))
                .collect();
            let mut codes = vec![0u32; missing.len() * len];
            let mut accepted = vec![false; missing.len()];
            quantize_rows(unit.as_slice(), self.dim, &mut codes, &mut accepted);
            refused |= accepted.contains(&false);
            let coded = codes.chunks_exact(len).zip(accepted).zip(factors);
            let coded = coded.map(|((code, ok), factor)| (if ok { code } else { &[] }, factor));
            self.insert(generation, missing.iter().copied().zip(coded))?
        };
        let mut factors = Vec::with_capacity(slots.len());
        let rows = slots.iter().map(|&slot| {
            let record = table.record(slot, stride);
            factors.push(f32::from_bits(record[len]));
            &record[..len]
        });
        let codes = if refused {
            // no panels, but every lane's factor: the side reads its rows
            // back by slot for the block path
            rows.for_each(drop);
            None
        } else {
            Sq8Inner::from_codes(self.dim, rows)
        };
        Some(CodedSide {
            codes,
            factors,
            quantized: missing.len() as u64,
        })
    }

    /// Keeps codes (empty for a refused row) and factors computed under
    /// `generation` and returns the table that holds them — the store's
    /// own, changed in place unless a run holds it — or `None` when a newer
    /// generation owns the store (the codes are then of a cleared cache's
    /// slots, and dropped).
    fn insert<'w>(
        &self,
        generation: u64,
        coded: impl Iterator<Item = (u32, (&'w [u32], f32))>,
    ) -> Option<Arc<CodeTable>> {
        let stride = self.stride();
        let mut store = self.table.write();
        if store.generation > generation {
            return None;
        }
        if store.generation < generation {
            *store = Arc::new(CodeTable::empty(generation));
        }
        let table = Arc::make_mut(&mut store);
        for (slot, (code, factor)) in coded {
            table.set(slot, stride, code, factor);
        }
        Some(store.clone())
    }

    /// Slots coded (or refused) in the table the store holds.
    fn coded_slots(&self) -> usize {
        let table = self.table.read();
        let chunks = table.chunks.iter();
        chunks
            .map(|chunk| {
                let states = chunk.states.iter();
                states.filter(|state| **state != CodeState::Uncoded).count()
            })
            .sum()
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
/// address, column position), and the screen codes of its slots.  Dropping
/// the entry drops all three, so a re-registered model can never be served
/// slots — or codes — of its predecessor's arena.
struct ModelEntry {
    cache: Arc<SharedCache>,
    columns: HashMap<(usize, usize), Arc<ColumnSlots>>,
    codes: Arc<SlotCodes>,
}

impl ModelEntry {
    fn new(model: Arc<dyn Embedder>) -> Self {
        let dim = model.dim();
        ModelEntry {
            cache: Arc::new(CachedEmbedder::new(SharedEmbedder(model))),
            columns: HashMap::new(),
            codes: Arc::new(SlotCodes::new(dim)),
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
/// Beside each cache the pool keeps the int8 screen codes of its slots
/// (`SlotCodes`: each slot's unit row quantised once, reset when the
/// cache's generation moves) and the [`ColumnSlots`] of the base-table
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

    /// The screen codes of `model`'s slots.  `None` when `cache` is not the
    /// pool's cache for `model` (a private cache's slots index another
    /// arena) — the caller then quantises its rows itself.
    pub(crate) fn slot_codes(
        &self,
        model: &str,
        cache: &Arc<SharedCache>,
    ) -> Option<Arc<SlotCodes>> {
        let read = self.caches.read();
        let entry = read.get(model)?;
        entry.shares(cache).then(|| entry.codes.clone())
    }

    /// Embedding slots whose screen codes the pool keeps, over every model.
    pub fn coded_slots(&self) -> usize {
        let read = self.caches.read();
        read.values().map(|entry| entry.codes.coded_slots()).sum()
    }

    /// Makes `model` the pool's model behind `name`, with an empty cache, no
    /// slot maps and no codes (used when the model is re-registered: memoised vectors
    /// came from the old model).  The pool has to be *told* the new model —
    /// were the entry only dropped, the first run to ask would decide whose
    /// vectors everyone shares, and that run may hold a stale registry.
    pub fn replace(&self, name: &str, model: Arc<dyn Embedder>) {
        self.caches
            .write()
            .insert(name.to_string(), ModelEntry::new(model));
    }

    /// Empties every cache and drops its slot maps and codes; each entry
    /// keeps its model, for the reason [`EmbeddingCachePool::replace`]
    /// gives.
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
    /// Worker-pool budget for intra-query parallelism: morsel-driven batch
    /// pipelines, partitioned hash joins, the prefetch NLJ's pair loop and
    /// the tensor join's GEMM and int8 screen — everything a run executes
    /// but HNSW construction ([`crate::IndexJoin::build_index`]).  Defaults
    /// to the process-wide `CEJ_THREADS` budget; tests override it to sweep
    /// thread counts in-process.
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
    /// Worker-pool activity across this run: tasks/injections/wakeups are
    /// process-wide deltas over the persistent scheduler's one queue
    /// (concurrent runs overlap in them — they are a *contention* signal,
    /// not an attribution),
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
            let planner = Planner::new(JoinStrategy::Auto);
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
    fn slot_codes_are_the_quantisers_codes_and_follow_the_caches_rules() {
        let (pool, registry) = skewed_pool();
        let cache = pool.cache("skewed", &registry).unwrap();
        let store = pool.slot_codes("skewed", &cache).unwrap();
        let words: Vec<String> = ["grill", "bbq", "grill", "", "dbms"]
            .iter()
            .map(|w| w.to_string())
            .collect();
        let resolved = cache.resolve(&words).unwrap();
        let side = store.side(&cache, resolved.generation, &resolved.slots);
        let side = side.expect("current generation");
        // four distinct strings, coded once; the side is the quantiser's
        // over the unit rows, repeats included
        assert_eq!(side.quantized, 4);
        assert_eq!(pool.coded_slots(), 4);
        let raw = cache
            .gather_slots(resolved.generation, &resolved.slots)
            .unwrap();
        let mut unit = raw.clone();
        cej_vector::norm::normalize_matrix_rows_with(&mut unit, Kernel::Unrolled);
        let expected = Sq8Inner::quantize(unit.as_slice(), 5, 16).unwrap();
        assert!(side.codes.as_ref() == Some(&expected));
        // the factors turn the arena rows back into the unit rows' bits
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (lane, &factor) in side.factors.iter().enumerate() {
            let row: Vec<f32> = raw.row(lane).unwrap().iter().map(|x| x * factor).collect();
            assert_eq!(bits(&row), bits(unit.row(lane).unwrap()), "lane {lane}");
        }
        assert_ne!(bits(raw.as_slice()), bits(unit.as_slice()));
        let again = store.side(&cache, resolved.generation, &resolved.slots);
        assert_eq!(again.expect("current").quantized, 0);

        // a moved generation: old slots are refused, new ones coded afresh
        cache.clear_cache();
        assert!(store
            .side(&cache, resolved.generation, &resolved.slots)
            .is_none());
        let fresh = cache.resolve(&words).unwrap();
        let side = store.side(&cache, fresh.generation, &fresh.slots).unwrap();
        assert_eq!(side.quantized, 4);
        assert!(side.codes.as_ref() == Some(&expected));

        // a private cache has none; a re-registered model drops them
        let model = registry.model("skewed").unwrap();
        let private = Arc::new(CachedEmbedder::new(SharedEmbedder(model.clone())));
        assert!(pool.slot_codes("skewed", &private).is_none());
        pool.replace("skewed", model);
        assert_eq!(pool.coded_slots(), 0);
        assert!(pool.slot_codes("skewed", &cache).is_none());
    }

    /// The fixture's model with vectors that are not unit rows — scaled by
    /// the input's length plus one, so normalising them changes their bits
    /// — and the vectors of "spike" (an infinite component) and "hole" (a
    /// NaN one) outside the screen's range.
    struct Skewed(FastTextModel);

    impl Embedder for Skewed {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn embed(&self, input: &str) -> Vector {
            let mut v = self.0.embed(input);
            v.scale(1.0 + input.len() as f32);
            match input {
                "spike" => v.as_mut_slice()[3] = f32::INFINITY,
                "hole" => v.as_mut_slice()[5] = f32::NAN,
                _ => {}
            }
            v
        }
    }

    /// A pool over [`Skewed`] under the name "skewed", and its registry.
    fn skewed_pool() -> (EmbeddingCachePool, ModelRegistry) {
        let mut registry = ModelRegistry::new();
        let model = FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap();
        registry.register("skewed", Arc::new(Skewed(model)));
        (EmbeddingCachePool::new(), registry)
    }

    #[test]
    fn a_refused_slot_is_remembered_and_its_side_takes_the_block_path() {
        let (pool, registry) = skewed_pool();
        let cache = pool.cache("skewed", &registry).unwrap();
        let store = pool.slot_codes("skewed", &cache).unwrap();
        let words = ["grill", "spike", "bbq"];
        let resolved = cache.resolve(&words).unwrap();
        let (generation, slots) = (resolved.generation, &resolved.slots);
        let side = store.side(&cache, generation, slots).unwrap();
        assert!(side.codes.is_none());
        assert_eq!(side.quantized, 3);
        // remembered: nothing is coded again, and the side stays refused
        let again = store.side(&cache, generation, slots).unwrap();
        assert!(again.codes.is_none());
        assert_eq!(again.quantized, 0);
        // a refused side still reads its rows back by slot, for the block
        // path: every lane's factor, a refused one's too, turns its arena
        // row into the unit row's bits ("hole" is refused with factor 1,
        // "spike" with factor 0)
        let hole = cache.resolve(&["grill", "spike", "hole"]).unwrap();
        let holed = store.side(&cache, generation, &hole.slots).unwrap();
        assert!(holed.codes.is_none());
        let raw = cache.gather_slots(generation, &hole.slots).unwrap();
        let mut unit = raw.clone();
        cej_vector::norm::normalize_matrix_rows_with(&mut unit, Kernel::Unrolled);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(holed.factors.len(), 3);
        for (lane, &factor) in holed.factors.iter().enumerate() {
            let row: Vec<f32> = raw.row(lane).unwrap().iter().map(|x| x * factor).collect();
            assert_eq!(bits(&row), bits(unit.row(lane).unwrap()), "lane {lane}");
        }
        // a side without the slot is screened from the kept codes
        let clean = store.side(&cache, generation, &[slots[0], slots[2]]);
        let clean = clean.unwrap();
        assert!(clean.codes.is_some());
        assert_eq!(clean.quantized, 0);
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
