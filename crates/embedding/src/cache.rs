//! Embedding cache and model-access accounting.
//!
//! The key logical optimisation of the paper (Section IV-A) is that the
//! naive E-NLJ invokes the model `|R| · |S|` times while the prefetch-aware
//! formulation needs only `|R| + |S|` invocations.  To make that difference
//! *measurable and testable* independent of wall-clock noise, every
//! operator-facing model goes through [`CachedEmbedder`], which
//!
//! * counts real model invocations and cache hits ([`EmbeddingStats`]), and
//! * optionally memoises embeddings per distinct input string, which is the
//!   "lookup table" flavour of model access described in the paper.
//!
//! The naive join operator deliberately uses an *uncached* wrapper so its
//! quadratic model cost is observable; the optimised operators prefetch
//! through a cached wrapper.
//!
//! ## Arena and slots
//!
//! A caching wrapper keeps every memoised vector in one append-only
//! **arena** of fixed-size row chunks and maps each distinct string to the
//! `u32` **slot** of its row.  Chunks are allocated whole and never moved, so
//! growth never copies the vectors already held (no doubling spike in
//! resident memory) and a slot names the same row for as long as its
//! *generation* lasts.  Two ways in share that one store:
//!
//! * the string path ([`CachedEmbedder::embed_counted`],
//!   [`CachedEmbedder::embed_batch_counted`], [`Embedder::embed_batch`])
//!   hashes each string once ([`CachedEmbedder::resolve`]) and copies the
//!   rows out in one preallocated pass ([`CachedEmbedder::gather_slots`]);
//! * a caller that remembers which slot belongs to which tuple — the
//!   session's per-column slot maps in `cej-core` — skips the hashing on every
//!   later run and calls `gather_slots` directly.  That is prefetching taken
//!   to its conclusion: `E(·)` is paid once per tuple, not once per run.
//!
//! [`CachedEmbedder::clear_cache`] starts a new generation; slots resolved
//! under an older one are refused by `gather_slots`, never served.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use cej_vector::{Matrix, Vector};
use parking_lot::RwLock;

use crate::arena::Arena;
use crate::cost::ModelCostProfile;
use crate::model::Embedder;

/// Counters describing how an operator interacted with the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmbeddingStats {
    /// Number of real model invocations (cache misses + uncached calls).
    pub model_calls: u64,
    /// Number of calls served from the cache.
    pub cache_hits: u64,
}

impl EmbeddingStats {
    /// Total number of embedding requests observed.
    pub fn total_requests(&self) -> u64 {
        self.model_calls + self.cache_hits
    }
}

/// The slot value that names no row: what a row → slot memo holds for a row
/// it has not resolved yet.  [`CachedEmbedder::resolve`] never returns it.
pub const UNRESOLVED_SLOT: u32 = u32::MAX;

/// Everything a caching wrapper memoises, under one lock.
struct Memo {
    /// Bumped whenever the slots handed out so far stop being valid.
    generation: u64,
    slots: HashMap<String, u32>,
    arena: Arena,
    /// Slots reserved by a resolver whose model calls have not returned yet:
    /// the string is mapped, the row is still zero.
    in_flight: HashSet<u32>,
}

impl Memo {
    /// Forgets every vector and invalidates every slot handed out.
    fn reset(&mut self) {
        self.generation += 1;
        self.slots.clear();
        self.arena = Arena::new(self.arena.dim());
        self.in_flight.clear();
    }
}

/// The outcome of [`CachedEmbedder::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedSlots {
    /// The cache generation the slots belong to; hand it back to
    /// [`CachedEmbedder::gather_slots`].
    pub generation: u64,
    /// One slot per input, in input order; equal strings share a slot.
    pub slots: Vec<u32>,
    /// Real model invocations this call paid (one per distinct input no
    /// earlier or concurrent call had resolved).
    pub model_calls: u64,
}

/// A counting (and optionally caching) wrapper around any [`Embedder`].
pub struct CachedEmbedder<E> {
    inner: E,
    cache: Option<RwLock<Memo>>,
    /// Resolvers waiting for another resolver's in-flight slots sleep on
    /// `filled`; whoever empties (part of) `Memo::in_flight` notifies under
    /// `filled_gate`, taken only after the memo lock is released.
    filled_gate: Mutex<()>,
    filled: Condvar,
    cost: ModelCostProfile,
    model_calls: AtomicU64,
    cache_hits: AtomicU64,
}

/// The slots one `resolve` call reserved and must fill.  If the model
/// panics before it does, dropping this resets the memo, so no waiter sleeps
/// forever on a row that will never be written and no one is served a zero
/// row.
struct Reservation<'c, E> {
    owner: &'c CachedEmbedder<E>,
    memo: &'c RwLock<Memo>,
    generation: u64,
    filled: bool,
}

impl<E> Drop for Reservation<'_, E> {
    fn drop(&mut self) {
        if !self.filled {
            let mut write = self.memo.write();
            if write.generation == self.generation {
                write.reset();
            }
        }
        let _gate = self
            .owner
            .filled_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.owner.filled.notify_all();
    }
}

impl<E: Embedder> CachedEmbedder<E> {
    /// Caching wrapper: each distinct input invokes the model once.
    pub fn new(inner: E) -> Self {
        let memo = Memo {
            generation: 0,
            slots: HashMap::new(),
            arena: Arena::new(inner.dim()),
            in_flight: HashSet::new(),
        };
        Self {
            cache: Some(RwLock::new(memo)),
            ..Self::uncached(inner)
        }
    }

    /// Counting-only wrapper: every request invokes the model (used by the
    /// naive join to expose its quadratic model cost).
    pub fn uncached(inner: E) -> Self {
        Self {
            inner,
            cache: None,
            filled_gate: Mutex::new(()),
            filled: Condvar::new(),
            cost: ModelCostProfile::free(),
            model_calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// Attaches a simulated per-call model cost.
    pub fn with_cost(mut self, cost: ModelCostProfile) -> Self {
        self.cost = cost;
        self
    }

    /// Current counters.
    pub fn stats(&self) -> EmbeddingStats {
        EmbeddingStats {
            model_calls: self.model_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Resets counters (the cache itself is retained).
    pub fn reset_stats(&self) {
        self.model_calls.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
    }

    /// Clears any memoised embeddings and starts a new
    /// [generation](CachedEmbedder::generation): slots resolved so far are
    /// refused from now on.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.write().reset();
        }
    }

    /// Number of memoised embeddings (0 for uncached wrappers).
    pub fn cached_entries(&self) -> usize {
        self.cache
            .as_ref()
            .map(|c| c.read().slots.len())
            .unwrap_or(0)
    }

    /// The current slot generation (0 until the first
    /// [`CachedEmbedder::clear_cache`]; always 0 for uncached wrappers).  A
    /// row → slot memo is valid only for the generation it was filled under.
    pub fn generation(&self) -> u64 {
        self.cache
            .as_ref()
            .map(|c| c.read().generation)
            .unwrap_or(0)
    }

    /// Access to the wrapped model.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Records `hits` requests served without a model call.  The string
    /// path does this itself; a caller that serves remembered slots through
    /// [`CachedEmbedder::gather_slots`] reports them here, once per batch.
    pub fn add_hits(&self, hits: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
    }

    fn invoke_model(&self, input: &str) -> Vector {
        self.model_calls.fetch_add(1, Ordering::Relaxed);
        self.cost.simulate();
        self.inner.embed(input)
    }

    /// Maps every input to the slot of its vector, invoking the model once
    /// per distinct string no call has resolved before (in parallel on the
    /// shared pool).  `None` for uncached wrappers, which have no slots.
    ///
    /// Concurrent calls are single-flight per string: the first caller to
    /// miss reserves the slot and embeds, later callers of the same string
    /// wait for that row instead of embedding again, so `model_calls` — here
    /// and in [`CachedEmbedder::stats`] — is exactly the number of distinct
    /// strings however many threads touch them first.  Model invocations of
    /// *different* strings from different callers still overlap.
    ///
    /// Counts its model calls; hits are the caller's to report
    /// ([`CachedEmbedder::add_hits`]).
    pub fn resolve<S: AsRef<str> + Sync>(&self, inputs: &[S]) -> Option<ResolvedSlots> {
        let memo = self.cache.as_ref()?;
        let mut model_calls = 0;
        loop {
            // `None` = the generation moved underneath this attempt
            if let Some((generation, slots)) = self.try_resolve(memo, inputs, &mut model_calls) {
                return Some(ResolvedSlots {
                    generation,
                    slots,
                    model_calls,
                });
            }
        }
    }

    fn try_resolve<S: AsRef<str> + Sync>(
        &self,
        memo: &RwLock<Memo>,
        inputs: &[S],
        model_calls: &mut u64,
    ) -> Option<(u64, Vec<u32>)> {
        let mut slots = Vec::with_capacity(inputs.len());
        let mut missing: Vec<usize> = Vec::new();
        let generation;
        {
            let read = memo.read();
            generation = read.generation;
            for (i, input) in inputs.iter().enumerate() {
                match read.slots.get(input.as_ref()) {
                    Some(&slot) => slots.push(slot),
                    None => {
                        slots.push(UNRESOLVED_SLOT);
                        missing.push(i);
                    }
                }
            }
            if missing.is_empty() && read.in_flight.is_empty() {
                return Some((generation, slots));
            }
        }

        // Reserve a slot for every string still unmapped; a repeat of a
        // string reserved a moment ago (by this call or a racing one) takes
        // that slot and counts as a hit.
        let mut owned: Vec<(u32, usize)> = Vec::new();
        if !missing.is_empty() {
            let mut write = memo.write();
            if write.generation != generation {
                return None;
            }
            for &i in &missing {
                let input = inputs[i].as_ref();
                slots[i] = match write.slots.get(input) {
                    Some(&slot) => slot,
                    None => {
                        let slot = write.arena.reserve();
                        write.slots.insert(input.to_string(), slot);
                        write.in_flight.insert(slot);
                        owned.push((slot, i));
                        slot
                    }
                };
            }
        }

        if !owned.is_empty() {
            let mut reservation = Reservation {
                owner: self,
                memo,
                generation,
                filled: false,
            };
            // outside the lock: other resolvers (and their model calls) overlap
            let fresh = cej_exec::ExecPool::global()
                .parallel_map(&owned, |&(_, i)| self.invoke_model(inputs[i].as_ref()));
            *model_calls += owned.len() as u64;
            let mut write = memo.write();
            let current = write.generation == generation;
            if current {
                for (&(slot, _), vector) in owned.iter().zip(&fresh) {
                    assert_eq!(
                        vector.dim(),
                        write.arena.dim(),
                        "embedder produced inconsistent dimensions"
                    );
                    write.arena.row_mut(slot).copy_from_slice(vector.as_slice());
                    write.in_flight.remove(&slot);
                }
            }
            reservation.filled = true;
            // `write` unlocks first, then `reservation` wakes the waiters
            drop(write);
            drop(reservation);
            if !current {
                // cleared while embedding: the reserved rows are gone
                return None;
            }
        }

        // Rows reserved by other resolvers must be written before anyone
        // gathers them.
        let mut gate = self
            .filled_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            {
                let read = memo.read();
                if read.generation != generation {
                    return None;
                }
                if !slots.iter().any(|slot| read.in_flight.contains(slot)) {
                    return Some((generation, slots));
                }
            }
            // a filler notifies under `filled_gate` after it updated
            // `in_flight`, so the check above cannot miss its wake-up
            gate = self
                .filled
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Copies the vectors of `slots` into one matrix, one row per slot in
    /// the given order, in a single preallocated pass — no hashing, no
    /// counting.  `None` when `generation` is no longer current (the cache
    /// was cleared since the slots were resolved) and for uncached wrappers.
    ///
    /// # Panics
    /// Panics on a slot [`CachedEmbedder::resolve`] did not return under
    /// `generation`.
    pub fn gather_slots(&self, generation: u64, slots: &[u32]) -> Option<Matrix> {
        let read = self.cache.as_ref()?.read();
        if read.generation != generation {
            return None;
        }
        let dim = read.arena.dim();
        let mut data = Vec::with_capacity(slots.len() * dim);
        for &slot in slots {
            data.extend_from_slice(read.arena.row(slot));
        }
        Some(Matrix::from_flat(slots.len(), dim, data).expect("one row per slot"))
    }

    /// Embeds one input and reports whether a *real* model invocation was
    /// paid (`true`) or the request was served from the cache (`false`).
    ///
    /// This is the building block of per-run accounting: a query execution
    /// counting its own calls through this method stays exact even while
    /// other executions hammer the same shared cache — diffing the global
    /// [`CachedEmbedder::stats`] counters around a run would attribute
    /// concurrent runs' calls to this one.
    pub fn embed_counted(&self, input: &str) -> (Vector, bool) {
        if self.cache.is_none() {
            return (self.invoke_model(input), true);
        }
        let (matrix, delta) = self.embed_strs_counted(&[input]);
        let vector = matrix.row_vector(0).expect("one row per input");
        (vector, delta.model_calls > 0)
    }

    /// [`Embedder::embed_batch`] plus the exact [`EmbeddingStats`] delta of
    /// *this very call* (model calls paid, cache hits served) — the batch
    /// counterpart of [`CachedEmbedder::embed_counted`].
    pub fn embed_batch_counted(&self, inputs: &[String]) -> (Matrix, EmbeddingStats) {
        self.embed_strs_counted(inputs)
    }

    /// [`CachedEmbedder::embed_batch_counted`] over anything string-like, so
    /// callers holding `&str`s borrowed from a column need not clone them.
    ///
    /// The first occurrence of each never-seen string is a model call;
    /// everything else is a hit, matching what a serial per-input loop would
    /// have counted.
    pub fn embed_strs_counted<S: AsRef<str> + Sync>(
        &self,
        inputs: &[S],
    ) -> (Matrix, EmbeddingStats) {
        let requests = inputs.len() as u64;
        let mut model_calls = 0;
        loop {
            let Some(resolved) = self.resolve(inputs) else {
                // uncached wrappers count every request; run the shared
                // (parallel, order-preserving) per-input fan-out
                let matrix = crate::model::embed_batch_with(self.dim(), inputs, |s| {
                    self.invoke_model(s.as_ref())
                });
                return (
                    matrix,
                    EmbeddingStats {
                        model_calls: requests,
                        cache_hits: 0,
                    },
                );
            };
            model_calls += resolved.model_calls;
            // `None`: cleared between the two calls — resolve again
            if let Some(matrix) = self.gather_slots(resolved.generation, &resolved.slots) {
                let cache_hits = requests.saturating_sub(model_calls);
                self.add_hits(cache_hits);
                return (
                    matrix,
                    EmbeddingStats {
                        model_calls,
                        cache_hits,
                    },
                );
            }
        }
    }
}

impl<E: Embedder> Embedder for CachedEmbedder<E> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, input: &str) -> Vector {
        self.embed_counted(input).0
    }

    /// Batch path with exact accounting: the misses are computed first (in
    /// parallel, one model call per *distinct* uncached input), then the
    /// batch is assembled from the arena.
    fn embed_batch(&self, inputs: &[String]) -> Matrix {
        self.embed_strs_counted(inputs).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::CHUNK_ROWS;
    use crate::model::{FastTextConfig, FastTextModel};

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn cached_embedder_invokes_model_once_per_distinct_input() {
        let e = CachedEmbedder::new(model());
        for _ in 0..5 {
            e.embed("dbms");
            e.embed("postgres");
        }
        let stats = e.stats();
        assert_eq!(stats.model_calls, 2);
        assert_eq!(stats.cache_hits, 8);
        assert_eq!(stats.total_requests(), 10);
        assert_eq!(e.cached_entries(), 2);
    }

    #[test]
    fn uncached_embedder_counts_every_call() {
        let e = CachedEmbedder::uncached(model());
        for _ in 0..4 {
            e.embed("dbms");
        }
        let stats = e.stats();
        assert_eq!(stats.model_calls, 4);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(e.cached_entries(), 0);
    }

    #[test]
    fn cached_and_uncached_produce_identical_vectors() {
        let cached = CachedEmbedder::new(model());
        let uncached = CachedEmbedder::uncached(model());
        assert_eq!(cached.embed("barbecue"), uncached.embed("barbecue"));
        // second call hits the cache but must return the same vector
        assert_eq!(cached.embed("barbecue"), uncached.embed("barbecue"));
    }

    #[test]
    fn reset_and_clear() {
        let e = CachedEmbedder::new(model());
        e.embed("a");
        e.embed("a");
        e.reset_stats();
        assert_eq!(e.stats(), EmbeddingStats::default());
        assert_eq!(e.cached_entries(), 1);
        e.clear_cache();
        assert_eq!(e.cached_entries(), 0);
        e.embed("a");
        assert_eq!(e.stats().model_calls, 1);
    }

    #[test]
    fn counted_apis_report_per_call_deltas() {
        let e = CachedEmbedder::new(model());
        let (_, paid) = e.embed_counted("a");
        assert!(paid, "first request invokes the model");
        let (_, paid) = e.embed_counted("a");
        assert!(!paid, "second request is a hit");
        let (m, delta) = e.embed_batch_counted(&["a".into(), "b".into(), "b".into()]);
        assert_eq!(m.rows(), 3);
        assert_eq!(delta.model_calls, 1, "only the distinct uncached input");
        assert_eq!(delta.cache_hits, 2);
        // the per-call delta matches what the global counters moved by
        assert_eq!(e.stats().model_calls, 2);
        let un = CachedEmbedder::uncached(model());
        let (_, delta) = un.embed_batch_counted(&["x".into(), "x".into()]);
        assert_eq!(delta.model_calls, 2, "uncached wrappers pay every request");
        assert_eq!(delta.cache_hits, 0);
    }

    #[test]
    fn dim_is_forwarded() {
        let e = CachedEmbedder::new(model());
        assert_eq!(e.dim(), 16);
        assert_eq!(e.inner().dim(), 16);
    }

    fn words(range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("word{i}")).collect()
    }

    #[test]
    fn slots_stay_put_across_appends_and_chunk_boundaries() {
        let e = CachedEmbedder::new(model());
        let first = e.resolve(&words(0..3)).unwrap();
        assert_eq!(first.slots, vec![0, 1, 2]);
        assert_eq!(first.model_calls, 3);
        let before = e.gather_slots(first.generation, &first.slots).unwrap();
        // grow well past one chunk: earlier rows must neither move nor change
        let many = e.resolve(&words(3..2 * CHUNK_ROWS + 5)).unwrap();
        assert_eq!(many.slots[0], 3);
        assert_eq!(*many.slots.last().unwrap() as usize, 2 * CHUNK_ROWS + 4);
        let again = e.resolve(&words(0..3)).unwrap();
        assert_eq!(again.slots, first.slots);
        assert_eq!(again.model_calls, 0);
        assert_eq!(again.generation, first.generation);
        assert_eq!(e.gather_slots(first.generation, &first.slots), Some(before));
        // rows on both sides of a chunk boundary hold their own string
        let edge = [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1];
        let slots: Vec<u32> = edge.iter().map(|&i| i as u32).collect();
        let gathered = e.gather_slots(first.generation, &slots).unwrap();
        let reference = model();
        for (row, &i) in edge.iter().enumerate() {
            let expected = reference.embed(&format!("word{i}"));
            assert_eq!(gathered.row(row).unwrap(), expected.as_slice());
        }
        assert_eq!(e.cached_entries(), 2 * CHUNK_ROWS + 5);
    }

    #[test]
    fn gather_slots_equals_embed_bit_for_bit() {
        let e = CachedEmbedder::new(model());
        let inputs: Vec<String> = ["grill", "bbq", "grill", "", "dbms", "bbq"]
            .iter()
            .map(|w| w.to_string())
            .collect();
        let resolved = e.resolve(&inputs).unwrap();
        // duplicate strings share a slot and pay one model call
        assert_eq!(resolved.slots[0], resolved.slots[2]);
        assert_eq!(resolved.slots[1], resolved.slots[5]);
        assert_eq!(resolved.model_calls, 4);
        assert!(!resolved.slots.contains(&UNRESOLVED_SLOT));
        let gathered = e
            .gather_slots(resolved.generation, &resolved.slots)
            .unwrap();
        let uncached = CachedEmbedder::uncached(model());
        for (row, input) in inputs.iter().enumerate() {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(gathered.row(row).unwrap()),
                bits(uncached.embed(input).as_slice())
            );
            assert_eq!(
                bits(gathered.row(row).unwrap()),
                bits(e.embed(input).as_slice())
            );
        }
        // the string path is the same two steps
        assert_eq!(e.embed_batch_counted(&inputs).0, gathered);
        assert_eq!(e.gather_slots(resolved.generation, &[]).unwrap().rows(), 0);
        // uncached wrappers have no slots
        assert!(uncached.resolve(&inputs).is_none());
        assert!(uncached.gather_slots(0, &[]).is_none());
    }

    #[test]
    fn clear_cache_bumps_the_generation_and_refuses_old_slots() {
        let e = CachedEmbedder::new(model());
        let old = e.resolve(&words(0..4)).unwrap();
        assert_eq!(e.generation(), old.generation);
        e.clear_cache();
        assert_eq!(e.generation(), old.generation + 1);
        assert!(e.gather_slots(old.generation, &old.slots).is_none());
        // the next resolve starts from slot 0 again and pays the model again
        let fresh = e.resolve(&words(2..4)).unwrap();
        assert_eq!(fresh.generation, old.generation + 1);
        assert_eq!(fresh.slots, vec![0, 1]);
        assert_eq!(fresh.model_calls, 2);
    }

    #[test]
    fn hits_are_added_once_per_batch_by_whoever_serves_them() {
        let e = CachedEmbedder::new(model());
        let (_, cold) = e.embed_strs_counted(&["a", "b", "a"]);
        assert_eq!((cold.model_calls, cold.cache_hits), (2, 1));
        let resolved = e.resolve(&["a", "b"]).unwrap();
        assert_eq!(e.stats().cache_hits, 1, "resolve leaves hits to its caller");
        e.gather_slots(resolved.generation, &resolved.slots)
            .unwrap();
        e.add_hits(2);
        assert_eq!(e.stats().cache_hits, 3);
        assert_eq!(e.stats().model_calls, 2);
    }

    #[test]
    fn concurrent_first_touch_is_single_flight_per_string() {
        // every thread resolves the same column (with duplicates) at once; a
        // per-call delay keeps the first resolver's reservations in flight
        // while the others arrive
        let column: Vec<String> = (0..300).map(|i| format!("w{}", i % 120)).collect();
        let e = std::sync::Arc::new(
            CachedEmbedder::new(model()).with_cost(ModelCostProfile::from_micros(20)),
        );
        let start = std::sync::Barrier::new(4);
        let results: Vec<(ResolvedSlots, Matrix)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let resolved = e.resolve(&column).unwrap();
                        let rows = e.gather_slots(resolved.generation, &resolved.slots);
                        (resolved, rows.unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(e.cached_entries(), 120, "one slot per distinct string");
        assert_eq!(
            e.stats().model_calls,
            120,
            "one model call per distinct string"
        );
        let paid: u64 = results.iter().map(|(r, _)| r.model_calls).sum();
        assert_eq!(paid, 120, "per-call deltas add up to the global counter");
        let expected = CachedEmbedder::uncached(model()).embed_batch(&column);
        for (resolved, rows) in &results {
            assert_eq!(resolved.slots, results[0].0.slots);
            assert_eq!(
                rows, &expected,
                "no thread gathered a row before it was written"
            );
        }
    }

    /// Panics on one input, after announcing that the call is in flight.
    struct Exploding {
        model: FastTextModel,
        entered: std::sync::mpsc::SyncSender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Embedder for Exploding {
        fn dim(&self) -> usize {
            self.model.dim()
        }
        fn embed(&self, input: &str) -> Vector {
            if input == "boom" {
                self.entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                panic!("model failure");
            }
            self.model.embed(input)
        }
    }

    #[test]
    fn a_panicking_model_releases_its_reservation() {
        let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel(1);
        let (release_tx, release_rx) = std::sync::mpsc::sync_channel(1);
        let e = CachedEmbedder::new(Exploding {
            model: model(),
            entered: entered_tx,
            release: Mutex::new(release_rx),
        });
        e.embed("kept");
        std::thread::scope(|scope| {
            let failing = scope.spawn(|| e.resolve(&["boom"]));
            // "boom" is reserved and its model call is in flight...
            entered_rx.recv().unwrap();
            // ...so this resolver has to wait for the row
            let waiting = scope.spawn(|| e.embed_strs_counted(&["kept", "boom"]));
            release_tx.send(()).unwrap();
            assert!(failing.join().is_err(), "the model panic propagates");
            // the waiter was woken, found the reservation gone, and took it
            // over — which panics the same way instead of hanging or being
            // served a zero row
            entered_rx.recv().unwrap();
            release_tx.send(()).unwrap();
            assert!(waiting.join().is_err());
        });
        // the reset left a usable cache behind
        let (vector, paid) = e.embed_counted("kept");
        assert!(paid, "a failed fill clears the memo");
        assert_eq!(vector, model().embed("kept"));
    }

    #[test]
    fn concurrent_embedding_is_consistent() {
        let e = std::sync::Arc::new(CachedEmbedder::new(model()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                for w in ["alpha", "beta", "gamma"] {
                    let v = e.embed(w);
                    assert_eq!(v.dim(), 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // every thread requested 3 words; first touch is single-flight, so
        // each distinct word invoked the model exactly once
        let stats = e.stats();
        assert_eq!(stats.model_calls, 3);
        assert_eq!(stats.total_requests(), 12);
    }
}
