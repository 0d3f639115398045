//! # cej-exec
//!
//! The shared worker-pool execution layer of the workspace.
//!
//! Every data-parallel operator in the tree (the pair-wise NLJ, the blocked
//! GEMM of the tensor join, batched embedding, parallel HNSW construction)
//! used to hand-roll its own `std::thread::scope` row partitioning.  This
//! crate centralises that threading model behind one [`ExecPool`] with two
//! primitives — [`ExecPool::parallel_chunks`] and [`ExecPool::parallel_map`]
//! — plus [`ExecPool::parallel_fill`] for kernels that write pre-allocated
//! output buffers in place.
//!
//! ## Scheduling model
//!
//! A pool owns a thread *budget*, not threads.  All pools submit to one
//! process-wide persistent scheduler: long-lived workers that pop
//! participation tokens from one shared FIFO queue and sleep on one condvar
//! when it is empty — so a server issuing many small parallel operators
//! pays a queue push, not a thread spawn.  Work is split into chunks and
//! participants *claim* chunks dynamically from a shared atomic counter,
//! but results are always reassembled **in input order**, so callers
//! observe the same output for any thread count.  The calling thread
//! always participates in its own batch (closures may borrow the caller's
//! stack, a batch completes even with zero workers, and nested parallel
//! calls cannot deadlock); a pool's budget caps how many scheduler workers
//! join it.  [`ExecPool::metrics`] is the window onto the scheduler's
//! counters.
//!
//! ## Determinism guarantees
//!
//! * `parallel_map` returns results in input order, bit-identical to the
//!   serial loop, for every thread count.
//! * `parallel_chunks` returns per-chunk results in ascending range order;
//!   concatenating them reproduces the serial left-to-right traversal.
//! * A panic in any closure is propagated to the caller with its original
//!   payload once all workers have stopped; remaining unclaimed chunks are
//!   abandoned.
//!
//! ## Configuration
//!
//! [`ExecPool::global`] reads the `CEJ_THREADS` environment variable once
//! (defaulting to the machine's available parallelism); a caller with
//! another budget builds a pool via [`ExecPool::new`] and hands it to the
//! operators it runs.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(clippy::all)]

mod scheduler;

pub use scheduler::PoolMetrics;
use scheduler::Scheduler;

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Upper bound on worker threads, a guard against absurd `CEJ_THREADS`
/// values rather than a tuning parameter.
pub const MAX_THREADS: usize = 256;

/// Number of chunks handed out per worker thread: more chunks than workers
/// gives the dynamic scheduler room to balance uneven work.
const CHUNKS_PER_THREAD: usize = 4;

/// Parses a `CEJ_THREADS`-style value. `None` for unset, empty, unparsable,
/// or zero values (zero means "pick for me", like the unset default).
pub fn threads_from_env(value: Option<&str>) -> Option<usize> {
    let parsed: usize = value?.trim().parse().ok()?;
    if parsed == 0 {
        None
    } else {
        Some(parsed.min(MAX_THREADS))
    }
}

/// The process-wide default worker count: `CEJ_THREADS` when set, otherwise
/// the machine's available parallelism.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        threads_from_env(std::env::var("CEJ_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_THREADS)
        })
    })
}

/// A worker pool with a fixed thread budget.
///
/// Creating a pool is free — a pool is only a *budget* over the shared
/// persistent scheduler, so it can live in a context struct or be built
/// on the fly for one call.  A parallel call runs on
/// the calling thread plus up to `threads - 1` scheduler workers; nothing
/// is spawned per call and nothing keeps running between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    threads: usize,
}

impl Default for ExecPool {
    fn default() -> Self {
        Self::new(default_threads())
    }
}

impl ExecPool {
    /// Creates a pool with the given thread budget (clamped to
    /// `1..=MAX_THREADS`).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The process-wide pool configured by `CEJ_THREADS`.
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ExecPool::new(default_threads()))
    }

    /// The pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..len` into at most `chunks` contiguous ranges of
    /// near-equal size, in ascending order.
    fn partition(len: usize, chunks: usize) -> Vec<Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let chunks = chunks.clamp(1, len);
        let base = len / chunks;
        let extra = len % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for i in 0..chunks {
            let size = base + usize::from(i < extra);
            ranges.push(start..start + size);
            start += size;
        }
        ranges
    }

    /// Runs `task(i)` for every `i in 0..tasks`, returning results in task
    /// order.  Participants (the calling thread plus up to `threads - 1`
    /// persistent scheduler workers) claim task indices from a shared
    /// counter; a panic in any task poisons the batch (siblings stop
    /// claiming) and is re-raised with its original payload once every
    /// in-flight task has stopped.
    fn run_indexed<R, F>(&self, tasks: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        if self.threads <= 1 || tasks == 1 {
            // Budget-1 pools run inline on the calling thread, exactly like
            // the serial loop.
            return (0..tasks).map(task).collect();
        }

        /// Per-index result slots.  Each index is claimed exactly once, so
        /// every cell is written by exactly one participant; the scheduler's
        /// completion latch orders the writes before the collection below.
        struct Slots<R>(Vec<UnsafeCell<Option<R>>>);
        // SAFETY: disjoint per-index writes, ordered by the batch latch.
        unsafe impl<R: Send> Sync for Slots<R> {}

        let slots: Slots<R> = Slots((0..tasks).map(|_| UnsafeCell::new(None)).collect());
        // capture the Sync wrapper itself, not the (non-Sync) inner Vec that
        // 2021-edition disjoint capture would otherwise pick
        let slots_ref = &slots;
        let write_slot = |i: usize| {
            let r = task(i);
            // SAFETY: `i` was claimed exactly once (see `Slots`).
            unsafe { *slots_ref.0[i].get() = Some(r) };
        };

        let scheduler = Scheduler::global();
        let helpers = (self.threads - 1).min(tasks - 1);
        scheduler.ensure_workers(helpers);
        scheduler.run_batch(tasks, helpers, &write_slot);

        slots
            .0
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every claimed task produced a result")
            })
            .collect()
    }

    /// A snapshot of the shared scheduler's activity counters (tasks
    /// executed, queued tokens, wakeups, queue depth, worker count).
    /// Execution layers snapshot this around a query and report the delta —
    /// the scheduler-contention side of `EXPLAIN ANALYZE`.
    pub fn metrics() -> PoolMetrics {
        Scheduler::global().metrics()
    }

    /// Runs `f` over contiguous chunks of `0..len`, returning the per-chunk
    /// results in ascending range order.
    ///
    /// Chunk *boundaries* are an implementation detail (they depend on the
    /// thread budget), but because chunks tile `0..len` left to right,
    /// flattening the returned vector reproduces the serial traversal order
    /// exactly.
    pub fn parallel_chunks<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = Self::partition(len, self.threads * CHUNKS_PER_THREAD);
        self.run_indexed(ranges.len(), |i| f(ranges[i].clone()))
    }

    /// Maps `f` over `items`, returning results in input order — bit-for-bit
    /// what the serial `items.iter().map(f).collect()` would produce.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for chunk in self.parallel_chunks(items.len(), |range| {
            range.map(|i| f(&items[i])).collect::<Vec<R>>()
        }) {
            out.extend(chunk);
        }
        out
    }

    /// Runs `f` over contiguous row-chunks of a pre-allocated output buffer:
    /// `out` is treated as `rows` rows of `stride` elements and split into
    /// disjoint row-aligned slices, each passed (with its row range) to `f`
    /// exactly once.
    ///
    /// This is the in-place primitive the blocked GEMM uses — no worker
    /// allocates, and the caller keeps full control of peak memory.
    ///
    /// # Panics
    /// Panics when `out.len() != rows * stride`.
    pub fn parallel_fill<T, F>(&self, out: &mut [T], rows: usize, stride: usize, f: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        assert_eq!(
            out.len(),
            rows * stride,
            "output buffer must hold rows * stride elements"
        );
        let ranges = Self::partition(rows, self.threads * CHUNKS_PER_THREAD);
        let mut parts: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len() * stride);
            parts.push(Mutex::new(Some(chunk)));
            rest = tail;
        }
        self.run_indexed(ranges.len(), |i| {
            let chunk = parts[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each output chunk is claimed exactly once");
            f(ranges[i].clone(), chunk);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn threads_from_env_parsing() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("abc")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 8 ")), Some(8));
        assert_eq!(threads_from_env(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    fn pool_clamps_thread_budget() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::new(3).threads(), 3);
        assert_eq!(ExecPool::new(usize::MAX).threads(), MAX_THREADS);
        assert!(ExecPool::global().threads() >= 1);
        assert!(ExecPool::default().threads() >= 1);
    }

    #[test]
    fn partition_tiles_the_range() {
        assert!(ExecPool::partition(0, 4).is_empty());
        assert_eq!(ExecPool::partition(1, 4), vec![0..1]);
        let ranges = ExecPool::partition(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let ranges = ExecPool::partition(4, 100);
        assert_eq!(ranges.len(), 4);
    }

    #[test]
    fn parallel_map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let got = ExecPool::new(threads).parallel_map(&items, |x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_empty_and_tiny_inputs() {
        let pool = ExecPool::new(8);
        assert_eq!(pool.parallel_map::<u32, u32, _>(&[], |x| *x), vec![]);
        assert_eq!(pool.parallel_map(&[7u32], |x| x + 1), vec![8]);
        assert_eq!(pool.parallel_map(&[1u32, 2], |x| x * 10), vec![10, 20]);
    }

    #[test]
    fn parallel_chunks_flatten_in_order() {
        let pool = ExecPool::new(4);
        let chunks = pool.parallel_chunks(100, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<usize>>());
        assert!(pool.parallel_chunks(0, |r| r.len()).is_empty());
    }

    #[test]
    fn parallel_fill_writes_every_cell() {
        let rows = 37;
        let stride = 5;
        let mut out = vec![0u32; rows * stride];
        ExecPool::new(4).parallel_fill(&mut out, rows, stride, |range, chunk| {
            for (local_row, row) in range.clone().enumerate() {
                for col in 0..stride {
                    chunk[local_row * stride + col] = (row * stride + col) as u32;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    #[should_panic(expected = "output buffer must hold rows * stride elements")]
    fn parallel_fill_rejects_mis_sized_buffers() {
        let mut out = vec![0u8; 7];
        ExecPool::new(2).parallel_fill(&mut out, 2, 4, |_, _| {});
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let pool = ExecPool::new(4);
        let items: Vec<usize> = (0..500).collect();
        let err = std::panic::catch_unwind(|| {
            pool.parallel_map(&items, |&i| {
                if i == 321 {
                    panic!("worker exploded on item {i}");
                }
                i
            })
        })
        .expect_err("the worker panic must propagate");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("worker exploded on item 321"),
            "payload lost: {message:?}"
        );
    }

    #[test]
    fn poisoning_stops_sibling_workers_early() {
        // After one chunk panics, the *other* worker must stop claiming
        // chunks.  The panicking chunk abandons its own remaining items
        // either way, so the discriminating bound is "well below one full
        // worker's share": with 2 workers x 4 chunks/worker over 500 items
        // (~62 items per chunk), a surviving worker that kept claiming
        // would process ~437 items; with poisoning it finishes at most its
        // current chunk plus one more claimed before the flag was set
        // (~125 items, plus the ~1 from the poisoned chunk).
        let processed = AtomicU64::new(0);
        let pool = ExecPool::new(2);
        let items: Vec<usize> = (0..500).collect();
        let result = std::panic::catch_unwind(|| {
            pool.parallel_map(&items, |&i| {
                processed.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("poison");
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
                i
            })
        });
        assert!(result.is_err());
        let count = processed.load(Ordering::Relaxed);
        assert!(
            count < 250,
            "poisoning failed to stop the surviving worker early ({count} items processed)"
        );
    }

    #[test]
    fn pool_metrics_and_persistent_workers() {
        let pool = ExecPool::new(2);
        let before = ExecPool::metrics();
        let items: Vec<u64> = (0..100).collect();
        let _ = pool.parallel_map(&items, |x| x + 1);
        let after = ExecPool::metrics();
        let delta = after.delta_since(&before);
        // other tests share the global scheduler, so deltas are lower bounds
        assert!(delta.tasks_executed >= 1);
        assert!(
            after.workers >= 1,
            "an explicit budget-2 pool grows a worker"
        );
        // The worker set never shrinks, and a repeat call with the same
        // budget needs no growth.  Concurrent tests share the global
        // scheduler and may grow it in between, so assert the no-shrink
        // invariant plus a bound tied to this pool's own demand rather
        // than strict equality (which would be a cross-test race).
        let workers_now = Scheduler::global().workers();
        let _ = pool.parallel_map(&items, |x| x + 1);
        assert!(
            Scheduler::global().workers() >= workers_now,
            "the persistent worker set must never shrink"
        );
        let pool_demand = pool.threads() - 1;
        assert!(
            workers_now >= pool_demand,
            "a budget-{} pool must have grown at least {pool_demand} worker(s)",
            pool.threads()
        );
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        // With a budget of 1 the closure runs on the calling thread.
        let caller = std::thread::current().id();
        let ids = ExecPool::new(1).parallel_map(&[1, 2, 3], |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn nested_parallel_maps_match_the_serial_loop() {
        let pool = ExecPool::new(2);
        let outer: Vec<u64> = (0..40).collect();
        let inner_sum = |x: u64| -> u64 { (0..x % 13).map(|j| j * j + x).sum() };
        let expected: Vec<u64> = outer.iter().map(|&x| inner_sum(x)).collect();
        let got = pool.parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..x % 13).collect();
            pool.parallel_map(&inner, |&j| j * j + x)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(got, expected);
    }

    /// splitmix64: the stress test's seeded choices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn seeded_stress_of_nested_batches_with_yields_and_panics() {
        // 4 submitters x a budget-4 pool: at most 3 workers plus the 4
        // submitting threads.  Each batch maps a seeded-length input whose
        // tasks yield at seeded indices and run a nested parallel map; some
        // batches panic at a seeded index, in the outer task or inside the
        // nested map.
        const PANIC_TAG: &str = "seeded stress panic";
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let message = info.payload().downcast_ref::<String>();
                if !message.is_some_and(|m| m.starts_with(PANIC_TAG)) {
                    previous(info);
                }
            }));
        });
        let pool = ExecPool::new(4);
        // < 2^56, so a sum of five never overflows
        let value = |seed: u64, i: u64, j: u64| (seed ^ (i << 20) ^ (j << 40)) >> 8;
        std::thread::scope(|scope| {
            for submitter in 0..4u64 {
                scope.spawn(move || {
                    let mut rng = 0x5EED_0000 + submitter;
                    let mut panicked = 0;
                    for batch in 0..300u64 {
                        let len = 1 + splitmix(&mut rng) % 48;
                        let yields = splitmix(&mut rng);
                        let seed = splitmix(&mut rng);
                        let fault = splitmix(&mut rng);
                        // one batch in 8 panics: at outer index `at`, or at
                        // its nested index `at % 5` when bit 8 is set
                        let at = fault.is_multiple_of(8).then_some((fault >> 16) % len);
                        let nested = fault & 0x100 != 0;
                        let width = |i: u64| i % 5 + 1;
                        let items: Vec<u64> = (0..len).collect();
                        let expected: Vec<u64> = items
                            .iter()
                            .map(|&i| (0..width(i)).map(|j| value(seed, i, j)).sum())
                            .collect();
                        let message =
                            |i: u64, j: u64| format!("{PANIC_TAG} {submitter}/{batch}/{i}/{j}");
                        let run = || {
                            pool.parallel_map(&items, |&i| {
                                if yields >> (i % 64) & 1 == 1 {
                                    std::thread::yield_now();
                                }
                                if at == Some(i) && !nested {
                                    panic!("{}", message(i, 0));
                                }
                                let inner: Vec<u64> = (0..width(i)).collect();
                                pool.parallel_map(&inner, |&j| {
                                    if at == Some(i) && nested && j == i % 5 {
                                        panic!("{}", message(i, j));
                                    }
                                    value(seed, i, j)
                                })
                                .iter()
                                .sum::<u64>()
                            })
                        };
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                            Ok(got) => {
                                assert_eq!(at, None, "batch {submitter}/{batch} swallowed a panic");
                                assert_eq!(got, expected, "batch {submitter}/{batch}");
                            }
                            Err(payload) => {
                                let i = at.expect("a batch without a fault panicked");
                                let j = if nested { i % 5 } else { 0 };
                                assert_eq!(
                                    payload.downcast_ref::<String>(),
                                    Some(&message(i, j)),
                                    "another batch's payload reached {submitter}/{batch}"
                                );
                                panicked += 1;
                            }
                        }
                    }
                    assert!(
                        panicked > 0,
                        "submitter {submitter} never exercised a panic"
                    );
                });
            }
        });
        // late tokens of drained batches retire as no-ops
        scheduler::tests::wait_until(10, "the queue to drain", || {
            ExecPool::metrics().queue_depth == 0
        });
    }
}
