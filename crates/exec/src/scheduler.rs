//! The persistent scheduler behind [`crate::ExecPool`]: long-lived workers,
//! one FIFO queue of participation tokens and one condvar.
//!
//! * **Workers** are spawned lazily up to the largest thread budget any
//!   pool has requested, so a parallel call pays a queue push, not a thread
//!   spawn.  A worker pops the oldest token and joins that token's batch;
//!   with nothing queued it sleeps on the condvar.
//! * **One queue.**  Every submission — from the main thread, a server
//!   connection or a worker running a nested call — appends its tokens to
//!   one `Mutex<VecDeque<_>>`.  Sleeping workers count themselves under
//!   that lock, so a submission of `t` tokens notifies `min(t, sleeping)`
//!   workers one at a time (no thundering herd; [`PoolMetrics::wakeups`]).
//!
//! ## Batches and tokens
//!
//! A parallel call is one heap-allocated `BatchCore`: the task closure
//! (type-erased; it may borrow the caller's stack), a shared claim counter
//! and completion state.  A token is an `Arc<BatchCore>` clone: whoever
//! pops one joins the batch and claims task indices from the counter until
//! it is drained, so the counter balances the work and the queue only
//! recruits participants.  The submitting thread always participates too:
//! every batch completes with zero workers (`CEJ_THREADS=1`), and a nested
//! call from a worker cannot deadlock, because its caller drives it.
//!
//! ## Why the borrowed closure is safe
//!
//! The closure pointer inside a `BatchCore` dangles once the submitting
//! call returns, but a token only dereferences it after (a) registering in
//! `in_flight` and (b) claiming an index `< tasks` from the monotone
//! counter.  The submitter returns only once `in_flight == 0` **and** the
//! counter is exhausted (or the batch is poisoned) — after which any late
//! token observes an exhausted counter (or the poison flag) and exits
//! without touching the closure.  The `BatchCore` itself is reference
//! counted, so late tokens never touch freed memory at all.
//!
//! The pool reassembles results by task index, so which thread runs which
//! index never changes a result.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::MAX_THREADS;

/// A snapshot of the scheduler's process-wide counters.  The query layer
/// reports per-run deltas ([`PoolMetrics::delta_since`]), so `EXPLAIN
/// ANALYZE` shows scheduler contention next to cardinality q-errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Task indices executed through the scheduler (by workers *and* by
    /// submitting threads participating in their own batches).
    pub tasks_executed: u64,
    /// Participation tokens submitted to the scheduler's queue.
    pub injected: u64,
    /// Single-waiter notifies issued to sleeping workers (at most one per
    /// queued token, never a notify-all broadcast).
    pub wakeups: u64,
    /// Tokens currently queued at snapshot time.
    pub queue_depth: usize,
    /// Worker threads currently alive.
    pub workers: usize,
}

impl PoolMetrics {
    /// The counter deltas since `earlier`; `queue_depth` and `workers` keep
    /// this (later) snapshot's values.
    pub fn delta_since(&self, earlier: &PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            injected: self.injected.saturating_sub(earlier.injected),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            queue_depth: self.queue_depth,
            workers: self.workers,
        }
    }
}

/// One parallel call: a type-erased borrowed closure plus claim/completion
/// state.  Tokens (`Arc<BatchCore>` clones) flow through the scheduler's
/// queue; see the module docs for the safety argument.
struct BatchCore {
    /// Monomorphised trampoline invoking the erased closure.
    run: unsafe fn(*const (), usize),
    /// The caller's closure, borrowed for the duration of the call.
    ctx: *const (),
    /// Total task indices in `0..tasks`.
    tasks: usize,
    /// Next unclaimed index (monotone).
    next: AtomicUsize,
    /// Participants currently registered (claiming or executing).
    in_flight: AtomicUsize,
    /// Set when any task panicked; stops further claims.
    poisoned: AtomicBool,
    /// First panic payload, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion latch the submitter waits on.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: moving a `BatchCore` to another thread (a token's `Arc` is
// dropped wherever it was last held) moves plain data: `ctx` is an address
// that thread only dereferences under the claim protocol of the module
// docs, while the submitting call that owns the referent is still blocked
// in `run_batch`; `run` is a function pointer, the panic payload is `Send`,
// and the atomics, mutexes and condvar are `Send`.
unsafe impl Send for BatchCore {}
// SAFETY: participants share `&BatchCore` and may run `(run)(ctx, i)`
// concurrently, which calls the closure through a shared reference from
// several threads: `run_batch` requires `F: Sync`, and the claim protocol
// keeps the closure alive for every such call.  Every other field is an
// atomic, a mutex or a condvar, or is never written after construction.
unsafe impl Sync for BatchCore {}

impl BatchCore {
    /// Joins the batch: claims and executes indices until the batch is
    /// drained or poisoned.  Returns how many indices this participant
    /// executed.
    fn participate(&self) -> u64 {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let mut executed = 0u64;
        while !self.poisoned.load(Ordering::Acquire) {
            let i = self.next.fetch_add(1, Ordering::AcqRel);
            if i >= self.tasks {
                break;
            }
            // SAFETY: i < tasks and we are registered in `in_flight`, so the
            // submitter is still blocked and `ctx` is alive.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                (self.run)(self.ctx, i);
            }));
            executed += 1;
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
                drop(slot);
                self.poisoned.store(true, Ordering::Release);
            }
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        // Wake the submitter; the empty critical section pairs with its
        // predicate re-check under the same lock, so no wakeup is lost.
        drop(self.done_lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.done_cv.notify_all();
        executed
    }

    /// `true` once no participant is registered and no further claim can
    /// dereference the closure.
    fn finished(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) == 0
            && (self.poisoned.load(Ordering::Acquire)
                || self.next.load(Ordering::Acquire) >= self.tasks)
    }

    /// Blocks until [`BatchCore::finished`].  Every participant takes
    /// `done_lock` after leaving `in_flight`, so the predicate cannot turn
    /// true between this thread's check and its wait.
    fn wait(&self) {
        let mut guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !self.finished() {
            guard = self.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Everything the queue mutex protects.
#[derive(Default)]
struct Queue {
    tokens: VecDeque<Arc<BatchCore>>,
    /// Workers waiting on [`Shared::wake`], the most a submission notifies.
    sleeping: usize,
    shutdown: bool,
    injected: u64,
    wakeups: u64,
}

/// State shared between the scheduler handle and its workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Workers spawned and not shut down: read without a lock on every
    /// parallel call, written only under the handles mutex.
    workers: AtomicUsize,
    tasks_executed: AtomicU64,
}

impl Shared {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn worker_main(shared: Arc<Shared>) {
    let mut queue = shared.queue();
    while !queue.shutdown {
        if let Some(token) = queue.tokens.pop_front() {
            drop(queue);
            let executed = token.participate();
            shared.tasks_executed.fetch_add(executed, Ordering::Relaxed);
            drop(token);
            queue = shared.queue();
            continue;
        }
        // The queue is empty and its lock is held, so a submission either
        // already happened (the token was popped above) or happens after
        // this wait released the lock and finds this worker in `sleeping`.
        queue.sleeping += 1;
        queue = shared.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
        queue.sleeping -= 1;
    }
}

/// Long-lived workers serving one shared FIFO of participation tokens.
/// Every [`crate::ExecPool`] submits to [`Scheduler::global`]; the tests
/// build their own.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Creates a scheduler with `workers` worker threads, spawned now.
    pub(crate) fn new(workers: usize) -> Self {
        let scheduler = Scheduler {
            shared: Arc::default(),
            handles: Mutex::new(Vec::new()),
        };
        scheduler.ensure_workers(workers);
        scheduler
    }

    /// The process-wide scheduler, grown lazily by the pools; never shut down.
    pub(crate) fn global() -> &'static Scheduler {
        static GLOBAL: OnceLock<Scheduler> = OnceLock::new();
        GLOBAL.get_or_init(|| Scheduler::new(0))
    }

    /// Grows the worker set to at least `target` threads (never shrinks;
    /// capped at [`MAX_THREADS`]).  Pools call this with `threads - 1`
    /// before submitting, so worker count tracks the largest budget in use.
    pub(crate) fn ensure_workers(&self, target: usize) {
        let target = target.min(MAX_THREADS);
        // lock-free fast path: the common case is "already big enough"
        if self.workers() >= target {
            return;
        }
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        while handles.len() < target {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cej-exec-{}", handles.len()))
                .spawn(move || worker_main(shared))
                .expect("spawning a scheduler worker");
            handles.push(handle);
            self.shared.workers.store(handles.len(), Ordering::Release);
        }
    }

    /// Worker threads currently alive.
    pub(crate) fn workers(&self) -> usize {
        self.shared.workers.load(Ordering::Acquire)
    }

    /// A snapshot of the activity counters and queue depth.
    pub(crate) fn metrics(&self) -> PoolMetrics {
        let queue = self.shared.queue();
        PoolMetrics {
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            injected: queue.injected,
            wakeups: queue.wakeups,
            queue_depth: queue.tokens.len(),
            workers: self.workers(),
        }
    }

    /// Runs `f(i)` for every `i in 0..tasks` with up to `helpers` scheduler
    /// workers participating alongside the calling thread.  Blocks until
    /// every task finished; re-raises the first task panic.
    ///
    /// This is the primitive [`crate::ExecPool`] builds its `parallel_*`
    /// API on; `f` may borrow the caller's stack.
    pub(crate) fn run_batch<F>(&self, tasks: usize, helpers: usize, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        /// # Safety
        /// `ctx` must point to a live `F`.
        unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), i: usize) {
            (*(ctx as *const F))(i);
        }
        let core = Arc::new(BatchCore {
            run: trampoline::<F>,
            ctx: f as *const F as *const (),
            tasks,
            next: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        // Tokens beyond the worker count (or the task count) could never be
        // claimed usefully; with zero workers none are queued and the
        // caller simply runs the batch inline.  Each token wakes one
        // sleeping worker, as far as there are sleepers.
        let tokens = helpers.min(self.workers()).min(tasks - 1);
        if tokens > 0 {
            let mut queue = self.shared.queue();
            queue.tokens.extend((0..tokens).map(|_| core.clone()));
            let wake = tokens.min(queue.sleeping);
            queue.injected += tokens as u64;
            queue.wakeups += wake as u64;
            drop(queue);
            for _ in 0..wake {
                self.shared.wake.notify_one();
            }
        }

        let executed = core.participate();
        self.shared
            .tasks_executed
            .fetch_add(executed, Ordering::Relaxed);
        core.wait();

        let payload = core.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Graceful shutdown: stops the workers after their current token and
    /// joins them.  Queued tokens of still-blocked submitters are not lost —
    /// the submitting threads themselves drain their batches.
    pub(crate) fn shutdown(&self) {
        self.shared.queue().shutdown = true;
        self.shared.wake.notify_all();
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
        self.shared.workers.store(0, Ordering::Release);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Spins until `predicate` holds, failing the test after `secs`.
    pub(crate) fn wait_until(secs: u64, what: &str, predicate: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !predicate() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            // yield, not spin: these rendezvous involve more threads than a
            // small CI machine has cores
            std::thread::yield_now();
        }
    }

    #[test]
    fn run_batch_executes_every_index_with_workers() {
        let scheduler = Scheduler::new(3);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        scheduler.run_batch(100, 3, &|i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let metrics = scheduler.metrics();
        assert_eq!(metrics.tasks_executed, 100);
        assert_eq!(metrics.workers, 3);
        // Tokens of a drained batch may briefly linger queued; workers must
        // retire them as harmless no-ops.
        wait_until(10, "leftover tokens to drain", || {
            scheduler.metrics().queue_depth == 0
        });
        scheduler.shutdown();
    }

    #[test]
    fn zero_workers_runs_inline() {
        let scheduler = Scheduler::new(0);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        scheduler.run_batch(5, 4, &|i: usize| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(scheduler.metrics().injected, 0);
    }

    #[test]
    fn external_submission_goes_through_the_injector() {
        // The one queue is the injector: a batch with helpers to spare
        // queues tokens there and counts them.
        let scheduler = Scheduler::new(2);
        scheduler.run_batch(50, 2, &|_i: usize| {
            std::thread::sleep(Duration::from_micros(200));
        });
        let metrics = scheduler.metrics();
        assert!(
            metrics.injected >= 1,
            "external submissions must flow through the injector: {metrics:?}"
        );
        scheduler.shutdown();
    }

    #[test]
    fn nested_submission_from_a_worker_is_run_by_a_sibling() {
        // Outer batch: two rendezvous tasks, so exactly one of {main thread,
        // worker A} runs each.  The participant on the *worker* thread then
        // submits a nested two-task rendezvous batch: worker A claims inner
        // task 0 and blocks until inner task 1 runs — which only the *other*
        // worker, by popping the nested token from the shared queue, can do.
        // Completion therefore proves that a worker's nested submission
        // reaches its siblings; timeouts turn a lost token into a failure.
        let scheduler = Scheduler::new(2);
        let outer_arrived = AtomicUsize::new(0);
        let inner_done = AtomicBool::new(false);
        scheduler.run_batch(2, 2, &|_outer: usize| {
            outer_arrived.fetch_add(1, Ordering::SeqCst);
            wait_until(10, "both outer participants", || {
                outer_arrived.load(Ordering::SeqCst) >= 2
            });
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("cej-exec-"));
            if on_worker {
                let inner_arrived = AtomicUsize::new(0);
                scheduler.run_batch(2, 1, &|_inner: usize| {
                    inner_arrived.fetch_add(1, Ordering::SeqCst);
                    wait_until(10, "the sibling's inner task", || {
                        inner_arrived.load(Ordering::SeqCst) >= 2
                    });
                });
                inner_done.store(true, Ordering::SeqCst);
            } else {
                wait_until(10, "the worker-side nested batch", || {
                    inner_done.load(Ordering::SeqCst)
                });
            }
        });
        assert!(inner_done.load(Ordering::SeqCst));
        scheduler.shutdown();
    }

    #[test]
    fn shutdown_joins_workers_and_is_idempotent() {
        let scheduler = Scheduler::new(4);
        assert_eq!(scheduler.workers(), 4);
        scheduler.run_batch(16, 4, &|_i: usize| {});
        scheduler.shutdown();
        assert_eq!(scheduler.workers(), 0);
        scheduler.shutdown(); // second call is a no-op
    }

    #[test]
    fn metrics_delta() {
        let a = PoolMetrics {
            tasks_executed: 10,
            injected: 4,
            wakeups: 3,
            queue_depth: 7,
            workers: 2,
        };
        let b = PoolMetrics {
            tasks_executed: 25,
            injected: 9,
            wakeups: 8,
            queue_depth: 1,
            workers: 3,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.tasks_executed, 15);
        assert_eq!(d.injected, 5);
        assert_eq!(d.wakeups, 5);
        assert_eq!(d.queue_depth, 1);
        assert_eq!(d.workers, 3);
    }

    #[test]
    fn parked_workers_are_woken_individually() {
        let scheduler = Scheduler::new(2);
        // Both workers sleep once they find the queue empty.
        wait_until(10, "both workers to sleep", || {
            scheduler.shared.queue().sleeping == 2
        });
        // One helper token wakes one of the two sleepers, not both.  A
        // spurious wakeup could leave no sleeper to notify, so retry until
        // a wakeup is observed.
        wait_until(10, "a single-waiter wakeup", || {
            let hits = AtomicUsize::new(0);
            let before = scheduler.metrics();
            scheduler.run_batch(8, 1, &|_i: usize| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 8);
            let wakeups = scheduler.metrics().delta_since(&before).wakeups;
            assert!(wakeups <= 1, "one token woke {wakeups} workers");
            wakeups == 1
        });
        scheduler.shutdown();
    }
}
