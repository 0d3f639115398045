//! The persistent work-stealing scheduler behind [`crate::ExecPool`].
//!
//! Until PR 5 the pool spawned scoped threads per parallel call (~tens of
//! µs per call).  That is fine for a handful of coarse-grained operators,
//! but a server issuing many small joins pays the spawn cost on every
//! operator of every query.  [`Scheduler`] replaces it with the classic
//! work-stealing architecture:
//!
//! * **Long-lived workers**, spawned lazily up to the largest thread budget
//!   any [`crate::ExecPool`] has requested.  An idle worker parks on its
//!   *own* condvar and registers on an idle stack; a submitter pops one
//!   parked worker per queued token and notifies exactly that worker, so
//!   a submission never stampedes the whole pool awake (no thundering
//!   herd), and each wakeup is counted in [`PoolMetrics::wakeups`].
//! * **An injector queue** for cross-thread submission: a non-worker thread
//!   (the main thread, a server connection handler) pushes participation
//!   tokens there.
//! * **Per-worker deques**: a worker that submits a nested parallel call
//!   pushes its tokens onto its *own* deque (cheap, contention-free), where
//!   siblings can steal them.
//! * **Steal-from-random-victim**: an idle worker first drains its own
//!   deque (LIFO), then the injector (FIFO), then sweeps the other workers'
//!   deques starting from a randomised victim, stealing from the front
//!   (FIFO — the oldest, usually largest, unit of work).
//!
//! ## Batches and tokens
//!
//! A parallel call is represented by one heap-allocated `BatchCore`: the
//! task closure (type-erased; it may borrow the caller's stack, which is
//! why the scheduler never outlives a call's tokens unsafely — see below),
//! a shared claim counter, and completion state.  What flows through the
//! queues are **participation tokens** (`Arc<BatchCore>` clones): a worker
//! that pops one simply joins the batch and claims task indices from the
//! shared counter until the batch is drained.  The submitting thread always
//! participates too, so *every* batch completes even with zero workers
//! (`CEJ_THREADS=1`) and nested parallel calls from worker threads can
//! never deadlock: the nested caller drives its own batch to completion.
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
//! ## Determinism
//!
//! The scheduler executes exactly the task indices the pool hands it and
//! the pool reassembles results by index, so every determinism guarantee of
//! [`crate::ExecPool`] (input-order maps, length-only reduce chunking) is
//! preserved no matter which thread runs which chunk.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock, Weak};
use std::time::Duration;

use crate::MAX_THREADS;

/// How long an idle worker sleeps before re-checking the queues even
/// without a wakeup — a belt-and-braces guard, not the primary wake path
/// (submissions notify one parked worker per token).
const IDLE_PARK: Duration = Duration::from_millis(50);

/// A snapshot (or delta) of the scheduler's activity counters.
///
/// Cumulative process-wide counters; per-run deltas are computed with
/// [`PoolMetrics::delta_since`] and surfaced by the query layer in its
/// execution reports, so `EXPLAIN ANALYZE` can show scheduler contention
/// next to cardinality q-errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Task indices executed through the scheduler (by workers *and* by
    /// submitting threads participating in their own batches).
    pub tasks_executed: u64,
    /// Tokens taken from another worker's deque.
    pub steals: u64,
    /// Tokens submitted through the injector queue (i.e. from threads that
    /// are not scheduler workers).
    pub injected: u64,
    /// Targeted wakeups issued to parked workers (one notified worker per
    /// queued token, not a notify-all broadcast).
    pub wakeups: u64,
    /// Tokens currently queued (injector + all deques) at snapshot time.
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
            steals: self.steals.saturating_sub(earlier.steals),
            injected: self.injected.saturating_sub(earlier.injected),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            queue_depth: self.queue_depth,
            workers: self.workers,
        }
    }
}

/// One parallel call: a type-erased borrowed closure plus claim/completion
/// state.  Tokens (`Arc<BatchCore>` clones) flow through the scheduler's
/// queues; see the module docs for the safety argument.
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
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                break;
            }
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
                if slot.is_none() {
                    *slot = Some(payload);
                }
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

    /// Blocks until [`BatchCore::finished`].
    fn wait(&self) {
        let mut guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !self.finished() {
            let (g, _) = self
                .done_cv
                .wait_timeout(guard, IDLE_PARK)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

/// A queued participation token.
type Token = Arc<BatchCore>;

type DequeRef = Arc<Mutex<VecDeque<Token>>>;

/// One worker's private parking slot.  A worker with nothing to run parks
/// on its own condvar; a submitter wakes exactly one chosen thief via
/// [`Shared::notify_workers`] instead of broadcasting to every sleeper.
struct Parker {
    /// `true` once a submitter has targeted this worker — the condvar
    /// predicate, so a notify that lands before the wait starts is never
    /// lost.
    notified: Mutex<bool>,
    cv: Condvar,
}

/// State shared between the scheduler handle and its workers.
struct Shared {
    injector: Mutex<VecDeque<Token>>,
    deques: RwLock<Vec<DequeRef>>,
    /// Per-worker parking slots, index-aligned with `deques`.
    parkers: RwLock<Vec<Arc<Parker>>>,
    /// Indices of currently-parked workers, LIFO: the most recently parked
    /// worker (warmest cache) is woken first.
    idle: Mutex<Vec<usize>>,
    /// Lock-free mirror of the worker count (the `handles` vector length),
    /// so the per-parallel-call fast paths (`workers()`, the
    /// `ensure_workers` no-growth check) never touch the handles mutex.
    worker_count: AtomicUsize,
    /// Tokens pushed but not yet popped, across injector and deques; the
    /// lock-free `queue_depth` reading and the workers' sleep predicate.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    injected: AtomicU64,
    wakeups: AtomicU64,
}

impl Shared {
    fn new() -> Self {
        Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: RwLock::new(Vec::new()),
            parkers: RwLock::new(Vec::new()),
            idle: Mutex::new(Vec::new()),
            worker_count: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            tasks_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        }
    }

    /// Wakes up to `count` parked workers, one targeted notify each.
    ///
    /// The idle lock is released *before* the popped worker's parker lock
    /// is taken, while a parking worker acquires them in the opposite
    /// nesting (parker, then idle) — since this side never holds both at
    /// once there is no lock-order cycle.  A worker that is between
    /// "pushed onto the idle stack" and "waiting on its condvar" re-checks
    /// `pending` under its parker lock (and `pending` is incremented
    /// before this is called), so the wakeup cannot be lost.
    fn notify_workers(&self, count: usize) {
        for _ in 0..count {
            let idx = {
                let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
                match idle.pop() {
                    Some(idx) => idx,
                    // Nobody is parked: every worker is already awake and
                    // sweeping the queues, so the token will be found.
                    None => return,
                }
            };
            let parker = {
                let parkers = self.parkers.read().unwrap_or_else(|e| e.into_inner());
                parkers[idx].clone()
            };
            let mut notified = parker.notified.lock().unwrap_or_else(|e| e.into_inner());
            *notified = true;
            drop(notified);
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            parker.cv.notify_one();
        }
    }

    /// Removes `idx` from the idle stack unless a submitter already popped
    /// (claimed) it.
    fn deregister_idle(&self, idx: usize) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = idle.iter().rposition(|&i| i == idx) {
            idle.swap_remove(pos);
        }
    }

    /// Pops a token for worker `idx`: own deque (LIFO) → injector (FIFO) →
    /// steal from a pseudo-randomly chosen victim's deque front.
    fn find_token(&self, idx: usize, rng: &mut u64) -> Option<Token> {
        let deques = self.deques.read().unwrap_or_else(|e| e.into_inner());
        if let Some(own) = deques.get(idx) {
            if let Some(token) = own.lock().unwrap_or_else(|e| e.into_inner()).pop_back() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(token);
            }
        }
        if let Some(token) = self
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(token);
        }
        let n = deques.len();
        if n > 1 {
            // xorshift64* — cheap per-worker victim randomisation.
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            let start = (*rng as usize) % n;
            for off in 0..n {
                let victim = (start + off) % n;
                if victim == idx {
                    continue;
                }
                if let Some(token) = deques[victim]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front()
                {
                    self.pending.fetch_sub(1, Ordering::AcqRel);
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(token);
                }
            }
        }
        None
    }
}

thread_local! {
    /// Identifies the current thread as worker `index` of a scheduler, so
    /// nested submissions go to its own deque instead of the injector.
    static WORKER: RefCell<Option<(Weak<Shared>, usize)>> = const { RefCell::new(None) };
}

fn worker_main(shared: Arc<Shared>, idx: usize) {
    WORKER.with(|slot| *slot.borrow_mut() = Some((Arc::downgrade(&shared), idx)));
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((idx as u64 + 1) << 17);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Some(token) = shared.find_token(idx, &mut rng) {
            if shared.pending.load(Ordering::Acquire) > 0 {
                // Chain wake: more tokens remain, so recruit one more
                // thief before starting work — wakeups propagate one hop
                // per token instead of the submitter broadcasting.
                shared.notify_workers(1);
            }
            let executed = token.participate();
            shared.tasks_executed.fetch_add(executed, Ordering::Relaxed);
            continue;
        }
        // Park on this worker's own slot: arm the predicate, register on
        // the idle stack, then re-check the sleep condition under the
        // parker lock.  A submitter increments `pending` before popping
        // the stack, so a concurrently queued token is either observed by
        // the re-check or delivers a targeted notify once this lock is
        // released by the wait.
        let parker = {
            let parkers = shared.parkers.read().unwrap_or_else(|e| e.into_inner());
            parkers[idx].clone()
        };
        let mut notified = parker.notified.lock().unwrap_or_else(|e| e.into_inner());
        *notified = false;
        shared
            .idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(idx);
        if shared.shutdown.load(Ordering::Acquire) || shared.pending.load(Ordering::Acquire) > 0 {
            drop(notified);
            shared.deregister_idle(idx);
            continue;
        }
        // Timed park: the timeout only guards against implementation bugs
        // ever stranding a worker; the targeted notify is the wake path.
        while !*notified {
            let (guard, timeout) = parker
                .cv
                .wait_timeout(notified, IDLE_PARK)
                .unwrap_or_else(|e| e.into_inner());
            notified = guard;
            if timeout.timed_out() {
                break;
            }
        }
        drop(notified);
        shared.deregister_idle(idx);
    }
}

/// The persistent work-stealing scheduler: long-lived workers, per-worker
/// deques, an injector for cross-thread submission, and graceful shutdown.
///
/// All [`crate::ExecPool`]s share [`Scheduler::global`]; constructing a
/// dedicated instance is mainly useful for tests and for embedding the
/// execution layer into another runtime.
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics();
        f.debug_struct("Scheduler")
            .field("workers", &m.workers)
            .field("tasks_executed", &m.tasks_executed)
            .field("steals", &m.steals)
            .field("injected", &m.injected)
            .field("wakeups", &m.wakeups)
            .field("queue_depth", &m.queue_depth)
            .finish()
    }
}

impl Scheduler {
    /// Creates a scheduler with `workers` worker threads (clamped to
    /// `MAX_THREADS`).  Workers spawn immediately; [`Scheduler::global`]
    /// instead grows lazily with demand.
    pub fn new(workers: usize) -> Self {
        let scheduler = Scheduler {
            shared: Arc::new(Shared::new()),
            handles: Mutex::new(Vec::new()),
        };
        scheduler.ensure_workers(workers);
        scheduler
    }

    /// The process-wide scheduler every [`crate::ExecPool`] submits to.
    /// Never shut down; its workers are reclaimed by process exit.
    pub fn global() -> &'static Scheduler {
        static GLOBAL: OnceLock<Scheduler> = OnceLock::new();
        GLOBAL.get_or_init(|| Scheduler {
            shared: Arc::new(Shared::new()),
            handles: Mutex::new(Vec::new()),
        })
    }

    /// Grows the worker set to at least `target` threads (never shrinks;
    /// capped at [`MAX_THREADS`]).  Pools call this with `threads - 1`
    /// before submitting, so worker count tracks the largest budget in use.
    pub fn ensure_workers(&self, target: usize) {
        let target = target.min(MAX_THREADS);
        // lock-free fast path: the common case is "already big enough"
        if self.shared.worker_count.load(Ordering::Acquire) >= target {
            return;
        }
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        while handles.len() < target {
            let idx = handles.len();
            {
                let mut deques = self
                    .shared
                    .deques
                    .write()
                    .unwrap_or_else(|e| e.into_inner());
                debug_assert_eq!(deques.len(), idx);
                deques.push(Arc::new(Mutex::new(VecDeque::new())));
            }
            {
                let mut parkers = self
                    .shared
                    .parkers
                    .write()
                    .unwrap_or_else(|e| e.into_inner());
                debug_assert_eq!(parkers.len(), idx);
                parkers.push(Arc::new(Parker {
                    notified: Mutex::new(false),
                    cv: Condvar::new(),
                }));
            }
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cej-exec-{idx}"))
                .spawn(move || worker_main(shared, idx))
                .expect("spawning a scheduler worker");
            handles.push(handle);
        }
    }

    /// Worker threads currently alive.
    pub fn workers(&self) -> usize {
        self.handles.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// A snapshot of the activity counters and queue depth.
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            injected: self.shared.injected.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
            queue_depth: self.shared.pending.load(Ordering::Acquire),
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
        let core: Token = Arc::new(BatchCore {
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
        // caller simply runs the batch inline.
        let tokens = helpers.min(self.workers()).min(tasks.saturating_sub(1));
        if tokens > 0 {
            self.submit(&core, tokens);
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

    /// Queues `tokens` participation tokens for `core`: onto the current
    /// worker's own deque when called from one of this scheduler's workers,
    /// onto the injector otherwise.
    fn submit(&self, core: &Token, tokens: usize) {
        let own_deque = WORKER.with(|slot| {
            slot.borrow().as_ref().and_then(|(shared, idx)| {
                let shared = shared.upgrade()?;
                if Arc::ptr_eq(&shared, &self.shared) {
                    Some(*idx)
                } else {
                    None
                }
            })
        });
        match own_deque {
            Some(idx) => {
                let deques = self.shared.deques.read().unwrap_or_else(|e| e.into_inner());
                let mut deque = deques[idx].lock().unwrap_or_else(|e| e.into_inner());
                for _ in 0..tokens {
                    deque.push_back(core.clone());
                }
            }
            None => {
                let mut injector = self
                    .shared
                    .injector
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                for _ in 0..tokens {
                    injector.push_back(core.clone());
                }
                self.shared
                    .injected
                    .fetch_add(tokens as u64, Ordering::Relaxed);
            }
        }
        self.shared.pending.fetch_add(tokens, Ordering::AcqRel);
        self.shared.notify_workers(tokens);
    }

    /// Graceful shutdown: stops the workers after their current token and
    /// joins them.  Queued tokens of still-blocked submitters are not lost —
    /// the submitting threads themselves drain their batches.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Shutdown is the one broadcast: every parker is notified directly
        // (bypassing the idle stack) so no worker sleeps out its timeout.
        {
            let parkers = self
                .shared
                .parkers
                .read()
                .unwrap_or_else(|e| e.into_inner());
            for parker in parkers.iter() {
                let mut notified = parker.notified.lock().unwrap_or_else(|e| e.into_inner());
                *notified = true;
                drop(notified);
                parker.cv.notify_one();
            }
        }
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
        self.shared.worker_count.store(0, Ordering::Release);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// Spins until `predicate` holds, failing the test after `secs`.
    fn wait_until(secs: u64, what: &str, predicate: impl Fn() -> bool) {
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
    fn nested_submission_from_a_worker_is_stolen_by_a_sibling() {
        // Outer batch: two rendezvous tasks, so exactly one of {main thread,
        // worker A} runs each.  The participant on the *worker* thread then
        // submits a nested two-task rendezvous batch: its token lands on
        // that worker's own deque, the worker claims inner task 0 and blocks
        // until inner task 1 runs — which only the *other* worker, by
        // stealing the token from the sibling deque, can do.  Completion
        // therefore proves the own-deque + steal-from-victim path end to
        // end; timeouts turn a broken steal path into a test failure.
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
                    wait_until(10, "the stolen inner task", || {
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
        assert!(
            scheduler.metrics().steals >= 1,
            "the nested token must have been stolen: {:?}",
            scheduler.metrics()
        );
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
            steals: 2,
            injected: 4,
            wakeups: 3,
            queue_depth: 7,
            workers: 2,
        };
        let b = PoolMetrics {
            tasks_executed: 25,
            steals: 3,
            injected: 9,
            wakeups: 8,
            queue_depth: 1,
            workers: 3,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.tasks_executed, 15);
        assert_eq!(d.steals, 1);
        assert_eq!(d.injected, 5);
        assert_eq!(d.wakeups, 5);
        assert_eq!(d.queue_depth, 1);
        assert_eq!(d.workers, 3);
    }

    #[test]
    fn parked_workers_are_woken_individually() {
        let scheduler = Scheduler::new(2);
        // Both workers park once their initial queue sweep comes up empty.
        wait_until(10, "both workers to park", || {
            scheduler
                .shared
                .idle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len()
                == 2
        });
        // A worker deregisters transiently around its park timeout, so a
        // single submission could race past an empty idle stack; batches
        // are cheap, so retry until a targeted wakeup is observed.
        wait_until(10, "a targeted wakeup", || {
            let hits = AtomicUsize::new(0);
            scheduler.run_batch(8, 2, &|_i: usize| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 8);
            scheduler.metrics().wakeups >= 1
        });
        scheduler.shutdown();
    }
}
