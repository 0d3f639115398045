//! # cej-server
//!
//! The multi-client serving front end of the engine: a TCP server speaking
//! a small line-oriented text protocol ([`protocol`]) over a **shared**
//! [`ContextJoinSession`].
//!
//! The paper's economics — embedding and index costs amortised across many
//! queries — only materialise in a long-lived service, so this crate turns
//! the per-query machinery of PR 3/4 (prepared queries, persistent indexes,
//! statistics) into a system:
//!
//! * **Shared session, per-connection handles.**  Every connection thread
//!   owns a clone of the session handle; catalog, model registry, embedding
//!   caches, and the persistent index manager are `Arc`-shared behind it,
//!   so one client's cold query warms every other client.
//! * **Connection threads feed the shared scheduler.**  Queries execute on
//!   their connection's thread; every parallel operator inside them submits
//!   participation tokens to the persistent scheduler's one shared queue
//!   (behind [`cej_exec::ExecPool`]), where the long-lived workers pick
//!   them up — no thread is spawned per query.
//! * **Admission control** ([`admission::AdmissionGate`]): a hard cap on
//!   in-flight queries plus a bounded wait queue; beyond both, clients get
//!   `ERR busy` immediately instead of collapsing the server.
//! * **Latency accounting**: every query's service time lands in the
//!   `cej_query_latency_us` histogram; `STATS` reports its p50/p95/p99.
//!
//! ## Protocol
//!
//! See [`protocol`] for the grammar.  `PREPARE` stores a named statement in
//! the connection's statement cache (plan-once); `RUN` executes it
//! (execute-many, all shared caches warm); `BIND` derives a new statement
//! at a different similarity threshold without replanning; `PROBE` joins
//! ad-hoc request text against a registered table through a prepared
//! template — the "user query string" path of a live service.
//!
//! ## Live incremental views
//!
//! `SUBSCRIBE <id>` turns a prepared statement into a standing query
//! ([`cej_core::StandingQuery`]): from then on, any connection's
//! `APPLY <table> …` mutation that changes its result pushes a checksummed
//! `DELTA` frame to the subscribing connection.  Every connection owns a
//! dedicated flusher thread parked on the server-wide `FrameNudge`: a
//! successful `APPLY` bumps its generation and wakes every flusher, so
//! frames go out the moment they are queued instead of waiting for a
//! 100ms idle tick.  A per-connection writer mutex keeps frames from
//! interleaving with response payloads; [`Client::wait_delta`] receives
//! them.  Maintenance is incremental where the delta-propagation engine is
//! exact and a transparent full re-run otherwise — either way the frame is
//! an exact result diff.
//!
//! ## Observability
//!
//! Each server owns a [`cej_obs::Registry`] aggregating every stat family —
//! admission, query latency, persistent indexes, embedding caches, the
//! worker pool, incremental-view maintenance, the DELTA fan-out
//! cache, and trace capture.  `METRICS` renders it in Prometheus text
//! exposition format; `STATS` stays the legacy single-line view over the
//! same registry.  `RUN`/`ANALYZE`/`PROBE` execute under a
//! [`cej_obs::Trace`] (sampled by `CEJ_TRACE_SAMPLE`, forced for queries
//! crossing `CEJ_SLOW_QUERY_MS`); `TRACE LAST`, `TRACE <id>`, and
//! `TRACE SLOW` render captured span trees over the wire.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod latency;
pub mod protocol;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cej_core::{ContextJoinSession, PreparedQuery, StandingQuery};
use cej_obs::Trace;
use cej_storage::TableBuilder;

use admission::AdmissionGate;
use protocol::{
    build_delta, render_delta, render_delta_body, render_delta_header, render_table, render_text,
    Command, StatementSpec, TraceTarget,
};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port — the default, made
    /// for tests and benchmarks).
    pub addr: String,
    /// Maximum concurrently executing queries (admission cap).
    pub max_inflight: usize,
    /// Maximum queries waiting for an execution slot before `ERR busy`.
    pub max_queued: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 8,
            max_queued: 32,
        }
    }
}

/// State shared by the acceptor and every connection thread.
struct ServerShared {
    session: ContextJoinSession,
    gate: Arc<AdmissionGate>,
    /// Per-query service time in microseconds (`cej_query_latency_us`).
    latency: cej_obs::Histogram,
    shutdown: AtomicBool,
    connections: AtomicU64,
    frames: Arc<DeltaFrameCache>,
    /// Per-server metrics registry (every stat family registers here; see
    /// [`Server::metrics`]).  Collector closures capture their own `Arc` /
    /// shared-cell handles, never `ServerShared` itself, so no reference
    /// cycle forms.
    registry: cej_obs::Registry,
    /// Queries executed (`RUN` / `ANALYZE` / `PROBE` / `APPLY`), registered
    /// as `cej_queries_total`.
    queries: cej_obs::Counter,
    /// Flusher rounds that wrote at least one `DELTA` frame, registered as
    /// `cej_frame_wakeups_total`.
    frame_wakeups: cej_obs::Counter,
    /// Wakes every connection's frame flusher after an `APPLY` queues
    /// standing-query frames.
    nudge: FrameNudge,
}

/// A generation-counting condvar that replaces the old 100ms idle-tick
/// frame flush: `APPLY` bumps the generation ([`FrameNudge::notify`]) and
/// every per-connection flusher parked in [`FrameNudge::wait`] drains its
/// subscription mailboxes immediately.
struct FrameNudge {
    generation: Mutex<u64>,
    frames_ready: Condvar,
}

impl FrameNudge {
    fn new() -> Self {
        Self {
            generation: Mutex::new(0),
            frames_ready: Condvar::new(),
        }
    }

    /// Bumps the generation and wakes every waiting flusher.
    fn notify(&self) {
        let mut generation = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        *generation += 1;
        self.frames_ready.notify_all();
    }

    /// Waits until the generation moves past `seen` or `fallback` elapses
    /// (the safety net for shutdown and frames queued outside `APPLY`);
    /// returns the generation observed on wake.
    fn wait(&self, seen: u64, fallback: Duration) -> u64 {
        let guard = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _timeout) = self
            .frames_ready
            .wait_timeout_while(guard, fallback, |generation| *generation == seen)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

/// Bounded entries kept in the [`DeltaFrameCache`] (FIFO eviction).  Each
/// entry is one rendered frame body; old applies are flushed to every
/// subscriber almost immediately, so a small window is plenty.
const DELTA_CACHE_CAPACITY: usize = 256;

/// Shared rendered DELTA-frame bodies, keyed by
/// `(plan fingerprint, apply seq, refreshed)`.
///
/// Standing queries over the same physical plan emit frames with identical
/// bodies for the same [`cej_core::ResultDelta::seq`] (the body carries no
/// subscription id — see [`render_delta_body`]), so when N connections
/// subscribe to the same statement each table change is rendered **once**
/// and written N times with per-subscriber headers.  The `refreshed` flag
/// is part of the key because per-subscription maintenance policies may
/// propagate exactly for one query and fall back to a full re-run for
/// another.  Snapshot frames (`seq == 0`) depend on per-subscriber mailbox
/// state and bypass the cache.
struct DeltaFrameCache {
    inner: Mutex<DeltaFrameCacheInner>,
    /// Bodies served from cache (frames fanned out without re-rendering).
    hits: AtomicU64,
    /// Bodies rendered because no subscriber had produced them yet.
    misses: AtomicU64,
}

#[derive(Default)]
struct DeltaFrameCacheInner {
    bodies: HashMap<(u64, u64, bool), Arc<String>>,
    order: VecDeque<(u64, u64, bool)>,
}

impl DeltaFrameCache {
    fn new() -> Self {
        Self {
            inner: Mutex::new(DeltaFrameCacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached body for `(fingerprint, seq, refreshed)`, or
    /// renders it via `render` and publishes it.  Rendering happens outside
    /// the lock; when two connections race, the first publication wins and
    /// both writes share one allocation.
    fn body(
        &self,
        fingerprint: u64,
        seq: u64,
        refreshed: bool,
        render: impl FnOnce() -> String,
    ) -> Arc<String> {
        let key = (fingerprint, seq, refreshed);
        {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(body) = inner.bodies.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(body);
            }
        }
        let rendered = Arc::new(render());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // first publication wins the race; a loser's render is discarded
        let body = Arc::clone(inner.bodies.entry(key).or_insert_with(|| rendered));
        if !inner.order.contains(&key) {
            inner.order.push_back(key);
        }
        while inner.order.len() > DELTA_CACHE_CAPACITY {
            if let Some(evicted) = inner.order.pop_front() {
                inner.bodies.remove(&evicted);
            }
        }
        body
    }

    fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A running server: bound listener, acceptor thread, connection threads.
///
/// Dropping (or [`Server::shutdown`]) stops accepting, asks connection
/// threads to wind down after their current request, and joins everything —
/// the graceful-shutdown path.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving `session` under `config`.  The session
    /// handle is shared: callers keep their own handle to observe cache /
    /// index state while the server runs.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn start(session: ContextJoinSession, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let gate = Arc::new(AdmissionGate::new(config.max_inflight, config.max_queued));
        let frames = Arc::new(DeltaFrameCache::new());
        let registry = cej_obs::Registry::new();
        let latency = registry.histogram(
            "cej_query_latency_us",
            "Per-query service time in microseconds",
        );
        let queries = registry.counter(
            "cej_queries_total",
            "Queries executed (RUN, ANALYZE, PROBE, APPLY)",
        );
        let frame_wakeups = registry.counter(
            "cej_frame_wakeups_total",
            "Flusher rounds that wrote at least one DELTA frame",
        );
        register_collectors(&registry, &session, &gate, &frames);
        let shared = Arc::new(ServerShared {
            session,
            gate,
            latency,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            frames,
            registry,
            queries,
            frame_wakeups,
            nudge: FrameNudge::new(),
        });
        let connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let connections = connections.clone();
            std::thread::Builder::new()
                .name("cej-server-accept".to_string())
                .spawn(move || accept_loop(listener, shared, connections))?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served session (a shared handle).
    pub fn session(&self) -> ContextJoinSession {
        self.shared.session.clone()
    }

    /// The per-query service-time histogram, in microseconds (a handle
    /// onto the cells `METRICS` exposes as `cej_query_latency_us`).
    pub fn latency(&self) -> cej_obs::Histogram {
        self.shared.latency.clone()
    }

    /// Admission counters.
    pub fn admission(&self) -> admission::AdmissionStats {
        self.shared.gate.stats()
    }

    /// The full metrics registry in Prometheus text exposition format —
    /// exactly what the `METRICS` verb serves over the wire.
    pub fn metrics(&self) -> String {
        self.shared.registry.render()
    }

    /// Graceful shutdown: stop accepting, let every connection finish its
    /// current request, join all threads.  Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = {
            let mut guard = self.connections.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Registers every stat family as scrape-time collectors: admission,
/// latency, persistent indexes, embedding caches, the worker pool,
/// incremental-view maintenance, the DELTA fan-out cache, and trace
/// capture.  `STATS` re-sources its legacy line from these same entries
/// ([`render_stats`]), so the two surfaces can never drift.
fn register_collectors(
    registry: &cej_obs::Registry,
    session: &ContextJoinSession,
    gate: &Arc<AdmissionGate>,
    frames: &Arc<DeltaFrameCache>,
) {
    let g = Arc::clone(gate);
    registry.counter_fn(
        "cej_admission_admitted_total",
        "Queries granted an execution slot",
        move || g.stats().admitted,
    );
    let g = Arc::clone(gate);
    registry.counter_fn(
        "cej_admission_rejected_total",
        "Queries answered ERR busy (inflight cap and wait queue both full)",
        move || g.stats().rejected,
    );
    let g = Arc::clone(gate);
    registry.gauge_fn(
        "cej_admission_inflight",
        "Queries currently holding an execution slot",
        move || g.stats().inflight as u64,
    );
    let g = Arc::clone(gate);
    registry.gauge_fn(
        "cej_admission_queued",
        "Queries currently waiting for an execution slot",
        move || g.stats().queued as u64,
    );
    let g = Arc::clone(gate);
    registry.gauge_fn(
        "cej_admission_peak_inflight",
        "Highest concurrent in-flight count observed",
        move || g.stats().peak_inflight as u64,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_index_builds_total",
        "Persistent vector indexes built (cache misses)",
        move || s.index_manager().stats().builds,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_index_hits_total",
        "Lookups served by an already-built persistent index",
        move || s.index_manager().stats().hits,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_index_invalidations_total",
        "Persistent indexes dropped by table re-registration",
        move || s.index_manager().stats().invalidations,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_index_evictions_total",
        "Persistent indexes evicted by the memory budget (LRU)",
        move || s.index_manager().stats().evictions,
    );
    let s = session.clone();
    registry.gauge_fn(
        "cej_index_resident",
        "Persistent indexes currently resident",
        move || s.index_manager().stats().resident as u64,
    );
    let s = session.clone();
    registry.gauge_fn(
        "cej_index_memory_bytes",
        "Bytes held by resident persistent indexes",
        move || s.index_manager().stats().memory_bytes as u64,
    );

    let s = session.clone();
    registry.counter_fn(
        "cej_embed_model_calls_total",
        "Real embedding-model invocations (cache misses and uncached calls)",
        move || s.embedding_caches().stats().model_calls,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_embed_cache_hits_total",
        "Embedding calls served from the shared cache",
        move || s.embedding_caches().stats().cache_hits,
    );

    registry.counter_fn(
        "cej_pool_tasks_total",
        "Task indices executed through the worker-pool scheduler",
        || cej_exec::ExecPool::metrics().tasks_executed,
    );
    registry.counter_fn(
        "cej_pool_injected_total",
        "Participation tokens submitted to the scheduler's queue",
        || cej_exec::ExecPool::metrics().injected,
    );
    registry.counter_fn(
        "cej_pool_wakeups_total",
        "Single-waiter notifies issued to sleeping scheduler workers",
        || cej_exec::ExecPool::metrics().wakeups,
    );
    registry.gauge_fn(
        "cej_pool_queue_depth",
        "Participation tokens currently queued",
        || cej_exec::ExecPool::metrics().queue_depth as u64,
    );
    registry.gauge_fn(
        "cej_pool_workers",
        "Scheduler worker threads currently alive",
        || cej_exec::ExecPool::metrics().workers as u64,
    );

    let s = session.clone();
    registry.gauge_fn(
        "cej_ivm_standing",
        "Standing queries currently registered",
        move || s.ivm_stats().standing as u64,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_ivm_deltas_applied_total",
        "Table deltas applied through the session",
        move || s.ivm_stats().deltas_applied,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_ivm_propagations_total",
        "Standing-query updates handled by exact delta propagation",
        move || s.ivm_stats().propagations,
    );
    let s = session.clone();
    registry.counter_fn(
        "cej_ivm_refreshes_total",
        "Standing-query updates handled by a full re-run",
        move || s.ivm_stats().refreshes,
    );
    registry.histogram_handle(
        "cej_ivm_propagation_latency_us",
        "Delta-propagation latency per standing-query update, microseconds",
        session.ivm_latency_histogram(),
    );

    let f = Arc::clone(frames);
    registry.counter_fn(
        "cej_frame_renders_total",
        "DELTA frame bodies rendered (fan-out cache misses)",
        move || f.stats().1,
    );
    let f = Arc::clone(frames);
    registry.counter_fn(
        "cej_frame_shares_total",
        "DELTA frame bodies served from the fan-out cache",
        move || f.stats().0,
    );

    registry.counter_fn(
        "cej_traces_captured_total",
        "Query traces captured into the in-memory ring",
        cej_obs::traces_captured,
    );
    registry.counter_fn(
        "cej_slow_queries_total",
        "Queries that crossed the slow-query threshold",
        cej_obs::slow_query_count,
    );
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("cej-server-conn-{conn_id}"))
                    .spawn(move || connection_loop(stream, shared, conn_id))
                    .expect("spawning a connection thread");
                let mut guard = connections.lock().unwrap_or_else(|e| e.into_inner());
                // reap finished connections so a long-lived server under
                // connection churn does not accumulate dead JoinHandles
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Per-connection statement cache entry.
enum Statement {
    Prepared(PreparedQuery<'static>),
    ProbeTemplate(StatementSpec),
}

fn connection_loop(stream: TcpStream, shared: Arc<ServerShared>, conn_id: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut statements: HashMap<String, Statement> = HashMap::new();
    let subscriptions: Arc<Mutex<HashMap<u64, StandingQuery>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let alive = Arc::new(AtomicBool::new(true));
    // the flusher thread owns every standing-query frame write for this
    // connection: it parks on the server's frame nudge and drains the
    // subscription mailboxes the moment an APPLY queues frames, instead of
    // waiting out the old 100ms idle tick.  The writer mutex keeps frames
    // and response payloads from interleaving.
    let flusher = {
        let writer = Arc::clone(&writer);
        let subscriptions = Arc::clone(&subscriptions);
        let shared = Arc::clone(&shared);
        let alive = Arc::clone(&alive);
        std::thread::Builder::new()
            .name(format!("cej-server-flush-{conn_id}"))
            .spawn(move || flusher_loop(&writer, &subscriptions, &shared, &alive))
            .ok()
    };
    // one session handle per connection, all sharing the server's state
    let mut session = shared.session.clone();
    let probe_table = format!("__probe_{conn_id}");
    let mut last_trace: Option<u64> = None;
    let mut line = String::new();

    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break, // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // a timeout mid-line leaves already-read bytes in `line`;
                // keep them and continue accumulating (only a completed
                // line may be cleared).  The read timeout survives purely
                // as a shutdown poll — frames are the flusher's job now.
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        if line.trim().is_empty() {
            line.clear();
            continue;
        }
        let response = match Command::parse(&line) {
            Err(message) => format!("ERR {message}\n"),
            Ok(Command::Quit) => {
                let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                let _ = w.write_all(b"OK bye\n");
                break;
            }
            Ok(command) => dispatch(
                command,
                &shared,
                &mut session,
                &mut statements,
                &subscriptions,
                &probe_table,
                &mut last_trace,
            ),
        };
        line.clear();
        {
            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
            if w.write_all(response.as_bytes()).is_err() || w.flush().is_err() {
                break;
            }
        }
        // honour shutdown between requests: a client pipelining
        // back-to-back commands never hits the read-timeout branch
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
    }
    // wind the flusher down before reaping state it reads
    alive.store(false, Ordering::Release);
    shared.nudge.notify();
    if let Some(handle) = flusher {
        let _ = handle.join();
    }
    // reap this connection's scratch state from the shared catalog and
    // deregister its standing queries so they stop accumulating frames
    let subs: Vec<u64> = {
        let guard = subscriptions.lock().unwrap_or_else(|e| e.into_inner());
        guard.keys().copied().collect()
    };
    for sub in subs {
        session.unsubscribe(sub);
    }
    session.unregister_table(&probe_table);
}

/// One connection's frame-flusher thread: parks on the server-wide
/// [`FrameNudge`] (with a 100ms fallback so shutdown and raced edges are
/// never missed) and drains the subscription mailboxes each wake.
fn flusher_loop(
    writer: &Mutex<TcpStream>,
    subscriptions: &Mutex<HashMap<u64, StandingQuery>>,
    shared: &ServerShared,
    alive: &AtomicBool,
) {
    let mut seen = 0u64;
    while alive.load(Ordering::Acquire) && !shared.shutdown.load(Ordering::Acquire) {
        seen = shared.nudge.wait(seen, Duration::from_millis(100));
        if flush_deltas(writer, subscriptions, shared).is_err() {
            break; // client gone; the reader loop notices on its side
        }
    }
}

/// Writes every pending frame of this connection's standing queries, in
/// subscription order (frames within one subscription are already ordered
/// by the mailbox).
///
/// Change-driven frames (`seq != 0`) go through the server-wide
/// [`DeltaFrameCache`]: the body is rendered once per
/// `(plan fingerprint, apply seq)` and every subscriber — on this
/// connection or any other — writes the shared allocation behind its own
/// header line.  Snapshot frames are rendered directly.  Mailbox draining
/// and body rendering happen before the writer lock is taken, so a flush
/// round never blocks a response write on render work; rounds that found
/// at least one frame count into `cej_frame_wakeups_total`.
fn flush_deltas(
    writer: &Mutex<TcpStream>,
    subscriptions: &Mutex<HashMap<u64, StandingQuery>>,
    shared: &ServerShared,
) -> std::io::Result<()> {
    let mut subs: Vec<(u64, StandingQuery)> = {
        let guard = subscriptions.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .iter()
            .map(|(sub, query)| (*sub, query.clone()))
            .collect()
    };
    subs.sort_by_key(|(sub, _)| *sub);
    let mut pending: Vec<(String, Option<Arc<String>>)> = Vec::new();
    for (sub, query) in &subs {
        let fingerprint = query.fingerprint();
        while let Some(frame) = query.poll() {
            if frame.seq == 0 {
                pending.push((render_delta(*sub, &frame), None));
            } else {
                let body = shared
                    .frames
                    .body(fingerprint, frame.seq, frame.refreshed, || {
                        render_delta_body(&frame)
                    });
                pending.push((render_delta_header(*sub, &frame), Some(body)));
            }
        }
    }
    if pending.is_empty() {
        return Ok(());
    }
    shared.frame_wakeups.inc();
    let mut writer = writer.lock().unwrap_or_else(|e| e.into_inner());
    for (header, body) in pending {
        writer.write_all(header.as_bytes())?;
        if let Some(body) = body {
            writer.write_all(body.as_bytes())?;
        }
    }
    writer.flush()
}

/// Executes one parsed command, returning the full response payload.
/// `last_trace` remembers the most recent trace id this connection's
/// queries captured — what `TRACE LAST` resolves first, so concurrent
/// connections don't read each other's traces.
fn dispatch(
    command: Command,
    shared: &ServerShared,
    session: &mut ContextJoinSession,
    statements: &mut HashMap<String, Statement>,
    subscriptions: &Mutex<HashMap<u64, StandingQuery>>,
    probe_table: &str,
    last_trace: &mut Option<u64>,
) -> String {
    match command {
        Command::Ping => "OK pong\n".to_string(),
        Command::Quit => unreachable!("handled by the connection loop"),
        Command::Stats => render_stats(shared),
        Command::Metrics => render_text(&shared.registry.render()),
        Command::Trace { target } => render_trace(target, *last_trace),
        Command::Prepare { id, spec } => match spec.as_ref() {
            StatementSpec::ProbeTemplate { .. } => {
                statements.insert(id.clone(), Statement::ProbeTemplate(*spec));
                format!("OK prepared {id} (probe template)\n")
            }
            _ => match spec
                .to_plan(None)
                .map_err(cej_err)
                .and_then(|plan| session.prepare(&plan))
            {
                Ok(prepared) => {
                    statements.insert(id.clone(), Statement::Prepared(prepared.detach()));
                    format!("OK prepared {id}\n")
                }
                Err(e) => format!("ERR {e}\n"),
            },
        },
        Command::Bind {
            id,
            new_id,
            threshold,
            at,
        } => match statements.get(&id) {
            Some(Statement::Prepared(prepared)) => {
                let bound = match at {
                    Some(index) => prepared.bind_threshold_at(index, threshold),
                    None => prepared.bind_threshold(threshold),
                };
                match bound {
                    Ok(bound) => {
                        statements.insert(new_id.clone(), Statement::Prepared(bound));
                        format!("OK bound {new_id} sim>={threshold}\n")
                    }
                    Err(e) => format!("ERR {e}\n"),
                }
            }
            Some(Statement::ProbeTemplate(_)) => {
                "ERR probe templates have no threshold to bind\n".to_string()
            }
            None => format!("ERR unknown statement `{id}`\n"),
        },
        Command::Explain { id } => match statements.get(&id) {
            Some(Statement::Prepared(prepared)) => render_text(&prepared.explain()),
            Some(Statement::ProbeTemplate(_)) => {
                "ERR probe templates plan per request; PROBE then ANALYZE\n".to_string()
            }
            None => format!("ERR unknown statement `{id}`\n"),
        },
        Command::Run { id } => {
            let Some(statement) = statements.get(&id) else {
                return format!("ERR unknown statement `{id}`\n");
            };
            let Statement::Prepared(prepared) = statement else {
                return "ERR probe templates execute via PROBE <id> <text>\n".to_string();
            };
            let trace = Trace::start(&format!("RUN {id}"));
            let response = admit_and_time(shared, &trace, || match prepared.run_traced(&trace) {
                Ok(report) => render_table(&report.table),
                Err(e) => format!("ERR {e}\n"),
            });
            if let Some(trace_id) = trace.finish() {
                *last_trace = Some(trace_id);
            }
            response
        }
        Command::Analyze { id } => {
            let Some(Statement::Prepared(prepared)) = statements.get(&id) else {
                return format!("ERR unknown or non-runnable statement `{id}`\n");
            };
            let trace = Trace::start(&format!("ANALYZE {id}"));
            let response = admit_and_time(shared, &trace, || {
                match prepared.explain_analyze_traced(&trace) {
                    Ok(analyzed) => render_text(&analyzed.text),
                    Err(e) => format!("ERR {e}\n"),
                }
            });
            if let Some(trace_id) = trace.finish() {
                *last_trace = Some(trace_id);
            }
            response
        }
        Command::Probe { id, text } => {
            let Some(Statement::ProbeTemplate(spec)) = statements.get(&id) else {
                return format!("ERR `{id}` is not a probe template\n");
            };
            let spec = spec.clone();
            let trace = Trace::start(&format!("PROBE {id}"));
            let response = admit_and_time(shared, &trace, || {
                let table = match TableBuilder::new().utf8("text", vec![text.clone()]).build() {
                    Ok(t) => t,
                    Err(e) => return format!("ERR {e}\n"),
                };
                session.register_table(probe_table, table);
                let outcome = spec
                    .to_plan(Some(probe_table))
                    .map_err(cej_err)
                    .and_then(|plan| session.execute_traced(&plan, &trace));
                match outcome {
                    Ok(report) => render_table(&report.table),
                    Err(e) => format!("ERR {e}\n"),
                }
            });
            if let Some(trace_id) = trace.finish() {
                *last_trace = Some(trace_id);
            }
            response
        }
        Command::Subscribe { id } => match statements.get(&id) {
            Some(Statement::Prepared(prepared)) => match prepared.clone().subscribe() {
                Ok(query) => {
                    let sub = query.id();
                    subscriptions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(sub, query);
                    // let the flusher pick up any seed frame promptly
                    shared.nudge.notify();
                    format!("OK subscribed {sub}\n")
                }
                Err(e) => format!("ERR {e}\n"),
            },
            Some(Statement::ProbeTemplate(_)) => {
                "ERR probe templates cannot be subscribed\n".to_string()
            }
            None => format!("ERR unknown statement `{id}`\n"),
        },
        Command::Unsubscribe { sub } => {
            let removed = subscriptions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&sub);
            if removed.is_none() {
                return format!("ERR unknown subscription `{sub}`\n");
            }
            session.unsubscribe(sub);
            format!("OK unsubscribed {sub}\n")
        }
        Command::Apply { table, spec } => {
            // apply_delta opens its own trace internally; the admission
            // span has nowhere to land, so the wrapper gets a disabled one
            let trace = Trace::disabled();
            admit_and_time(shared, &trace, || {
                let schema = match session.catalog().schema(&table) {
                    Ok(schema) => schema,
                    Err(e) => return format!("ERR {e}\n"),
                };
                let delta = match build_delta(&spec, &schema) {
                    Ok(d) => d,
                    Err(message) => return format!("ERR {message}\n"),
                };
                match session.apply_delta(&table, &delta) {
                    Ok(report) => {
                        // frames are queued: wake every connection's flusher
                        shared.nudge.notify();
                        format!(
                            "OK applied {table} v{} +{} -{} standing={} propagated={} refreshed={}\n",
                            report.version,
                            report.added_rows,
                            report.removed_rows,
                            report.standing_updated,
                            report.propagated,
                            report.refreshed,
                        )
                    }
                    Err(e) => format!("ERR {e}\n"),
                }
            })
        }
    }
}

/// Renders a `TRACE` verb response from the global capture ring and
/// slow-query log.
fn render_trace(target: TraceTarget, last_trace: Option<u64>) -> String {
    match target {
        TraceTarget::Last => match last_trace
            .and_then(cej_obs::trace_by_id)
            .or_else(cej_obs::last_trace)
        {
            Some(trace) => render_text(&trace.render()),
            None => "ERR no traces captured yet\n".to_string(),
        },
        TraceTarget::Id(id) => match cej_obs::trace_by_id(id) {
            Some(trace) => render_text(&trace.render()),
            None => format!("ERR no trace `{id}` in the capture ring\n"),
        },
        TraceTarget::Slow => {
            let slow = cej_obs::slow_queries();
            if slow.is_empty() {
                return "ERR no slow queries captured\n".to_string();
            }
            use std::fmt::Write as _;
            let mut out = String::new();
            for entry in slow {
                let _ = writeln!(
                    out,
                    "trace {} label=\"{}\" total_us={} fingerprint={:016x}",
                    entry.trace_id, entry.label, entry.total_us, entry.fingerprint
                );
            }
            render_text(&out)
        }
    }
}

/// Wraps a query body in admission control and latency accounting; time
/// spent waiting for an execution slot lands in an `admission.wait` span
/// when the query is traced.
fn admit_and_time(shared: &ServerShared, trace: &Trace, body: impl FnOnce() -> String) -> String {
    let wait = trace.span("admission.wait");
    let Ok(permit) = shared.gate.acquire() else {
        drop(wait);
        return "ERR busy (admission queue full, retry)\n".to_string();
    };
    drop(wait);
    let start = Instant::now();
    let response = body();
    let elapsed_us = start.elapsed().as_micros() as u64;
    drop(permit);
    shared.latency.observe(elapsed_us);
    shared.queries.inc();
    response
}

/// Converts protocol-level plan errors into the engine error type's display.
fn cej_err(message: String) -> cej_core::CoreError {
    cej_core::CoreError::InvalidInput(message)
}

/// Renders the `STATS` line: admission, latency, caches, indexes, pool,
/// and incremental-view maintenance counters.  Every counter and gauge is
/// re-sourced from the metrics registry by name — `STATS` is a view over
/// the same entries `METRICS` exposes, so the two surfaces cannot drift.
/// Percentiles come from the registered histograms' shared cells.  New
/// keys are only ever appended, keeping the line backward compatible.
fn render_stats(shared: &ServerShared) -> String {
    let value = |name: &str| shared.registry.value(name).unwrap_or(0);
    let latency = &shared.latency;
    let ivm = shared.session.ivm_latency_histogram();
    format!(
        "OK queries={} inflight={} queued={} admitted={} rejected={} peak_inflight={} \
         p50_us={} p95_us={} p99_us={} max_us={} \
         index_builds={} index_hits={} index_evictions={} index_resident={} index_bytes={} \
         embed_calls={} embed_hits={} \
         pool_tasks={} pool_injected={} pool_wakeups={} pool_queue_depth={} pool_workers={} \
         standing={} deltas_applied={} ivm_propagations={} ivm_refreshes={} \
         ivm_p50_us={} ivm_p95_us={} ivm_p99_us={} \
         frame_renders={} frame_shares={} frame_wakeups={}\n",
        value("cej_queries_total"),
        value("cej_admission_inflight"),
        value("cej_admission_queued"),
        value("cej_admission_admitted_total"),
        value("cej_admission_rejected_total"),
        value("cej_admission_peak_inflight"),
        latency.quantile(0.50),
        latency.quantile(0.95),
        latency.quantile(0.99),
        latency.max(),
        value("cej_index_builds_total"),
        value("cej_index_hits_total"),
        value("cej_index_evictions_total"),
        value("cej_index_resident"),
        value("cej_index_memory_bytes"),
        value("cej_embed_model_calls_total"),
        value("cej_embed_cache_hits_total"),
        value("cej_pool_tasks_total"),
        value("cej_pool_injected_total"),
        value("cej_pool_wakeups_total"),
        value("cej_pool_queue_depth"),
        value("cej_pool_workers"),
        value("cej_ivm_standing"),
        value("cej_ivm_deltas_applied_total"),
        value("cej_ivm_propagations_total"),
        value("cej_ivm_refreshes_total"),
        ivm.quantile(0.50),
        ivm.quantile(0.95),
        ivm.quantile(0.99),
        value("cej_frame_renders_total"),
        value("cej_frame_shares_total"),
        value("cej_frame_wakeups_total"),
    )
}

/// A tiny blocking client for tests, benchmarks, and the load generator:
/// sends one request line, reads one full response (`OK`/`ERR` line, or a
/// framed `ROWS`/`TEXT` payload), and collects asynchronous `DELTA` frames
/// ([`Client::wait_delta`]).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// `DELTA` frames that arrived while a response was being read.
    pending: VecDeque<DeltaFrame>,
}

/// One streamed standing-query frame, as parsed off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFrame {
    /// Subscription id the frame belongs to.
    pub subscription: u64,
    /// Base-table version after the delta that produced this frame (0 for
    /// overflow snapshot frames).
    pub version: u64,
    /// Result rows added.
    pub added: usize,
    /// Result rows removed.
    pub removed: usize,
    /// `delta`, `refresh`, or `snapshot`.
    pub kind: String,
    /// Header + signed (`+`/`-` prefixed) rows, as sent.
    pub lines: Vec<String>,
    /// FNV-1a checksum the server computed over the payload.
    pub checksum: u64,
}

/// One parsed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK <detail>`.
    Ok(String),
    /// `ERR <message>`.
    Err(String),
    /// A `ROWS` payload: rows as raw tab-separated lines (header first) and
    /// the server-computed checksum from the `END` line.
    Rows {
        /// Header + data lines.
        lines: Vec<String>,
        /// FNV-1a checksum the server computed over the payload.
        checksum: u64,
    },
    /// A `TEXT` payload.
    Text(Vec<String>),
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            pending: VecDeque::new(),
        })
    }

    /// Sends one request line and reads the complete response.  `DELTA`
    /// frames the server flushed before the response are stashed for
    /// [`Client::wait_delta`], never lost.
    ///
    /// # Errors
    /// Propagates I/O errors and malformed framing.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let first = loop {
            let mut first = String::new();
            self.read_line(&mut first)?;
            let first = first.trim_end().to_string();
            if first.starts_with("DELTA ") {
                let frame = self.read_delta_body(&first)?;
                self.pending.push_back(frame);
                continue;
            }
            break first;
        };
        if let Some(detail) = first.strip_prefix("OK") {
            return Ok(Response::Ok(detail.trim().to_string()));
        }
        if let Some(message) = first.strip_prefix("ERR ") {
            return Ok(Response::Err(message.to_string()));
        }
        if let Some(counts) = first.strip_prefix("ROWS ") {
            let rows: usize = counts
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| bad_frame(&first))?;
            let mut lines = Vec::with_capacity(rows + 1);
            for _ in 0..rows + 1 {
                let mut l = String::new();
                self.read_line(&mut l)?;
                lines.push(l.trim_end().to_string());
            }
            let mut end = String::new();
            self.read_line(&mut end)?;
            let checksum = end
                .trim_end()
                .strip_prefix("END ")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| bad_frame(&end))?;
            return Ok(Response::Rows { lines, checksum });
        }
        if let Some(count) = first.strip_prefix("TEXT ") {
            let n: usize = count.parse().map_err(|_| bad_frame(&first))?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                let mut l = String::new();
                self.read_line(&mut l)?;
                lines.push(l.trim_end().to_string());
            }
            return Ok(Response::Text(lines));
        }
        Err(bad_frame(&first))
    }

    /// Waits up to `timeout` for the next asynchronous `DELTA` frame —
    /// stashed ones first, then the wire.  Returns `None` on timeout.
    ///
    /// # Errors
    /// Propagates I/O errors and malformed framing.
    pub fn wait_delta(&mut self, timeout: Duration) -> std::io::Result<Option<DeltaFrame>> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(Some(frame));
        }
        let deadline = Instant::now() + timeout;
        self.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(50)))?;
        let mut buf = String::new();
        let frame = loop {
            match self.reader.read_line(&mut buf) {
                Ok(0) => break None, // server closed: no more frames
                Ok(_) => {
                    let line = buf.trim_end().to_string();
                    buf.clear();
                    if line.is_empty() {
                        continue;
                    }
                    if !line.starts_with("DELTA ") {
                        self.reader.get_ref().set_read_timeout(None)?;
                        return Err(bad_frame(&line));
                    }
                    // the header is in: the body follows immediately, read
                    // it blocking
                    self.reader.get_ref().set_read_timeout(None)?;
                    break Some(self.read_delta_body(&line)?);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // a timeout mid-line keeps the partial bytes in `buf`
                    if Instant::now() >= deadline && buf.is_empty() {
                        break None;
                    }
                }
                Err(e) => {
                    self.reader.get_ref().set_read_timeout(None)?;
                    return Err(e);
                }
            }
        };
        self.reader.get_ref().set_read_timeout(None)?;
        Ok(frame)
    }

    /// Reads the body of a `DELTA` frame whose header line was just read.
    fn read_delta_body(&mut self, header: &str) -> std::io::Result<DeltaFrame> {
        let fields: Vec<&str> = header.split_whitespace().collect();
        let ["DELTA", sub, version, added, removed, _cols, kind] = fields.as_slice() else {
            return Err(bad_frame(header));
        };
        let parse =
            |token: &str| -> std::io::Result<u64> { token.parse().map_err(|_| bad_frame(header)) };
        let (subscription, version) = (parse(sub)?, parse(version)?);
        let (added, removed) = (parse(added)? as usize, parse(removed)? as usize);
        let mut lines = Vec::with_capacity(1 + added + removed);
        for _ in 0..1 + added + removed {
            let mut l = String::new();
            self.read_line(&mut l)?;
            lines.push(l.trim_end().to_string());
        }
        let mut end = String::new();
        self.read_line(&mut end)?;
        let checksum = end
            .trim_end()
            .strip_prefix("END ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad_frame(&end))?;
        Ok(DeltaFrame {
            subscription,
            version,
            added,
            removed,
            kind: (*kind).to_string(),
            lines,
            checksum,
        })
    }

    /// Reads one line, retrying through read timeouts (the server sets none
    /// on client sockets, but loaded servers may respond slowly).
    fn read_line(&mut self, buf: &mut String) -> std::io::Result<()> {
        loop {
            match self.reader.read_line(buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => return Ok(()),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn bad_frame(line: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed response frame: `{line}`"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_embedding::{FastTextConfig, FastTextModel};

    /// Star-schema session: orders → customers → regions by hash joins,
    /// products by similarity on the order note.
    fn star_session() -> ContextJoinSession {
        let mut s = ContextJoinSession::new();
        s.register_table(
            "orders",
            TableBuilder::new()
                .int64("order_id", vec![1, 2, 3, 4, 5, 6])
                .int64("cust_fk", vec![10, 10, 20, 20, 30, 30])
                .int64("total", vec![50, 150, 250, 80, 120, 300])
                .utf8(
                    "note",
                    vec![
                        "barbecue grill".into(),
                        "database server".into(),
                        "barbecue tongs".into(),
                        "laptop sleeve".into(),
                        "database book".into(),
                        "garden barbecue".into(),
                    ],
                )
                .build()
                .unwrap(),
        );
        s.register_table(
            "customers",
            TableBuilder::new()
                .int64("cust_id", vec![10, 20, 30])
                .int64("region_fk", vec![100, 100, 200])
                .utf8(
                    "cust_name",
                    vec!["ada".into(), "grace".into(), "edsger".into()],
                )
                .build()
                .unwrap(),
        );
        s.register_table(
            "regions",
            TableBuilder::new()
                .int64("region_id", vec![100, 200])
                .utf8("region_name", vec!["west".into(), "east".into()])
                .build()
                .unwrap(),
        );
        s.register_table(
            "products",
            TableBuilder::new()
                .int64("product_id", vec![1000, 2000, 3000])
                .utf8(
                    "title",
                    vec![
                        "barbecues and grills".into(),
                        "database systems".into(),
                        "notebook computers".into(),
                    ],
                )
                .build()
                .unwrap(),
        );
        let model = FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap();
        s.register_model("ft", model);
        for table in ["orders", "customers", "regions", "products"] {
            s.catalog().analyze(table).unwrap();
        }
        s
    }

    const FOUR_TABLE_QUERY: &str = "PREPARE q QUERY orders \
         JOIN customers ON orders.cust_fk=customers.cust_id \
         JOIN regions ON customers.region_fk=regions.region_id \
         EJOIN products ON note~title MODEL ft SIM 0.4 \
         WHERE orders.total >= 100";

    #[test]
    fn four_table_query_round_trips_with_verified_checksum() {
        let mut server = Server::start(star_session(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            client.request(FOUR_TABLE_QUERY).unwrap(),
            Response::Ok(_)
        ));
        let Response::Rows { lines, checksum } = client.request("RUN q").unwrap() else {
            panic!("expected rows");
        };
        // re-derive the checksum client-side from the framed payload: the
        // server's END line must cover exactly the header and rows it sent
        let mut payload = String::new();
        for line in &lines {
            payload.push_str(line);
            payload.push('\n');
        }
        assert_eq!(checksum, protocol::fnv1a(payload.as_bytes()));
        // header carries the 4-table output schema
        let header = &lines[0];
        for column in ["l_order_id", "l_cust_name", "l_region_name", "r_title"] {
            assert!(header.contains(column), "header missing {column}: {header}");
        }
        // the >=100 filter keeps the 300-total garden-barbecue order, whose
        // customer sits in the east region
        assert!(
            lines[1..]
                .iter()
                .any(|l| l.contains("garden barbecue") && l.contains("east")),
            "expected east-region barbecue row in {lines:?}"
        );
        assert!(
            lines[1..].iter().all(|l| !l.contains("\t50\t")),
            "filtered-out total leaked into {lines:?}"
        );
        // repeat runs are byte-identical (prepared-statement contract)
        let Response::Rows {
            checksum: again, ..
        } = client.request("RUN q").unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(checksum, again);
        // the plan and its estimates render
        let Response::Text(explain) = client.request("EXPLAIN q").unwrap() else {
            panic!("expected text");
        };
        assert!(
            explain.iter().any(|l| l.contains("HashJoin")),
            "{explain:?}"
        );
        server.shutdown();
    }

    /// Extracts `<sub>` from an `OK subscribed <sub>` detail.
    fn sub_id(response: Response) -> u64 {
        let Response::Ok(detail) = response else {
            panic!("expected OK subscribed, got {response:?}");
        };
        detail
            .strip_prefix("subscribed ")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed subscribe detail `{detail}`"))
    }

    /// Re-derives a frame's checksum from its framed payload.
    fn frame_checksum(frame: &DeltaFrame) -> u64 {
        let mut payload = String::new();
        for line in &frame.lines {
            payload.push_str(line);
            payload.push('\n');
        }
        protocol::fnv1a(payload.as_bytes())
    }

    #[test]
    fn apply_streams_delta_frames_to_standing_subscriptions() {
        let mut server = Server::start(star_session(), ServerConfig::default()).unwrap();
        let wait = Duration::from_secs(10);

        // subscriber 1: the multi-way four-table query
        let mut multi = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            multi.request(FOUR_TABLE_QUERY).unwrap(),
            Response::Ok(_)
        ));
        let multi_sub = sub_id(multi.request("SUBSCRIBE q").unwrap());

        // subscriber 2: a top-k ejoin over the same fact table
        let mut topk = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            topk.request("PREPARE t QUERY orders EJOIN products ON note~title MODEL ft TOPK 1")
                .unwrap(),
            Response::Ok(_)
        ));
        let topk_sub = sub_id(topk.request("SUBSCRIBE t").unwrap());

        // a third connection mutates the fact table: both subscribers get
        // exact checksummed frames
        let mut applier = Client::connect(server.local_addr()).unwrap();
        let Response::Ok(detail) = applier
            .request("APPLY orders APPEND 7|30|500|garden barbecue")
            .unwrap()
        else {
            panic!("expected OK applied");
        };
        assert!(detail.starts_with("applied orders v1 +1 -0"), "{detail}");
        assert!(detail.contains("standing=2"), "{detail}");

        let frame = multi.wait_delta(wait).unwrap().expect("multi-way frame");
        assert_eq!(frame.subscription, multi_sub);
        assert_eq!(frame.version, 1);
        assert_eq!(frame.kind, "delta", "append must propagate incrementally");
        assert_eq!(frame.removed, 0);
        assert!(
            frame.added >= 1,
            "appended order must join through: {frame:?}"
        );
        assert_eq!(frame.checksum, frame_checksum(&frame));
        // the new order (cust 30 → east region) rides every added row
        assert!(
            frame.lines[1..]
                .iter()
                .all(|l| l.starts_with('+') && l.contains("garden barbecue") && l.contains("east")),
            "{frame:?}"
        );

        let frame = topk.wait_delta(wait).unwrap().expect("top-k frame");
        assert_eq!(frame.subscription, topk_sub);
        assert_eq!((frame.added, frame.removed), (1, 0), "{frame:?}");
        assert_eq!(frame.kind, "delta");
        assert_eq!(frame.checksum, frame_checksum(&frame));

        // deleting the row streams the inverse diff to both subscribers
        let Response::Ok(detail) = applier.request("APPLY orders DELETE order_id 7").unwrap()
        else {
            panic!("expected OK applied");
        };
        assert!(detail.starts_with("applied orders v2 +0 -1"), "{detail}");

        let frame = multi
            .wait_delta(wait)
            .unwrap()
            .expect("multi-way delete frame");
        assert_eq!(frame.version, 2);
        assert_eq!(frame.added, 0);
        assert!(frame.removed >= 1, "{frame:?}");
        assert!(
            frame.lines[1..].iter().all(|l| l.starts_with('-')),
            "{frame:?}"
        );
        let frame = topk.wait_delta(wait).unwrap().expect("top-k delete frame");
        assert_eq!((frame.added, frame.removed), (0, 1), "{frame:?}");

        // the maintained results drained back to the seed state: a fresh
        // RUN of the same statement is byte-identical to before the churn
        let Response::Rows { lines, .. } = multi.request("RUN q").unwrap() else {
            panic!("expected rows");
        };
        assert!(
            lines[1..].iter().all(|l| !l.contains("\t500\t")),
            "{lines:?}"
        );

        // UNSUBSCRIBE stops the stream for that subscriber only
        assert!(matches!(
            topk.request(&format!("UNSUBSCRIBE {topk_sub}")).unwrap(),
            Response::Ok(_)
        ));
        assert!(matches!(
            applier
                .request("APPLY orders UPSERT order_id 2|10|175|garden barbecue")
                .unwrap(),
            Response::Ok(_)
        ));
        let frame = multi.wait_delta(wait).unwrap().expect("upsert frame");
        assert_eq!(frame.version, 3);
        assert!(
            topk.wait_delta(Duration::from_millis(300))
                .unwrap()
                .is_none(),
            "unsubscribed connection must not receive frames"
        );

        // server stats expose the maintenance counters
        let Response::Ok(stats) = applier.request("STATS").unwrap() else {
            panic!("expected stats");
        };
        assert!(stats.contains("standing=1"), "{stats}");
        assert!(stats.contains("deltas_applied=3"), "{stats}");
        assert!(stats.contains("ivm_p50_us="), "{stats}");

        // unknown ids and malformed payloads answer ERR, never disconnect
        assert!(matches!(
            applier.request("SUBSCRIBE ghost").unwrap(),
            Response::Err(_)
        ));
        assert!(matches!(
            applier.request("UNSUBSCRIBE 9999").unwrap(),
            Response::Err(_)
        ));
        assert!(matches!(
            applier.request("APPLY orders APPEND 1|2").unwrap(),
            Response::Err(_)
        ));
        assert!(matches!(
            applier.request("APPLY ghost APPEND 1|2|3|x").unwrap(),
            Response::Err(_)
        ));
        server.shutdown();
    }

    #[test]
    fn same_statement_fanout_renders_each_frame_body_once() {
        let mut server = Server::start(star_session(), ServerConfig::default()).unwrap();
        let wait = Duration::from_secs(10);

        // two subscriptions over the SAME prepared statement on one
        // connection: flush order within a connection is deterministic
        // (ascending subscription id), so the first write renders the frame
        // body and the second must be served from the shared cache
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            client
                .request("PREPARE t QUERY orders EJOIN products ON note~title MODEL ft TOPK 1")
                .unwrap(),
            Response::Ok(_)
        ));
        let sub_a = sub_id(client.request("SUBSCRIBE t").unwrap());
        let sub_b = sub_id(client.request("SUBSCRIBE t").unwrap());
        assert_ne!(sub_a, sub_b);

        let mut applier = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            applier
                .request("APPLY orders APPEND 7|30|500|garden barbecue")
                .unwrap(),
            Response::Ok(_)
        ));

        // both subscriptions stream the change; everything but the header's
        // subscription id is byte-identical (same body allocation)
        let first = client.wait_delta(wait).unwrap().expect("first frame");
        let second = client.wait_delta(wait).unwrap().expect("second frame");
        assert_eq!(
            (first.subscription, second.subscription),
            (sub_a.min(sub_b), sub_a.max(sub_b))
        );
        assert_eq!(first.version, second.version);
        assert_eq!(first.kind, second.kind);
        assert_eq!(first.lines, second.lines);
        assert_eq!(first.checksum, second.checksum);
        assert_eq!(first.checksum, frame_checksum(&first));

        // the cache proves the fan-out: one render, one shared write
        let Response::Ok(stats) = applier.request("STATS").unwrap() else {
            panic!("expected stats");
        };
        assert!(stats.contains("frame_renders=1"), "{stats}");
        assert!(stats.contains("frame_shares=1"), "{stats}");

        // a second apply reuses nothing across versions: render counts grow
        assert!(matches!(
            applier.request("APPLY orders DELETE order_id 7").unwrap(),
            Response::Ok(_)
        ));
        let d1 = client.wait_delta(wait).unwrap().expect("delete frame a");
        let d2 = client.wait_delta(wait).unwrap().expect("delete frame b");
        assert_eq!(d1.lines, d2.lines);
        let Response::Ok(stats) = applier.request("STATS").unwrap() else {
            panic!("expected stats");
        };
        assert!(stats.contains("frame_renders=2"), "{stats}");
        assert!(stats.contains("frame_shares=2"), "{stats}");
        server.shutdown();
    }

    #[test]
    fn bind_at_targets_one_of_two_thresholds_over_the_wire() {
        let mut session = star_session();
        session.register_table(
            "slogans",
            TableBuilder::new()
                .utf8(
                    "slogan",
                    vec!["grills for barbecue fans".into(), "fast databases".into()],
                )
                .build()
                .unwrap(),
        );
        session.catalog().analyze("slogans").unwrap();
        let mut server = Server::start(session, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            client
                .request(
                    "PREPARE q2 QUERY orders EJOIN products ON note~title MODEL ft SIM 0.4 \
                     EJOIN slogans ON l_note~slogan MODEL ft SIM 0.4"
                )
                .unwrap(),
            Response::Ok(_)
        ));
        // untargeted BIND on a two-threshold plan is ambiguous
        let Response::Err(message) = client.request("BIND q2 q2hi 0.9").unwrap() else {
            panic!("expected ERR");
        };
        assert!(message.contains("ambiguous threshold bind"), "{message}");
        // targeted BIND succeeds and the statement runs
        assert!(matches!(
            client.request("BIND q2 q2hi 0.99 AT 0").unwrap(),
            Response::Ok(_)
        ));
        assert!(matches!(
            client.request("RUN q2hi").unwrap(),
            Response::Rows { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn metrics_verb_exposes_every_stat_family() {
        let mut server = Server::start(star_session(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            client.request(FOUR_TABLE_QUERY).unwrap(),
            Response::Ok(_)
        ));
        assert!(matches!(
            client.request("RUN q").unwrap(),
            Response::Rows { .. }
        ));
        let Response::Text(lines) = client.request("METRICS").unwrap() else {
            panic!("expected TEXT exposition");
        };
        let text = lines.join("\n");
        for family in [
            "cej_queries_total",
            "cej_admission_admitted_total",
            "cej_query_latency_us_bucket",
            "cej_query_latency_us_count",
            "cej_index_builds_total",
            "cej_embed_model_calls_total",
            "cej_pool_tasks_total",
            "cej_ivm_deltas_applied_total",
            "cej_ivm_propagation_latency_us_count",
            "cej_frame_renders_total",
            "cej_frame_wakeups_total",
            "cej_traces_captured_total",
        ] {
            assert!(text.contains(family), "metrics missing {family}:\n{text}");
        }
        assert!(
            text.contains("# HELP cej_queries_total")
                && text.contains("# TYPE cej_queries_total counter"),
            "{text}"
        );
        // one RUN went through: the counter and latency histogram saw it
        assert!(text.contains("cej_queries_total 1"), "{text}");
        assert!(text.contains("cej_query_latency_us_count 1"), "{text}");
        // the in-process accessor serves the same exposition
        assert!(server.metrics().contains("cej_queries_total"));
        server.shutdown();
    }

    #[test]
    fn trace_verbs_render_the_span_tree_of_the_last_query() {
        let mut server = Server::start(star_session(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // nothing traced on this connection yet is only an error when the
        // global ring is also empty, which concurrent tests may not
        // guarantee — so don't assert the empty case here
        assert!(matches!(
            client.request(FOUR_TABLE_QUERY).unwrap(),
            Response::Ok(_)
        ));
        assert!(matches!(
            client.request("RUN q").unwrap(),
            Response::Rows { .. }
        ));
        let Response::Text(lines) = client.request("TRACE LAST").unwrap() else {
            panic!("expected TEXT trace");
        };
        let text = lines.join("\n");
        assert!(text.contains("label=\"RUN q\""), "{text}");
        for span in [
            "phase.rewrite",
            "phase.order",
            "phase.lower",
            "phase.execute",
        ] {
            assert!(text.contains(span), "trace missing {span}:\n{text}");
        }
        assert!(text.contains("admission.wait"), "{text}");
        assert!(text.contains("HashJoin"), "{text}");
        // TRACE <id> answers the same tree; a bogus id answers ERR
        let trace_id = lines[0]
            .split_whitespace()
            .nth(1)
            .and_then(|t| t.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("malformed trace header `{}`", lines[0]));
        let Response::Text(by_id) = client.request(&format!("TRACE {trace_id}")).unwrap() else {
            panic!("expected TEXT trace by id");
        };
        assert_eq!(lines, by_id);
        assert!(matches!(
            client.request("TRACE 18446744073709551614").unwrap(),
            Response::Err(_)
        ));
        server.shutdown();
    }

    #[test]
    fn apply_wakes_the_frame_flusher_without_waiting_for_an_idle_tick() {
        let mut server = Server::start(star_session(), ServerConfig::default()).unwrap();
        let wait = Duration::from_secs(10);
        let mut subscriber = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            subscriber
                .request("PREPARE t QUERY orders EJOIN products ON note~title MODEL ft TOPK 1")
                .unwrap(),
            Response::Ok(_)
        ));
        let sub = sub_id(subscriber.request("SUBSCRIBE t").unwrap());

        let mut applier = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            applier
                .request("APPLY orders APPEND 7|30|500|garden barbecue")
                .unwrap(),
            Response::Ok(_)
        ));
        let frame = subscriber.wait_delta(wait).unwrap().expect("delta frame");
        assert_eq!(frame.subscription, sub);
        // the flusher round that delivered it counted a wakeup
        let Response::Ok(stats) = applier.request("STATS").unwrap() else {
            panic!("expected stats");
        };
        let wakeups: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("frame_wakeups="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no frame_wakeups in `{stats}`"));
        assert!(wakeups >= 1, "{stats}");
        server.shutdown();
    }
}
