//! Per-query structured tracing: spans with monotonic clocks, parent
//! links, and typed attributes, recorded into a bounded in-process ring.
//!
//! ## Cost model
//!
//! A [`Trace`] is either *sampled* (it holds an `Arc` of span storage) or
//! *disabled* (`None` inside).  Every recording call first branches on
//! that flag; the disabled path performs **no allocation and no locking**,
//! which is what lets trace calls sit on the query path unconditionally.
//! Sampled recording takes one short mutex per span open/close — queries
//! record a handful of spans, morsel-level work is aggregated into the
//! per-operator metrics the executor already maintains per worker and only
//! converted into spans after the run, so the tracer never contends on the
//! morsel hot path.
//!
//! ## Policy knobs
//!
//! * `CEJ_TRACE_SAMPLE` — sampling rate for [`Trace::start`]: `1` / unset
//!   traces every query, `0` / `off` none, a fraction `r` every
//!   `round(1/r)`-th ([`set_trace_sample`] overrides at runtime).
//! * `CEJ_SLOW_QUERY_MS` — queries at or above this total wall time are
//!   recorded in the slow-query log with their full trace and plan
//!   fingerprint, *even when sampling is off* (the execution layer
//!   force-captures them post-hoc from its always-on operator metrics).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Free text.
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v:.2}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Identifies a span within its trace (index into the span table; the root
/// span is always id 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Parent span id (`None` only for the root).
    pub parent: Option<u32>,
    /// Span name (operator, phase, or event).
    pub name: String,
    /// Start offset from the trace origin, microseconds (monotonic clock).
    pub start_us: u64,
    /// Wall duration in microseconds (0 for point events).
    pub dur_us: u64,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

struct TraceInner {
    id: u64,
    label: String,
    origin: Instant,
    fingerprint: AtomicU64,
    finished: AtomicBool,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A per-query span recorder.  Cheap to clone (an `Arc` — or nothing at
/// all when disabled); see the module docs for the cost model.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

/// RAII guard for an open span: records the duration on drop.
pub struct SpanGuard {
    trace: Trace,
    id: SpanId,
}

impl Trace {
    /// A trace honoring the sampling policy: sampled per
    /// `CEJ_TRACE_SAMPLE`, disabled otherwise.
    pub fn start(label: &str) -> Trace {
        if should_sample() {
            Trace::forced(label)
        } else {
            Trace::disabled()
        }
    }

    /// An always-sampled trace (slow-query capture, tests, `obs_gate`).
    pub fn forced(label: &str) -> Trace {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let inner = TraceInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            label: label.to_string(),
            origin: Instant::now(),
            fingerprint: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            spans: Mutex::new(vec![SpanRecord {
                parent: None,
                name: label.to_string(),
                start_us: 0,
                dur_us: 0,
                attrs: Vec::new(),
            }]),
        };
        Trace {
            inner: Some(Arc::new(inner)),
        }
    }

    /// The no-op trace: every call branches out without allocating.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_sampled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-unique trace id (None when disabled).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// The root span (always id 0).
    pub fn root(&self) -> SpanId {
        SpanId(0)
    }

    /// Attaches the executed plan's fingerprint (rendered by `TRACE` and
    /// carried into the slow-query log).
    pub fn set_fingerprint(&self, fingerprint: u64) {
        if let Some(inner) = &self.inner {
            inner.fingerprint.store(fingerprint, Ordering::Relaxed);
        }
    }

    /// Opens a child span of the root.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_under(self.root(), name)
    }

    /// Opens a child span of `parent`.
    pub fn span_under(&self, parent: SpanId, name: &str) -> SpanGuard {
        let id = match &self.inner {
            None => SpanId(0),
            Some(inner) => {
                let start_us = inner.origin.elapsed().as_micros() as u64;
                let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
                let id = SpanId(spans.len() as u32);
                spans.push(SpanRecord {
                    parent: Some(parent.0),
                    name: name.to_string(),
                    start_us,
                    dur_us: 0,
                    attrs: Vec::new(),
                });
                id
            }
        };
        SpanGuard {
            trace: self.clone(),
            id,
        }
    }

    /// Records a completed span with an explicit start offset and duration
    /// — how per-operator timings measured by the executor's own metrics
    /// are converted into spans after the run.
    pub fn add_span(
        &self,
        parent: SpanId,
        name: &str,
        start_us: u64,
        dur_us: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(0);
        };
        let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        let id = SpanId(spans.len() as u32);
        spans.push(SpanRecord {
            parent: Some(parent.0),
            name: name.to_string(),
            start_us,
            dur_us,
            attrs,
        });
        id
    }

    /// Attaches an attribute to a span.
    pub fn attr_on(&self, span: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(inner) = &self.inner {
            let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(record) = spans.get_mut(span.0 as usize) {
                record.attrs.push((key, value.into()));
            }
        }
    }

    /// Attaches an attribute to the root span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.attr_on(self.root(), key, value);
    }

    /// Finalises the trace: closes the root span, publishes the trace into
    /// the bounded ring, and — when the total wall time reaches the
    /// `CEJ_SLOW_QUERY_MS` threshold — records a slow-query log entry.
    /// Returns the trace id, `None` when disabled.  Idempotent.
    pub fn finish(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        if inner.finished.swap(true, Ordering::AcqRel) {
            return Some(inner.id);
        }
        let total_us = inner.origin.elapsed().as_micros() as u64;
        let spans = {
            let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(root) = spans.first_mut() {
                root.dur_us = total_us;
            }
            spans.clone()
        };
        let finished = Arc::new(FinishedTrace {
            id: inner.id,
            label: inner.label.clone(),
            fingerprint: inner.fingerprint.load(Ordering::Relaxed),
            total_us,
            spans,
        });
        publish(finished);
        Some(inner.id)
    }
}

impl SpanGuard {
    /// The recorded span's id (parent for nested spans).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches an attribute to this span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.trace.attr_on(self.id, key, value);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.trace.inner {
            let elapsed = inner.origin.elapsed().as_micros() as u64;
            let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(record) = spans.get_mut(self.id.0 as usize) {
                record.dur_us = elapsed.saturating_sub(record.start_us);
            }
        }
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Trace(disabled)"),
            Some(inner) => f
                .debug_struct("Trace")
                .field("id", &inner.id)
                .field("label", &inner.label)
                .finish(),
        }
    }
}

/// A completed, immutable trace as stored in the ring.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// Process-unique trace id.
    pub id: u64,
    /// The root label (verb and statement, or `query`).
    pub label: String,
    /// Physical-plan fingerprint (0 when not set).
    pub fingerprint: u64,
    /// Total wall time of the traced request, microseconds.
    pub total_us: u64,
    /// All recorded spans; index 0 is the root.
    pub spans: Vec<SpanRecord>,
}

impl FinishedTrace {
    /// Renders the span tree: one header line, then one line per span,
    /// indented by depth, with wall times and attributes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} label=\"{}\" total_us={} spans={} fingerprint={:016x}",
            self.id,
            self.label,
            self.total_us,
            self.spans.len(),
            self.fingerprint,
        );
        // children in recording order, grouped under their parents
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (idx, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                if (parent as usize) < self.spans.len() && parent as usize != idx {
                    children[parent as usize].push(idx);
                }
            }
        }
        let mut stack = vec![(0usize, 0usize)];
        while let Some((idx, depth)) = stack.pop() {
            let span = &self.spans[idx];
            let mut attrs = String::new();
            for (key, value) in &span.attrs {
                let _ = write!(attrs, " {key}={value}");
            }
            let _ = writeln!(
                out,
                "{}{} {}us{}",
                "  ".repeat(depth),
                span.name,
                span.dur_us,
                attrs
            );
            for child in children[idx].iter().rev() {
                stack.push((*child, depth + 1));
            }
        }
        out
    }
}

/// Bounded ring of recently finished traces.
const TRACE_RING_CAPACITY: usize = 128;
/// Bounded slow-query log depth.
const SLOW_LOG_CAPACITY: usize = 64;

/// One slow-query log entry.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The captured trace's id (look it up with [`trace_by_id`]).
    pub trace_id: u64,
    /// The trace label (verb and statement).
    pub label: String,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Physical-plan fingerprint (0 when unknown).
    pub fingerprint: u64,
}

struct Store {
    ring: Mutex<VecDeque<Arc<FinishedTrace>>>,
    slow: Mutex<VecDeque<SlowQuery>>,
    captured: AtomicU64,
    slow_count: AtomicU64,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        ring: Mutex::new(VecDeque::new()),
        slow: Mutex::new(VecDeque::new()),
        captured: AtomicU64::new(0),
        slow_count: AtomicU64::new(0),
    })
}

fn publish(trace: Arc<FinishedTrace>) {
    let s = store();
    s.captured.fetch_add(1, Ordering::Relaxed);
    if let Some(limit) = slow_query_us() {
        if trace.total_us >= limit {
            s.slow_count.fetch_add(1, Ordering::Relaxed);
            let mut slow = s.slow.lock().unwrap_or_else(|e| e.into_inner());
            if slow.len() >= SLOW_LOG_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(SlowQuery {
                trace_id: trace.id,
                label: trace.label.clone(),
                total_us: trace.total_us,
                fingerprint: trace.fingerprint,
            });
        }
    }
    let mut ring = s.ring.lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() >= TRACE_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(trace);
}

/// Looks a finished trace up by id (while it is still in the ring).
pub fn trace_by_id(id: u64) -> Option<Arc<FinishedTrace>> {
    let ring = store().ring.lock().unwrap_or_else(|e| e.into_inner());
    ring.iter().rev().find(|t| t.id == id).cloned()
}

/// The most recently finished trace, if any.
pub fn last_trace() -> Option<Arc<FinishedTrace>> {
    let ring = store().ring.lock().unwrap_or_else(|e| e.into_inner());
    ring.back().cloned()
}

/// Total traces captured into the ring since process start.
pub fn traces_captured() -> u64 {
    store().captured.load(Ordering::Relaxed)
}

/// Total slow-query log entries recorded since process start.
pub fn slow_query_count() -> u64 {
    store().slow_count.load(Ordering::Relaxed)
}

/// The slow-query log, oldest first (bounded window).
pub fn slow_queries() -> Vec<SlowQuery> {
    store()
        .slow
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Sampling cadence: 0 = never, 1 = every query, N = every N-th.
fn sample_every_cell() -> &'static AtomicU64 {
    static CELL: OnceLock<AtomicU64> = OnceLock::new();
    CELL.get_or_init(|| {
        let every = match std::env::var("CEJ_TRACE_SAMPLE") {
            Err(_) => 1,
            Ok(raw) => parse_sample(&raw),
        };
        AtomicU64::new(every)
    })
}

fn parse_sample(raw: &str) -> u64 {
    match raw.trim() {
        "off" | "never" | "0" | "0.0" => 0,
        "on" | "always" => 1,
        other => match other.parse::<f64>() {
            Ok(rate) if rate <= 0.0 => 0,
            Ok(rate) if rate >= 1.0 => 1,
            Ok(rate) => (1.0 / rate).round() as u64,
            Err(_) => 1,
        },
    }
}

/// Overrides the `CEJ_TRACE_SAMPLE` policy at runtime: a rate in `[0, 1]`
/// (0 disables sampling, 1 traces every query).
pub fn set_trace_sample(rate: f64) {
    let every = if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        1
    } else {
        (1.0 / rate).round() as u64
    };
    sample_every_cell().store(every, Ordering::Relaxed);
}

fn should_sample() -> bool {
    match sample_every_cell().load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        every => {
            static TICKS: AtomicU64 = AtomicU64::new(0);
            TICKS.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
        }
    }
}

/// Slow-query threshold in microseconds (`u64::MAX` sentinel = disabled).
fn slow_us_cell() -> &'static AtomicU64 {
    static CELL: OnceLock<AtomicU64> = OnceLock::new();
    CELL.get_or_init(|| {
        let us = std::env::var("CEJ_SLOW_QUERY_MS")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .map(|ms| ms.saturating_mul(1_000))
            .unwrap_or(u64::MAX);
        AtomicU64::new(us)
    })
}

/// The active slow-query threshold in microseconds, `None` when disabled.
pub fn slow_query_us() -> Option<u64> {
    match slow_us_cell().load(Ordering::Relaxed) {
        u64::MAX => None,
        us => Some(us),
    }
}

/// Overrides the `CEJ_SLOW_QUERY_MS` threshold at runtime (`None`
/// disables slow-query capture).
pub fn set_slow_query_ms(ms: Option<u64>) {
    let us = ms.map(|m| m.saturating_mul(1_000)).unwrap_or(u64::MAX);
    slow_us_cell().store(us, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_returns_no_id() {
        let trace = Trace::disabled();
        assert!(!trace.is_sampled());
        let guard = trace.span("work");
        guard.attr("rows", 3u64);
        drop(guard);
        trace.attr("k", "v");
        assert_eq!(trace.finish(), None);
        assert_eq!(trace.id(), None);
    }

    #[test]
    fn sampled_trace_builds_a_parented_span_tree() {
        let trace = Trace::forced("unit");
        trace.attr("kind", "test");
        let outer = trace.span("outer");
        let inner = trace.span_under(outer.id(), "inner");
        inner.attr("rows", 42u64);
        drop(inner);
        drop(outer);
        trace.add_span(trace.root(), "synth", 0, 7, vec![("micros", 7u64.into())]);
        let id = trace.finish().expect("sampled traces finish with an id");
        let stored = trace_by_id(id).expect("trace must be in the ring");
        assert_eq!(stored.spans.len(), 4);
        assert_eq!(stored.spans[0].parent, None);
        assert_eq!(stored.spans[2].name, "inner");
        assert_eq!(stored.spans[2].parent, Some(1));
        let rendered = stored.render();
        assert!(rendered.contains("label=\"unit\""), "{rendered}");
        assert!(rendered.contains("    inner"), "{rendered}");
        assert!(rendered.contains("rows=42"), "{rendered}");
        assert!(rendered.contains("synth 7us"), "{rendered}");
        // finish is idempotent
        assert_eq!(trace.finish(), Some(id));
    }

    #[test]
    fn trace_ids_are_unique_and_ring_serves_last() {
        let a = Trace::forced("a").finish().unwrap();
        let b = Trace::forced("b").finish().unwrap();
        assert_ne!(a, b);
        assert!(trace_by_id(b).is_some());
        assert!(traces_captured() >= 2);
    }

    #[test]
    fn sample_parsing_maps_rates_to_cadence() {
        assert_eq!(parse_sample("0"), 0);
        assert_eq!(parse_sample("off"), 0);
        assert_eq!(parse_sample("1"), 1);
        assert_eq!(parse_sample("always"), 1);
        assert_eq!(parse_sample("0.5"), 2);
        assert_eq!(parse_sample("0.01"), 100);
        assert_eq!(parse_sample("garbage"), 1);
    }
}
