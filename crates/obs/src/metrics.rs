//! The unified metrics registry: counter/gauge/histogram handles plus
//! Prometheus text rendering.
//!
//! Two registration styles cover the two shapes of state the engine has:
//!
//! * **owned handles** ([`Registry::counter`] / [`Registry::gauge`] /
//!   [`Registry::histogram`]) for new counters that live *in* the registry —
//!   incrementing is one relaxed atomic op;
//! * **collectors** ([`Registry::counter_fn`] / [`Registry::gauge_fn`]) for
//!   the pre-existing stat families (pool, index manager, IVM, embedding
//!   caches, frame cache): a closure reads the source at scrape time, so the
//!   hot paths that maintain those stats pay nothing new.
//!
//! [`Registry::value`] looks a metric up by name, which is how the serving
//! layer's legacy `STATS` line becomes a *view* over the registry instead of
//! bespoke plumbing.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle.  Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (register it via [`Registry::counter`]
    /// or use it stand-alone).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.  Cloning shares the
/// cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power-of-two octave: 4 fraction bits, so each bucket
/// spans a ratio of `2^(1/16) ≈ 4.4%` and values below 32 are exact.
const SUB_BUCKETS: usize = 16;
/// Bucket 0 holds zeros; the rest cover the full `u64` range.
const BUCKETS: usize = 64 * SUB_BUCKETS + 1;

/// Bucket index of a sample: 0 for zero, else `floor(log2 v)` octaves of
/// [`SUB_BUCKETS`] refined by the next four mantissa bits.  Monotone in `v`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let exp = 63 - v.leading_zeros() as usize;
    let frac = if exp >= 4 {
        ((v >> (exp - 4)) & 0xF) as usize
    } else {
        ((v << (4 - exp)) & 0xF) as usize
    };
    exp * SUB_BUCKETS + frac + 1
}

/// Smallest sample value mapping into bucket `idx` — the representative a
/// quantile lookup returns (so small integer samples round-trip exactly).
fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        return 0;
    }
    let exp = (idx - 1) / SUB_BUCKETS;
    let frac = (idx - 1) % SUB_BUCKETS;
    let lower = ((16 + frac) as u128) << exp >> 4;
    lower.min(u64::MAX as u128) as u64
}

/// Largest sample value mapping into bucket `idx` (inclusive) — what the
/// Prometheus `le` label of the bucket reports.  Below 16 several adjacent
/// sub-bucket indices collapse to the same lower bound (only one of them is
/// reachable), so the upper bound is found by scanning to the next strictly
/// greater lower bound rather than assuming `idx + 1` differs.
fn bucket_upper(idx: usize) -> u64 {
    let lower = bucket_lower(idx);
    let mut next = idx + 1;
    while next < BUCKETS && bucket_lower(next) <= lower {
        next += 1;
    }
    if next >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(next) - 1
    }
}

/// A fixed log-bucketed, mergeable histogram with bounded memory
/// (`1025 × u64` buckets) and lock-free recording.  Cloning shares the
/// cells.  Percentiles are *exact-enough*: a returned quantile is the lower
/// bound of the bucket the nearest-rank sample fell into, at most one
/// bucket width (≈4.4%) below the true sample, and exact for samples < 32.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("bucket count is fixed"));
        Self {
            inner: Arc::new(HistogramInner {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample — tracked exactly, outside the buckets.
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (nearest-rank over the buckets), clamped to
    /// [`Histogram::max`].  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bucket) in self.inner.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_lower(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Folds another histogram's buckets into this one (mergeability is
    /// what lets per-worker recordings aggregate without contention).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(other.count(), Ordering::Relaxed);
        self.inner.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.inner.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Drops every recorded sample (load generators reset between phases).
    pub fn reset(&self) {
        for bucket in self.inner.buckets.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
        self.inner.count.store(0, Ordering::Relaxed);
        self.inner.sum.store(0, Ordering::Relaxed);
        self.inner.max.store(0, Ordering::Relaxed);
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs, ascending — the
    /// Prometheus `_bucket{le=…}` series.
    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (idx, bucket) in self.inner.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                out.push((bucket_upper(idx), cumulative));
            }
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish()
    }
}

/// A scrape-time collector closure.
type ValueFn = Arc<dyn Fn() -> u64 + Send + Sync>;

enum Source {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    CounterFn(ValueFn),
    GaugeFn(ValueFn),
}

struct Metric {
    name: String,
    help: String,
    source: Source,
}

#[derive(Default)]
struct RegistryInner {
    metrics: Vec<Metric>,
    by_name: HashMap<String, usize>,
}

/// A named collection of metrics that renders as one Prometheus text
/// exposition.  Registration is idempotent by name (the first registration
/// wins and later calls return the existing handle), so handles are
/// registered once per process — or once per server: the serving layer
/// builds one registry per server instance so concurrently running test
/// servers stay isolated.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, source: Source) -> Option<Source> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&idx) = inner.by_name.get(name) {
            return Some(match &inner.metrics[idx].source {
                Source::Counter(c) => Source::Counter(c.clone()),
                Source::Gauge(g) => Source::Gauge(g.clone()),
                Source::Histogram(h) => Source::Histogram(h.clone()),
                Source::CounterFn(f) => Source::CounterFn(f.clone()),
                Source::GaugeFn(f) => Source::GaugeFn(f.clone()),
            });
        }
        let idx = inner.metrics.len();
        inner.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            source,
        });
        inner.by_name.insert(name.to_string(), idx);
        None
    }

    /// Registers (or retrieves) a counter by name.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let fresh = Counter::new();
        match self.register(name, help, Source::Counter(fresh.clone())) {
            Some(Source::Counter(existing)) => existing,
            _ => fresh,
        }
    }

    /// Registers (or retrieves) a gauge by name.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let fresh = Gauge::new();
        match self.register(name, help, Source::Gauge(fresh.clone())) {
            Some(Source::Gauge(existing)) => existing,
            _ => fresh,
        }
    }

    /// Registers (or retrieves) a histogram by name.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let fresh = Histogram::new();
        match self.register(name, help, Source::Histogram(fresh.clone())) {
            Some(Source::Histogram(existing)) => existing,
            _ => fresh,
        }
    }

    /// Registers an existing histogram handle under `name` (the latency
    /// recorder owns its histogram but still scrapes through the registry).
    pub fn histogram_handle(&self, name: &str, help: &str, histogram: Histogram) {
        self.register(name, help, Source::Histogram(histogram));
    }

    /// Registers a counter whose value is read from `f` at scrape time —
    /// zero cost on the path that maintains the underlying stat.
    pub fn counter_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register(name, help, Source::CounterFn(Arc::new(f)));
    }

    /// Registers a gauge whose value is read from `f` at scrape time.
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register(name, help, Source::GaugeFn(Arc::new(f)));
    }

    /// The current value of a metric by name (histograms report their
    /// sample count).  This lookup is what re-sources legacy stat lines
    /// from the registry.
    pub fn value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let idx = *inner.by_name.get(name)?;
        Some(match &inner.metrics[idx].source {
            Source::Counter(c) => c.get(),
            Source::Gauge(g) => g.get(),
            Source::Histogram(h) => h.count(),
            Source::CounterFn(f) | Source::GaugeFn(f) => f(),
        })
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, in registration order.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for metric in &inner.metrics {
            let name = &metric.name;
            let _ = writeln!(out, "# HELP {name} {}", metric.help);
            match &metric.source {
                Source::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Source::CounterFn(f) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", f());
                }
                Source::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Source::GaugeFn(f) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", f());
                }
                Source::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (upper, cumulative) in h.cumulative_buckets() {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry")
            .field("metrics", &inner.metrics.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_small_values_are_exact() {
        let mut last = 0;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone at {v}");
            last = idx;
            assert!(
                bucket_lower(idx) <= v && v <= bucket_upper(idx),
                "v={v} outside bucket [{}, {}]",
                bucket_lower(idx),
                bucket_upper(idx)
            );
        }
        for v in 0..32u64 {
            assert_eq!(bucket_lower(bucket_index(v)), v, "small values are exact");
        }
        // the top of the range must land in the last bucket, not overflow
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_exact_enough() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        // within one bucket width (≈4.4%) below the exact nearest-rank value
        let close =
            |got: u64, exact: u64| got <= exact && (got as f64) >= (exact as f64) * 0.95 - 1.0;
        assert!(close(h.quantile(0.50), 50), "p50 {}", h.quantile(0.50));
        assert!(close(h.quantile(0.95), 95), "p95 {}", h.quantile(0.95));
        assert!(close(h.quantile(0.99), 99), "p99 {}", h.quantile(0.99));
        h.reset();
        assert_eq!((h.count(), h.quantile(0.5), h.max()), (0, 0, 0));
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 2, 3] {
            a.observe(v);
        }
        for v in [1000u64, 2000] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 2000);
        assert_eq!(a.sum(), 3006);
    }

    #[test]
    fn parallel_increments_sum_exactly() {
        let registry = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let registry = registry.clone();
            handles.push(std::thread::spawn(move || {
                // every thread re-registers by name and gets the same cell
                let counter = registry.counter("test_total", "concurrency test");
                let histogram = registry.histogram("test_us", "concurrency test");
                for i in 0..10_000u64 {
                    counter.inc();
                    histogram.observe(i % 97);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(registry.value("test_total"), Some(80_000));
        assert_eq!(registry.value("test_us"), Some(80_000));
    }

    #[test]
    fn renders_prometheus_text() {
        let registry = Registry::new();
        let c = registry.counter("cej_things_total", "things that happened");
        c.add(3);
        registry.gauge_fn("cej_depth", "queue depth", || 7);
        let h = registry.histogram("cej_wait_us", "wait time");
        h.observe(10);
        h.observe(1000);
        let text = registry.render();
        assert!(text.contains("# TYPE cej_things_total counter"), "{text}");
        assert!(text.contains("cej_things_total 3"), "{text}");
        assert!(text.contains("# TYPE cej_depth gauge"), "{text}");
        assert!(text.contains("cej_depth 7"), "{text}");
        assert!(text.contains("# TYPE cej_wait_us histogram"), "{text}");
        assert!(text.contains("cej_wait_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("cej_wait_us_sum 1010"), "{text}");
        assert!(text.contains("cej_wait_us_count 2"), "{text}");
    }
}
