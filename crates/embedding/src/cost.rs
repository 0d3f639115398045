//! Simulated model invocation cost.
//!
//! The paper's cost model (Section IV-A) treats the model cost `M` as a
//! first-class term: it can range "from random access to a lookup table …
//! to expensive computations over deep neural networks", and when embeddings
//! are bought as a service it is literally a monetary cost per call.  Our
//! FastText-style model sits at the cheap end, and that is a measured
//! statement: at 64 dimensions a 12-word string of already-seen words embeds
//! in ≈ 1.2 µs (one pass over its characters, one vector add per token from
//! the model's token memo), and a string of twelve never-seen words in
//! ≈ 64 µs (≈ 40 n-gram bucket streams generated per word) — it was
//! ≈ 46 µs and ≈ 74 µs before the model remembered its tokens (PR 20,
//! `BENCH_20.json` `model_microbench`).  So to study how the operators behave with expensive
//! models (and to make the quadratic-vs-linear model access cost of the
//! naive E-NLJ visible at small scales) the benchmark harness can attach a
//! [`ModelCostProfile`] that adds a deterministic busy-wait per model call.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Simulated per-invocation model cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ModelCostProfile {
    /// Extra latency added to every *real* (non-cached) model invocation, in
    /// nanoseconds.  Zero means "no simulation" and is the default.
    pub per_call_nanos: u64,
    /// How the latency is simulated: `false` (default) busy-waits —
    /// the model *computes* for that long, burning a core — while `true`
    /// sleeps — the model is a *remote service* and the calling thread
    /// blocks on I/O.  The distinction matters for concurrency studies: a
    /// server overlaps blocked remote calls across queries but cannot
    /// overlap busy cores, which is exactly the regime split the serving
    /// benchmarks measure.
    pub blocking: bool,
}

impl ModelCostProfile {
    /// No added cost (the raw model cost only).
    pub fn free() -> Self {
        Self {
            per_call_nanos: 0,
            blocking: false,
        }
    }

    /// Adds `nanos` nanoseconds of busy-wait per model call.
    pub fn from_nanos(nanos: u64) -> Self {
        Self {
            per_call_nanos: nanos,
            blocking: false,
        }
    }

    /// Adds `micros` microseconds of busy-wait per model call — a realistic
    /// magnitude for a transformer encoder on CPU.
    pub fn from_micros(micros: u64) -> Self {
        Self {
            per_call_nanos: micros * 1_000,
            blocking: false,
        }
    }

    /// Simulates a *remote* embedding service with `micros` microseconds of
    /// round-trip latency per model call: the calling thread sleeps (blocks)
    /// instead of spinning, so concurrent queries overlap their model
    /// latency the way real service calls do.  The paper's "embeddings
    /// bought as a service" cost regime.
    pub fn remote_micros(micros: u64) -> Self {
        Self {
            per_call_nanos: micros * 1_000,
            blocking: true,
        }
    }

    /// `true` when no artificial cost is added.
    pub fn is_free(&self) -> bool {
        self.per_call_nanos == 0
    }

    /// Waits for the configured duration (no-op when free): a busy-wait for
    /// compute-style costs, a `thread::sleep` for blocking remote-service
    /// costs.
    ///
    /// The busy-wait exists because sleep granularity on most systems is far
    /// coarser than the sub-microsecond compute costs we simulate; remote
    /// latencies are orders of magnitude above that granularity, so sleeping
    /// is both accurate and faithful (the core is genuinely free).
    #[inline]
    pub fn simulate(&self) {
        if self.per_call_nanos == 0 {
            return;
        }
        let target = Duration::from_nanos(self.per_call_nanos);
        if self.blocking {
            std::thread::sleep(target);
            return;
        }
        let start = Instant::now();
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_profile_is_noop() {
        let p = ModelCostProfile::free();
        assert!(p.is_free());
        let start = Instant::now();
        for _ in 0..1000 {
            p.simulate();
        }
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn from_micros_converts() {
        assert_eq!(ModelCostProfile::from_micros(3).per_call_nanos, 3_000);
        assert!(!ModelCostProfile::from_micros(3).is_free());
    }

    #[test]
    fn simulate_waits_at_least_requested_time() {
        let p = ModelCostProfile::from_micros(200);
        let start = Instant::now();
        p.simulate();
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn default_is_free() {
        assert!(ModelCostProfile::default().is_free());
        assert!(!ModelCostProfile::default().blocking);
    }

    #[test]
    fn remote_profile_sleeps_for_the_requested_time() {
        let p = ModelCostProfile::remote_micros(500);
        assert!(p.blocking);
        assert!(!p.is_free());
        let start = Instant::now();
        p.simulate();
        assert!(start.elapsed() >= Duration::from_micros(500));
    }
}
