//! # cej-obs
//!
//! The engine's observability substrate: a unified metrics registry and a
//! lock-cheap structured tracer.  Every other runtime crate records *into*
//! this one; nothing in here knows about plans, tables, or sockets, so the
//! dependency arrow only ever points down.
//!
//! ## Metrics ([`metrics`])
//!
//! [`Counter`] / [`Gauge`] / [`Histogram`] are `Arc`-cloneable handles over
//! atomics — register once, increment from anywhere without a lock.  The
//! [`Histogram`] is fixed log-bucketed (16 sub-buckets per octave, ≈4.4%
//! relative bucket width) and mergeable, so percentile summaries cost one
//! array walk and memory stays bounded no matter how many samples arrive.
//! A [`Registry`] names the handles, supports zero-cost *collector*
//! closures over pre-existing stat structs, and renders the whole surface
//! in Prometheus text exposition format ([`Registry::render`]).
//!
//! ## Tracing ([`trace`])
//!
//! [`Trace`] is a per-query span recorder with a process-unique id,
//! monotonic clocks, parent links, and typed attributes.  A disabled trace
//! is a `None` — every recording call branches on the sampled flag and
//! allocates nothing, which is the hard requirement that lets the tracer
//! ride inside the executor hot path.  Finished traces land in a bounded
//! in-process ring ([`trace::trace_by_id`] / [`trace::last_trace`]) and
//! queries slower than `CEJ_SLOW_QUERY_MS` are force-captured into the
//! slow-query log regardless of the `CEJ_TRACE_SAMPLE` sampling policy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{
    last_trace, set_slow_query_ms, set_trace_sample, slow_queries, slow_query_count, slow_query_us,
    trace_by_id, traces_captured, AttrValue, FinishedTrace, SlowQuery, SpanGuard, SpanId,
    SpanRecord, Trace,
};
