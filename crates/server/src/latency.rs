//! The percentile formula the server's latency reporting and the repo
//! benchmark's client-side percentiles share.
//!
//! Per-query service times themselves live in a log-bucketed
//! [`cej_obs::Histogram`] the server registers as `cej_query_latency_us`
//! (16 sub-buckets per octave: bounded memory, quantiles over the full
//! history, at most one ≈4.4% bucket width below the true sample).

/// Index of the `q`-quantile in a sorted sample of `len` values
/// (nearest-rank, clamped).  Shared with the load generator's client-side
/// percentiles so server- and bench-reported numbers use one formula.
pub fn nearest_rank(len: usize, q: f64) -> usize {
    ((len as f64 * q).ceil() as usize).clamp(1, len) - 1
}
