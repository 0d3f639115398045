//! The morsel size of the vectorised executor.
//!
//! Following the MonetDB/X100 design, operators pass around fixed-size
//! *batches* of rows instead of whole tables: a window of a base table's
//! row positions plus a selection vector of the lanes still alive after
//! filtering.  The executor's batch type lives with the executor; this
//! module fixes how many rows a batch spans.

/// Default number of rows per batch handed between operators.
///
/// A morsel is the unit of per-task fixed cost, not of cache residency: a
/// filter over a morsel streams one column once, whatever its length, and
/// what a morsel pays besides is a live-row vector, a filter dispatch, a
/// scheduler task and, under a hash join, a gathered probe table and one
/// part of the final concatenation.  At 1,024 rows that fixed cost (≈ 3 µs)
/// dominated a selective scan: the benchmark's `serve_live` query
/// `live JOIN dim … WHERE live.slot = 7`, its slowest, cut 200 k rows into
/// 196 morsels to find 200 survivors.  A sweep of `serve_live`'s
/// `op_p95_ms` over morsel sizes (median of 3 runs, seed 20240513, a
/// 2-vCPU x86-64 Xeon with AVX2 and AVX-512) read 1.14 ms at 1,024 rows,
/// 0.76 ms at 4,096, 0.61 ms at 16,384 and 0.67 ms at 65,536, so the size
/// sits at the minimum.  A morsel is also the grain of parallel work, so a
/// source under this many rows is one task at any thread budget.  With the
/// benchmark rebuilt for two worker threads, 16,384 rows still beat 1,024
/// on `serve_live` (`op_p95_ms` 0.79 → 0.65 ms) and `adhoc_cold` and tie on
/// `scan_join_warm` (median of 10 runs each side).  Results do not depend
/// on it.
pub const DEFAULT_BATCH_ROWS: usize = 16_384;
