//! CI incremental-view-maintenance regression gate.
//!
//! Builds a photos ⋈ owners hash join feeding a similarity join against
//! products, subscribes a standing query to it, and streams eight small
//! delta batches (appends, deletes, upserts — about 1% of the base table
//! in total) through two sessions seeded with identical data:
//!
//! * **delta path** — the standing query absorbs each delta through the
//!   IVM propagation engine (`session.apply_delta` + mailbox drain);
//! * **recompute path** — the same deltas are applied to a second
//!   session with no subscription, and the query is re-planned and
//!   re-executed from scratch after every batch.
//!
//! Both paths must end byte-identical (the standing query's
//! order-independent multiset checksum equals the checksum of the final
//! full re-run), and the delta path must be at least [`MIN_SPEEDUP`]x
//! faster wall-clock — like the other gates this is a same-machine
//! ratio, stable where absolute times are not.
//!
//! ```sh
//! ivm_gate [baseline.json]
//! ```
//!
//! With `CEJ_REPORT=<path>` the machine-readable summary is written as
//! well.  The baseline lives at `ci/ivm_baseline.json`; refresh it with
//! `CEJ_SCALE=0.05 CEJ_REPORT=ci/ivm_baseline.json cargo run --release
//! -p cej-bench --bin ivm_gate`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use cej_bench::harness::{fmt_ms, header, scaled, time_once};
use cej_bench::report::{extract_value, Report};
use cej_core::{
    ContextJoinSession, Delta, JoinStrategy, MaintainedResult, ScalarValue, TensorJoinConfig,
};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_relational::LogicalPlan;
use cej_storage::{Table, TableBuilder};

/// The delta path must beat recompute-from-scratch by at least this
/// factor (the acceptance criterion; the measured gap is far larger).
const MIN_SPEEDUP: f64 = 10.0;
/// Fraction of the baseline speedup the current run must retain.
const MIN_FRACTION: f64 = 0.5;
/// Number of delta batches streamed through both paths.
const BATCHES: usize = 8;

const THRESHOLD: f32 = 0.6;

/// Photo-caption word pool; one product title in [`MATCH_EVERY`] draws
/// from it, so the similarity join has real matches at the gate's
/// threshold while the standing result stays selective (maintenance cost
/// scales with the maintained result, recompute cost with the full cross
/// product — an unselective join would blur the ratio being gated).
const POOL: [&str; 12] = [
    "barbecue", "grill", "database", "server", "laptop", "garden", "vector", "index", "tensor",
    "storage", "network", "kernel",
];

/// Off-pool words for the other product titles: no matches at threshold.
const OFF_POOL: [&str; 12] = [
    "violin", "glacier", "pepper", "marathon", "lantern", "compass", "meadow", "anchor", "fossil",
    "turbine", "canvas", "harbor",
];

/// One product title in this many is drawn from the caption pool.
const MATCH_EVERY: usize = 50;

fn caption(i: i64) -> String {
    let i = i.unsigned_abs() as usize;
    format!(
        "{} {}",
        POOL[i % POOL.len()],
        POOL[(i * 5 + 3) % POOL.len()]
    )
}

fn owner_fk(id: i64) -> i64 {
    (id % 3 + 1) * 100
}

fn photos_rows(ids: &[i64], salt: i64) -> Table {
    TableBuilder::new()
        .int64("id", ids.to_vec())
        .int64("owner_fk", ids.iter().map(|id| owner_fk(*id)).collect())
        .utf8("caption", ids.iter().map(|id| caption(id + salt)).collect())
        .build()
        .expect("photos rows")
}

/// One of two identically-seeded sessions (fresh caches and indexes each).
fn session(photo_rows: usize, product_rows: usize) -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    s.register_table(
        "photos",
        photos_rows(&(0..photo_rows as i64).collect::<Vec<_>>(), 0),
    );
    s.register_table(
        "owners",
        TableBuilder::new()
            .int64("owner_id", vec![100, 200, 300])
            .utf8("region", vec!["west".into(), "east".into(), "north".into()])
            .build()
            .expect("owners rows"),
    );
    s.register_table(
        "products",
        TableBuilder::new()
            .int64("product_id", (0..product_rows as i64).collect())
            .utf8(
                "title",
                (0..product_rows)
                    .map(|j| {
                        let pool: &[&str] = if j % MATCH_EVERY == 0 {
                            &POOL
                        } else {
                            &OFF_POOL
                        };
                        format!(
                            "{} {}",
                            pool[j % pool.len()],
                            pool[(j * 7 + 2) % pool.len()]
                        )
                    })
                    .collect(),
            )
            .build()
            .expect("products rows"),
    );
    let model = FastTextModel::new(FastTextConfig {
        dim: 32,
        ..FastTextConfig::default()
    })
    .expect("model construction");
    s.register_model("ft", model);
    // deterministic kernel: byte-identical results for any thread count
    s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    for table in ["photos", "owners", "products"] {
        s.catalog().analyze(table).expect("analyze");
    }
    s
}

/// The maintained query: hash join into the dimension table, then the
/// similarity join — one delta stream exercises both propagation rules.
fn query() -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("owners"),
            "owner_fk",
            "owner_id",
        ),
        LogicalPlan::scan("products"),
        "caption",
        "title",
        "ft",
        cej_core::sim_gte(THRESHOLD),
    )
}

/// Deterministic delta stream: `BATCHES` batches cycling through append /
/// delete / upsert, about 1% of the base table in total.  The mirror of
/// live ids keeps deletes and upserts aimed at rows that exist.
fn delta_stream(photo_rows: usize) -> Vec<Delta> {
    let per_batch = (photo_rows / 100 / BATCHES).max(1);
    let mut live: Vec<i64> = (0..photo_rows as i64).collect();
    let mut next = photo_rows as i64;
    let mut stream = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        match batch % 3 {
            0 => {
                let ids: Vec<i64> = (0..per_batch as i64).map(|k| next + k).collect();
                next += per_batch as i64;
                live.extend(&ids);
                stream.push(Delta::Append(photos_rows(&ids, 0)));
            }
            1 => {
                let mut keys = Vec::with_capacity(per_batch);
                for k in 0..per_batch {
                    let victim = live[(batch * 37 + k * 13) % live.len()];
                    if !keys.contains(&victim) {
                        keys.push(victim);
                    }
                }
                live.retain(|id| !keys.contains(id));
                stream.push(Delta::DeleteByKey {
                    key_column: "id".to_string(),
                    keys: keys.into_iter().map(ScalarValue::Int64).collect(),
                });
            }
            _ => {
                let mut ids = Vec::with_capacity(per_batch);
                for k in 0..per_batch {
                    let id = if k % 2 == 0 {
                        live[(batch * 29 + k * 7) % live.len()]
                    } else {
                        next += 1;
                        next - 1
                    };
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                for id in &ids {
                    if !live.contains(id) {
                        live.push(*id);
                    }
                }
                // salt shifts the caption so upserts actually change rows
                stream.push(Delta::Upsert {
                    key_column: "id".to_string(),
                    rows: photos_rows(&ids, 1),
                });
            }
        }
    }
    stream
}

fn main() -> ExitCode {
    header(
        "Incremental view maintenance",
        "standing-query delta propagation vs recompute-from-scratch, same delta stream",
    );
    let baseline_path = std::env::args().nth(1);
    let photo_rows = scaled(80_000);
    let product_rows = scaled(4_000);
    let stream = delta_stream(photo_rows);
    let delta_rows: usize = stream
        .iter()
        .map(|d| match d {
            Delta::Append(rows) => rows.num_rows(),
            Delta::DeleteByKey { keys, .. } => keys.len(),
            Delta::Upsert { rows, .. } => rows.num_rows(),
        })
        .sum();
    let query = query();

    // Delta path: one standing subscription absorbs every batch.  The
    // subscribe itself runs the query once, which also warms the
    // session's embedding cache — the timed loop measures maintenance.
    let incremental_session = session(photo_rows, product_rows);
    let standing = incremental_session
        .prepare(&query)
        .expect("prepare standing query")
        .subscribe()
        .expect("subscribe");
    let mut incremental = Duration::ZERO;
    for delta in &stream {
        let (_, elapsed) = time_once(|| {
            incremental_session
                .apply_delta("photos", delta)
                .expect("apply delta");
            standing.drain()
        });
        incremental += elapsed;
    }

    // Recompute path: identical seed data and deltas, no subscription —
    // after every batch the query is re-planned and re-executed from
    // scratch (one warm-up run outside the timed loop, mirroring the
    // warm embedding cache the delta path gets from its subscribe).
    let recompute_session = session(photo_rows, product_rows);
    let mut full_table = recompute_session
        .prepare(&query)
        .expect("prepare warm-up")
        .run()
        .expect("warm-up run")
        .table;
    let mut recompute = Duration::ZERO;
    for delta in &stream {
        let (table, elapsed) = time_once(|| {
            recompute_session
                .apply_delta("photos", delta)
                .expect("apply delta");
            recompute_session
                .prepare(&query)
                .expect("prepare recompute")
                .run()
                .expect("recompute run")
                .table
        });
        recompute += elapsed;
        full_table = table;
    }

    let maintained = standing.checksum();
    let recomputed = MaintainedResult::new(full_table.clone()).checksum();
    let identical = maintained == recomputed && full_table.num_rows() > 0;
    let speedup = recompute.as_secs_f64() / incremental.as_secs_f64();
    let stats = standing.stats();

    println!(
        "base {photo_rows} rows | {} delta rows in {BATCHES} batches | result {} rows",
        delta_rows,
        full_table.num_rows(),
    );
    println!(
        "delta path {} | recompute {} | speedup {speedup:.2}x | propagations {} | refreshes {} | identical {}",
        fmt_ms(incremental),
        fmt_ms(recompute),
        stats.propagations,
        stats.refreshes,
        if identical { "yes" } else { "NO" },
    );

    let mut report = Report::new("ivm");
    report.push_elapsed("delta_path", incremental);
    report.push_elapsed("recompute", recompute);
    report.push_value("delta_speedup", speedup);
    report.push_value("delta_rows", delta_rows as f64);
    report.push_value("result_rows", full_table.num_rows() as f64);
    report.push_value("propagations", stats.propagations as f64);
    report.push_value("refreshes", stats.refreshes as f64);
    report.push_value("identical", if identical { 1.0 } else { 0.0 });
    report.write_if_requested();

    let mut failed = false;
    if !identical {
        eprintln!(
            "ivm_gate: maintained result diverged from recompute (maintained \
             {maintained:016x} vs recomputed {recomputed:016x}, {} rows) — failing",
            full_table.num_rows()
        );
        failed = true;
    }
    let mut required = MIN_SPEEDUP;
    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(baseline) => {
                if let Some(old) = extract_value(&baseline, "delta_speedup") {
                    required = required.max(old * MIN_FRACTION);
                }
            }
            Err(e) => {
                eprintln!("ivm_gate: cannot read {path}: {e}");
                failed = true;
            }
        }
    }
    if speedup < required {
        eprintln!("ivm_gate: speedup {speedup:.2}x below required {required:.2}x — failing");
        failed = true;
    } else {
        println!("speedup {speedup:.2}x >= {required:.2}x [ok]");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("ivm_gate: delta path holds");
        ExitCode::SUCCESS
    }
}
