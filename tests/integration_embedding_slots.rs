//! Invalidation of the per-column slot maps: whatever happens to a table, a
//! model or a cache between two runs of a warm prepared statement, the next
//! run must read exactly the vectors a session that never ran anything would
//! compute — a remembered `row → slot` assignment may speed a run up, never
//! change it.
//!
//! A slot map belongs to one *allocation* of rows — a segment of a table
//! version — and one cache *generation*: a delta keeps the segments it does
//! not rewrite (and their maps) and adds or merges others (no map yet), a
//! re-registration publishes a new table, model re-registration drops the
//! cache together with its maps, and `clear_cache` moves the generation.  The tests drive each of those through
//! the public session API and compare against a fresh session; the last one
//! checks that maps of dropped tables do not accumulate.

use cej_core::ivm::MaintainedResult;
use cej_core::{
    ContextJoinSession, Delta, ExecutionReport, IndexJoinConfig, JoinStrategy, ScalarValue,
    TensorJoinConfig,
};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_relational::{col, lit_i64, LogicalPlan, SimilarityPredicate};
use cej_storage::{Table, TableBuilder};

fn model(seed: u64) -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 2_000,
        seed,
        ..FastTextConfig::default()
    })
    .expect("model construction")
}

const WORDS: [&str; 8] = [
    "barbecue", "database", "laptop", "vacation", "grill", "notebook", "holiday", "query",
];

/// `rows` rows with ids `first_id..`, a word per row (with repeats, so rows
/// share slots) and a filter column cycling through 0..10.
fn rows(first_id: i64, rows: usize, salt: usize) -> Table {
    let ids: Vec<i64> = (first_id..first_id + rows as i64).collect();
    TableBuilder::new()
        .int64("id", ids.clone())
        .int64("filter", ids.iter().map(|id| id.rem_euclid(10)).collect())
        .utf8(
            "word",
            (0..rows)
                .map(|i| format!("{} {}", WORDS[(i + salt) % 8], WORDS[(i * 3 + salt) % 8]))
                .collect(),
        )
        .build()
        .expect("table")
}

/// A change to the session between two runs.
enum Step {
    Apply(Delta),
    RegisterTable(Table),
    RegisterModel(u64),
    ClearCache,
}

fn steps() -> Vec<(&'static str, Step)> {
    vec![
        ("append", Step::Apply(Delta::Append(rows(100, 7, 1)))),
        (
            "upsert",
            Step::Apply(Delta::Upsert {
                key_column: "id".into(),
                rows: rows(3, 5, 2),
            }),
        ),
        (
            "delete",
            Step::Apply(Delta::DeleteByKey {
                key_column: "id".into(),
                keys: (0..40).step_by(3).map(ScalarValue::Int64).collect(),
            }),
        ),
        ("register_table", Step::RegisterTable(rows(500, 25, 5))),
        ("clear_cache", Step::ClearCache),
        ("register_model", Step::RegisterModel(7)),
    ]
}

fn base_session() -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    s.register_table("r", rows(0, 9, 0));
    s.register_table("s", rows(0, 40, 3));
    s.register_model("ft", model(42));
    s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
    s
}

fn apply(s: &mut ContextJoinSession, step: &Step) {
    match step {
        Step::Apply(delta) => {
            s.apply_delta("s", delta).expect("delta applies");
        }
        Step::RegisterTable(table) => {
            s.register_table("s", table.clone());
        }
        Step::RegisterModel(seed) => {
            s.register_model("ft", model(*seed));
        }
        Step::ClearCache => {
            let cache = s
                .embedding_caches()
                .cache("ft", &s.model_registry())
                .expect("model cache");
            cache.clear_cache();
        }
    }
}

fn plan() -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::scan("r"),
        LogicalPlan::scan("s").select(col("filter").lt(lit_i64(6))),
        "word",
        "word",
        "ft",
        SimilarityPredicate::TopK(2),
    )
}

fn run(s: &ContextJoinSession) -> ExecutionReport {
    s.prepare(&plan()).expect("prepare").run().expect("run")
}

#[test]
fn a_warm_statement_after_any_invalidation_equals_a_fresh_session() {
    let mut live = base_session();
    // warm: both scanned columns have their slots
    run(&live);
    let warm = run(&live);
    assert_eq!(warm.embedding_stats.model_calls, 0);
    assert_eq!(live.embedding_caches().slot_maps(), 2);

    // the statement a server would hold across all of this
    let held = live.prepare(&plan()).expect("prepare").detach();
    assert_eq!(held.run().expect("held run").table, warm.table);

    let steps = steps();
    for upto in 1..=steps.len() {
        let (what, step) = &steps[upto - 1];
        apply(&mut live, step);
        // a session that saw the same history but never ran a query
        let mut fresh = base_session();
        for (_, earlier) in &steps[..upto] {
            apply(&mut fresh, earlier);
        }
        let expected = run(&fresh);
        // a statement prepared before a model swap keeps the model it was
        // planned with (copy-on-write registry): it is re-prepared, as a
        // client would after swapping models
        let after = match step {
            Step::RegisterModel(_) => run(&live),
            _ => held.run().expect("held run"),
        };
        assert_eq!(after.table, expected.table, "after {what}");
        // ...and once more, now by remembered slots of the new snapshot
        let again = run(&live);
        assert_eq!(again.table, expected.table, "second run after {what}");
        assert_eq!(again.embedding_stats.model_calls, 0, "after {what}");
        assert_eq!(
            again.embedding_stats.total_requests(),
            expected.embedding_stats.total_requests(),
            "after {what}: a slot hit counts as one cache hit"
        );
    }
}

#[test]
fn a_stale_statement_run_first_after_a_model_swap_leaves_the_shared_cache_alone() {
    let mut live = base_session();
    let held = live.prepare(&plan()).expect("prepare").detach();
    let old = held.run().expect("held run");

    live.register_model("ft", model(7));
    // the stale statement is the first to embed after the swap: it keeps its
    // old model, through a cache nobody else sees
    let stale = held.run().expect("stale run");
    assert_eq!(stale.table, old.table);
    assert_eq!(live.embedding_caches().cached_entries(), 0);
    assert_eq!(live.embedding_caches().slot_maps(), 0);

    let mut fresh = base_session();
    fresh.register_model("ft", model(7));
    let expected = run(&fresh);
    assert_ne!(expected.table, old.table, "the two models must disagree");
    let after = run(&live);
    assert_eq!(after.table, expected.table);
    assert_eq!(after.embedding_stats, expected.embedding_stats);
}

#[test]
fn a_stale_index_statement_run_first_after_a_model_swap_keeps_its_graph_private() {
    let index = JoinStrategy::Index(IndexJoinConfig {
        params: cej_index::HnswParams::tiny(),
        range_probe_k: 8,
    });
    let mut live = base_session();
    live.with_strategy(index);
    let held = live.prepare(&plan()).expect("prepare").detach();
    let old = held.run().expect("held run");
    assert_eq!(live.index_manager().stats().resident, 1);

    live.register_model("ft", model(7));
    assert_eq!(
        live.index_manager().stats().resident,
        0,
        "dropped by the swap"
    );
    // the stale statement is the first to need the graph after the swap: it
    // builds one from its old model's vectors, for itself alone
    let stale = held.run().expect("stale run");
    assert_eq!(stale.table, old.table);
    assert_eq!(stale.index_builds, 1);
    assert_eq!(
        live.index_manager().stats().resident,
        0,
        "a graph of the old model's vectors must not be published under the model's name"
    );

    let mut fresh = base_session();
    fresh.with_strategy(index);
    fresh.register_model("ft", model(7));
    let expected = run(&fresh);
    assert_ne!(expected.table, old.table, "the two models must disagree");
    let after = run(&live);
    assert_eq!(after.table, expected.table);
    assert_eq!(after.index_builds, 1, "the fresh statement builds its own");
    // ...and the stale one keeps its answer next to the published graph
    assert_eq!(held.run().expect("stale run").table, old.table);
    assert_eq!(live.index_manager().stats().resident, 1);
}

#[test]
fn cleared_cache_pays_the_model_again_and_never_serves_old_slots() {
    let live = base_session();
    let cold = run(&live);
    run(&live);
    let cache = live
        .embedding_caches()
        .cache("ft", &live.model_registry())
        .expect("model cache");
    let generation = cache.generation();
    cache.clear_cache();
    assert_eq!(cache.generation(), generation + 1);
    // same tables, same slot-map entries — but every slot in them is stale
    let after = run(&live);
    assert_eq!(after.table, cold.table);
    assert_eq!(after.embedding_stats, cold.embedding_stats);
    assert_eq!(live.embedding_caches().slot_maps(), 2);
}

#[test]
fn a_standing_query_over_warm_slots_stays_equal_to_recompute() {
    let live = base_session();
    let query = plan();
    // warm the slot maps of both tables before subscribing
    run(&live);
    run(&live);
    let standing = live
        .prepare(&query)
        .expect("prepare")
        .subscribe()
        .expect("subscribe");
    for (what, step) in steps() {
        let Step::Apply(delta) = step else { continue };
        live.apply_delta("s", &delta).expect("delta applies");
        let recomputed = MaintainedResult::new(run(&live).table);
        assert_eq!(
            standing.checksum(),
            recomputed.checksum(),
            "maintained view diverged from recompute after {what}"
        );
        // the outer side changes too
        live.apply_delta("r", &Delta::Append(rows(900, 2, 4)))
            .expect("outer delta applies");
        let recomputed = MaintainedResult::new(run(&live).table);
        assert_eq!(
            standing.checksum(),
            recomputed.checksum(),
            "after {what} + outer append"
        );
    }
    assert!(live.unsubscribe(standing.id()));
}

#[test]
fn slot_maps_are_swept_when_their_tables_are_dropped() {
    let mut s = base_session();
    run(&s);
    assert_eq!(s.embedding_caches().slot_maps(), 2, "r.word and s.word");

    // scratch tables come and go, each embedded by row once
    for i in 0..6i64 {
        let name = format!("scratch{i}");
        s.register_table(&name, rows(1_000 * i, 12, i as usize));
        let scratch = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan(&name),
            "word",
            "word",
            "ft",
            SimilarityPredicate::TopK(1),
        );
        s.prepare(&scratch).expect("prepare").run().expect("run");
        assert!(s.unregister_table(&name));
    }
    // every delta publishes a new version of `s`, whose merged tail segments
    // come and go
    for i in 0..12i64 {
        s.apply_delta("s", &Delta::Append(rows(2_000 + i, 1, 0)))
            .expect("append");
        run(&s);
    }
    // the next insertion sweeps: one more new snapshot...
    s.register_table("s", rows(0, 40, 3));
    run(&s);
    // ...leaves exactly the live (table, column, model) triples: r.word and
    // the new s.word — no scratch table, no superseded version of `s`
    assert_eq!(s.embedding_caches().slot_maps(), 2);
}
