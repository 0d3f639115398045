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
//!
//! The int8 screen codes the pool keeps per slot follow the same rules
//! (dropped with the model's entry, reset with the generation): a screened
//! statement — any tensor join over a catalog table, on a CPU with AVX-512
//! VNNI — is held to a fresh session's pairs, score bits, `JoinStats` and
//! embedding counts after every step, and its first runs report exactly the
//! slots they code.  The served statements' shapes — 16 or 1 outer rows
//! over 4,000, 5-row deltas into a standing view over 64 — screen from
//! their first outer row and return the fp32 block path's bytes.

use std::time::Duration;

use cej_core::ivm::MaintainedResult;
use cej_core::{
    ContextJoinSession, Delta, ExecutionReport, IndexJoinConfig, JoinStats, JoinStrategy,
    NljConfig, ScalarValue, TensorJoinConfig, TensorPath,
};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_relational::{col, lit_i64, LogicalPlan, SimilarityPredicate};
use cej_storage::{Table, TableBuilder};
use cej_vector::Kernel;

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

/// The session of [`base_session`] plus `q`, an outer table of 30 rows,
/// which a tensor join screens on a CPU with AVX-512 VNNI.
fn screened_session() -> ContextJoinSession {
    let mut s = base_session();
    s.register_table("q", rows(200, 30, 6));
    s
}

fn screened_plan(cut: i64, predicate: SimilarityPredicate) -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::scan("q"),
        LogicalPlan::scan("s").select(col("filter").lt(lit_i64(cut))),
        "word",
        "word",
        "ft",
        predicate,
    )
}

fn run_plan(s: &ContextJoinSession, plan: &LogicalPlan) -> ExecutionReport {
    s.prepare(plan).expect("prepare").run().expect("run")
}

/// The join's statistics without its timing.
fn untimed(stats: JoinStats) -> JoinStats {
    JoinStats {
        elapsed: Duration::ZERO,
        ..stats
    }
}

/// The similarity column's bits, row by row.
fn score_bits(report: &ExecutionReport) -> Vec<u64> {
    let column = report.table.column_by_name("similarity").expect("scores");
    let scores = column.as_float64().expect("f64 scores");
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Asserts that two runs agree in everything but timing.
fn assert_same_run(got: &ExecutionReport, expected: &ExecutionReport, what: &str) {
    assert_eq!(got.table, expected.table, "{what}");
    assert_eq!(score_bits(got), score_bits(expected), "{what}");
    assert_eq!(
        untimed(got.join_stats),
        untimed(expected.join_stats),
        "{what}"
    );
    assert_eq!(got.embedding_stats, expected.embedding_stats, "{what}");
}

#[test]
fn a_screened_warm_statement_after_any_invalidation_equals_a_fresh_session() {
    let vnni = cej_vector::Screen::detect().is_some();
    for predicate in [
        SimilarityPredicate::TopK(2),
        SimilarityPredicate::Threshold(0.6),
    ] {
        let plan = screened_plan(6, predicate);
        let mut live = screened_session();
        let first = run_plan(&live, &plan);
        let warm = run_plan(&live, &plan);
        assert_eq!(warm.embedding_stats.model_calls, 0);
        assert_eq!(
            warm.join_stats.inner_rows_quantized, 0,
            "warm: nothing coded"
        );
        let join = warm.join_stats;
        assert_eq!(
            join.pairs_rescored < join.pairs_compared,
            vnni,
            "{predicate:?}"
        );
        assert_eq!(score_bits(&first), score_bits(&warm));
        let held = live.prepare(&plan).expect("prepare").detach();

        let steps = steps();
        for upto in 1..=steps.len() {
            let (what, step) = &steps[upto - 1];
            let what = format!("{predicate:?} after {what}");
            apply(&mut live, step);
            let mut fresh = screened_session();
            for (_, earlier) in &steps[..upto] {
                apply(&mut fresh, earlier);
            }
            let fresh_first = run_plan(&fresh, &plan);
            let expected = run_plan(&fresh, &plan);
            let after = match step {
                Step::RegisterModel(_) => run_plan(&live, &plan),
                _ => held.run().expect("held run"),
            };
            assert_eq!(after.table, expected.table, "{what}");
            assert_eq!(score_bits(&after), score_bits(&expected), "{what}");
            // the warm run reads every inner lane from stored codes, as the
            // fresh session's second run does
            let again = run_plan(&live, &plan);
            assert_same_run(&again, &expected, &what);
            assert_eq!(score_bits(&fresh_first), score_bits(&expected), "{what}");
        }
    }
}

#[test]
fn first_runs_code_exactly_their_new_slots_and_warm_runs_none() {
    let vnni = cej_vector::Screen::detect().is_some();
    let s = screened_session();
    let inner = s.catalog().table("s").expect("s");
    let words = inner
        .column_by_name("word")
        .expect("word")
        .as_utf8()
        .expect("utf8");
    let filter = inner.column_by_name("filter").expect("filter");
    let filter = filter.as_int64().expect("i64");
    // the distinct strings of the rows `filter < cut` selects
    let distinct = |cut: i64| {
        let mut selected: Vec<&String> = (0..words.len())
            .filter(|&i| filter[i] < cut)
            .map(|i| &words[i])
            .collect();
        let rows = selected.len();
        selected.sort();
        selected.dedup();
        (rows, selected.len() as u64)
    };
    let (rows, half) = distinct(3);
    // rows share strings: the side holds the same slot more than once
    assert!(half < rows as u64, "{rows} rows, {half} strings");
    let top = SimilarityPredicate::TopK(3);
    let first = run_plan(&s, &screened_plan(3, top));
    let expected = |n: u64| if vnni { n } else { 0 };
    assert_eq!(first.join_stats.inner_rows_quantized, expected(half));
    assert_eq!(s.embedding_caches().coded_slots() as u64, expected(half));
    let warm = run_plan(&s, &screened_plan(3, top));
    assert_eq!(warm.join_stats.inner_rows_quantized, 0);

    // a wider cut: about half of its slots are new, only those are coded
    let (_, all) = distinct(6);
    let wider = run_plan(&s, &screened_plan(6, top));
    assert_eq!(wider.join_stats.inner_rows_quantized, expected(all - half));
    assert_eq!(s.embedding_caches().coded_slots() as u64, expected(all));
    let mut fresh = screened_session();
    let fresh_wider = run_plan(&fresh, &screened_plan(6, top));
    assert_eq!(fresh_wider.join_stats.inner_rows_quantized, expected(all));
    assert_eq!(wider.table, fresh_wider.table);
    assert_eq!(score_bits(&wider), score_bits(&fresh_wider));
    // the same work, but for what the live session's cache already held
    let work = |stats: JoinStats| {
        untimed(JoinStats {
            inner_rows_quantized: 0,
            model_calls: 0,
            ..stats
        })
    };
    assert_eq!(work(wider.join_stats), work(fresh_wider.join_stats));
    assert_eq!(
        wider.embedding_stats.total_requests(),
        fresh_wider.embedding_stats.total_requests()
    );
    let warm = run_plan(&s, &screened_plan(6, top));
    assert_eq!(warm.join_stats.inner_rows_quantized, 0);

    // a re-registered model drops the codes with its cache
    fresh.register_model("ft", model(9));
    assert_eq!(fresh.embedding_caches().coded_slots(), 0);
}

/// A phrase of `words` words drawn from a 400-word vocabulary by `i`.
fn phrase(i: usize, words: usize) -> String {
    let word = |j: usize| {
        let mut x = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let mut w = String::new();
        for _ in 0..5 + j % 4 {
            w.push((b'a' + (x % 26) as u8) as char);
            x /= 26;
        }
        w
    };
    let picks = (0..words).map(|k| word((i * 7 + k * 131) % 400));
    picks.collect::<Vec<_>>().join(" ")
}

/// A table of `rows` phrases in column `column`, ids `first..`, and a
/// `bucket` column `id % 100`.
fn phrases(column: &str, first: i64, rows: usize, words: usize) -> Table {
    let ids: Vec<i64> = (first..first + rows as i64).collect();
    TableBuilder::new()
        .int64("id", ids.clone())
        .int64("bucket", ids.iter().map(|id| id % 100).collect())
        .utf8(
            column,
            ids.iter().map(|&id| phrase(id as usize, words)).collect(),
        )
        .build()
        .expect("table")
}

/// The tables of the served workload's warm statements: 4,000 `docs`, 16
/// `queries`, a 1-row `probe`, 64 `topics` and the 2,000-row `live` table
/// a standing view reads.
fn serving_session(strategy: JoinStrategy) -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    s.register_table("docs", phrases("dtext", 0, 4_000, 3));
    s.register_table("queries", phrases("qtext", 10_000, 16, 3));
    s.register_table("probe", phrases("qtext", 20_000, 1, 4));
    s.register_table("topics", phrases("label", 30_000, 64, 1));
    s.register_table("live", phrases("note", 40_000, 2_000, 2));
    s.register_model("ft", model(42));
    s.with_strategy(strategy);
    s
}

fn ejoin(
    outer: &str,
    inner: &str,
    on: (&str, &str),
    predicate: SimilarityPredicate,
) -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::scan(outer),
        LogicalPlan::scan(inner),
        on.0,
        on.1,
        "ft",
        predicate,
    )
}

/// The view's rows in a canonical order, score bits included.
fn canonical(table: Table) -> Table {
    MaintainedResult::new(table).canonical().expect("canonical")
}

/// `table` without its similarity column: the pairs a join returned.
fn pairs_of(table: &Table) -> Table {
    let keep: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .filter(|name| name != "similarity")
        .collect();
    let columns: Vec<&str> = keep.iter().map(String::as_str).collect();
    table.project(&columns).expect("project")
}

#[test]
fn serving_shapes_screen_from_the_first_outer_row() {
    // the served workload's warm statements, run through one session: a
    // 16-row statement over 4,000 rows with top-3 and with a threshold, a
    // 1-row probe over the same rows, and a standing top-1 view over 64
    // rows fed 5-row deltas.  Every inner side carries the session's stored
    // codes, so on a CPU with AVX-512 VNNI each join screens, however few
    // its outer rows; the pairs and score bits are the fp32 block path's
    let vnni = cej_vector::Screen::detect().is_some();
    let tensor = JoinStrategy::Tensor(TensorJoinConfig::default());
    let live = serving_session(tensor);
    // the fp32 block path's bits: the prefetch NLJ's `Unrolled` dot product
    // is the GEMM's; the NO-SIMD kernel returns the same pairs with scores
    // that may differ in the last bits
    let block = serving_session(JoinStrategy::PrefetchNlj(NljConfig::default()));
    let no_simd = TensorJoinConfig::default().with_kernel(Kernel::Scalar);
    let no_simd = serving_session(JoinStrategy::Tensor(no_simd));
    let statements = [
        (
            "16 x 4,000 top-3",
            ejoin(
                "queries",
                "docs",
                ("qtext", "dtext"),
                SimilarityPredicate::TopK(3),
            ),
        ),
        (
            "16 x 4,000 >= 0.6",
            ejoin(
                "queries",
                "docs",
                ("qtext", "dtext"),
                SimilarityPredicate::Threshold(0.6),
            ),
        ),
        (
            "1 x 4,000 top-3",
            ejoin(
                "probe",
                "docs",
                ("qtext", "dtext"),
                SimilarityPredicate::TopK(3),
            ),
        ),
    ];
    for (what, plan) in &statements {
        let first = run_plan(&live, plan);
        let warm = run_plan(&live, plan);
        assert!(warm.table.num_rows() > 0, "{what}");
        assert_eq!(warm.join_stats.inner_rows_quantized, 0, "{what}: warm");
        for report in [&first, &warm] {
            let join = report.join_stats;
            assert_eq!(join.pairs_rescored < join.pairs_compared, vnni, "{what}");
            let screened = join.tensor_path == Some(TensorPath::Int8Screen);
            assert_eq!(screened, vnni, "{what}");
            assert_eq!(report.table, first.table, "{what}");
            assert_eq!(score_bits(report), score_bits(&first), "{what}");
        }
        let expected = run_plan(&block, plan);
        assert_eq!(
            canonical(warm.table.clone()),
            canonical(expected.table),
            "{what}"
        );
        let scalar = run_plan(&no_simd, plan);
        assert_eq!(
            scalar.join_stats.pairs_rescored,
            scalar.join_stats.pairs_compared
        );
        assert_eq!(pairs_of(&warm.table), pairs_of(&scalar.table), "{what}");
    }

    // the standing view: 100 rows appended per delta, 5 of which pass its
    // filter, joined against the 64 topics it keeps, by their stored codes
    let view = LogicalPlan::e_join(
        LogicalPlan::scan("live").select(col("bucket").lt(lit_i64(5))),
        LogicalPlan::scan("topics"),
        "note",
        "label",
        "ft",
        SimilarityPredicate::TopK(1),
    );
    let standing = live
        .prepare(&view)
        .expect("prepare")
        .subscribe()
        .expect("subscribe");
    let coded = live.embedding_caches().coded_slots();
    for step in 0..3u64 {
        let what = format!("delta {step}");
        let rows = phrases("note", 50_000 + 100 * step as i64, 100, 2);
        for s in [&live, &block, &no_simd] {
            s.apply_delta("live", &Delta::Append(rows.clone()))
                .expect("append");
        }
        let stats = standing.stats();
        assert_eq!(
            (stats.propagations, stats.refreshes),
            (step + 1, 0),
            "{what}"
        );
        assert_eq!(stats.pairs_compared, (step + 1) * 5 * 64, "{what}");
        assert_eq!(stats.pairs_rescored < stats.pairs_compared, vnni, "{what}");
        let maintained = standing.snapshot().expect("snapshot");
        let expected = canonical(run_plan(&block, &view).table);
        assert_eq!(maintained, expected, "{what}");
        let scalar = canonical(run_plan(&no_simd, &view).table);
        assert_eq!(pairs_of(&maintained), pairs_of(&scalar), "{what}");
    }
    // the deltas coded nothing: the topics' slots were coded by the view's
    // first run
    assert_eq!(live.embedding_caches().coded_slots(), coded);
    assert!(live.unsubscribe(standing.id()));
}
