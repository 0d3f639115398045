//! Property test: how the interpreter cuts its work changes nothing.
//!
//! For randomly sized workloads, random relational filter predicates, all
//! four join strategies, and morsel sizes straddling the table sizes
//! (1, 7, 1024), executing the *same* physical plan must produce the same
//! output table (rows, order, and similarity scores bit-for-bit), the same
//! per-operator row actuals, and the same matched-pair count as the
//! **whole-table morsel at one thread** — the materialise-everything
//! execution of the same code.  Every cut runs under worker-pool budgets of
//! 1, 2, and 4 threads (explicit [`cej_exec::ExecPool`]s, so one process
//! covers all budgets regardless of `CEJ_THREADS`).
//!
//! Byte-identity alone would let every cut be wrong together, so the
//! baseline is also held to `cej-oracle` — nested loops over the
//! unoptimised logical plan, sharing no code with the engine: exactly for
//! the three exact strategies, for soundness under the approximate index.
//!
//! A second deterministic sweep pins the *embedding* side of the contract:
//! the interpreter embeds base-table columns by row id (slot maps) and keeps
//! a join's inner side a selection — and must report the table **and** the
//! `ExecutionReport::embedding_stats` that embedding every string through
//! the cache reports (one model call per distinct string cold, none warm),
//! on the first (cold) and the second (warm) run, whether the inner side is
//! unfiltered, filtered, projected or renamed.
//!
//! A third sweep pins the *storage* side: a table that deltas have cut into
//! several segments and deleted from — what a scan reads after `APPLY`s — must
//! answer every plan shape exactly as its compaction does, at every cut.
//!
//! A deterministic tensor-join sweep adds the cardinalities the random cases
//! rarely hit together: outer sizes ≡ 1, 2, 3 (mod 4) and odd inner sizes, so
//! that the whole-table GEMM and the 1/7/1024-row morsels all put pairs on
//! both sides of the AVX2 kernel's 4 × 2 register-block edges — a score must
//! not depend on which side.  Another cuts a 60-row outer side into morsels
//! of every size, each screened against the inner side's stored codes, and
//! mixes a morsel the int8 screen refuses (it holds a row too faint to
//! quantise) with screened ones: a screened and an unscreened cut must
//! return the same bytes.  A persistent-index join whose
//! probe filter passes few rows scans them once per run, and one whose rows
//! nearly all pass walks the graph; either must take the same route and
//! return the whole-table morsel's bytes at cuts of 1, 7 and 32 rows too.

use std::collections::HashSet;

use cej_core::{
    ContextJoinSession, ExecContext, IndexJoin, IndexJoinConfig, IndexPath, InnerInput,
    JoinStrategy, NljConfig, PhysicalJoinOp, TensorJoinConfig,
};
use cej_embedding::{Embedder, EmbeddingStats, FastTextConfig, FastTextModel, Vector};
use cej_index::HnswParams;
use cej_oracle::Oracle;
use cej_relational::{col, lit, lit_i64, LogicalPlan, SimilarityPredicate};
use cej_storage::{Column, Delta, ScalarValue, Table};
use cej_workload::{JoinWorkload, RelationSpec};
use proptest::prelude::*;

/// The baseline cut: one morsel per operator, whatever the table size.
const WHOLE_TABLE: usize = usize::MAX;

fn session(outer_rows: usize, inner_rows: usize, strategy: JoinStrategy) -> ContextJoinSession {
    let workload = JoinWorkload::generate(
        RelationSpec::with_rows(outer_rows),
        RelationSpec::with_rows(inner_rows),
        11,
    );
    session_over(workload.outer, workload.inner, strategy)
}

fn session_over(r: Table, inner: Table, strategy: JoinStrategy) -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    s.register_table("r", r);
    s.register_table("s", inner);
    s.register_model(
        "ft",
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 2_000,
            ..FastTextConfig::default()
        })
        .expect("model construction"),
    );
    s.with_strategy(strategy);
    s
}

fn strategy_for(idx: usize) -> JoinStrategy {
    match idx {
        0 => JoinStrategy::NaiveNlj,
        1 => JoinStrategy::PrefetchNlj(NljConfig::default()),
        2 => JoinStrategy::Tensor(TensorJoinConfig::default()),
        _ => JoinStrategy::Index(IndexJoinConfig {
            params: HnswParams::tiny(),
            range_probe_k: 3,
        }),
    }
}

/// Executes the session's physical plan for `plan` in `morsel_rows`-sized
/// morsels with an explicit worker-pool budget, returning everything the
/// equivalence property compares.
fn run_cut(
    s: &ContextJoinSession,
    plan: &LogicalPlan,
    morsel_rows: usize,
    threads: usize,
) -> (Table, Vec<u64>, usize) {
    let prepared = s.prepare(plan).expect("prepare");
    let registry = s.model_registry();
    let ctx = ExecContext {
        catalog: s.catalog(),
        registry: &registry,
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: cej_exec::ExecPool::new(threads),
    };
    let out = prepared
        .physical_plan()
        .execute_with(&ctx, morsel_rows)
        .expect("execute");
    (out.table, out.operator_rows, out.stats.matched_pairs)
}

/// Holds `table` — the engine's answer to `plan` over the session's `r` and
/// `s` — to the oracle's: exactly, or for soundness when the strategy is the
/// approximate index join.
fn check_against_oracle(s: &ContextJoinSession, plan: &LogicalPlan, exact: bool, table: &Table) {
    let (r, inner) = (s.catalog().table("r"), s.catalog().table("s"));
    let (r, inner) = (r.expect("r"), inner.expect("s"));
    let model = s.model_registry().model("ft").ok();
    let models = model.as_ref().map(|model| ("ft", model.as_ref()));
    let oracle = Oracle {
        tables: &[("r", &r), ("s", &inner)],
        models: models.as_slice(),
        exact,
    };
    let expected = oracle.expect(plan).expect("oracle evaluates the plan");
    if let Err(why) = expected.check(table) {
        panic!("oracle (exact: {exact}) rejects the engine's answer to {plan:?}: {why}");
    }
}

/// What embedding every requested string through the cache reports for the
/// cold and the warm run of `plan` on a fresh `session(9, 33, strategy)`, in
/// closed form from the inputs: every request is one lookup, and the first
/// lookup of a string is a model call.  Beside it, the number of scanned
/// join columns a run embeds by row: the outer one, and the inner one unless
/// a persistent index stands in for it (index builds embed through strings)
/// and the run walks it; a run that scans the probe filter's survivors
/// embeds them by row.
fn by_string_stats(
    strategy: JoinStrategy,
    plan: &LogicalPlan,
    filtered: bool,
) -> ([EmbeddingStats; 2], usize) {
    let s = session(9, 33, strategy);
    let prepared = s.prepare(plan).expect("prepare");
    let join = prepared.physical_plan().join_nodes()[0];
    let indexed = matches!(join.inner, InnerInput::Indexed(_));
    let (r, inner) = (s.catalog().table("r"), s.catalog().table("s"));
    let (r, inner) = (r.expect("r"), inner.expect("s"));
    fn words(table: &Table) -> &[String] {
        let column = table.column_by_name("word").expect("word column");
        column.as_utf8().expect("strings")
    }
    let (outer, inner_words) = (words(&r), words(&inner));
    let filter = inner.column_by_name("filter").and_then(|c| c.as_int64());
    let admitted: Vec<&String> = inner_words
        .iter()
        .zip(filter.expect("filter"))
        .filter(|(_, f)| !filtered || **f < 40)
        .map(|(word, _)| word)
        .collect();
    // a persistent index is built once, over the whole column
    let embedded_inner: Vec<&String> = if indexed {
        inner_words.iter().collect()
    } else {
        admitted.clone()
    };
    let distinct: HashSet<&String> = outer.iter().chain(embedded_inner).collect();
    let (n_outer, n_inner) = (outer.len() as u64, admitted.len() as u64);
    let (cold_requests, warm_requests, by_row_columns) = match (&join.op, indexed) {
        // both strings of every pair, inside the pair loop
        (PhysicalJoinOp::NaiveNlj, _) => (2 * n_outer * n_inner, 2 * n_outer * n_inner, 0),
        // the build embeds the column; a warm run its probes, and the
        // filter's survivors when it scans them instead of walking
        (PhysicalJoinOp::Index(config), true) => {
            let route = IndexJoin::new(*config).route(admitted.len(), inner_words.len());
            let scans = route.path == IndexPath::SurvivorScan;
            let survivors = if scans { n_inner } else { 0 };
            let cold = n_outer + inner_words.len() as u64 + survivors;
            (cold, n_outer + survivors, 1 + usize::from(scans))
        }
        (_, _) => (n_outer + n_inner, n_outer + n_inner, 2),
    };
    let model_calls = distinct.len() as u64;
    let stats = [
        EmbeddingStats {
            model_calls,
            cache_hits: cold_requests - model_calls,
        },
        EmbeddingStats {
            model_calls: 0,
            cache_hits: warm_requests,
        },
    ];
    (stats, by_row_columns)
}

/// Runs `plan` twice on a **fresh** session — so the first run is cold,
/// whatever ran before — returning table and embedding counters of both
/// runs, and the number of slot maps the session ended up with.
fn cold_then_warm(
    strategy: JoinStrategy,
    plan: &LogicalPlan,
    morsel_rows: usize,
    threads: usize,
) -> ([(Table, EmbeddingStats); 2], usize) {
    let s = session(9, 33, strategy);
    let prepared = s.prepare(plan).expect("prepare");
    let registry = s.model_registry();
    let ctx = ExecContext {
        catalog: s.catalog(),
        registry: &registry,
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: cej_exec::ExecPool::new(threads),
    };
    let run = || {
        let out = prepared
            .physical_plan()
            .execute_with(&ctx, morsel_rows)
            .expect("execute");
        (out.table, out.stats.embedding_stats)
    };
    let runs = [run(), run()];
    (runs, s.embedding_caches().slot_maps())
}

#[test]
fn embedding_by_row_matches_embedding_by_string_cold_and_warm() {
    let filtered = || LogicalPlan::scan("s").select(col("filter").lt(lit_i64(40)));
    let inner_sides: [(&str, LogicalPlan, &str); 4] = [
        ("unfiltered", LogicalPlan::scan("s"), "word"),
        ("filtered", filtered(), "word"),
        ("projected", filtered().project(&["word", "id"]), "word"),
        (
            "renamed",
            filtered().rename(&[("id", "sid"), ("word", "text")]),
            "text",
        ),
    ];
    for (shape, inner, right_column) in inner_sides {
        for strategy_idx in 0..4 {
            let strategy = strategy_for(strategy_idx);
            // the naive NLJ only takes thresholds
            let predicate = if strategy_idx == 0 {
                SimilarityPredicate::Threshold(0.1)
            } else {
                SimilarityPredicate::TopK(2)
            };
            let plan = LogicalPlan::e_join(
                LogicalPlan::scan("r"),
                inner.clone(),
                "word",
                right_column,
                "ft",
                predicate,
            );
            // the optimizer must leave the shape for the interpreter to see
            // (a persistent-index inner carries its projection in the probe)
            let explain = session(9, 33, strategy).explain(&plan).expect("plan");
            match shape {
                "projected" => assert!(explain.to_lowercase().contains("project"), "{explain}"),
                "renamed" => assert!(explain.contains("Rename"), "{explain}"),
                _ => {}
            }
            let (by_string, by_row_columns) =
                by_string_stats(strategy, &plan, shape != "unfiltered");
            let (baseline, _) = cold_then_warm(strategy, &plan, WHOLE_TABLE, 1);
            let [(_, cold), (_, warm)] = &baseline;
            assert!(cold.model_calls > 0, "{shape}: the first run is cold");
            assert_eq!(warm.model_calls, 0, "{shape}: the second run is warm");
            assert_eq!([*cold, *warm], by_string, "{shape} {strategy:?}");
            for morsel_rows in [WHOLE_TABLE, 1, 7, 1024] {
                for threads in [1usize, 2] {
                    let (by_row, maps) = cold_then_warm(strategy, &plan, morsel_rows, threads);
                    let what =
                        format!("{shape} {strategy:?} morsel_rows {morsel_rows} threads {threads}");
                    assert_eq!(baseline, by_row, "{what}");
                    assert_eq!(maps, by_row_columns, "{what}");
                }
            }
        }
    }
}

/// `session(20, 40, strategy)` after deltas against both tables: appends
/// (new segments), deletes and upserts that reach into the registered rows
/// and into the appended ones (tombstones in both).
fn segmented_session(strategy: JoinStrategy) -> ContextJoinSession {
    let s = session(20, 40, strategy);
    // fresh rows: another seed's words, ids from `first` up
    let fresh = |rows: usize, seed: u64, first: i64| {
        let spec = RelationSpec::with_rows(rows);
        let table = JoinWorkload::generate(spec, spec, seed).outer;
        let mut columns = table.columns().to_vec();
        columns[table.schema().index_of("id").expect("id column")] =
            Column::Int64((first..first + rows as i64).collect());
        Table::new(table.schema().clone(), columns).expect("re-keyed rows")
    };
    let delete = |ids: &[i64]| Delta::DeleteByKey {
        key_column: "id".into(),
        keys: ids.iter().copied().map(ScalarValue::Int64).collect(),
    };
    let upsert = |rows: Table| Delta::Upsert {
        key_column: "id".into(),
        rows,
    };
    let deltas = [
        ("r", Delta::Append(fresh(6, 21, 100))),
        ("r", delete(&[1, 4, 7, 102])),
        ("r", upsert(fresh(2, 22, 104))),
        ("s", Delta::Append(fresh(12, 23, 100))),
        ("s", upsert(fresh(3, 24, 5))),
        ("s", delete(&[0, 2, 30, 31, 101, 110])),
    ];
    for (table, delta) in &deltas {
        s.apply_delta(table, delta).expect("delta applies");
    }
    s
}

#[test]
fn a_segmented_tombstoned_table_reads_like_its_compaction() {
    for strategy_idx in 0..4 {
        let strategy = strategy_for(strategy_idx);
        let live = segmented_session(strategy);
        for table in ["r", "s"] {
            let version = live.catalog().table_version(table).expect(table);
            let segments = version.segments();
            assert!(segments.len() > 1, "{table}: {} segment(s)", segments.len());
            let tombstoned = |seg: &cej_storage::Segment| seg.live_rows() < seg.rows().num_rows();
            assert!(segments.iter().any(tombstoned), "{table}");
        }
        let contiguous = |table: &str| live.catalog().table(table).expect("table");
        let compacted = session_over(
            contiguous("r").as_ref().clone(),
            contiguous("s").as_ref().clone(),
            strategy,
        );
        let filtered = || LogicalPlan::scan("s").select(col("filter").lt(lit_i64(60)));
        // a date the live rows hold, so an equality keeps some of them
        let s = contiguous("s");
        let s_dates = s.column_by_name("date").and_then(|c| c.as_date());
        let mut s_dates = s_dates.expect("s.date is a Date column").to_vec();
        s_dates.sort_unstable();
        let day = lit(ScalarValue::Date(s_dates[s_dates.len() / 2]));
        // the naive NLJ only takes thresholds
        let predicate = if strategy_idx == 0 {
            SimilarityPredicate::Threshold(0.1)
        } else {
            SimilarityPredicate::TopK(2)
        };
        let renamed = [
            ("id", "s_id"),
            ("word", "s_word"),
            ("filter", "s_filter"),
            ("date", "s_date"),
        ];
        let plans = [
            ("scan", LogicalPlan::scan("r")),
            ("filter", filtered()),
            // the filter kernels' `AND` and `Date` arms, over windows that
            // some deletes reached into and some did not
            (
                "filter and date",
                LogicalPlan::scan("s").select(
                    col("filter")
                        .lt(lit_i64(60))
                        .and(col("date").gt_eq(day.clone())),
                ),
            ),
            ("date", LogicalPlan::scan("s").select(col("date").eq(day))),
            (
                "ejoin",
                LogicalPlan::e_join(
                    LogicalPlan::scan("r"),
                    filtered(),
                    "word",
                    "word",
                    "ft",
                    predicate,
                ),
            ),
            (
                "hash join",
                LogicalPlan::join(
                    LogicalPlan::scan("r"),
                    filtered().rename(&renamed),
                    "filter",
                    "s_filter",
                ),
            ),
        ];
        for (shape, plan) in &plans {
            let expected = run_cut(&compacted, plan, WHOLE_TABLE, 1);
            assert!(expected.0.num_rows() > 0, "{shape} must compare rows");
            check_against_oracle(&compacted, plan, strategy_idx < 3, &expected.0);
            for morsel_rows in [WHOLE_TABLE, 1, 7, 1024] {
                for threads in [1usize, 2] {
                    let what =
                        format!("{shape} {strategy:?} morsel_rows {morsel_rows} threads {threads}");
                    assert_eq!(
                        run_cut(&live, plan, morsel_rows, threads),
                        expected,
                        "{what}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_selective_index_filter_is_scanned_alike_at_every_cut() {
    // a persistent-index join whose probe filter passes few rows scans
    // them: once per run, whatever the outer morsels, so every cut and pool
    // returns the whole-table morsel's bytes
    let s = session(40, 200, strategy_for(3));
    for (predicate, exact) in [
        (SimilarityPredicate::TopK(2), true),
        // a threshold takes the top `range_probe_k` first: sound, not exact
        (SimilarityPredicate::Threshold(0.3), false),
    ] {
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s").select(col("filter").lt(lit_i64(10))),
            "word",
            "word",
            "ft",
            predicate,
        );
        let report = s.prepare(&plan).expect("prepare").run().expect("run");
        let route = report
            .join_stats
            .index_route
            .expect("a persistent-index join");
        assert_eq!(route.path, IndexPath::SurvivorScan, "{route:?}");
        let (whole_table, whole_actuals, whole_pairs) = run_cut(&s, &plan, WHOLE_TABLE, 1);
        assert!(whole_pairs > 0);
        check_against_oracle(&s, &plan, exact, &whole_table);
        for morsel_rows in [1usize, 7, 32] {
            for threads in [1usize, 2] {
                let what = format!("{predicate:?} morsel_rows {morsel_rows} threads {threads}");
                let (table, actuals, pairs) = run_cut(&s, &plan, morsel_rows, threads);
                assert_eq!(whole_table, table, "{what}");
                assert_eq!(whole_actuals, actuals, "{what}");
                assert_eq!(whole_pairs, pairs, "{what}");
            }
        }
    }
}

#[test]
fn an_index_walk_is_alike_at_every_cut() {
    // 3,000 inner rows against a narrow graph (efSearch 8, M0 8): every row
    // passing, or nearly every row, is priced cheaper to walk than to scan
    // (`IndexJoin::route`), so each outer row walks the graph; the route
    // reads the survivors, the rows and the graph's parameters only, so it
    // is the same at every cut and pool, and so are the bytes
    let config = IndexJoinConfig {
        params: HnswParams {
            m: 4,
            m0: 8,
            ef_construction: 32,
            ef_search: 8,
            ..HnswParams::tiny()
        },
        range_probe_k: 3,
    };
    let rows = 3_000;
    let s = session(40, rows, JoinStrategy::Index(config));
    let inner = s.catalog().table("s").expect("s");
    let filter = inner.column_by_name("filter").and_then(|c| c.as_int64());
    let passing = filter.expect("filter").iter().filter(|&&f| f < 97).count();
    for (inner_side, survivors) in [
        (LogicalPlan::scan("s"), rows),
        (
            LogicalPlan::scan("s").select(col("filter").lt(lit_i64(97))),
            passing,
        ),
    ] {
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            inner_side,
            "word",
            "word",
            "ft",
            SimilarityPredicate::TopK(2),
        );
        let route = IndexJoin::new(config).route(survivors, rows);
        assert_eq!(route.path, IndexPath::Walk, "{route:?}");
        let prepared = s.prepare(&plan).expect("prepare");
        let registry = s.model_registry();
        let at = |morsel_rows: usize, threads: usize| {
            let ctx = ExecContext {
                catalog: s.catalog(),
                registry: &registry,
                embeddings: s.embedding_caches(),
                indexes: s.index_manager(),
                pool: cej_exec::ExecPool::new(threads),
            };
            let out = prepared.physical_plan().execute_with(&ctx, morsel_rows);
            let out = out.expect("execute");
            assert!(out.stats.join_stats.probe_stats.distance_computations > 0);
            let run = (out.table, out.operator_rows, out.stats.matched_pairs);
            (run, out.stats.join_stats.index_route)
        };
        let (whole, whole_route) = at(WHOLE_TABLE, 1);
        assert_eq!(whole_route, Some(route));
        assert!(whole.2 > 0);
        check_against_oracle(&s, &plan, false, &whole.0);
        for morsel_rows in [1usize, 7, 32] {
            for threads in [1usize, 2] {
                let what = format!("{route:?} morsel_rows {morsel_rows} threads {threads}");
                assert_eq!(
                    at(morsel_rows, threads),
                    (whole.clone(), Some(route)),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn tensor_join_scores_do_not_depend_on_register_block_edges() {
    // (outer, inner): outer covers 1, 2, 3 (mod 4), inner is odd; 13 outer
    // rows split into 7 + 6 under the 7-row morsel
    for (outer_rows, inner_rows) in [(5usize, 9usize), (6, 7), (7, 11), (13, 5), (9, 33)] {
        let s = session(
            outer_rows,
            inner_rows,
            JoinStrategy::Tensor(TensorJoinConfig::default()),
        );
        for predicate in [
            SimilarityPredicate::TopK(2),
            SimilarityPredicate::Threshold(0.1),
        ] {
            // unfiltered, so the GEMM sees exactly these cardinalities
            let plan = LogicalPlan::e_join(
                LogicalPlan::scan("r"),
                LogicalPlan::scan("s"),
                "word",
                "word",
                "ft",
                predicate,
            );
            let (whole_table, whole_actuals, whole_pairs) = run_cut(&s, &plan, WHOLE_TABLE, 1);
            assert!(whole_pairs > 0, "the sweep must compare actual scores");
            check_against_oracle(&s, &plan, true, &whole_table);
            for morsel_rows in [1usize, 7, 1024] {
                for threads in [1usize, 2] {
                    let (table, actuals, pairs) = run_cut(&s, &plan, morsel_rows, threads);
                    let what = format!(
                        "{outer_rows}x{inner_rows} {predicate:?} morsel_rows {morsel_rows} threads {threads}"
                    );
                    assert_eq!(whole_table, table, "{what}");
                    assert_eq!(whole_actuals, actuals, "{what}");
                    assert_eq!(whole_pairs, pairs, "{what}");
                }
            }
        }
    }
}

/// The word of [`Faint`]'s refused vector.
const FAINT: &str = "faint";

/// The test model with one word's vector scaled into the subnormals: its
/// squared norm underflows to 0, so normalising leaves it as it is, and
/// its largest magnitude lies below the int8 screen's range — an outer row
/// the screen refuses, which the fp32 block path scores like any other.
struct Faint(FastTextModel);

impl Embedder for Faint {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn embed(&self, input: &str) -> Vector {
        let mut v = self.0.embed(input);
        if input == FAINT {
            v.scale(1e-39);
        }
        v
    }
}

/// [`session`]`(60, 400, Tensor)` with [`Faint`] as its model and the
/// outer row 30 — in the second 24-row morsel — reading [`FAINT`], a word
/// no inner row holds.
fn faint_session() -> ContextJoinSession {
    let workload = JoinWorkload::generate(
        RelationSpec::with_rows(60),
        RelationSpec::with_rows(400),
        11,
    );
    let column = |table: &Table, name: &str| table.column_by_name(name).expect("column").clone();
    let mut words = column(&workload.outer, "word")
        .as_utf8()
        .expect("utf8")
        .to_vec();
    words[30] = FAINT.to_string();
    let ids = column(&workload.outer, "id")
        .as_int64()
        .expect("int64")
        .to_vec();
    let outer = cej_storage::TableBuilder::new()
        .int64("id", ids)
        .utf8("word", words)
        .build()
        .expect("outer table");
    let inner_words = column(&workload.inner, "word");
    assert!(!inner_words
        .as_utf8()
        .expect("utf8")
        .iter()
        .any(|w| w == FAINT));
    let mut s = session_over(
        outer,
        workload.inner,
        JoinStrategy::Tensor(TensorJoinConfig::default()),
    );
    let model = FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 2_000,
        ..FastTextConfig::default()
    })
    .expect("model construction");
    s.register_model("ft", Faint(model));
    s
}

#[test]
fn screened_and_unscreened_cuts_are_byte_identical() {
    // 60 outer rows against a catalog table's 400: the inner side carries
    // the session's stored codes, so on a CPU with AVX-512 VNNI every cut
    // screens, 7-row morsels and the whole side alike
    let s = session(60, 400, JoinStrategy::Tensor(TensorJoinConfig::default()));
    let vnni = cej_vector::Screen::detect().is_some();
    for predicate in [
        SimilarityPredicate::TopK(3),
        SimilarityPredicate::Threshold(0.5),
    ] {
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "word",
            "word",
            "ft",
            predicate,
        );
        let (whole_table, whole_actuals, whole_pairs) = run_cut(&s, &plan, WHOLE_TABLE, 1);
        assert!(whole_pairs > 0);
        check_against_oracle(&s, &plan, true, &whole_table);
        let prepared = s.prepare(&plan).expect("prepare");
        let registry = s.model_registry();
        for morsel_rows in [7usize, 24, 1024, 16_384] {
            for threads in [1usize, 2] {
                let ctx = ExecContext {
                    catalog: s.catalog(),
                    registry: &registry,
                    embeddings: s.embedding_caches(),
                    indexes: s.index_manager(),
                    pool: cej_exec::ExecPool::new(threads),
                };
                let out = prepared
                    .physical_plan()
                    .execute_with(&ctx, morsel_rows)
                    .expect("execute");
                let what = format!("{predicate:?} morsel_rows {morsel_rows} threads {threads}");
                assert_eq!(whole_table, out.table, "{what}");
                assert_eq!(whole_actuals, out.operator_rows, "{what}");
                assert_eq!(whole_pairs, out.stats.matched_pairs, "{what}");
                let join = out.stats.join_stats;
                let screened = join.pairs_rescored < join.pairs_compared;
                assert_eq!(screened, vnni, "{what}");
                // the whole-table run coded every inner slot already
                assert_eq!(join.inner_rows_quantized, 0, "{what}");
            }
        }
        // the mixed cut as a session's first run: the side is coded while
        // it is prepared; the 24-row morsel holding the faint row takes the
        // block path, the other two screen
        let faint = faint_session();
        let (faint_table, faint_actuals, faint_pairs) = run_cut(&faint, &plan, WHOLE_TABLE, 1);
        assert!(faint_pairs > 0);
        for threads in [1usize, 2] {
            let fresh = faint_session();
            let prepared = fresh.prepare(&plan).expect("prepare");
            let registry = fresh.model_registry();
            let ctx = ExecContext {
                catalog: fresh.catalog(),
                registry: &registry,
                embeddings: fresh.embedding_caches(),
                indexes: fresh.index_manager(),
                pool: cej_exec::ExecPool::new(threads),
            };
            let out = prepared
                .physical_plan()
                .execute_with(&ctx, 24)
                .expect("execute");
            let what = format!("{predicate:?} first run, 24-row morsels, threads {threads}");
            assert_eq!(faint_table, out.table, "{what}");
            assert_eq!(faint_actuals, out.operator_rows, "{what}");
            assert_eq!(faint_pairs, out.stats.matched_pairs, "{what}");
            let join = out.stats.join_stats;
            let coded = fresh.embedding_caches().coded_slots() as u64;
            assert_eq!(join.inner_rows_quantized, coded, "{what}");
            assert_eq!(coded > 0, vnni, "{what}");
            // every pair of the refused morsel is rescored, and only some
            // of the others'
            let refused = 24 * 400;
            assert!(join.pairs_rescored >= refused, "{what}");
            assert_eq!(join.pairs_rescored < join.pairs_compared, vnni, "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_cut_matches_the_whole_table_morsel_and_the_oracle(
        outer_rows in 1usize..10,
        inner_rows in 1usize..40,
        strategy_idx in 0usize..4,
        cut in 0i64..101,
        use_topk in any::<bool>(),
        k in 1usize..4,
        threshold in -0.5f32..0.9,
        morsel_idx in 0usize..3,
    ) {
        let s = session(outer_rows, inner_rows, strategy_for(strategy_idx));
        // the naive NLJ only takes thresholds
        let predicate = if use_topk && strategy_idx != 0 {
            SimilarityPredicate::TopK(k)
        } else {
            SimilarityPredicate::Threshold(threshold)
        };
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s").select(col("filter").lt(lit_i64(cut))),
            "word",
            "word",
            "ft",
            predicate,
        );
        let morsel_rows = [1usize, 7, 1024][morsel_idx];

        let (whole_table, whole_actuals, whole_pairs) = run_cut(&s, &plan, WHOLE_TABLE, 1);
        check_against_oracle(&s, &plan, strategy_idx < 3, &whole_table);

        // every (thread budget × morsel size) combination must reproduce the
        // whole-table morsel bit for bit — how the work is cut is pure speed
        for threads in [1usize, 2, 4] {
            let (table, actuals, pairs) = run_cut(&s, &plan, morsel_rows, threads);

            // Bitwise table equality: same rows in the same order, similarity
            // scores (Float64 column) identical to the last bit.
            prop_assert_eq!(&whole_table, &table);
            prop_assert_eq!(&whole_actuals, &actuals);
            prop_assert_eq!(whole_pairs, pairs);
        }
    }

    /// The relational hash join under the same contract: partitioned
    /// parallel builds and parallel probe morsels match the serial build at
    /// every thread budget and morsel size — including fully skewed keys
    /// (a single hot key puts the entire build side in one partition).
    #[test]
    fn parallel_hash_join_matches_serial_including_skew(
        rows in 1usize..30,
        skewed in any::<bool>(),
        morsel_idx in 0usize..3,
    ) {
        let key = |i: usize| if skewed { 7 } else { (i % 5) as i64 };
        let outer = cej_storage::TableBuilder::new()
            .int64("filter", (0..rows).map(key).collect::<Vec<i64>>())
            .utf8("word", (0..rows).map(|i| format!("w{i}")).collect::<Vec<String>>())
            .build()
            .expect("outer table");
        let inner_rows = rows.max(2);
        let inner = cej_storage::TableBuilder::new()
            .int64("rfilter", (0..inner_rows).map(key).collect::<Vec<i64>>())
            .utf8(
                "rword",
                (0..inner_rows).map(|i| format!("v{i}")).collect::<Vec<String>>(),
            )
            .build()
            .expect("inner table");
        let mut s = ContextJoinSession::new();
        s.register_table("r", outer);
        s.register_table("s", inner);
        let plan = LogicalPlan::join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "filter",
            "rfilter",
        );
        let morsel_rows = [1usize, 7, 1024][morsel_idx];

        let (whole_table, whole_actuals, whole_pairs) = run_cut(&s, &plan, WHOLE_TABLE, 1);
        check_against_oracle(&s, &plan, true, &whole_table);
        for threads in [1usize, 2, 4] {
            let (table, actuals, pairs) = run_cut(&s, &plan, morsel_rows, threads);
            prop_assert_eq!(&whole_table, &table);
            prop_assert_eq!(&whole_actuals, &actuals);
            prop_assert_eq!(whole_pairs, pairs);
        }
    }
}
