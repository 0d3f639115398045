//! End-to-end tests for N-table queries: join-order invariance across
//! logically equivalent plans and morsel sizes, the redesigned builder API,
//! naming-rule errors, and targeted threshold rebinding.

use crate::builder::sim_gte;
use crate::error::CoreError;
use crate::physical_plan::{q_error, InnerInput, PhysicalPlan};
use crate::planner::Planner;
use crate::session::{ContextJoinSession, JoinStrategy};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_relational::{col, lit_i64, LogicalPlan, RelationalError, SimilarityPredicate};
use cej_storage::{Table, TableBuilder};

fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 1000,
        ..FastTextConfig::default()
    })
    .unwrap()
}

/// Star schema: `orders` (fact) → `customers` → `regions`, plus a `products`
/// table joined by text similarity on the order note.
fn star_session() -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    s.register_table(
        "orders",
        TableBuilder::new()
            .int64("order_id", vec![1, 2, 3, 4, 5, 6])
            .int64("cust_fk", vec![10, 10, 20, 20, 30, 30])
            .int64("total", vec![50, 150, 250, 80, 120, 300])
            .utf8(
                "note",
                vec![
                    "barbecue grill".into(),
                    "database server".into(),
                    "barbecue tongs".into(),
                    "laptop sleeve".into(),
                    "database book".into(),
                    "garden barbecue".into(),
                ],
            )
            .build()
            .unwrap(),
    );
    s.register_table(
        "customers",
        TableBuilder::new()
            .int64("cust_id", vec![10, 20, 30])
            .int64("region_fk", vec![100, 100, 200])
            .utf8(
                "cust_name",
                vec!["ada".into(), "grace".into(), "edsger".into()],
            )
            .build()
            .unwrap(),
    );
    s.register_table(
        "regions",
        TableBuilder::new()
            .int64("region_id", vec![100, 200])
            .utf8("region_name", vec!["west".into(), "east".into()])
            .build()
            .unwrap(),
    );
    s.register_table(
        "products",
        TableBuilder::new()
            .int64("product_id", vec![1000, 2000, 3000])
            .utf8(
                "title",
                vec![
                    "barbecues and grills".into(),
                    "database systems".into(),
                    "notebook computers".into(),
                ],
            )
            .build()
            .unwrap(),
    );
    s.register_model("fasttext", model());
    for table in ["orders", "customers", "regions", "products"] {
        s.catalog().analyze(table).unwrap();
    }
    s
}

/// Renders a table as a set-comparable string: columns in sorted-name order,
/// rows rendered then sorted.  This erases the column order and row order a
/// specific join order produces while preserving every value.
fn canonical(table: &Table) -> Vec<String> {
    let mut names: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    names.sort();
    let mut rows = Vec::with_capacity(table.num_rows());
    for row in 0..table.num_rows() {
        let mut cells = Vec::with_capacity(names.len());
        for name in &names {
            let column = table.column_by_name(name).unwrap();
            let cell = if let Ok(v) = column.as_int64() {
                v[row].to_string()
            } else if let Ok(v) = column.as_utf8() {
                v[row].clone()
            } else if let Ok(v) = column.as_float64() {
                format!("{}", v[row])
            } else if let Ok(v) = column.as_date() {
                v[row].to_string()
            } else {
                panic!("unexpected column type for {name}")
            };
            cells.push(format!("{name}={cell}"));
        }
        rows.push(cells.join("\t"));
    }
    rows.sort();
    rows
}

fn run_morsels(s: &ContextJoinSession, plan: &LogicalPlan, morsel_rows: usize) -> Table {
    let prepared = s.prepare(plan).unwrap();
    let ctx = crate::executor::ExecContext {
        catalog: s.catalog(),
        registry: &s.model_registry(),
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: *cej_exec::ExecPool::global(),
    };
    prepared
        .physical_plan()
        .execute_with(&ctx, morsel_rows)
        .unwrap()
        .table
}

/// Logically equivalent 4-table plans differing in join-chain order and
/// tree shape (left-deep both orientations, plus a bushy right side).
fn equivalent_plans() -> Vec<LogicalPlan> {
    let ejoin = |left: LogicalPlan| {
        LogicalPlan::e_join(
            left,
            LogicalPlan::scan("products"),
            "note",
            "title",
            "fasttext",
            SimilarityPredicate::Threshold(0.4),
        )
    };
    let left_deep = LogicalPlan::join(
        LogicalPlan::join(
            LogicalPlan::scan("orders"),
            LogicalPlan::scan("customers"),
            "cust_fk",
            "cust_id",
        ),
        LogicalPlan::scan("regions"),
        "region_fk",
        "region_id",
    );
    let flipped = LogicalPlan::join(
        LogicalPlan::join(
            LogicalPlan::scan("customers"),
            LogicalPlan::scan("orders"),
            "cust_id",
            "cust_fk",
        ),
        LogicalPlan::scan("regions"),
        "region_fk",
        "region_id",
    );
    let bushy = LogicalPlan::join(
        LogicalPlan::scan("orders"),
        LogicalPlan::join(
            LogicalPlan::scan("customers"),
            LogicalPlan::scan("regions"),
            "region_fk",
            "region_id",
        ),
        "cust_fk",
        "cust_id",
    );
    let dims_first = LogicalPlan::join(
        LogicalPlan::join(
            LogicalPlan::scan("regions"),
            LogicalPlan::scan("customers"),
            "region_id",
            "region_fk",
        ),
        LogicalPlan::scan("orders"),
        "cust_id",
        "cust_fk",
    );
    vec![
        ejoin(left_deep),
        ejoin(flipped),
        ejoin(bushy),
        ejoin(dims_first),
    ]
}

/// Both modes of cutting the work: one whole-table morsel per operator, and
/// 3-row morsels.
#[test]
fn all_join_orders_produce_identical_results_in_both_exec_modes() {
    let s = star_session();
    let mut reference: Option<Vec<String>> = None;
    for (i, plan) in equivalent_plans().into_iter().enumerate() {
        for (morsel_rows, label) in [(usize::MAX, "whole table"), (3, "3-row morsels")] {
            let table = run_morsels(&s, &plan, morsel_rows);
            let rows = canonical(&table);
            assert!(!rows.is_empty(), "plan {i} ({label}) returned no rows");
            match &reference {
                None => {
                    // the one canonical result is the written query's answer:
                    // the DP rewrite checked as an equivalence, once
                    let tables = ["orders", "customers", "regions", "products"]
                        .map(|name| (name, s.catalog().table(name).unwrap()));
                    let tables = tables
                        .each_ref()
                        .map(|(name, table)| (*name, table.as_ref()));
                    let oracle = cej_oracle::Oracle {
                        tables: &tables,
                        models: &[("fasttext", &model())],
                        exact: true,
                    };
                    oracle.expect(&plan).unwrap().check(&table).unwrap();
                    reference = Some(rows);
                }
                Some(expected) => {
                    assert_eq!(&rows, expected, "plan {i} ({label}) diverged");
                }
            }
        }
    }
}

/// A star schema with something for the ordering pass to win (on the six
/// rows of [`star_session`] it rightly leaves the ejoin on the fact table):
/// `fact` rows carry foreign keys into two dimensions, of which `stores` is
/// filtered to a tenth, and a `note` joined to `products` by similarity.
fn filtered_star_session(fact_rows: usize, dim_rows: usize) -> ContextJoinSession {
    const POOL: [&str; 12] = [
        "barbecue", "grill", "database", "server", "laptop", "garden", "vector", "index", "tensor",
        "storage", "network", "kernel",
    ];
    let phrase = |a: usize, b: usize| format!("{} {}", POOL[a % 12], POOL[b % 12]);
    let mut s = ContextJoinSession::new();
    s.register_table(
        "fact",
        TableBuilder::new()
            .int64("order_id", (0..fact_rows as i64).collect())
            .int64(
                "store_fk",
                (0..fact_rows).map(|i| (i % dim_rows) as i64).collect(),
            )
            .int64(
                "courier_fk",
                (0..fact_rows)
                    .map(|i| ((i * 7 + 1) % dim_rows) as i64)
                    .collect(),
            )
            .utf8(
                "note",
                (0..fact_rows).map(|i| phrase(i, i * 5 + 3)).collect(),
            )
            .build()
            .unwrap(),
    );
    s.register_table(
        "stores",
        TableBuilder::new()
            .int64("store_id", (0..dim_rows as i64).collect())
            .int64(
                "store_kind",
                (0..dim_rows).map(|i| (i % 10) as i64).collect(),
            )
            .build()
            .unwrap(),
    );
    s.register_table(
        "couriers",
        TableBuilder::new()
            .int64("courier_id", (0..dim_rows as i64).collect())
            .int64(
                "courier_tier",
                (0..dim_rows).map(|i| (i % 3) as i64).collect(),
            )
            .build()
            .unwrap(),
    );
    s.register_table(
        "products",
        TableBuilder::new()
            .int64("product_id", (0..dim_rows as i64).collect())
            .utf8(
                "title",
                (0..dim_rows).map(|j| phrase(j, j * 7 + 2)).collect(),
            )
            .build()
            .unwrap(),
    );
    s.register_model("fasttext", model());
    for table in ["fact", "stores", "couriers", "products"] {
        s.catalog().analyze(table).unwrap();
    }
    s
}

/// Walks `plan` in the executor's pre-order against its per-operator
/// actuals, returning the worst q-error of any operator and the actual rows
/// the (outermost) ejoin read from its outer input.
fn plan_quality(plan: &PhysicalPlan, actuals: &[u64]) -> (f64, u64) {
    fn walk(
        plan: &PhysicalPlan,
        actuals: &[u64],
        slot: &mut usize,
        worst: &mut f64,
        fed: &mut Option<u64>,
    ) {
        let actual = actuals[*slot];
        *slot += 1;
        *worst = worst.max(q_error(plan.estimate().rows, actual as f64));
        match plan {
            PhysicalPlan::TableScan { .. } => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Embed { input, .. }
            | PhysicalPlan::Rename { input, .. } => walk(input, actuals, slot, worst, fed),
            PhysicalPlan::HashJoin(node) => {
                walk(&node.left, actuals, slot, worst, fed);
                walk(&node.right, actuals, slot, worst, fed);
            }
            PhysicalPlan::Join(node) => {
                // the outer input's root is the slot right after the join's
                fed.get_or_insert(actuals[*slot]);
                walk(&node.outer, actuals, slot, worst, fed);
                if let InnerInput::Plan(inner) = &node.inner {
                    walk(inner, actuals, slot, worst, fed);
                }
            }
        }
    }
    let (mut slot, mut worst, mut fed) = (0, 1.0, None);
    walk(plan, actuals, &mut slot, &mut worst, &mut fed);
    assert_eq!(slot, actuals.len(), "one actual per operator");
    (worst, fed.expect("the plan has an ejoin"))
}

#[test]
fn dp_order_feeds_the_ejoin_fewer_rows_than_the_worst_left_deep_order() {
    let s = filtered_star_session(600, 20);
    // the worst left-deep order, as written: the similarity join over the
    // whole fact table first, both dimension joins stacked above it
    let written = LogicalPlan::join(
        LogicalPlan::join(
            LogicalPlan::e_join(
                LogicalPlan::scan("fact"),
                LogicalPlan::scan("products"),
                "note",
                "title",
                "fasttext",
                SimilarityPredicate::Threshold(0.6),
            ),
            LogicalPlan::scan("stores").select(col("store_kind").eq(lit_i64(0))),
            "l_store_fk",
            "store_id",
        ),
        LogicalPlan::scan("couriers"),
        "l_courier_fk",
        "courier_id",
    );

    let registry = s.model_registry();
    let ctx = crate::executor::ExecContext {
        catalog: s.catalog(),
        registry: &registry,
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: *cej_exec::ExecPool::global(),
    };
    // `prepare` runs the ordering pass; lowering the tree directly keeps the
    // written order (its filter already sits on its scan)
    let prepared = s.prepare(&written).unwrap();
    let dp_plan = prepared.physical_plan();
    let written_plan = Planner::new(JoinStrategy::Auto)
        .plan(&written, s.catalog(), &registry, s.index_manager())
        .unwrap();
    let dp = dp_plan.execute(&ctx).unwrap();
    let as_written = written_plan.execute(&ctx).unwrap();
    assert!(dp.table.num_rows() > 0);
    assert_eq!(canonical(&dp.table), canonical(&as_written.table));

    let (dp_qerror, dp_fed) = plan_quality(dp_plan, &dp.operator_rows);
    let (_, written_fed) = plan_quality(&written_plan, &as_written.operator_rows);
    assert_eq!(written_fed, 600, "the written order scores every fact");
    assert!(
        dp_fed < written_fed,
        "the DP order must join the dimensions first: ejoin fed {dp_fed} rows\n{}",
        dp_plan.explain()
    );
    assert!(
        dp_qerror <= 8.0,
        "DP plan's worst per-operator q-error {dp_qerror:.2} exceeds 8.0\n{}",
        dp_plan.explain_analyze(&dp.operator_rows)
    );
}

#[test]
fn filtered_join_orders_stay_identical() {
    let s = star_session();
    let mut reference: Option<Vec<String>> = None;
    for (i, plan) in equivalent_plans().into_iter().enumerate() {
        let filtered = plan.select(col("l_total").gt_eq(lit_i64(100)));
        let rows = canonical(&run_morsels(&s, &filtered, cej_storage::DEFAULT_BATCH_ROWS));
        assert!(!rows.is_empty(), "plan {i} returned no rows");
        match &reference {
            None => reference = Some(rows),
            Some(expected) => assert_eq!(&rows, expected, "plan {i} diverged"),
        }
    }
}

#[test]
fn builder_four_table_query_round_trips() {
    let s = star_session();
    let report = s
        .query("orders")
        .join("customers", ("cust_fk", "cust_id"))
        .join("regions", ("region_fk", "region_id"))
        .ejoin("products", ("note", "title"), "fasttext", sim_gte(0.4))
        .run()
        .unwrap();
    let table = &report.table;
    // hash joins preserve names (l_-prefixed by the ejoin on top), the
    // ejoin appends r_* and similarity
    for column in [
        "l_order_id",
        "l_cust_name",
        "l_region_name",
        "r_title",
        "similarity",
    ] {
        assert!(
            table.schema().field(column).is_ok(),
            "missing column {column}"
        );
    }
    // every barbecue order matches the barbecue product with its region name
    let notes = table.column_by_name("l_note").unwrap().as_utf8().unwrap();
    let titles = table.column_by_name("r_title").unwrap().as_utf8().unwrap();
    let regions = table
        .column_by_name("l_region_name")
        .unwrap()
        .as_utf8()
        .unwrap();
    let triples: Vec<(&str, &str, &str)> = notes
        .iter()
        .zip(titles.iter())
        .zip(regions.iter())
        .map(|((n, t), r)| (n.as_str(), t.as_str(), r.as_str()))
        .collect();
    assert!(triples.contains(&("barbecue grill", "barbecues and grills", "west")));
    assert!(triples.contains(&("garden barbecue", "barbecues and grills", "east")));
}

#[test]
fn shared_column_names_across_joined_tables_are_ambiguous() {
    let mut s = star_session();
    // a second table that also has an `order_id` column
    s.register_table(
        "shipments",
        TableBuilder::new()
            .int64("order_id", vec![1, 2])
            .int64("ship_fk", vec![10, 20])
            .build()
            .unwrap(),
    );
    let plan = LogicalPlan::join(
        LogicalPlan::scan("orders"),
        LogicalPlan::scan("shipments"),
        "cust_fk",
        "ship_fk",
    );
    let err = s.prepare(&plan).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Relational(RelationalError::AmbiguousColumn(ref c)) if c == "order_id"
        ),
        "got {err}"
    );
}

#[test]
fn unhashable_join_keys_are_rejected_at_plan_time() {
    let mut s = star_session();
    s.register_table(
        "ratings",
        TableBuilder::new()
            .float64("score", vec![1.0, 2.0])
            .int64("rating_id", vec![1, 2])
            .build()
            .unwrap(),
    );
    let plan = LogicalPlan::join(
        LogicalPlan::scan("orders"),
        LogicalPlan::scan("ratings"),
        "total",
        "score",
    );
    let err = s.prepare(&plan).unwrap_err();
    assert!(
        matches!(err, CoreError::Relational(RelationalError::TypeError(_))),
        "got {err}"
    );
    // and mismatched (but individually hashable) key types too
    let plan = LogicalPlan::join(
        LogicalPlan::scan("orders"),
        LogicalPlan::scan("customers"),
        "note",
        "cust_id",
    );
    assert!(matches!(
        s.prepare(&plan).unwrap_err(),
        CoreError::Relational(RelationalError::TypeError(_))
    ));
}

#[test]
fn bind_threshold_is_ambiguous_on_multi_ejoin_plans() {
    let mut s = star_session();
    s.register_table(
        "slogans",
        TableBuilder::new()
            .utf8(
                "slogan",
                vec!["grills for barbecue fans".into(), "fast databases".into()],
            )
            .build()
            .unwrap(),
    );
    s.catalog().analyze("slogans").unwrap();
    // two threshold ejoins stacked: (orders ~ products) ~ slogans
    let plan = LogicalPlan::e_join(
        LogicalPlan::e_join(
            LogicalPlan::scan("orders"),
            LogicalPlan::scan("products"),
            "note",
            "title",
            "fasttext",
            SimilarityPredicate::Threshold(0.4),
        ),
        LogicalPlan::scan("slogans"),
        "l_note",
        "slogan",
        "fasttext",
        SimilarityPredicate::Threshold(0.4),
    );
    let prepared = s.prepare(&plan).unwrap();
    assert_eq!(prepared.threshold_join_count(), 2);
    assert!(matches!(
        prepared.bind_threshold(0.9),
        Err(CoreError::AmbiguousThresholdBind(2))
    ));
    assert!(matches!(
        prepared.bind_threshold_at(2, 0.9),
        Err(CoreError::InvalidInput(_))
    ));
    // targeting works and the rebound plan still executes
    let baseline = prepared.run().unwrap().table.num_rows();
    let bound = prepared.bind_threshold_at(0, 0.99).unwrap();
    let strict = bound.run().unwrap().table.num_rows();
    assert!(
        strict <= baseline,
        "raising one threshold cannot add rows ({strict} > {baseline})"
    );
    assert!(bound.explain().contains("0.99"), "{}", bound.explain());
}

#[test]
fn bind_threshold_still_works_unambiguously_on_single_ejoin_plans() {
    let s = star_session();
    let prepared = s
        .query("orders")
        .join("customers", ("cust_fk", "cust_id"))
        .ejoin("products", ("note", "title"), "fasttext", sim_gte(0.4))
        .prepare()
        .unwrap();
    assert_eq!(prepared.threshold_join_count(), 1);
    let strict = prepared.bind_threshold(0.99).unwrap();
    assert!(strict.run().unwrap().table.num_rows() <= prepared.run().unwrap().table.num_rows());
}
