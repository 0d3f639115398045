//! Lowering from the optimised [`LogicalPlan`] to a [`PhysicalPlan`].
//!
//! The planner is where the paper's Section V cost-based decision happens —
//! *at plan time*, before anything executes:
//!
//! 1. output schemas are resolved bottom-up, so unknown columns, non-string
//!    ejoin columns, and ill-typed predicates fail at `prepare()` with a
//!    typed error instead of mid-execution;
//! 2. cardinalities are estimated bottom-up from the catalog's *statistics
//!    view* ([`cej_storage::TableStats`], computed by the `ANALYZE` pass at
//!    registration): scans are exact, filters apply histogram/ndv-based
//!    selectivities ([`cej_relational::selectivity`]) instead of a constant;
//! 3. for every `EJoin` the index join's run-time route
//!    ([`crate::IndexJoin::route`]) is priced with the statistics-estimated
//!    inner cardinality standing in for the probe filter's survivors — the
//!    selectivity axis of Figures 15-17 — and [`PhysicalPlan::explain`]
//!    renders it; under [`JoinStrategy::Auto`] the join is planned on the
//!    index only for a top-k whose route walks an index over a base-table
//!    column that is resident or could stay resident;
//! 4. when the index path is chosen *and* the inner side reduces to a
//!    base-table column (scan plus filters/projections), the join is lowered
//!    onto a persistent index handle ([`crate::physical_plan::IndexedInner`])
//!    shared through the session's `IndexManager`, with the relational
//!    predicates turned into probe-time filter bitmaps — the paper's
//!    pre-filtering semantics.
//!
//! The produced plan is immutable and snapshots the statistics it was
//! estimated with: executing it twice performs the same physical operators,
//! which is what makes prepared queries meaningful.

use std::sync::Arc;

use std::collections::HashMap;

use cej_relational::selectivity::{
    check_predicate, estimate_selectivity, threshold_selectivity, DEFAULT_SELECTIVITY,
};
use cej_relational::{Catalog, Expr, LogicalPlan, RelationalError, SimilarityPredicate};
use cej_storage::{ColumnStats, DataType, Field, Schema, TableStats};

use cej_relational::physical::ModelRegistry;

use crate::error::CoreError;
use crate::index_manager::{estimate_index_bytes, IndexKey, IndexManager};
use crate::join::index_join::{IndexJoin, IndexJoinConfig};
use crate::join::tensor_join::TensorJoinConfig;
use crate::physical_plan::{
    HashJoinNode, IndexedInner, InnerInput, JoinNode, PhysicalJoinOp, PhysicalPlan, PlanEstimate,
};
use crate::result::IndexPath;
use crate::session::JoinStrategy;
use crate::Result;

/// The output of lowering one subtree: the physical operator, its resolved
/// output schema (for plan-time type checking), and the statistics view of
/// its output — base-table statistics for scans, and *derived* statistics
/// (scaled histograms, renamed columns) above filters and joins, so that
/// estimation keeps working across join boundaries.
struct Lowered {
    plan: PhysicalPlan,
    schema: Schema,
    stats: Option<Arc<TableStats>>,
}

/// Lowers optimised logical plans into physical plans, pricing the index
/// join's route ([`crate::IndexJoin::route`]) for every context-enhanced
/// join.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    strategy: JoinStrategy,
}

impl Planner {
    /// Creates a planner for the given (session) strategy.
    pub fn new(strategy: JoinStrategy) -> Self {
        Self { strategy }
    }

    /// Lowers `plan` to a physical plan.
    ///
    /// # Errors
    /// Returns unknown-table / unknown-model / unknown-column errors and
    /// type errors (non-string ejoin columns, ill-typed predicates) — all
    /// surfaced at plan time, so the executor can assume a resolvable,
    /// well-typed plan.
    pub fn plan(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        registry: &ModelRegistry,
        indexes: &IndexManager,
    ) -> Result<PhysicalPlan> {
        Ok(self.lower(plan, catalog, registry, indexes)?.plan)
    }

    fn lower(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        registry: &ModelRegistry,
        indexes: &IndexManager,
    ) -> Result<Lowered> {
        match plan {
            LogicalPlan::Scan { table } => {
                let schema = catalog.schema(table).map_err(CoreError::from)?;
                let stats = catalog.stats(table).map_err(CoreError::from)?;
                let rows = stats.row_count as f64;
                Ok(Lowered {
                    plan: PhysicalPlan::TableScan {
                        table: table.clone(),
                        est: PlanEstimate::new(rows),
                    },
                    schema,
                    stats: Some(stats),
                })
            }
            LogicalPlan::Selection { predicate, input } => {
                let child = self.lower(input, catalog, registry, indexes)?;
                check_predicate(predicate, &child.schema).map_err(CoreError::from)?;
                let selectivity = child
                    .stats
                    .as_deref()
                    .map(|stats| estimate_selectivity(predicate, stats))
                    .unwrap_or(DEFAULT_SELECTIVITY);
                let est = PlanEstimate::new(child.plan.estimate().rows * selectivity);
                // The filter output keeps every column's value *distribution*
                // (to first order) but shrinks the row count — scale the
                // statistics view so estimators above the filter see it.
                let stats = child
                    .stats
                    .as_deref()
                    .map(|s| Arc::new(scaled_stats(s, est.rows.round().max(0.0) as usize)));
                Ok(Lowered {
                    plan: PhysicalPlan::Filter {
                        predicate: predicate.clone(),
                        selectivity,
                        input: Box::new(child.plan),
                        est,
                    },
                    schema: child.schema,
                    stats,
                })
            }
            LogicalPlan::Projection { columns, input } => {
                let child = self.lower(input, catalog, registry, indexes)?;
                let names: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                let schema = child.schema.project(&names).map_err(CoreError::from)?;
                let est = child.plan.estimate();
                Ok(Lowered {
                    plan: PhysicalPlan::Project {
                        columns: columns.clone(),
                        input: Box::new(child.plan),
                        est,
                    },
                    schema,
                    stats: child.stats,
                })
            }
            LogicalPlan::Embed { spec, input } => {
                let model = registry.model(&spec.model).map_err(CoreError::from)?;
                let child = self.lower(input, catalog, registry, indexes)?;
                require_utf8(&child.schema, &spec.input_column, "embedding input")?;
                let mut fields = child.schema.fields().to_vec();
                fields.push(Field::new(
                    &spec.output_column,
                    DataType::Vector(model.dim()),
                ));
                let schema = Schema::new(fields).map_err(CoreError::from)?;
                let est = child.plan.estimate();
                Ok(Lowered {
                    plan: PhysicalPlan::Embed {
                        spec: spec.clone(),
                        input: Box::new(child.plan),
                        est,
                    },
                    schema,
                    stats: child.stats,
                })
            }
            LogicalPlan::Rename { columns, input } => {
                let child = self.lower(input, catalog, registry, indexes)?;
                let mut fields = Vec::with_capacity(columns.len());
                for (from, to) in columns {
                    let field = child.schema.field(from).map_err(|_| {
                        CoreError::Relational(RelationalError::UnknownColumn(from.clone()))
                    })?;
                    fields.push(Field::new(to, field.data_type));
                }
                let schema = Schema::new(fields).map_err(CoreError::from)?;
                // Zero-copy column shuffle: same rows.
                let est = child.plan.estimate();
                let stats = child.stats.as_deref().map(|s| {
                    let mut renamed = HashMap::new();
                    for (from, to) in columns {
                        if let Some(cs) = s.column(from) {
                            renamed.insert(to.clone(), cs.clone());
                        }
                    }
                    Arc::new(TableStats::from_columns(s.row_count, renamed))
                });
                Ok(Lowered {
                    plan: PhysicalPlan::Rename {
                        columns: columns.clone(),
                        input: Box::new(child.plan),
                        est,
                    },
                    schema,
                    stats,
                })
            }
            LogicalPlan::Join {
                left,
                right,
                left_column,
                right_column,
            } => self.lower_hash_join(
                left,
                right,
                left_column,
                right_column,
                catalog,
                registry,
                indexes,
            ),
            LogicalPlan::EJoin {
                left,
                right,
                left_column,
                right_column,
                model,
                predicate,
            } => self.lower_join(
                left,
                right,
                left_column,
                right_column,
                model,
                *predicate,
                catalog,
                registry,
                indexes,
            ),
        }
    }

    /// Lowers the relational hash equi-join: build right, probe left.
    ///
    /// Plan-time checks: both key columns must exist, share one hashable
    /// (equality-meaningful) type — `Float64` and `Vector` keys are rejected —
    /// and the two inputs must not share any output column name (the N-table
    /// ambiguity rule; use `Rename` to disambiguate before joining).
    #[allow(clippy::too_many_arguments)]
    fn lower_hash_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_column: &str,
        right_column: &str,
        catalog: &Catalog,
        registry: &ModelRegistry,
        indexes: &IndexManager,
    ) -> Result<Lowered> {
        let l = self.lower(left, catalog, registry, indexes)?;
        let r = self.lower(right, catalog, registry, indexes)?;
        let lf = l.schema.field(left_column).map_err(|_| {
            CoreError::Relational(RelationalError::UnknownColumn(left_column.to_string()))
        })?;
        let rf = r.schema.field(right_column).map_err(|_| {
            CoreError::Relational(RelationalError::UnknownColumn(right_column.to_string()))
        })?;
        for (field, role) in [(lf, "left"), (rf, "right")] {
            if matches!(field.data_type, DataType::Float64 | DataType::Vector(_)) {
                return Err(CoreError::Relational(RelationalError::TypeError(format!(
                    "join {role} key {} has type {}, which has no meaningful \
                     equality (hashable keys: Int64, Utf8, Date, Bool)",
                    field.name, field.data_type
                ))));
            }
        }
        if lf.data_type != rf.data_type {
            return Err(CoreError::Relational(RelationalError::TypeError(format!(
                "join keys {left_column} ({}) and {right_column} ({}) have \
                 different types",
                lf.data_type, rf.data_type
            ))));
        }
        // Join output preserves names, so shared names would be ambiguous.
        for field in r.schema.fields() {
            if l.schema.field(&field.name).is_ok() {
                return Err(CoreError::Relational(RelationalError::AmbiguousColumn(
                    field.name.clone(),
                )));
            }
        }
        let mut fields = l.schema.fields().to_vec();
        fields.extend(r.schema.fields().iter().cloned());
        let schema = Schema::new(fields).map_err(CoreError::from)?;

        let l_est = l.plan.estimate();
        let r_est = r.plan.estimate();
        // |L ⋈ R| = |L|·|R| / max(ndv_l, ndv_r); without key statistics, fall
        // back to the foreign-key assumption (the larger side's cardinality
        // as the key domain).
        let ndv = [
            l.stats
                .as_deref()
                .and_then(|s| s.column(left_column))
                .map(|c| c.distinct_count as f64),
            r.stats
                .as_deref()
                .and_then(|s| s.column(right_column))
                .map(|c| c.distinct_count as f64),
        ]
        .into_iter()
        .flatten()
        .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))))
        .unwrap_or_else(|| l_est.rows.max(r_est.rows))
        .max(1.0);
        let est_rows = l_est.rows * r_est.rows / ndv;
        let est = PlanEstimate::new(est_rows);

        // Propagate statistics across the join boundary: both sides keep
        // their names, every column's distribution survives (scaled to the
        // join cardinality), so filters above the join stay estimable.
        let out_rows = est_rows.round().max(0.0) as usize;
        let mut columns = HashMap::new();
        for side in [&l, &r] {
            if let Some(s) = side.stats.as_deref() {
                for name in s.column_names() {
                    if let Some(cs) = s.column(name) {
                        columns.insert(name.to_string(), cs.scaled(out_rows));
                    }
                }
            }
        }
        let stats = Some(Arc::new(TableStats::from_columns(out_rows, columns)));

        Ok(Lowered {
            plan: PhysicalPlan::HashJoin(Box::new(HashJoinNode {
                left: l.plan,
                right: r.plan,
                left_column: left_column.to_string(),
                right_column: right_column.to_string(),
                est,
            })),
            schema,
            stats,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_column: &str,
        right_column: &str,
        model: &str,
        predicate: SimilarityPredicate,
        catalog: &Catalog,
        registry: &ModelRegistry,
        indexes: &IndexManager,
    ) -> Result<Lowered> {
        if !registry.contains(model) {
            return Err(CoreError::Relational(
                cej_relational::RelationalError::UnknownModel(model.to_string()),
            ));
        }
        let outer = self.lower(left, catalog, registry, indexes)?;
        let inner = self.lower(right, catalog, registry, indexes)?;
        require_utf8(&outer.schema, left_column, "ejoin left column")?;
        require_utf8(&inner.schema, right_column, "ejoin right column")?;
        let outer_est = outer.plan.estimate();
        let inner_est = inner.plan.estimate();

        // Can the inner side be served by a persistent index over a base
        // table column?
        let indexable = analyze_indexable_inner(right, right_column, catalog);
        let config = match self.strategy {
            JoinStrategy::Index(config) => config,
            _ => IndexJoinConfig::default(),
        };

        // The route a run of the index arm takes, priced as the interpreter
        // prices it ([`IndexJoin::route`]) with the statistics-estimated
        // inner rows standing in for the probe filter's survivors: an
        // indexable inner is its whole base table behind the filters, any
        // other inner its estimated rows.
        let est_survivors = inner_est.rows.round().max(0.0) as usize;
        let rows = indexable.as_ref().map_or(est_survivors, |ix| ix.base_rows);
        let est_route = IndexJoin::new(config).route(est_survivors.min(rows), rows);

        // Auto plans the index where a run would walk it: a top-k (a walk
        // answers a threshold as a top-`range_probe_k` post-filter, an
        // approximation the scan does not make) over a base-table column
        // whose index is resident or could stay resident under the
        // session's memory budget, minus bytes pinned by in-flight queries
        // (a doomed one would thrash build → evict → rebuild on every
        // execution).
        let walks = match &indexable {
            Some(ix)
                if self.strategy == JoinStrategy::Auto
                    && matches!(predicate, SimilarityPredicate::TopK(_))
                    && est_route.path == IndexPath::Walk =>
            {
                let key = IndexKey::new(&ix.table, right_column, model, config.params);
                indexes.contains(&key) || {
                    let dim = registry.model(model).map_err(CoreError::from)?.dim();
                    indexes.would_stay_resident(estimate_index_bytes(
                        ix.base_rows,
                        dim,
                        &config.params,
                    ))
                }
            }
            _ => false,
        };
        let op = match self.strategy {
            JoinStrategy::Auto if walks => PhysicalJoinOp::Index(config),
            JoinStrategy::Auto => PhysicalJoinOp::Tensor(TensorJoinConfig::default()),
            JoinStrategy::NaiveNlj => PhysicalJoinOp::NaiveNlj,
            JoinStrategy::PrefetchNlj(config) => PhysicalJoinOp::PrefetchNlj(config),
            JoinStrategy::Tensor(config) => PhysicalJoinOp::Tensor(config),
            JoinStrategy::Index(config) => PhysicalJoinOp::Index(config),
        };
        let schema = join_schema(&outer.schema, &inner.schema)?;
        let outer_stats = outer.stats.clone();
        let inner_stats = inner.stats.clone();
        let physical_inner = match (&op, indexable) {
            (PhysicalJoinOp::Index(config), Some(ix)) => InnerInput::Indexed(IndexedInner {
                key: IndexKey::new(&ix.table, right_column, model, config.params),
                filters: ix.filters,
                projection: ix.projection,
                est_rows: inner_est.rows,
            }),
            _ => InnerInput::Plan(inner.plan),
        };

        let est_rows = match predicate {
            SimilarityPredicate::TopK(k) => outer_est.rows * k as f64,
            SimilarityPredicate::Threshold(t) => {
                outer_est.rows * inner_est.rows * threshold_selectivity(t)
            }
        };
        let est = PlanEstimate::new(est_rows);

        // Propagate statistics across the ejoin boundary under the output's
        // `l_*` / `r_*` re-labelling: each side's distributions survive
        // (scaled to the join cardinality), and the synthesised `similarity`
        // column is opaque (no plan-time score distribution).
        let out_rows = est_rows.round().max(0.0) as usize;
        let mut columns = HashMap::new();
        for (side, prefix) in [(&outer_stats, "l_"), (&inner_stats, "r_")] {
            if let Some(s) = side.as_deref() {
                for name in s.column_names() {
                    if let Some(cs) = s.column(name) {
                        columns.insert(format!("{prefix}{name}"), cs.scaled(out_rows));
                    }
                }
            }
        }
        columns.insert(
            "similarity".to_string(),
            ColumnStats {
                row_count: out_rows,
                null_count: 0,
                distinct_count: out_rows.max(1),
                min: None,
                max: None,
                histogram: None,
                avg_utf8_len: None,
            },
        );
        let stats = Some(Arc::new(TableStats::from_columns(out_rows, columns)));

        Ok(Lowered {
            plan: PhysicalPlan::Join(Box::new(JoinNode {
                outer: outer.plan,
                inner: physical_inner,
                left_column: left_column.to_string(),
                right_column: right_column.to_string(),
                model: model.to_string(),
                predicate,
                op,
                est_route,
                est,
            })),
            schema,
            stats,
        })
    }
}

/// Re-derives a statistics view at a new cardinality: every column's
/// distribution shape is kept, masses and counts scale (see
/// [`ColumnStats::scaled`]).
fn scaled_stats(stats: &TableStats, new_rows: usize) -> TableStats {
    let columns = stats
        .column_names()
        .into_iter()
        .filter_map(|name| {
            stats
                .column(name)
                .map(|cs| (name.to_string(), cs.scaled(new_rows)))
        })
        .collect();
    TableStats::from_columns(new_rows, columns)
}

/// Requires `column` to exist in `schema` with type `Utf8`; the typed
/// plan-time error for context columns.
fn require_utf8(schema: &Schema, column: &str, role: &str) -> Result<()> {
    let field = schema
        .field(column)
        .map_err(|_| CoreError::Relational(RelationalError::UnknownColumn(column.to_string())))?;
    if field.data_type != DataType::Utf8 {
        return Err(CoreError::Relational(RelationalError::TypeError(format!(
            "{role} {column} must be a Utf8 string column, found {}",
            field.data_type
        ))));
    }
    Ok(())
}

/// The output schema of a context-enhanced join: `l_*` columns, `r_*`
/// columns, `similarity` — exactly what the executor materialises.
fn join_schema(outer: &Schema, inner: &Schema) -> Result<Schema> {
    let mut fields = Vec::with_capacity(outer.len() + inner.len() + 1);
    for f in outer.fields() {
        fields.push(Field::new(format!("l_{}", f.name), f.data_type));
    }
    for f in inner.fields() {
        fields.push(Field::new(format!("r_{}", f.name), f.data_type));
    }
    fields.push(Field::new("similarity", DataType::Float64));
    Schema::new(fields).map_err(CoreError::from)
}

/// Result of checking whether a join's inner subtree reduces to a
/// (filtered, projected) base-table column that a persistent index can cover.
struct IndexableInner {
    table: String,
    filters: Vec<Expr>,
    projection: Option<Vec<String>>,
    base_rows: usize,
}

/// Walks the inner subtree accepting only `Scan` / `Selection` / `Projection`
/// nodes.  Filters become probe-time bitmaps; the outermost projection (if
/// any) defines the inner side's output columns and must retain the join
/// column.  Anything else (nested joins, embeddings, unknown tables) makes
/// the inner side non-indexable and falls back to a materialised subplan.
fn analyze_indexable_inner(
    plan: &LogicalPlan,
    right_column: &str,
    catalog: &Catalog,
) -> Option<IndexableInner> {
    let mut filters = Vec::new();
    let mut projection: Option<Vec<String>> = None;
    let mut current = plan;
    loop {
        match current {
            LogicalPlan::Selection { predicate, input } => {
                filters.push(predicate.clone());
                current = input;
            }
            LogicalPlan::Projection { columns, input } => {
                if projection.is_none() {
                    projection = Some(columns.clone());
                }
                current = input;
            }
            LogicalPlan::Scan { table } => {
                if let Some(columns) = &projection {
                    if !columns.iter().any(|c| c == right_column) {
                        return None;
                    }
                }
                // row count from the statistics view, like every other
                // plan-time cardinality
                let base_rows = catalog.stats(table).ok()?.row_count;
                return Some(IndexableInner {
                    table: table.clone(),
                    filters,
                    projection,
                    base_rows,
                });
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::access_path::AccessPath;
    use crate::result::IndexRoute;
    use cej_relational::{col, lit_i64, EmbedSpec};
    use cej_storage::TableBuilder;
    use std::sync::Arc;

    fn setup() -> (Catalog, ModelRegistry, IndexManager) {
        let catalog = Catalog::new();
        catalog.register(
            "r",
            TableBuilder::new()
                .int64("id", (0..50).collect())
                .utf8("word", (0..50).map(|i| format!("w{i}")).collect())
                .build()
                .unwrap(),
        );
        catalog.register(
            "s",
            TableBuilder::new()
                .int64("id", (0..200).collect())
                .utf8("word", (0..200).map(|i| format!("v{i}")).collect())
                .build()
                .unwrap(),
        );
        let mut registry = ModelRegistry::new();
        let model = cej_embedding::FastTextModel::new(cej_embedding::FastTextConfig {
            dim: 8,
            buckets: 500,
            ..cej_embedding::FastTextConfig::default()
        })
        .unwrap();
        registry.register("m", Arc::new(model));
        (catalog, registry, IndexManager::new())
    }

    fn join_plan() -> LogicalPlan {
        LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "word",
            "word",
            "m",
            SimilarityPredicate::TopK(1),
        )
    }

    /// [`setup`] plus a `big` table of 200,000 rows whose `filter` column
    /// cycles through 0..100: there the default index's route crosses over
    /// near a 66 % pass ratio ([`IndexJoin::route`]), so a 95 % filter walks
    /// and a 5 % one scans.
    pub(crate) struct Big {
        catalog: Catalog,
        registry: ModelRegistry,
        indexes: IndexManager,
    }

    impl Big {
        pub(crate) fn new() -> Self {
            let (catalog, registry, indexes) = setup();
            let rows = 0..200_000;
            catalog.register(
                "big",
                TableBuilder::new()
                    .int64("filter", rows.clone().map(|i| i % 100).collect())
                    .utf8("word", rows.map(|i| format!("w{i}")).collect())
                    .build()
                    .unwrap(),
            );
            Self {
                catalog,
                registry,
                indexes,
            }
        }

        /// The access path and estimated route `Auto` plans for `r` joined
        /// to the `big` rows whose `filter` is below `cut`.
        pub(crate) fn auto(
            &self,
            cut: i64,
            predicate: SimilarityPredicate,
        ) -> (AccessPath, IndexRoute) {
            let plan = LogicalPlan::e_join(
                LogicalPlan::scan("r"),
                LogicalPlan::scan("big").select(col("filter").lt(lit_i64(cut))),
                "word",
                "word",
                "m",
                predicate,
            );
            let physical = Planner::new(JoinStrategy::Auto)
                .plan(&plan, &self.catalog, &self.registry, &self.indexes)
                .unwrap();
            let node = physical.join_nodes()[0];
            (node.op.access_path(), node.est_route)
        }

        /// Makes an index resident under the key `Auto` plans for `big`,
        /// returning the handle that pins it.
        fn resident_index(&self) -> Arc<cej_index::HnswIndex> {
            let key = IndexKey::new("big", "word", "m", IndexJoinConfig::default().params);
            let (vectors, _) = cej_workload::clustered_matrix(20, 8, 2, 0.05, 5);
            let build = || cej_index::HnswIndex::build(vectors, cej_index::HnswParams::tiny());
            let (held, _) = self
                .indexes
                .get_or_build(&key, || build().map_err(CoreError::from))
                .unwrap();
            assert!(self.indexes.contains(&key));
            held
        }
    }

    #[test]
    fn scan_cardinalities_are_exact_and_filters_use_statistics() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Auto);
        // ids are uniform 0..200, so `id > 10` keeps ~189/200 rows — the
        // histogram estimate must land near that, not at the old 0.5 constant
        let plan = LogicalPlan::scan("s").select(col("id").gt(lit_i64(10)));
        let physical = planner.plan(&plan, &catalog, &registry, &indexes).unwrap();
        let est = physical.estimate().rows;
        assert!(
            (est - 189.0).abs() < 8.0,
            "statistics-driven estimate {est} should be ~189, not 100"
        );
        match physical {
            PhysicalPlan::Filter {
                input, selectivity, ..
            } => {
                assert_eq!(input.estimate().rows, 200.0);
                assert!((selectivity - 0.945).abs() < 0.05);
            }
            other => panic!("expected Filter, got {other:?}"),
        }
    }

    #[test]
    fn auto_small_join_lowers_to_tensor_with_both_costs() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Auto);
        let physical = planner
            .plan(&join_plan(), &catalog, &registry, &indexes)
            .unwrap();
        let joins = physical.join_nodes();
        assert_eq!(joins.len(), 1);
        let node = joins[0];
        assert!(matches!(node.op, PhysicalJoinOp::Tensor(_)));
        assert_eq!(node.op.access_path(), AccessPath::TensorScan);
        // every one of the 200 rows is a survivor, and scanning them is
        // priced below the walk for them
        let route = node.est_route;
        assert_eq!((route.survivors, route.rows), (200, 200));
        assert_eq!(route.path, IndexPath::SurvivorScan);
        assert!(0 < route.scan_ns && route.scan_ns < route.walk_ns);
        assert_eq!(route, IndexJoin::default().route(200, 200));
    }

    #[test]
    fn forced_index_strategy_uses_persistent_inner_for_base_scans() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Index(IndexJoinConfig::default()));
        let physical = planner
            .plan(&join_plan(), &catalog, &registry, &indexes)
            .unwrap();
        let node = physical.join_nodes()[0];
        assert_eq!(node.op.access_path(), AccessPath::IndexProbe);
        match &node.inner {
            InnerInput::Indexed(ii) => {
                assert_eq!(ii.key.table, "s");
                assert_eq!(ii.key.column, "word");
                assert!(ii.filters.is_empty());
            }
            other => panic!("expected persistent index inner, got {other:?}"),
        }
    }

    #[test]
    fn inner_filters_become_probe_bitmaps_with_estimated_selectivity() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Index(IndexJoinConfig::default()));
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s").select(col("id").lt(lit_i64(50))),
            "word",
            "word",
            "m",
            SimilarityPredicate::TopK(1),
        );
        let physical = planner.plan(&plan, &catalog, &registry, &indexes).unwrap();
        let node = physical.join_nodes()[0];
        match &node.inner {
            InnerInput::Indexed(ii) => {
                assert_eq!(ii.filters.len(), 1);
                // `id < 50` over uniform 0..200 keeps ~25% of the base table
                assert!(
                    (ii.est_rows - 50.0).abs() < 8.0,
                    "est_rows {} should be ~50",
                    ii.est_rows
                );
            }
            other => panic!("expected persistent index inner, got {other:?}"),
        }
        let route = node.est_route;
        assert_eq!(route.rows, 200);
        assert!(
            route.survivors.abs_diff(50) < 8,
            "estimated survivors {} should track the histogram (~50)",
            route.survivors
        );
    }

    #[test]
    fn advisor_choice_tracks_estimated_inner_selectivity() {
        // The only difference between the two plans is the inner filter
        // cutoff, so a flipped access path proves Auto consumed the
        // estimated selectivity.
        let big = Big::new();
        let (low_path, low) = big.auto(5, SimilarityPredicate::TopK(1));
        let (high_path, high) = big.auto(95, SimilarityPredicate::TopK(1));
        assert!(low.survivors < 20_000 && high.survivors > 170_000);
        assert_eq!(
            (low_path, low.path),
            (AccessPath::TensorScan, IndexPath::SurvivorScan)
        );
        assert_eq!(
            (high_path, high.path),
            (AccessPath::IndexProbe, IndexPath::Walk)
        );
    }

    #[test]
    fn top_k_up_to_ef_search_leaves_the_crossover_in_place() {
        // A walk keeps an `efSearch`-wide list (64 under the default index)
        // whatever k it returns up to that width, so its price — and the
        // route — reads no k: top-32 crosses over where top-1 does.
        let big = Big::new();
        for cut in [5, 50, 65, 70, 95] {
            let at = |k| big.auto(cut, SimilarityPredicate::TopK(k));
            assert_eq!(at(1), at(32), "filter < {cut}");
        }
    }

    #[test]
    fn a_resident_index_leaves_the_estimated_route_unchanged() {
        // neither path is priced a build: a resident index changes no
        // price, and a walking route plans the index either way
        let big = Big::new();
        let cold = big.auto(95, SimilarityPredicate::TopK(1));
        let _held = big.resident_index();
        assert_eq!(big.auto(95, SimilarityPredicate::TopK(1)), cold);
        assert_eq!(cold.0, AccessPath::IndexProbe);
    }

    #[test]
    fn embedded_inner_disables_persistent_index() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Index(IndexJoinConfig::default()));
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s").embed(EmbedSpec::new("word", "m")),
            "word",
            "word",
            "m",
            SimilarityPredicate::TopK(1),
        );
        let physical = planner.plan(&plan, &catalog, &registry, &indexes).unwrap();
        assert!(matches!(
            physical.join_nodes()[0].inner,
            InnerInput::Plan(_)
        ));
    }

    #[test]
    fn plan_time_schema_and_type_errors() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Auto);
        // ejoin on a non-string column: typed error at plan time
        let non_string = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "id",
            "word",
            "m",
            SimilarityPredicate::TopK(1),
        );
        assert!(matches!(
            planner.plan(&non_string, &catalog, &registry, &indexes),
            Err(CoreError::Relational(RelationalError::TypeError(_)))
        ));
        // ejoin on an unknown column
        let unknown_col = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "word",
            "nope",
            "m",
            SimilarityPredicate::TopK(1),
        );
        assert!(matches!(
            planner.plan(&unknown_col, &catalog, &registry, &indexes),
            Err(CoreError::Relational(RelationalError::UnknownColumn(_)))
        ));
        // projecting away the join column is caught at plan time too
        let dropped = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s").project(&["id"]),
            "word",
            "word",
            "m",
            SimilarityPredicate::TopK(1),
        );
        assert!(planner
            .plan(&dropped, &catalog, &registry, &indexes)
            .is_err());
        // filter on an unknown column
        let bad_filter = LogicalPlan::scan("s").select(col("ghost").gt(lit_i64(1)));
        assert!(matches!(
            planner.plan(&bad_filter, &catalog, &registry, &indexes),
            Err(CoreError::Relational(RelationalError::UnknownColumn(_)))
        ));
        // ill-typed predicate (string column vs integer literal)
        let bad_type = LogicalPlan::scan("s").select(col("word").gt(lit_i64(1)));
        assert!(matches!(
            planner.plan(&bad_type, &catalog, &registry, &indexes),
            Err(CoreError::Relational(RelationalError::TypeError(_)))
        ));
        // embedding a non-string column
        let bad_embed = LogicalPlan::scan("s").embed(EmbedSpec::new("id", "m"));
        assert!(planner
            .plan(&bad_embed, &catalog, &registry, &indexes)
            .is_err());
        // selections above the join may reference l_/r_ columns + similarity
        let above = join_plan().select(col("similarity").gt_eq(cej_relational::lit_f64(0.5)));
        assert!(planner.plan(&above, &catalog, &registry, &indexes).is_ok());
        let above_l = join_plan().select(col("l_id").gt(lit_i64(3)));
        assert!(planner
            .plan(&above_l, &catalog, &registry, &indexes)
            .is_ok());
    }

    #[test]
    fn unknown_table_and_model_error_at_plan_time() {
        let (catalog, registry, indexes) = setup();
        let planner = Planner::new(JoinStrategy::Auto);
        assert!(planner
            .plan(&LogicalPlan::scan("nope"), &catalog, &registry, &indexes)
            .is_err());
        let bad_model = LogicalPlan::e_join(
            LogicalPlan::scan("r"),
            LogicalPlan::scan("s"),
            "word",
            "word",
            "missing",
            SimilarityPredicate::TopK(1),
        );
        assert!(planner
            .plan(&bad_model, &catalog, &registry, &indexes)
            .is_err());
    }

    #[test]
    fn doomed_index_budget_declines_the_probe_path() {
        // At a high inner selectivity over the big table Auto picks the
        // index probe — unless the budget could never hold the index, in
        // which case it must fall back to the pre-filtered scan instead of
        // planning a build → evict → rebuild loop.
        let big = Big::new();
        let path = || big.auto(95, SimilarityPredicate::TopK(1)).0;
        assert_eq!(path(), AccessPath::IndexProbe, "no budget: the probe wins");
        // a budget far below the estimated index footprint dooms residency
        big.indexes.set_budget(Some(64));
        assert_eq!(path(), AccessPath::TensorScan, "a never-resident index");
        // ... but an index that is *already* resident keeps the probe path;
        // the held handle pins it, so the tiny budget cannot evict it
        big.indexes.set_budget(None);
        let _held = big.resident_index();
        big.indexes.set_budget(Some(64));
        assert_eq!(
            path(),
            AccessPath::IndexProbe,
            "a resident index stays usable"
        );
    }

    #[test]
    fn threshold_selectivity_model() {
        // calibrated so sim >= 0.9 keeps 5% of pairs (the old constant)
        assert!((threshold_selectivity(0.9) - 0.05).abs() < 1e-6);
        assert!(threshold_selectivity(0.5) > threshold_selectivity(0.9));
        assert_eq!(threshold_selectivity(1.0), 0.0);
        assert_eq!(threshold_selectivity(-1.0), 1.0);
    }
}
