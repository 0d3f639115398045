//! The physical query plan: an explicit operator tree produced by the
//! [`crate::planner::Planner`] and consumed by the executor.
//!
//! Where [`cej_relational::LogicalPlan`] says *what* to compute, a
//! [`PhysicalPlan`] says *how*: which of the four join operators runs, which
//! access path was selected (and how its route was priced), and whether the
//! index-probe path uses a persistent index from the session's
//! [`crate::index_manager::IndexManager`] or builds one per execution.
//! Every node carries the planner's cardinality annotations so
//! [`PhysicalPlan::explain`] can render the decision *before* anything runs —
//! the paper's Section V cost-based choice, made visible — and
//! [`PhysicalPlan::explain_analyze`] can render estimated-vs-actual rows
//! side by side after a run recorded per-operator actuals.

use std::fmt;

use cej_relational::{EmbedSpec, Expr, SimilarityPredicate};

use crate::access_path::AccessPath;
use crate::index_manager::IndexKey;
use crate::join::index_join::IndexJoinConfig;
use crate::join::prefetch_nlj::NljConfig;
use crate::join::tensor_join::TensorJoinConfig;
use crate::result::IndexRoute;

/// The planner's annotation on every physical operator: its estimated
/// output rows, from the catalog's statistics.  EXPLAIN ANALYZE sets it
/// against the rows a run counts ([`q_error`]); the access-path decision
/// reads the inner side's, through the join's estimated route
/// ([`JoinNode::est_route`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Estimated output rows.
    pub rows: f64,
}

impl PlanEstimate {
    /// Creates an estimate.
    pub fn new(rows: f64) -> Self {
        Self { rows }
    }
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`,
/// the standard plan-quality metric (1.0 = exact; symmetric in over- and
/// under-estimation).  Zero-row sides are smoothed to one row so a perfect
/// "no rows expected, no rows seen" scores 1.0 instead of dividing by zero.
pub fn q_error(estimated: f64, actual: f64) -> f64 {
    let est = estimated.max(1.0);
    let act = actual.max(1.0);
    (est / act).max(act / est)
}

/// Which physical operator executes a context-enhanced join node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalJoinOp {
    /// The naive per-pair-embedding nested-loop join.
    NaiveNlj,
    /// The prefetch-optimised parallel NLJ.
    PrefetchNlj(NljConfig),
    /// The blocked tensor join (the scan access path).
    Tensor(TensorJoinConfig),
    /// The HNSW index-probe join.
    Index(IndexJoinConfig),
}

impl PhysicalJoinOp {
    /// The operator name used in plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalJoinOp::NaiveNlj => "NaiveNljJoin",
            PhysicalJoinOp::PrefetchNlj(_) => "PrefetchNljJoin",
            PhysicalJoinOp::Tensor(_) => "TensorJoin",
            PhysicalJoinOp::Index(_) => "IndexJoin",
        }
    }

    /// The access path this operator takes (what the executor reports):
    /// the index probe for the index join, the scan for every other.
    pub fn access_path(&self) -> AccessPath {
        match self {
            PhysicalJoinOp::Index(_) => AccessPath::IndexProbe,
            _ => AccessPath::TensorScan,
        }
    }
}

/// The inner (right, indexed/scanned) input of a physical join.
#[derive(Debug, Clone, PartialEq)]
pub enum InnerInput {
    /// A materialised subplan: executed per run, consumed directly by scan
    /// operators (and by the index join as an ephemeral per-execution build
    /// when the inner side is not reducible to a base-table column).
    Plan(PhysicalPlan),
    /// The index-probe fast path: a persistent index over a base-table
    /// column, with relational predicates applied as probe-time bitmaps.
    Indexed(IndexedInner),
}

/// Description of a persistent-index inner input.
///
/// The index covers the *full* base-table column; relational filters are
/// evaluated once per run into a [`cej_storage::SelectionBitmap`].  The
/// probe walks the graph with it: filtered tuples are never admitted into
/// the walk's results, though the walk still explores through them, so a
/// probe returns the top k of the passing tuples — unless scanning the
/// passing tuples exactly is priced cheaper than walking for them, and the
/// interpreter scans them instead ([`crate::IndexJoin::route`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedInner {
    /// Identity of the shared index in the session's `IndexManager`.
    pub key: IndexKey,
    /// Relational predicates turned into a probe-time filter bitmap.
    pub filters: Vec<Expr>,
    /// Output columns of the inner side (`None` keeps every base column).
    pub projection: Option<Vec<String>>,
    /// Estimated rows surviving the filters (for plan rendering).
    pub est_rows: f64,
}

/// A physical context-enhanced join node.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinNode {
    /// The outer (probe, `R`) input.
    pub outer: PhysicalPlan,
    /// The inner (indexed/scanned, `S`) input.
    pub inner: InnerInput,
    /// Context-rich join column of the outer input.
    pub left_column: String,
    /// Context-rich join column of the inner input.
    pub right_column: String,
    /// Embedding model name (resolved through the session registry).
    pub model: String,
    /// The similarity predicate.
    pub predicate: SimilarityPredicate,
    /// The operator chosen to execute this join, and with it the access
    /// path ([`PhysicalJoinOp::access_path`]).
    pub op: PhysicalJoinOp,
    /// The index join's route ([`crate::IndexJoin::route`]) priced with the
    /// statistics-estimated inner rows as its survivors, out of the base
    /// table's rows for an indexable inner — the selectivity axis of
    /// Figures 15-17, and what `Auto` decided on.
    pub est_route: IndexRoute,
    /// Output estimate.
    pub est: PlanEstimate,
}

/// A relational hash equi-join node: the N-table glue operator.
///
/// The *right* input is drained into an in-memory hash table (the build
/// side); the *left* input probes it.  Output columns are the concatenation
/// of both inputs' columns with their names preserved (the planner rejects
/// plans where the two sides share a column name), and matches are emitted
/// in probe-row-then-build-row order — deterministic and identical at every
/// morsel size and thread budget.
#[derive(Debug, Clone, PartialEq)]
pub struct HashJoinNode {
    /// The left (probe) input.
    pub left: PhysicalPlan,
    /// The right (build) input.
    pub right: PhysicalPlan,
    /// Join key column of the left input.
    pub left_column: String,
    /// Join key column of the right input.
    pub right_column: String,
    /// Output estimate.
    pub est: PlanEstimate,
}

/// A node of the physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full scan of a catalog table.
    TableScan {
        /// Catalog name of the table.
        table: String,
        /// Output estimate.
        est: PlanEstimate,
    },
    /// Relational selection over the input.
    Filter {
        /// The predicate.
        predicate: Expr,
        /// The statistics-estimated fraction of input rows kept.
        selectivity: f64,
        /// The input operator.
        input: Box<PhysicalPlan>,
        /// Output estimate.
        est: PlanEstimate,
    },
    /// Projection to a subset of columns.
    Project {
        /// Output column names, in order.
        columns: Vec<String>,
        /// The input operator.
        input: Box<PhysicalPlan>,
        /// Output estimate.
        est: PlanEstimate,
    },
    /// The embedding operator `E_µ`: appends an embedding column.
    Embed {
        /// What to embed and with which model.
        spec: EmbedSpec,
        /// The input operator.
        input: Box<PhysicalPlan>,
        /// Output estimate.
        est: PlanEstimate,
    },
    /// A context-enhanced join (one of the four physical operators).
    Join(Box<JoinNode>),
    /// A relational hash equi-join (build right, probe left).
    HashJoin(Box<HashJoinNode>),
    /// Generalised projection: selects, renames, and reorders columns in one
    /// zero-copy step — the compensation operator the join-order optimizer
    /// inserts to keep reordered plans schema-identical to the written query.
    Rename {
        /// `(from, to)` pairs, in output order.
        columns: Vec<(String, String)>,
        /// The input operator.
        input: Box<PhysicalPlan>,
        /// Output estimate.
        est: PlanEstimate,
    },
}

impl PhysicalPlan {
    /// The planner's output estimate for this operator.
    pub fn estimate(&self) -> PlanEstimate {
        match self {
            PhysicalPlan::TableScan { est, .. }
            | PhysicalPlan::Filter { est, .. }
            | PhysicalPlan::Project { est, .. }
            | PhysicalPlan::Embed { est, .. }
            | PhysicalPlan::Rename { est, .. } => *est,
            PhysicalPlan::Join(node) => node.est,
            PhysicalPlan::HashJoin(node) => node.est,
        }
    }

    /// Number of operators in the tree (each executes exactly once per run;
    /// this is the length of the executor's per-operator actual-row vector).
    pub fn operator_count(&self) -> usize {
        let own = 1;
        own + match self {
            PhysicalPlan::TableScan { .. } => 0,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Embed { input, .. }
            | PhysicalPlan::Rename { input, .. } => input.operator_count(),
            PhysicalPlan::Join(node) => {
                node.outer.operator_count()
                    + match &node.inner {
                        InnerInput::Plan(inner) => inner.operator_count(),
                        InnerInput::Indexed(_) => 0,
                    }
            }
            PhysicalPlan::HashJoin(node) => {
                node.left.operator_count() + node.right.operator_count()
            }
        }
    }

    /// The join nodes of this plan, outermost first.
    pub fn join_nodes(&self) -> Vec<&JoinNode> {
        let mut out = Vec::new();
        self.collect_joins(&mut out);
        out
    }

    fn collect_joins<'a>(&'a self, out: &mut Vec<&'a JoinNode>) {
        match self {
            PhysicalPlan::TableScan { .. } => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Embed { input, .. }
            | PhysicalPlan::Rename { input, .. } => input.collect_joins(out),
            PhysicalPlan::Join(node) => {
                out.push(node);
                node.outer.collect_joins(out);
                if let InnerInput::Plan(inner) = &node.inner {
                    inner.collect_joins(out);
                }
            }
            PhysicalPlan::HashJoin(node) => {
                node.left.collect_joins(out);
                node.right.collect_joins(out);
            }
        }
    }

    /// Renders the operator tree with the planner's estimates — the access
    /// path and its priced route, per-operator rows, and (for index joins)
    /// whether a persistent or per-execution index is used.  This is available
    /// *before* execution; the executor follows exactly what is printed.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let mut cursor = 0usize;
        self.render(&mut out, 0, None, None, &mut cursor);
        out
    }

    /// Renders the operator tree with estimated *and* actual rows side by
    /// side.  `actual_rows` is the per-operator output-row vector recorded by
    /// the executor, in the same pre-order the plan is rendered in (see
    /// [`crate::executor::ExecOutcome::operator_rows`]); operators past the
    /// end of the slice render without an actual (defensive — a full run
    /// records every operator).
    pub fn explain_analyze(&self, actual_rows: &[u64]) -> String {
        let mut out = String::new();
        let mut cursor = 0usize;
        self.render(&mut out, 0, Some(actual_rows), None, &mut cursor);
        out
    }

    /// [`PhysicalPlan::explain_analyze`] with measured per-operator wall
    /// times (microseconds, same pre-order, inclusive of input pulls)
    /// rendered next to each actual-row count.
    pub fn explain_analyze_timed(&self, actual_rows: &[u64], micros: &[u64]) -> String {
        let mut out = String::new();
        let mut cursor = 0usize;
        self.render(&mut out, 0, Some(actual_rows), Some(micros), &mut cursor);
        out
    }

    fn render(
        &self,
        out: &mut String,
        indent: usize,
        actuals: Option<&[u64]>,
        micros: Option<&[u64]>,
        cursor: &mut usize,
    ) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let actual = actuals.and_then(|rows| rows.get(*cursor).copied());
        let micro = micros.and_then(|m| m.get(*cursor).copied());
        *cursor += 1;
        match self {
            PhysicalPlan::TableScan { table, est } => {
                let _ = writeln!(
                    out,
                    "{pad}TableScan: {table} {}",
                    fmt_est(est, actual, micro)
                );
            }
            PhysicalPlan::Filter {
                predicate,
                selectivity,
                input,
                est,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}Filter: {predicate} (sel {:.3}) {}",
                    selectivity,
                    fmt_est(est, actual, micro)
                );
                input.render(out, indent + 1, actuals, micros, cursor);
            }
            PhysicalPlan::Project {
                columns,
                input,
                est,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}Project: [{}] {}",
                    columns.join(", "),
                    fmt_est(est, actual, micro)
                );
                input.render(out, indent + 1, actuals, micros, cursor);
            }
            PhysicalPlan::Embed { spec, input, est } => {
                let _ = writeln!(
                    out,
                    "{pad}Embed: {} -> {} (model {}) {}",
                    spec.input_column,
                    spec.output_column,
                    spec.model,
                    fmt_est(est, actual, micro)
                );
                input.render(out, indent + 1, actuals, micros, cursor);
            }
            PhysicalPlan::Rename {
                columns,
                input,
                est,
            } => {
                let rendered: Vec<String> = columns
                    .iter()
                    .map(|(from, to)| {
                        if from == to {
                            from.clone()
                        } else {
                            format!("{from} as {to}")
                        }
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}Rename: [{}] {}",
                    rendered.join(", "),
                    fmt_est(est, actual, micro)
                );
                input.render(out, indent + 1, actuals, micros, cursor);
            }
            PhysicalPlan::HashJoin(node) => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin: {} = {} (build right) {}",
                    node.left_column,
                    node.right_column,
                    fmt_est(&node.est, actual, micro)
                );
                node.left.render(out, indent + 1, actuals, micros, cursor);
                node.right.render(out, indent + 1, actuals, micros, cursor);
            }
            PhysicalPlan::Join(node) => {
                let _ = writeln!(
                    out,
                    "{pad}{}: {} ~ {} ({}, model {}) [access path: {}; est rows {}{}; \
                     est route: {}]",
                    node.op.name(),
                    node.left_column,
                    node.right_column,
                    node.predicate.label(),
                    node.model,
                    node.op.access_path().label(),
                    fmt_rows(node.est.rows),
                    fmt_actual(node.est.rows, actual, micro),
                    node.est_route,
                );
                node.outer.render(out, indent + 1, actuals, micros, cursor);
                match &node.inner {
                    InnerInput::Plan(plan) => {
                        if matches!(node.op, PhysicalJoinOp::Index(_)) {
                            let _ = writeln!(
                                out,
                                "{pad}  IndexBuild: per-execution (inner not a base-table column)"
                            );
                            plan.render(out, indent + 2, actuals, micros, cursor);
                        } else {
                            plan.render(out, indent + 1, actuals, micros, cursor);
                        }
                    }
                    InnerInput::Indexed(ii) => {
                        let filters = if ii.filters.is_empty() {
                            String::new()
                        } else {
                            format!(
                                "; probe filters: {}",
                                ii.filters
                                    .iter()
                                    .map(|f| f.to_string())
                                    .collect::<Vec<_>>()
                                    .join(" AND ")
                            )
                        };
                        let projection = match &ii.projection {
                            Some(cols) => format!("; project [{}]", cols.join(", ")),
                            None => String::new(),
                        };
                        let _ = writeln!(
                            out,
                            "{pad}  IndexProbe: persistent index {} ({}; est rows {}{filters}{projection})",
                            ii.key.label(),
                            ii.key.params.label(),
                            fmt_rows(ii.est_rows),
                        );
                    }
                }
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

fn fmt_est(est: &PlanEstimate, actual: Option<u64>, micro: Option<u64>) -> String {
    format!(
        "[rows {}{}]",
        fmt_rows(est.rows),
        fmt_actual(est.rows, actual, micro)
    )
}

/// Renders the actual-row annotation of EXPLAIN ANALYZE: the measured count,
/// the q-error of the estimate against it, and (when timing was recorded)
/// the operator's measured wall time in microseconds.
fn fmt_actual(est_rows: f64, actual: Option<u64>, micro: Option<u64>) -> String {
    match actual {
        Some(act) => {
            let time = match micro {
                Some(us) => format!("; time {us}us"),
                None => String::new(),
            };
            format!(
                "; actual {act}; q-err {:.2}{time}",
                q_error(est_rows, act as f64)
            )
        }
        None => String::new(),
    }
}

fn fmt_rows(rows: f64) -> String {
    if rows >= 10_000.0 {
        format!("{rows:.2e}")
    } else {
        format!("{}", rows.round() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_index::HnswParams;
    use cej_relational::{col, lit_i64};

    fn scan(table: &str, rows: f64) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            table: table.to_string(),
            est: PlanEstimate::new(rows),
        }
    }

    fn join_node(op: PhysicalJoinOp, inner: InnerInput) -> PhysicalPlan {
        PhysicalPlan::Join(Box::new(JoinNode {
            outer: scan("r", 100.0),
            inner,
            left_column: "caption".into(),
            right_column: "title".into(),
            model: "ft".into(),
            predicate: SimilarityPredicate::TopK(1),
            op,
            est_route: crate::IndexJoin::default().route(250, 1_000),
            est: PlanEstimate::new(100.0),
        }))
    }

    #[test]
    fn explain_renders_access_path_and_costs() {
        let plan = join_node(
            PhysicalJoinOp::Tensor(TensorJoinConfig::default()),
            InnerInput::Plan(scan("s", 500.0)),
        );
        let text = plan.explain();
        assert!(text.contains("TensorJoin"));
        assert!(text.contains("access path: tensor-scan"));
        assert!(text.contains(
            "est route: survivor scan (probe filter passes 250 of 1000 inner rows; \
             scan ≈ 1.05 µs, walk ≈ 267.88 µs per probe)]"
        ));
        assert!(text.contains("TableScan: r"));
        assert!(text.contains("TableScan: s"));
        assert_eq!(plan.estimate().rows, 100.0);
        assert_eq!(plan.join_nodes().len(), 1);
        assert_eq!(plan.operator_count(), 3);
    }

    #[test]
    fn explain_analyze_renders_estimates_against_actuals() {
        let plan = join_node(
            PhysicalJoinOp::Tensor(TensorJoinConfig::default()),
            InnerInput::Plan(scan("s", 500.0)),
        );
        // pre-order: join, outer scan, inner scan
        let text = plan.explain_analyze(&[80, 100, 450]);
        assert!(
            text.contains("est rows 100; actual 80"),
            "join line: {text}"
        );
        assert!(text.contains("[rows 100; actual 100; q-err 1.00"));
        assert!(text.contains("[rows 500; actual 450; q-err 1.11"));
        // a short actuals vector leaves trailing operators un-annotated
        let partial = plan.explain_analyze(&[80]);
        assert!(partial.contains("actual 80"));
        assert!(partial.contains("[rows 500]"));
    }

    #[test]
    fn explain_renders_persistent_index_with_filters() {
        let ii = IndexedInner {
            key: IndexKey::new("s", "title", "ft", HnswParams::tiny()),
            filters: vec![col("year").gt_eq(lit_i64(2023))],
            projection: Some(vec!["title".into()]),
            est_rows: 250.0,
        };
        let plan = join_node(
            PhysicalJoinOp::Index(IndexJoinConfig::default()),
            InnerInput::Indexed(ii),
        );
        let text = plan.explain();
        assert!(text.contains("IndexJoin"));
        assert!(text.contains("access path: index-probe"));
        assert!(text.contains("persistent index s.title/ft"));
        assert!(text.contains("probe filters: (year >= 2023)") || text.contains("probe filters"));
        assert!(text.contains("project [title]"));
        assert_eq!(plan.operator_count(), 2, "indexed inner has no operator");
    }

    #[test]
    fn explain_marks_ephemeral_index_builds() {
        let plan = join_node(
            PhysicalJoinOp::Index(IndexJoinConfig::default()),
            InnerInput::Plan(scan("s", 500.0)),
        );
        let text = plan.explain();
        assert!(text.contains("IndexBuild: per-execution"));
    }

    #[test]
    fn filter_project_embed_render_with_estimates() {
        let plan = PhysicalPlan::Embed {
            spec: EmbedSpec::new("word", "ft"),
            input: Box::new(PhysicalPlan::Project {
                columns: vec!["word".into()],
                input: Box::new(PhysicalPlan::Filter {
                    predicate: col("x").gt(lit_i64(0)),
                    selectivity: 0.5,
                    input: Box::new(scan("t", 10.0)),
                    est: PlanEstimate::new(5.0),
                }),
                est: PlanEstimate::new(5.0),
            }),
            est: PlanEstimate::new(5.0),
        };
        let text = plan.explain();
        assert!(text.contains("Embed: word -> word_emb"));
        assert!(text.contains("Project: [word]"));
        assert!(text.contains("Filter:"));
        assert!(text.contains("(sel 0.500)"));
        assert!(text.contains("[rows 5]"));
        assert!(format!("{plan}").contains("TableScan: t"));
        assert!(plan.join_nodes().is_empty());
        assert_eq!(plan.operator_count(), 4);
    }

    #[test]
    fn q_error_is_symmetric_and_smoothed() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(200.0, 100.0), 2.0);
        assert_eq!(q_error(100.0, 200.0), 2.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(0.0, 10.0), 10.0);
    }
}
