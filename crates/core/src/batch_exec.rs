//! Vectorized (batch-at-a-time) execution of [`PhysicalPlan`] trees.
//!
//! This is the MonetDB/X100-style pull model the row executor's
//! materialize-everything strategy is refactored into: operators exchange
//! fixed-size **column batches** (default [`DEFAULT_BATCH_ROWS`] rows)
//! carrying a selection vector over a shared, immutable base table.
//!
//! * `TableScan` emits zero-copy windows over the catalog's `Arc<Table>` —
//!   no per-run deep clone of the base table.
//! * `Filter` refines the selection vector in place
//!   ([`cej_relational::eval::evaluate_predicate_select`], with the
//!   `filter_cmp` kernel fast path) — survivors are *marked*, never copied.
//! * `Project` and `Rename` are metadata-only: they narrow, reorder and
//!   rename the visible-column set; no row is touched.
//! * `Embed` embeds only the selected lanes, in one call per batch — by
//!   remembered **slot** when the batch still windows a catalog table (the
//!   session's per-column `row → slot` maps,
//!   [`crate::executor::ColumnSlots`]), through the strings otherwise.
//! * Joins keep **both inputs as selections** until the pairs are known
//!   (late materialisation).  The inner pipeline is collected, not gathered:
//!   its join column is embedded by row (and for the tensor path normalised)
//!   once, every outer batch is scored against it
//!   ([`TensorJoin::join_prenormalized`], HNSW `probe_join`, or the NLJ
//!   variants), pair offsets — positions in each side's selection — are
//!   remapped by the batch's cumulative offset, and only the matched rows of
//!   either side are finally copied out of the base tables.  A warm run over
//!   a filtered inner table therefore hashes no string and copies no
//!   unmatched row.  Inputs that are not one window over one base (an inner
//!   that is itself a join, per-batch `Embed` outputs) are materialised as
//!   before and embedded through the strings — over the same arena, so the
//!   vectors are the same bits either way.
//!
//! ## Morsel-driven parallelism
//!
//! When the context's [`cej_exec::ExecPool`] budget exceeds one thread,
//! linear `Scan → (Filter|Project|Embed|Rename)*` chains do not pull
//! batches one at a time: the scan range is split into **morsels** (one
//! selection-vector batch each) and dispatched onto the shared
//! work-stealing pool, each worker running the whole operator chain over
//! its morsel ([`run_chain_parallel`]).  Join probe sides follow the same
//! pattern — outer morsels are embedded and probed concurrently against
//! the once-prepared inner side, and the relational hash join builds its
//! partitioned hash table across workers
//! ([`HashSide::build_with_pool`]).
//!
//! The load-bearing invariant survives parallelism: results are
//! **byte-identical** to the row executor — and to any thread budget and
//! any morsel size — for every plan shape and join strategy.  Per-morsel
//! outputs are reassembled in morsel-index order (ascending scan ranges),
//! so rows, row order, similarity bits, and per-operator row actuals are
//! exactly what the serial pull loop produces.  The per-operator actual-row
//! accounting counts *selected lanes*, never batches, so `explain_analyze`
//! q-errors are unchanged.  Only timing (`operator_micros`) and scheduler
//! counters vary across budgets.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use cej_embedding::EmbeddingStats;
use cej_index::HnswIndex;
use cej_relational::{
    eval::{evaluate_predicate, evaluate_predicate_select},
    EmbedSpec, Expr,
};
use cej_storage::{
    Column, Field, Schema, SelectionBitmap, StorageError, Table, DEFAULT_BATCH_ROWS,
};
use cej_vector::norm::normalize_matrix_rows_with;
use cej_vector::Matrix;

use crate::error::CoreError;
use crate::executor::{
    join_output, ExecContext, ExecOutcome, OpMetrics, RunEmbedder, RunStats, SharedCache,
};
use crate::join::hash_join::HashSide;
use crate::join::index_join::IndexJoin;
use crate::join::naive_nlj::NaiveNlJoin;
use crate::join::prefetch_nlj::PrefetchNlJoin;
use crate::join::tensor_join::TensorJoin;
use crate::join::{check_predicate, embed_all};
use crate::physical_plan::{HashJoinNode, InnerInput, JoinNode, PhysicalJoinOp, PhysicalPlan};
use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

/// Which executor runs a [`PhysicalPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The legacy materialize-everything row executor (kept as the reference
    /// implementation for equivalence tests).
    Row,
    /// The vectorized pull executor: operators exchange `batch_rows`-sized
    /// column batches with selection vectors.
    Batch {
        /// Rows per batch handed between operators (must be > 0).
        batch_rows: usize,
    },
}

impl Default for ExecMode {
    /// Batch execution with [`DEFAULT_BATCH_ROWS`] rows per batch.
    fn default() -> Self {
        ExecMode::Batch {
            batch_rows: DEFAULT_BATCH_ROWS,
        }
    }
}

/// A batch in flight: a selection vector plus a visible-column set over a
/// shared base table.  `sel` holds absolute row indices into `base`
/// (ascending within a pipeline); `visible` holds base schema positions in
/// output order.  Nothing is copied until a materialising boundary gathers
/// the surviving lanes.
struct ExecBatch {
    base: Arc<Table>,
    sel: Vec<u32>,
    visible: Vec<usize>,
    /// The visible columns' output names once a `Rename` has been applied
    /// (parallel to `visible`); `None` = the base schema's names.
    names: Option<Vec<String>>,
    /// `base` is a catalog snapshot (what a scan emits), not an operator's
    /// intermediate output: its string columns are worth a slot map, because
    /// the next run scans the same allocation again.
    catalog_base: bool,
}

impl ExecBatch {
    /// The rows `sel` of `base`, every column visible under its own name.
    fn window(base: Arc<Table>, sel: Vec<u32>, catalog_base: bool) -> Self {
        Self {
            visible: (0..base.num_columns()).collect(),
            sel,
            base,
            names: None,
            catalog_base,
        }
    }

    /// The output name of the `i`-th visible column.
    fn name_of(&self, i: usize) -> &str {
        match &self.names {
            Some(names) => &names[i],
            None => &self.base.schema().fields()[self.visible[i]].name,
        }
    }
}

/// Re-emits a materialised operator output (`base`) as `batch_rows`-sized
/// windows; always at least one batch, possibly empty, so schemas propagate.
fn emit_window(
    base: &Arc<Table>,
    cursor: &mut usize,
    emitted: &mut bool,
    batch_rows: usize,
    catalog_base: bool,
) -> Option<ExecBatch> {
    let rows = base.num_rows();
    if *cursor >= rows && *emitted {
        return None;
    }
    let end = (*cursor + batch_rows).min(rows);
    let sel: Vec<u32> = (*cursor as u32..end as u32).collect();
    *cursor = end;
    *emitted = true;
    Some(ExecBatch::window(base.clone(), sel, catalog_base))
}

/// One operator of the batch pipeline.  `slot` is the operator's pre-order
/// position in the executor's actual-row vector — the same order
/// `explain_analyze` renders operators in.
enum BatchOp<'p> {
    Scan {
        slot: usize,
        name: &'p str,
        table: Option<Arc<Table>>,
        cursor: usize,
        emitted: bool,
    },
    Filter {
        slot: usize,
        predicate: &'p Expr,
        input: Box<BatchOp<'p>>,
    },
    Project {
        slot: usize,
        columns: &'p [String],
        input: Box<BatchOp<'p>>,
    },
    Embed {
        slot: usize,
        spec: &'p EmbedSpec,
        input: Box<BatchOp<'p>>,
    },
    /// A join is a pipeline breaker: on first pull it streams its outer
    /// pipeline through the probe side, materialises the joined table, then
    /// re-emits it as batches for any operators above.
    JoinSource {
        slot: usize,
        node: &'p JoinNode,
        outer: Option<Box<BatchOp<'p>>>,
        inner: Option<Box<BatchOp<'p>>>,
        result: Option<Arc<Table>>,
        cursor: usize,
        emitted: bool,
    },
    /// The relational hash equi-join: the right pipeline is drained once into
    /// a built hash side, then left (probe) batches stream against it; the
    /// accumulated output re-emits as batches for the operators above.
    HashJoinSource {
        slot: usize,
        node: &'p HashJoinNode,
        left: Option<Box<BatchOp<'p>>>,
        right: Option<Box<BatchOp<'p>>>,
        result: Option<Arc<Table>>,
        cursor: usize,
        emitted: bool,
    },
    /// Generalised projection: gathers each batch and re-emits it with
    /// columns selected, renamed, and reordered.
    Rename {
        slot: usize,
        columns: &'p [(String, String)],
        input: Box<BatchOp<'p>>,
    },
}

/// Builds the operator pipeline, assigning pre-order slots that line up with
/// the row executor's `operator_rows` protocol (join claims its slot, then
/// the outer subtree, then the inner subtree when it is a plan).
fn build_pipeline<'p>(plan: &'p PhysicalPlan, next_slot: &mut usize) -> BatchOp<'p> {
    let slot = *next_slot;
    *next_slot += 1;
    match plan {
        PhysicalPlan::TableScan { table, .. } => BatchOp::Scan {
            slot,
            name: table,
            table: None,
            cursor: 0,
            emitted: false,
        },
        PhysicalPlan::Filter {
            predicate, input, ..
        } => BatchOp::Filter {
            slot,
            predicate,
            input: Box::new(build_pipeline(input, next_slot)),
        },
        PhysicalPlan::Project { columns, input, .. } => BatchOp::Project {
            slot,
            columns,
            input: Box::new(build_pipeline(input, next_slot)),
        },
        PhysicalPlan::Embed { spec, input, .. } => BatchOp::Embed {
            slot,
            spec,
            input: Box::new(build_pipeline(input, next_slot)),
        },
        PhysicalPlan::Join(node) => {
            let outer = Box::new(build_pipeline(&node.outer, next_slot));
            let inner = match &node.inner {
                InnerInput::Plan(inner) => Some(Box::new(build_pipeline(inner, next_slot))),
                InnerInput::Indexed(_) => None,
            };
            BatchOp::JoinSource {
                slot,
                node,
                outer: Some(outer),
                inner,
                result: None,
                cursor: 0,
                emitted: false,
            }
        }
        PhysicalPlan::HashJoin(node) => {
            let left = Box::new(build_pipeline(&node.left, next_slot));
            let right = Box::new(build_pipeline(&node.right, next_slot));
            BatchOp::HashJoinSource {
                slot,
                node,
                left: Some(left),
                right: Some(right),
                result: None,
                cursor: 0,
                emitted: false,
            }
        }
        PhysicalPlan::Rename { columns, input, .. } => BatchOp::Rename {
            slot,
            columns,
            input: Box::new(build_pipeline(input, next_slot)),
        },
    }
}

impl<'p> BatchOp<'p> {
    /// This operator's pre-order metrics slot.
    fn slot(&self) -> usize {
        match self {
            BatchOp::Scan { slot, .. }
            | BatchOp::Filter { slot, .. }
            | BatchOp::Project { slot, .. }
            | BatchOp::Embed { slot, .. }
            | BatchOp::JoinSource { slot, .. }
            | BatchOp::HashJoinSource { slot, .. }
            | BatchOp::Rename { slot, .. } => *slot,
        }
    }

    /// Pulls the next batch, or `None` when the operator is exhausted.  Every
    /// pipeline emits at least one batch (possibly empty) so schemas
    /// propagate even for zero-row inputs.  Wall time of the pull (inclusive
    /// of input pulls) and the morsel count accrue to this operator's slot.
    fn next_batch(
        &mut self,
        ctx: &ExecContext<'_>,
        batch_rows: usize,
        stats: &mut RunStats,
        metrics: &mut OpMetrics,
    ) -> Result<Option<ExecBatch>> {
        let slot = self.slot();
        let start = Instant::now();
        let result = self.next_batch_inner(ctx, batch_rows, stats, metrics);
        metrics.add_time(slot, start.elapsed());
        if let Ok(Some(_)) = &result {
            metrics.morsels[slot] += 1;
        }
        result
    }

    fn next_batch_inner(
        &mut self,
        ctx: &ExecContext<'_>,
        batch_rows: usize,
        stats: &mut RunStats,
        metrics: &mut OpMetrics,
    ) -> Result<Option<ExecBatch>> {
        match self {
            BatchOp::Scan {
                slot,
                name,
                table,
                cursor,
                emitted,
            } => {
                if table.is_none() {
                    *table = Some(ctx.catalog.table(name).map_err(CoreError::from)?);
                }
                let base = table.as_ref().expect("resolved above");
                let batch = emit_window(base, cursor, emitted, batch_rows, true);
                if let Some(batch) = &batch {
                    metrics.rows[*slot] += batch.sel.len() as u64;
                }
                Ok(batch)
            }
            BatchOp::Filter {
                slot,
                predicate,
                input,
            } => {
                let Some(batch) = input.next_batch(ctx, batch_rows, stats, metrics)? else {
                    return Ok(None);
                };
                let refined = filter_batch(predicate, &batch)?;
                metrics.rows[*slot] += refined.len() as u64;
                Ok(Some(ExecBatch {
                    sel: refined,
                    ..batch
                }))
            }
            BatchOp::Project {
                slot,
                columns,
                input,
            } => {
                let Some(batch) = input.next_batch(ctx, batch_rows, stats, metrics)? else {
                    return Ok(None);
                };
                let batch = project_batch(batch, columns)?;
                metrics.rows[*slot] += batch.sel.len() as u64;
                Ok(Some(batch))
            }
            BatchOp::Embed { slot, spec, input } => {
                let Some(batch) = input.next_batch(ctx, batch_rows, stats, metrics)? else {
                    return Ok(None);
                };
                let (out, delta) = embed_one_batch(&batch, spec, ctx)?;
                stats.embedding_stats.model_calls += delta.model_calls;
                stats.embedding_stats.cache_hits += delta.cache_hits;
                metrics.rows[*slot] += out.sel.len() as u64;
                Ok(Some(out))
            }
            BatchOp::JoinSource {
                slot,
                node,
                outer,
                inner,
                result,
                cursor,
                emitted,
            } => {
                if result.is_none() {
                    let mut outer_op = *outer.take().expect("join executes once");
                    let inner_op = inner.take();
                    let table = execute_join_batched(
                        node,
                        &mut outer_op,
                        inner_op,
                        ctx,
                        batch_rows,
                        stats,
                        metrics,
                    )?;
                    metrics.rows[*slot] += table.num_rows() as u64;
                    *result = Some(Arc::new(table));
                }
                let base = result.as_ref().expect("materialised above");
                Ok(emit_window(base, cursor, emitted, batch_rows, false))
            }
            BatchOp::HashJoinSource {
                slot,
                node,
                left,
                right,
                result,
                cursor,
                emitted,
            } => {
                if result.is_none() {
                    let mut left_op = *left.take().expect("join executes once");
                    let mut right_op = *right.take().expect("join executes once");
                    // Build once from the drained right pipeline, radix-
                    // partitioned across the pool's workers...
                    let build_table = drain(&mut right_op, ctx, batch_rows, stats, metrics)?;
                    let side =
                        HashSide::build_with_pool(build_table, &node.right_column, &ctx.pool)?;
                    // ...then probe morsels against it.  The side is read-
                    // only, so probe batches run concurrently; concatenating
                    // per-morsel outputs in morsel order keeps matches in
                    // probe-row order.
                    let batches = collect_batches(&mut left_op, ctx, batch_rows, stats, metrics)?;
                    let probed = ctx.pool.parallel_map(&batches, |batch| -> Result<Table> {
                        let gathered = gather_batch(batch)?;
                        side.probe(&gathered, &node.left_column)
                    });
                    let parts = probed.into_iter().collect::<Result<Vec<_>>>()?;
                    let refs: Vec<&Table> = parts.iter().collect();
                    let table = Table::concat(&refs).map_err(CoreError::from)?;
                    metrics.rows[*slot] += table.num_rows() as u64;
                    *result = Some(Arc::new(table));
                }
                let base = result.as_ref().expect("materialised above");
                Ok(emit_window(base, cursor, emitted, batch_rows, false))
            }
            BatchOp::Rename {
                slot,
                columns,
                input,
            } => {
                let Some(batch) = input.next_batch(ctx, batch_rows, stats, metrics)? else {
                    return Ok(None);
                };
                let out = rename_batch(batch, columns)?;
                metrics.rows[*slot] += out.sel.len() as u64;
                Ok(Some(out))
            }
        }
    }
}

/// Resolves a column name against the batch's *visible* set under its
/// output names (hidden base columns must not leak), mirroring the row
/// path's `ColumnNotFound`.  Returns the base schema position.
fn visible_position(batch: &ExecBatch, name: &str) -> Result<usize> {
    (0..batch.visible.len())
        .find(|&i| batch.name_of(i) == name)
        .map(|i| batch.visible[i])
        .ok_or_else(|| CoreError::from(StorageError::ColumnNotFound(name.to_string())))
}

/// A string column of the batch by output name: its base position and the
/// *whole* base column (index it through `sel`).
fn string_column<'b>(batch: &'b ExecBatch, name: &str) -> Result<(usize, &'b [String])> {
    let pos = visible_position(batch, name)?;
    let strings = batch.base.column(pos).map_err(CoreError::from)?.as_utf8()?;
    Ok((pos, strings))
}

/// Embeds the selected lanes of a batch's string column (base position
/// `pos`): by remembered slot when the base is a catalog snapshot, through
/// the strings otherwise.
fn embed_lanes(
    batch: &ExecBatch,
    (pos, strings): (usize, &[String]),
    model: &str,
    cache: &Arc<SharedCache>,
    run: &RunEmbedder<'_>,
    ctx: &ExecContext<'_>,
) -> Matrix {
    let slots = if batch.catalog_base {
        ctx.embeddings.column_slots(model, cache, &batch.base, pos)
    } else {
        None
    };
    run.embed_rows(strings, &batch.sel, slots.as_deref())
}

/// Applies a filter predicate to a batch, returning the refined selection.
fn filter_batch(predicate: &Expr, batch: &ExecBatch) -> Result<Vec<u32>> {
    if batch.sel.is_empty() {
        // the row path evaluates nothing over an empty input
        return Ok(Vec::new());
    }
    let mut names = Vec::new();
    expr_columns(predicate, &mut names);
    let fields = batch.base.schema().fields();
    let all_visible = batch.names.is_none()
        && names
            .iter()
            .all(|n| batch.visible.iter().any(|&i| fields[i].name == *n));
    if all_visible {
        // every referenced column is visible under its base name: evaluating
        // against the base table over the selected lanes is exactly what the
        // row path sees
        evaluate_predicate_select(predicate, &batch.base, &batch.sel).map_err(CoreError::from)
    } else {
        // a referenced column is hidden, renamed or missing: gather the
        // visible lanes and replicate the row path bit for bit, including
        // its short-circuit semantics (an unknown column behind a false AND
        // arm is no error)
        let gathered = gather_batch(batch)?;
        let bitmap = evaluate_predicate(predicate, &gathered).map_err(CoreError::from)?;
        Ok(bitmap
            .selected_indices()
            .into_iter()
            .map(|i| batch.sel[i])
            .collect())
    }
}

/// The `Project` operator's per-batch body — metadata only: narrows the
/// visible set.
fn project_batch(batch: ExecBatch, columns: &[String]) -> Result<ExecBatch> {
    let mut visible = Vec::with_capacity(columns.len());
    for name in columns {
        visible.push(visible_position(&batch, name)?);
    }
    Ok(ExecBatch {
        visible,
        // columns were found by output name, so they keep the names asked for
        names: batch.names.as_ref().map(|_| columns.to_vec()),
        ..batch
    })
}

/// The `Rename` operator's per-batch body — metadata only: selects, reorders
/// and renames visible columns without touching a row.
fn rename_batch(batch: ExecBatch, columns: &[(String, String)]) -> Result<ExecBatch> {
    let fields = batch.base.schema().fields();
    let mut visible = Vec::with_capacity(columns.len());
    let mut renamed = Vec::with_capacity(columns.len());
    for (from, to) in columns {
        let pos = visible_position(&batch, from)?;
        visible.push(pos);
        renamed.push(Field::new(to, fields[pos].data_type));
    }
    // the row path builds this schema; duplicate output names fail here too
    Schema::new(renamed).map_err(CoreError::from)?;
    Ok(ExecBatch {
        visible,
        names: Some(columns.iter().map(|(_, to)| to.clone()).collect()),
        ..batch
    })
}

/// The `Embed` operator's per-batch body: embeds the input column's selected
/// lanes in one call, gathers the batch, and rebases it onto the embedded
/// output table.  Returns the run-local embedding delta so callers on any
/// thread can fold it into the run stats.
fn embed_one_batch(
    batch: &ExecBatch,
    spec: &EmbedSpec,
    ctx: &ExecContext<'_>,
) -> Result<(ExecBatch, EmbeddingStats)> {
    let cache = ctx.embeddings.cache(&spec.model, ctx.registry)?;
    let run = RunEmbedder::new(cache.as_ref());
    let column = string_column(batch, &spec.input_column)?;
    let matrix = embed_lanes(batch, column, &spec.model, &cache, &run, ctx);
    let delta = run.stats();
    let gathered = gather_batch(batch)?;
    let out = gathered
        .with_column(&spec.output_column, Column::Vector(matrix))
        .map_err(CoreError::from)?;
    let rows = out.num_rows() as u32;
    Ok((
        ExecBatch::window(Arc::new(out), (0..rows).collect(), false),
        delta,
    ))
}

/// Collects every column name an expression references.
fn expr_columns<'e>(expr: &'e Expr, out: &mut Vec<&'e str>) {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => {
            expr_columns(a, out);
            expr_columns(b, out);
        }
        Expr::Not(inner) => expr_columns(inner, out),
        Expr::Compare { left, right, .. } => {
            expr_columns(left, out);
            expr_columns(right, out);
        }
        Expr::Column(name) => out.push(name),
        Expr::Literal(_) => {}
    }
}

/// Materialises a batch: visible columns, selected lanes.
fn gather_batch(batch: &ExecBatch) -> Result<Table> {
    gather_rows(batch, &batch.sel)
}

/// Materialises rows `rows` of the batch's base under the batch's visible
/// columns and output names.  When that is the whole base table the `Arc`
/// contents are cloned directly (the same single copy the row path pays).
fn gather_rows(batch: &ExecBatch, rows: &[u32]) -> Result<Table> {
    let whole_table = batch.names.is_none()
        && batch
            .visible
            .iter()
            .copied()
            .eq(0..batch.base.num_columns())
        && rows.len() == batch.base.num_rows()
        && rows.iter().copied().eq(0..batch.base.num_rows() as u32);
    if whole_table {
        return Ok(batch.base.as_ref().clone());
    }
    let mut fields = Vec::with_capacity(batch.visible.len());
    let mut columns = Vec::with_capacity(batch.visible.len());
    for (i, &pos) in batch.visible.iter().enumerate() {
        let column = batch.base.column(pos).map_err(CoreError::from)?;
        fields.push(Field::new(batch.name_of(i), column.data_type()));
        columns.push(column.gather(rows).map_err(CoreError::from)?);
    }
    let schema = Schema::new(fields).map_err(CoreError::from)?;
    Table::new(schema, columns).map_err(CoreError::from)
}

/// Collapses drained batches that window one base the same way (same
/// visible set, same names) into a single selection — no row is copied.
/// Heterogeneous batches (e.g. per-batch `Embed` outputs) come back
/// untouched.
fn merge_selections(batches: Vec<ExecBatch>) -> std::result::Result<ExecBatch, Vec<ExecBatch>> {
    let Some(first) = batches.first() else {
        return Err(batches);
    };
    let same_window = batches.iter().all(|b| {
        Arc::ptr_eq(&b.base, &first.base) && b.visible == first.visible && b.names == first.names
    });
    if !same_window {
        return Err(batches);
    }
    let total: usize = batches.iter().map(|b| b.sel.len()).sum();
    let mut batches = batches.into_iter();
    let mut merged = batches.next().expect("non-empty, checked above");
    merged.sel.reserve(total - merged.sel.len());
    for b in batches {
        merged.sel.extend_from_slice(&b.sel);
    }
    Ok(merged)
}

/// Gathers heterogeneous batches one by one and concatenates them.
fn concat_batches(batches: &[ExecBatch]) -> Result<Table> {
    if batches.is_empty() {
        // every pipeline emits at least one batch; defensive only
        return Ok(Table::empty());
    }
    let parts: Vec<Table> = batches
        .iter()
        .map(gather_batch)
        .collect::<Result<Vec<_>>>()?;
    let refs: Vec<&Table> = parts.iter().collect();
    Table::concat(&refs).map_err(CoreError::from)
}

/// Reassembles drained batches into one table: a single gather when they
/// share a window, gather-and-concatenate otherwise.
fn finalize(batches: Vec<ExecBatch>) -> Result<Table> {
    match merge_selections(batches) {
        Ok(merged) => gather_batch(&merged),
        Err(batches) => concat_batches(&batches),
    }
}

/// One join input after its pipeline ran, kept as a **selection**: the rows
/// `sel` of one base, nothing gathered.  Only when the batches do not share
/// a window are they materialised (and then windowed whole).
fn join_side(batches: Vec<ExecBatch>) -> Result<ExecBatch> {
    match merge_selections(batches) {
        Ok(merged) => Ok(merged),
        Err(batches) => {
            let table = concat_batches(&batches)?;
            let rows = table.num_rows() as u32;
            Ok(ExecBatch::window(
                Arc::new(table),
                (0..rows).collect(),
                false,
            ))
        }
    }
}

/// One stage of an extracted linear chain (everything above the scan).
enum MorselStage<'p> {
    Filter {
        slot: usize,
        predicate: &'p Expr,
    },
    Project {
        slot: usize,
        columns: &'p [String],
    },
    Embed {
        slot: usize,
        spec: &'p EmbedSpec,
    },
    Rename {
        slot: usize,
        columns: &'p [(String, String)],
    },
}

impl MorselStage<'_> {
    fn slot(&self) -> usize {
        match self {
            MorselStage::Filter { slot, .. }
            | MorselStage::Project { slot, .. }
            | MorselStage::Embed { slot, .. }
            | MorselStage::Rename { slot, .. } => *slot,
        }
    }
}

/// A linear `Scan → (Filter|Project|Embed|Rename)*` pipeline extracted from
/// a fresh [`BatchOp`] tree — the unit of morsel-driven parallelism.
/// `stages` is in application (bottom-up) order.
struct MorselChain<'p> {
    scan_slot: usize,
    scan_name: &'p str,
    stages: Vec<MorselStage<'p>>,
}

/// Extracts a linear chain from a *fresh* (never-pulled) pipeline, or `None`
/// when the pipeline contains a pipeline breaker (a join source) and must be
/// pulled serially.
fn extract_chain<'p>(op: &BatchOp<'p>) -> Option<MorselChain<'p>> {
    let mut stages_top_down: Vec<MorselStage<'p>> = Vec::new();
    let mut cursor = op;
    loop {
        match cursor {
            BatchOp::Scan { slot, name, .. } => {
                stages_top_down.reverse();
                return Some(MorselChain {
                    scan_slot: *slot,
                    scan_name: name,
                    stages: stages_top_down,
                });
            }
            BatchOp::Filter {
                slot,
                predicate,
                input,
            } => {
                stages_top_down.push(MorselStage::Filter {
                    slot: *slot,
                    predicate,
                });
                cursor = input;
            }
            BatchOp::Project {
                slot,
                columns,
                input,
            } => {
                stages_top_down.push(MorselStage::Project {
                    slot: *slot,
                    columns,
                });
                cursor = input;
            }
            BatchOp::Embed { slot, spec, input } => {
                stages_top_down.push(MorselStage::Embed { slot: *slot, spec });
                cursor = input;
            }
            BatchOp::Rename {
                slot,
                columns,
                input,
            } => {
                stages_top_down.push(MorselStage::Rename {
                    slot: *slot,
                    columns,
                });
                cursor = input;
            }
            BatchOp::JoinSource { .. } | BatchOp::HashJoinSource { .. } => return None,
        }
    }
}

/// Runs one morsel (a contiguous scan range) through every stage of a chain.
/// Returns the surviving batch, the per-stage output-lane counts (scan
/// first, then `stages` in order), and the embedding delta this morsel paid.
fn process_morsel(
    base: &Arc<Table>,
    range: Range<u32>,
    chain: &MorselChain<'_>,
    ctx: &ExecContext<'_>,
) -> Result<(ExecBatch, Vec<u64>, EmbeddingStats)> {
    let mut lane_counts = Vec::with_capacity(1 + chain.stages.len());
    let sel: Vec<u32> = range.collect();
    lane_counts.push(sel.len() as u64);
    let mut batch = ExecBatch::window(base.clone(), sel, true);
    let mut embed_delta = EmbeddingStats::default();
    for stage in &chain.stages {
        match stage {
            MorselStage::Filter { predicate, .. } => {
                batch.sel = filter_batch(predicate, &batch)?;
                lane_counts.push(batch.sel.len() as u64);
            }
            MorselStage::Project { columns, .. } => {
                batch = project_batch(batch, columns)?;
                lane_counts.push(batch.sel.len() as u64);
            }
            MorselStage::Embed { spec, .. } => {
                let (out, delta) = embed_one_batch(&batch, spec, ctx)?;
                embed_delta.model_calls += delta.model_calls;
                embed_delta.cache_hits += delta.cache_hits;
                lane_counts.push(out.sel.len() as u64);
                batch = out;
            }
            MorselStage::Rename { columns, .. } => {
                batch = rename_batch(batch, columns)?;
                lane_counts.push(batch.sel.len() as u64);
            }
        }
    }
    Ok((batch, lane_counts, embed_delta))
}

/// Morsel-driven parallel execution of a linear chain: the scan range is
/// split into `batch_rows`-sized morsels dispatched onto the context's
/// worker pool, each worker running the full stage chain over its morsel.
/// Outputs come back in morsel-index order, so the returned batch sequence
/// — and everything downstream — is byte-identical to the serial pull loop.
///
/// All fused operators accrue the pipeline's wall-clock time (per-stage
/// timing inside interleaved morsels would sum worker CPU time instead).
fn run_chain_parallel(
    chain: &MorselChain<'_>,
    ctx: &ExecContext<'_>,
    batch_rows: usize,
    stats: &mut RunStats,
    metrics: &mut OpMetrics,
) -> Result<Vec<ExecBatch>> {
    let start = Instant::now();
    let base = ctx
        .catalog
        .table(chain.scan_name)
        .map_err(CoreError::from)?;
    let rows = base.num_rows();
    // the serial scan emits exactly one empty batch for an empty table (so
    // schemas propagate) and no trailing empty batch otherwise
    let morsels: Vec<Range<u32>> = if rows == 0 {
        std::iter::once(0..0).collect()
    } else {
        (0..rows)
            .step_by(batch_rows)
            .map(|s| s as u32..((s + batch_rows).min(rows)) as u32)
            .collect()
    };
    let results = ctx.pool.parallel_map(&morsels, |range| {
        process_morsel(&base, range.clone(), chain, ctx)
    });
    let mut batches = Vec::with_capacity(results.len());
    for result in results {
        let (batch, lane_counts, embed_delta) = result?;
        metrics.rows[chain.scan_slot] += lane_counts[0];
        metrics.morsels[chain.scan_slot] += 1;
        for (stage, lanes) in chain.stages.iter().zip(&lane_counts[1..]) {
            metrics.rows[stage.slot()] += *lanes;
            metrics.morsels[stage.slot()] += 1;
        }
        stats.embedding_stats.model_calls += embed_delta.model_calls;
        stats.embedding_stats.cache_hits += embed_delta.cache_hits;
        batches.push(batch);
    }
    let elapsed = start.elapsed();
    metrics.add_time(chain.scan_slot, elapsed);
    for stage in &chain.stages {
        metrics.add_time(stage.slot(), elapsed);
    }
    Ok(batches)
}

/// Collects every batch a pipeline produces.  Linear chains go down the
/// morsel-parallel path when the pool budget allows; pipelines containing a
/// join source are pulled serially (their heavy probe work is parallelised
/// inside the join instead).
fn collect_batches(
    op: &mut BatchOp<'_>,
    ctx: &ExecContext<'_>,
    batch_rows: usize,
    stats: &mut RunStats,
    metrics: &mut OpMetrics,
) -> Result<Vec<ExecBatch>> {
    if ctx.pool.threads() > 1 {
        if let Some(chain) = extract_chain(op) {
            return run_chain_parallel(&chain, ctx, batch_rows, stats, metrics);
        }
    }
    let mut batches = Vec::new();
    while let Some(batch) = op.next_batch(ctx, batch_rows, stats, metrics)? {
        batches.push(batch);
    }
    Ok(batches)
}

/// Drains a pipeline to a materialised table (pipeline-breaker boundary).
fn drain(
    op: &mut BatchOp<'_>,
    ctx: &ExecContext<'_>,
    batch_rows: usize,
    stats: &mut RunStats,
    metrics: &mut OpMetrics,
) -> Result<Table> {
    finalize(collect_batches(op, ctx, batch_rows, stats, metrics)?)
}

/// The per-batch probe strategy of a join: everything inner-side is prepared
/// once, then reused by every outer batch.
enum Probe {
    Naive {
        right: Vec<String>,
    },
    Prefetch {
        join: PrefetchNlJoin,
        inner: Matrix,
    },
    Tensor {
        join: TensorJoin,
        inner_norm: Matrix,
    },
    Hnsw {
        join: IndexJoin,
        index: Arc<HnswIndex>,
        inner_filter: Option<SelectionBitmap>,
    },
}

/// Accumulates per-batch join statistics the way a single whole-input call
/// would have: additive counters sum, probe stats merge, peaks take the max.
fn merge_stats(acc: &mut JoinStats, part: &JoinStats) {
    acc.pairs_compared += part.pairs_compared;
    acc.blocks_computed += part.blocks_computed;
    acc.probe_stats.merge(&part.probe_stats);
    acc.peak_buffer_bytes = acc.peak_buffer_bytes.max(part.peak_buffer_bytes);
}

/// The selected lanes of a string column as owned strings (the naive NLJ
/// embeds inside its pair loop and wants plain slices).
fn gather_strings(strings: &[String], sel: &[u32]) -> Vec<String> {
    sel.iter()
        .map(|&lane| strings[lane as usize].clone())
        .collect()
}

/// Executes a join node batch-at-a-time.  Both inputs stay **selections**
/// over their base tables until the pairs are known: the inner pipeline is
/// collected but not gathered, its join column embedded by row
/// ([`embed_lanes`]); outer morsels stream through the probe — concurrently
/// on the context's pool, since the prepared probe state is read-only — with
/// pair offsets remapped by each morsel's cumulative position (in morsel
/// order, so output order matches the serial loop exactly); and only the
/// matched rows of either side are ever copied ([`materialize_pairs`]).
fn execute_join_batched(
    node: &JoinNode,
    outer: &mut BatchOp<'_>,
    mut inner: Option<Box<BatchOp<'_>>>,
    ctx: &ExecContext<'_>,
    batch_rows: usize,
    stats: &mut RunStats,
    metrics: &mut OpMetrics,
) -> Result<Table> {
    let start = Instant::now();

    // Run the inner subplan (if any) *before* snapshotting this join's cache
    // counters — nested joins and embeds inside it account for their own
    // model calls (same rule as the row path).
    let planned_inner = match inner.as_mut() {
        Some(op) => Some(join_side(collect_batches(
            op, ctx, batch_rows, stats, metrics,
        )?)?),
        None => None,
    };

    let cache = ctx.embeddings.cache(&node.model, ctx.registry)?;
    let run = RunEmbedder::new(cache.as_ref());
    let embed = |side: &ExecBatch, column: (usize, &[String])| {
        embed_lanes(side, column, &node.model, &cache, &run, ctx)
    };

    let (probe, inner_side) = match (&node.op, &node.inner) {
        (PhysicalJoinOp::Index(config), InnerInput::Indexed(indexed)) => {
            // epoch first, then the table read (see the row path for why)
            let epoch = ctx.indexes.publication_epoch(&indexed.key);
            let base = ctx
                .catalog
                .table(&indexed.key.table)
                .map_err(CoreError::from)?;
            let inner_strings = base
                .column_by_name(&indexed.key.column)
                .map_err(CoreError::from)?
                .as_utf8()?;
            let join = IndexJoin::new(*config);
            let (index, built, evicted) =
                ctx.indexes
                    .get_or_build_tracked_from(epoch, &indexed.key, || {
                        let matrix = embed_all(&run, inner_strings)?;
                        join.build_index(&matrix)
                    })?;
            if built {
                stats.index_builds += 1;
            } else {
                stats.index_reuses += 1;
            }
            stats.index_evictions += evicted;

            let mut inner_filter: Option<SelectionBitmap> = None;
            for expr in &indexed.filters {
                let bitmap = evaluate_predicate(expr, &base).map_err(CoreError::from)?;
                inner_filter = Some(match inner_filter {
                    None => bitmap,
                    Some(acc) => acc.and(&bitmap).map_err(CoreError::from)?,
                });
            }
            // probe results name base rows: the inner side is the whole
            // base under the index's projection
            let rows = base.num_rows() as u32;
            let mut side = ExecBatch::window(base, (0..rows).collect(), true);
            if let Some(columns) = &indexed.projection {
                side = project_batch(side, columns)?;
            }
            (
                Probe::Hnsw {
                    join,
                    index,
                    inner_filter,
                },
                side,
            )
        }
        (op, InnerInput::Plan(_)) => {
            let side = planned_inner.expect("collected above");
            let column = string_column(&side, &node.right_column)?;
            check_predicate(&node.predicate)?;
            let probe = match op {
                PhysicalJoinOp::NaiveNlj => Probe::Naive {
                    right: gather_strings(column.1, &side.sel),
                },
                PhysicalJoinOp::PrefetchNlj(config) => Probe::Prefetch {
                    join: PrefetchNlJoin::new(*config),
                    inner: embed(&side, column),
                },
                PhysicalJoinOp::Tensor(config) => {
                    // the inner side is normalised exactly once; every probe
                    // batch reuses it through `join_prenormalized`
                    let mut inner_norm = embed(&side, column);
                    normalize_matrix_rows_with(&mut inner_norm, config.kernel);
                    Probe::Tensor {
                        join: TensorJoin::new(*config),
                        inner_norm,
                    }
                }
                PhysicalJoinOp::Index(config) => {
                    stats.index_builds += 1;
                    let join = IndexJoin::new(*config);
                    let index = Arc::new(join.build_index(&embed(&side, column))?);
                    Probe::Hnsw {
                        join,
                        index,
                        inner_filter: None,
                    }
                }
            };
            (probe, side)
        }
        (op, InnerInput::Indexed(_)) => {
            return Err(CoreError::InvalidInput(format!(
                "planner bug: {} cannot consume a persistent-index inner input",
                op.name()
            )))
        }
    };

    // Collect the outer morsels (parallel when the outer pipeline is a
    // linear chain), then embed + probe every morsel concurrently: the probe
    // state above is read-only and the run-local embedding counters are
    // atomic.
    let batches = collect_batches(outer, ctx, batch_rows, stats, metrics)?;
    let probed = ctx
        .pool
        .parallel_map(&batches, |batch| -> Result<Option<JoinResult>> {
            // the column lookup happens for every morsel (even empty ones)
            // so a missing probe column errors exactly like the row path
            let column = string_column(batch, &node.left_column)?;
            if batch.sel.is_empty() {
                return Ok(None);
            }
            let result = match &probe {
                Probe::Naive { right } => {
                    let left = gather_strings(column.1, &batch.sel);
                    NaiveNlJoin::new().join(&run, &left, right, node.predicate)?
                }
                Probe::Prefetch { join, inner } => {
                    join.join_matrices(&embed(batch, column), inner, node.predicate)?
                }
                Probe::Tensor { join, inner_norm } => {
                    let mut left_norm = embed(batch, column);
                    normalize_matrix_rows_with(&mut left_norm, join.config().kernel);
                    join.join_prenormalized(&left_norm, inner_norm, node.predicate)?
                }
                Probe::Hnsw {
                    join,
                    index,
                    inner_filter,
                } => join.probe_join(
                    &embed(batch, column),
                    index,
                    node.predicate,
                    None,
                    inner_filter.as_ref(),
                )?,
            };
            Ok(Some(result))
        });

    // Fold per-morsel results in morsel order: pair offsets are remapped by
    // the cumulative outer position, so the pair list is exactly the serial
    // loop's.
    let mut pairs: Vec<JoinPair> = Vec::new();
    let mut join_stats = JoinStats::default();
    let mut offset = 0usize;
    for (batch, result) in batches.iter().zip(probed) {
        if let Some(result) = result? {
            for p in result.pairs {
                pairs.push(JoinPair::new(offset + p.left, p.right, p.score));
            }
            merge_stats(&mut join_stats, &result.stats);
        }
        offset += batch.sel.len();
    }

    let delta = run.stats();
    stats.embedding_stats.model_calls += delta.model_calls;
    stats.embedding_stats.cache_hits += delta.cache_hits;

    join_stats.model_calls = delta.model_calls;
    join_stats.elapsed = start.elapsed();
    stats.join_stats = join_stats;
    stats.access_path = Some(node.access_path);
    stats.matched_pairs = pairs.len();

    let result = JoinResult {
        pairs,
        stats: join_stats,
    };
    materialize_pairs(&join_side(batches)?, &inner_side, &result)
}

/// Late materialisation of a join: pair offsets are positions in each side's
/// selection, so they are mapped through `sel` to base rows and only those
/// rows — the matched ones — are gathered, straight from the base tables.
fn materialize_pairs(outer: &ExecBatch, inner: &ExecBatch, result: &JoinResult) -> Result<Table> {
    let pairs = result.sorted_pairs();
    let left_rows: Vec<u32> = pairs.iter().map(|p| outer.sel[p.left]).collect();
    let right_rows: Vec<u32> = pairs.iter().map(|p| inner.sel[p.right]).collect();
    let scores: Vec<f64> = pairs.iter().map(|p| p.score as f64).collect();
    join_output(
        gather_rows(outer, &left_rows)?,
        gather_rows(inner, &right_rows)?,
        scores,
    )
}

/// Executes a plan batch-at-a-time.  Same contract as the row executor:
/// per-operator actual rows in pre-order, per-run stat deltas, and a
/// byte-identical output table.
pub(crate) fn execute_batched(
    plan: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    batch_rows: usize,
) -> Result<ExecOutcome> {
    let batch_rows = batch_rows.max(1);
    let mut stats = RunStats::default();
    let pool_before = cej_exec::ExecPool::metrics();
    let mut metrics = OpMetrics::with_slots(plan.operator_count());
    let mut next_slot = 0usize;
    let mut root = build_pipeline(plan, &mut next_slot);
    debug_assert_eq!(next_slot, plan.operator_count());
    let table = drain(&mut root, ctx, batch_rows, &mut stats, &mut metrics)?;
    stats.scheduler = cej_exec::ExecPool::metrics().delta_since(&pool_before);
    Ok(ExecOutcome {
        table,
        stats,
        operator_rows: metrics.rows,
        operator_micros: metrics.micros,
        operator_morsels: metrics.morsels,
    })
}
