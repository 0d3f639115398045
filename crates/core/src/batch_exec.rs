//! The interpreter: the one place a physical operator body lives.
//!
//! [`PhysicalPlan::execute`] is a single recursive function over the plan
//! tree in the MonetDB/X100 style: operators exchange **morsels** — a
//! selection vector plus a visible-column set over a shared, immutable base
//! table — and nothing is copied until a pipeline breaker needs the rows.
//!
//! A plan is a chain of *stages* (`Filter | Project | Embed | Rename`) above
//! a *source* (a table scan, a context-enhanced join or a hash join).  One
//! call of the interpreter peels the stages, resolves the source to its
//! row segments (a catalog table's published [`Segment`]s, or the one table
//! a join produced, recursing into its inputs), cuts each into
//! `morsel_rows`-sized selections and maps the whole stage chain over them
//! on the context's [`cej_exec::ExecPool`] — inline at a budget of one
//! thread, on the work-stealing workers above it.  The code is the same at
//! every budget and every morsel size: a morsel of the whole table is the
//! materialise-everything execution model, a morsel of one row is
//! tuple-at-a-time.
//!
//! * A scan's morsels are zero-copy windows over the segments of the
//!   catalog's published table version, the window's *live* rows as the
//!   initial selection: a table that deltas have deleted from is just a
//!   pre-filtered scan, and one that was appended to is a few more morsels
//!   over another base.
//! * `Filter` refines the selection vector — survivors are *marked*, never
//!   copied.  A morsel's bottom `Filter` reads the window in order
//!   ([`cej_relational::eval::evaluate_predicate_window`]) when no delete
//!   reached into the morsel's rows ([`Segment::all_live_in`]), so its
//!   survivors are the morsel's first selection and the window's rows are
//!   never listed; every other one reads through the selection
//!   ([`cej_relational::eval::evaluate_predicate_select`]).  Both send
//!   `column <op> literal` to the `cej-vector` filter kernels.
//! * `Project` and `Rename` are metadata-only: they narrow, reorder and
//!   rename the visible-column set.
//! * `Embed` embeds only the selected lanes, in one call per morsel — by
//!   remembered **slot** when the morsel still windows a catalog table (the
//!   session's per-column `row → slot` maps,
//!   [`crate::executor::ColumnSlots`]), through the strings otherwise.
//! * Joins keep **both inputs as selections** until the pairs are known
//!   (late materialisation).  The inner input is collected, not gathered:
//!   its join column is embedded by row (and for the prefetch NLJ and the
//!   tensor join normalised) once, every outer morsel is scored against it
//!   through its operator's one entry point ([`crate::join`]), pair
//!   offsets — positions in each side's selection — are remapped by the
//!   morsel's cumulative offset, and only the matched rows of either side
//!   are finally copied out of the base tables.  A warm run
//!   over a filtered inner table therefore hashes no string and copies no
//!   unmatched row.  Inputs that are not one window over one base (an inner
//!   that is itself a join, per-morsel `Embed` outputs, a scan of a table
//!   several segments long) are materialised — their selected rows only — and
//!   embedded through the strings — over the same arena, so the vectors are
//!   the same bits either way.
//! * The relational hash join builds its partitioned table across workers
//!   ([`HashSide::build_with_pool`]) and probes the left morsels against it.
//!
//! Incremental view maintenance ([`crate::ivm`]) owns no operator: it pushes
//! its delta tables through [`stage_over_table`] and [`join_tables`], the
//! same bodies a full run executes.
//!
//! The load-bearing invariant: results are **byte-identical** for every
//! morsel size and every thread budget, for every plan shape and join
//! strategy.  Per-morsel outputs are reassembled in morsel order (ascending
//! row ranges), so rows, row order, similarity bits and per-operator row
//! actuals do not depend on how the work was cut.  The per-operator
//! actual-row accounting counts *selected lanes*, never morsels, so
//! `explain_analyze` q-errors do not either.  Only timing
//! (`operator_micros`), morsel counts and scheduler counters vary.
//! `tests/property_morsel_equivalence.rs` holds the engine to that, and the
//! whole-table morsel to `cej-oracle`, which shares no code with it.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use cej_embedding::EmbeddingStats;
use cej_index::HnswIndex;
use cej_relational::{
    eval::{evaluate_predicate, evaluate_predicate_select, evaluate_predicate_window},
    EmbedSpec, Expr,
};
use cej_storage::{Column, DataType, Field, Schema, Segment, SelectionBitmap, StorageError, Table};
use cej_vector::norm::normalize_matrix_rows_with;
use cej_vector::{Kernel, Matrix};

use crate::error::CoreError;
use crate::executor::{ExecContext, ExecOutcome, RunEmbedder, RunStats, SharedCache};
use crate::join::hash_join::HashSide;
use crate::join::index_join::IndexJoin;
use crate::join::naive_nlj::NaiveNlJoin;
use crate::join::prefetch_nlj::PrefetchNlJoin;
use crate::join::tensor_join::TensorJoin;
use crate::join::{check_predicate, embed_all};
use crate::physical_plan::{HashJoinNode, InnerInput, JoinNode, PhysicalJoinOp, PhysicalPlan};
use crate::result::{JoinPair, JoinResult, JoinStats};
use crate::Result;

/// A morsel in flight: a selection vector plus a visible-column set over a
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

    /// Every row of an operator's (or IVM's) materialised table.
    fn whole(base: Arc<Table>) -> Self {
        let rows = base.num_rows() as u32;
        Self::window(base, (0..rows).collect(), false)
    }

    /// The output name of the `i`-th visible column.
    fn name_of(&self, i: usize) -> &str {
        match &self.names {
            Some(names) => &names[i],
            None => &self.base.schema().fields()[self.visible[i]].name,
        }
    }
}

/// Resolves a column name against the batch's *visible* set under its
/// output names (hidden base columns must not leak).  Returns the base
/// schema position.
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

/// The `Filter` operator's per-morsel body: the refined selection.
fn filter_batch(predicate: &Expr, batch: &ExecBatch) -> Result<Vec<u32>> {
    if batch.sel.is_empty() {
        // nothing is evaluated over an empty input
        return Ok(Vec::new());
    }
    let fields = batch.base.schema().fields();
    let all_visible = batch.names.is_none()
        && predicate
            .referenced_columns()
            .iter()
            .all(|n| batch.visible.iter().any(|&i| fields[i].name == *n));
    if all_visible {
        // every referenced column is visible under its base name: evaluate
        // against the base table over the selected lanes
        evaluate_predicate_select(predicate, &batch.base, &batch.sel).map_err(CoreError::from)
    } else {
        // a referenced column is hidden, renamed or missing: gather the
        // visible lanes and evaluate over exactly what the operator may see,
        // short-circuit semantics included (an unknown column behind a false
        // AND arm is no error)
        let gathered = gather_batch(batch)?;
        let bitmap = evaluate_predicate(predicate, &gathered).map_err(CoreError::from)?;
        Ok(bitmap
            .selected_indices()
            .into_iter()
            .map(|i| batch.sel[i])
            .collect())
    }
}

/// The `Project` operator's per-morsel body — metadata only: narrows the
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

/// The `Rename` operator's per-morsel body — metadata only: selects,
/// reorders and renames visible columns without touching a row.
fn rename_batch(batch: ExecBatch, columns: &[(String, String)]) -> Result<ExecBatch> {
    let fields = batch.base.schema().fields();
    let mut visible = Vec::with_capacity(columns.len());
    let mut renamed = Vec::with_capacity(columns.len());
    for (from, to) in columns {
        let pos = visible_position(&batch, from)?;
        visible.push(pos);
        renamed.push(Field::new(to, fields[pos].data_type));
    }
    // duplicate output names fail here, before any row is produced
    Schema::new(renamed).map_err(CoreError::from)?;
    Ok(ExecBatch {
        visible,
        names: Some(columns.iter().map(|(_, to)| to.clone()).collect()),
        ..batch
    })
}

/// The `Embed` operator's per-morsel body: embeds the input column's
/// selected lanes in one call — through the shared per-model cache, so warm
/// runs re-pay nothing — gathers the batch, and rebases it onto the embedded
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
    Ok((ExecBatch::whole(Arc::new(out)), delta))
}

/// The input of a stage operator, `None` for a source.
fn stage_input(plan: &PhysicalPlan) -> Option<&PhysicalPlan> {
    match plan {
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Embed { input, .. }
        | PhysicalPlan::Rename { input, .. } => Some(input),
        PhysicalPlan::TableScan { .. } | PhysicalPlan::Join(_) | PhysicalPlan::HashJoin(_) => None,
    }
}

/// Applies one stage operator to one morsel, returning the morsel it emits
/// and the model access it paid.
fn apply_stage(
    stage: &PhysicalPlan,
    batch: ExecBatch,
    ctx: &ExecContext<'_>,
) -> Result<(ExecBatch, EmbeddingStats)> {
    let out = match stage {
        PhysicalPlan::Filter { predicate, .. } => ExecBatch {
            sel: filter_batch(predicate, &batch)?,
            ..batch
        },
        PhysicalPlan::Project { columns, .. } => project_batch(batch, columns)?,
        PhysicalPlan::Rename { columns, .. } => rename_batch(batch, columns)?,
        PhysicalPlan::Embed { spec, .. } => return embed_one_batch(&batch, spec, ctx),
        PhysicalPlan::TableScan { .. } | PhysicalPlan::Join(_) | PhysicalPlan::HashJoin(_) => {
            return Err(CoreError::InvalidInput(
                "interpreter bug: a source operator is not a stage".into(),
            ))
        }
    };
    Ok((out, EmbeddingStats::default()))
}

/// Materialises a batch: visible columns, selected lanes.
fn gather_batch(batch: &ExecBatch) -> Result<Table> {
    gather_rows(batch, &batch.sel)
}

/// Whether `rows` of the batch's base under its visible columns and names
/// is the base table itself.
fn is_whole_base(batch: &ExecBatch, rows: &[u32]) -> bool {
    batch.names.is_none()
        && batch
            .visible
            .iter()
            .copied()
            .eq(0..batch.base.num_columns())
        && rows.len() == batch.base.num_rows()
        && rows.iter().copied().eq(0..batch.base.num_rows() as u32)
}

/// Materialises rows `rows` of the batch's base under the batch's visible
/// columns and output names.  When that is the whole base table its columns
/// are cloned directly instead of gathered lane by lane.
fn gather_rows(batch: &ExecBatch, rows: &[u32]) -> Result<Table> {
    if is_whole_base(batch, rows) {
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

/// Collapses morsels that window one base the same way (same visible set,
/// same names) into a single selection — no row is copied.  Heterogeneous
/// morsels (e.g. per-morsel `Embed` outputs) come back untouched.
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

/// Gathers heterogeneous morsels one by one and concatenates them.
fn concat_batches(batches: &[ExecBatch]) -> Result<Table> {
    if batches.is_empty() {
        // every pipeline emits at least one morsel; defensive only
        return Ok(Table::empty());
    }
    let parts: Vec<Table> = batches
        .iter()
        .map(gather_batch)
        .collect::<Result<Vec<_>>>()?;
    let refs: Vec<&Table> = parts.iter().collect();
    Table::concat(&refs).map_err(CoreError::from)
}

/// Reassembles a pipeline's morsels into one table: a single gather when
/// they share a window, gather-and-concatenate otherwise.  An operator's own
/// output that reaches here untouched is handed over, not copied.
fn finalize(batches: Vec<ExecBatch>) -> Result<Table> {
    match merge_selections(batches) {
        Ok(merged) if is_whole_base(&merged, &merged.sel) => {
            Ok(Arc::try_unwrap(merged.base).unwrap_or_else(|shared| shared.as_ref().clone()))
        }
        Ok(merged) => gather_batch(&merged),
        Err(batches) => concat_batches(&batches),
    }
}

/// One join input after its pipeline ran, kept as a **selection**: the rows
/// `sel` of one base, nothing gathered.  Only when the morsels do not share
/// a window are they materialised (and then windowed whole).
fn join_side(batches: Vec<ExecBatch>) -> Result<ExecBatch> {
    match merge_selections(batches) {
        Ok(merged) => Ok(merged),
        Err(batches) => Ok(ExecBatch::whole(Arc::new(concat_batches(&batches)?))),
    }
}

/// Per-operator execution metrics, indexed by the operator's pre-order slot
/// (the order `explain_analyze` renders in): a join, then its outer (left)
/// subtree, then its inner (right) subtree when that is a plan.
struct OpMetrics {
    /// Actual output rows (selected lanes, never morsels).
    rows: Vec<u64>,
    /// Inclusive wall time in microseconds: an operator's time includes its
    /// inputs'.  The stages fused into one morsel chain — and the scan under
    /// them — all report the chain's wall-clock time (they execute
    /// interleaved per morsel, so per-stage attribution would report summed
    /// worker time, not elapsed time).
    micros: Vec<u64>,
    /// Morsels the operator processed or, for a join, emitted — how finely
    /// its work was cut for the worker pool.
    morsels: Vec<u64>,
}

/// One execution of a plan: the context, the morsel size, and what the run
/// accumulates.
struct Interpreter<'c, 's> {
    ctx: &'c ExecContext<'s>,
    morsel_rows: usize,
    stats: RunStats,
    metrics: OpMetrics,
}

impl Interpreter<'_, '_> {
    /// Runs the subtree whose root sits at pre-order `slot`, returning its
    /// output morsels in row order.  Always at least one morsel, possibly
    /// empty, so schemas propagate through zero-row inputs.
    fn run(&mut self, plan: &PhysicalPlan, slot: usize) -> Result<Vec<ExecBatch>> {
        let start = Instant::now();
        let mut stages = Vec::new();
        let mut source = plan;
        while let Some(input) = stage_input(source) {
            stages.push(source);
            source = input;
        }
        // `stages` is top-down, and so are their slots: `slot`, `slot + 1`, …
        let source_slot = slot + stages.len();
        let (segments, catalog_base) = match source {
            PhysicalPlan::TableScan { table, .. } => {
                let version = self.ctx.catalog.table_version(table);
                (version.map_err(CoreError::from)?.segments().to_vec(), true)
            }
            PhysicalPlan::Join(node) => {
                let joined = Arc::new(self.ejoin(node, source_slot)?);
                (vec![Segment::whole(joined)], false)
            }
            PhysicalPlan::HashJoin(node) => {
                let joined = Arc::new(self.hash_join(node, source_slot)?);
                (vec![Segment::whole(joined)], false)
            }
            _ => unreachable!("stages were peeled above"),
        };
        let source_micros = start.elapsed().as_micros() as u64;

        let rows: usize = segments.iter().map(Segment::live_rows).sum();
        let morsel_rows = self.morsel_rows;
        // an empty segment still emits its one (empty) morsel
        let morsels: Vec<(&Segment, Range<u32>)> = segments
            .iter()
            .flat_map(|segment| {
                let rows = segment.rows().num_rows();
                (0..rows.max(1)).step_by(morsel_rows).map(move |s| {
                    let end = s.saturating_add(morsel_rows).min(rows);
                    (segment, s as u32..end as u32)
                })
            })
            .collect();
        let ctx = self.ctx;
        let chained = ctx.pool.parallel_map(
            &morsels,
            |(segment, range)| -> Result<(ExecBatch, Vec<u64>, EmbeddingStats)> {
                let base = segment.rows().clone();
                let mut pending = stages.iter().rev();
                // per-stage output lanes, bottom-up, and the model access paid
                let mut lanes = Vec::with_capacity(stages.len());
                let mut embedded = EmbeddingStats::default();
                let mut batch = match stages.last() {
                    // a bottom `Filter` over rows no delete reached into
                    // compares the window's column slices in order: the
                    // window's rows are never listed
                    Some(PhysicalPlan::Filter { predicate, .. })
                        if segment.all_live_in(range.clone()) =>
                    {
                        pending.next();
                        let sel = evaluate_predicate_window(predicate, &base, range.clone())?;
                        lanes.push(sel.len() as u64);
                        ExecBatch::window(base, sel, catalog_base)
                    }
                    _ => ExecBatch::window(base, segment.live_in(range.clone()), catalog_base),
                };
                for stage in pending {
                    let (out, delta) = apply_stage(stage, batch, ctx)?;
                    embedded.model_calls += delta.model_calls;
                    embedded.cache_hits += delta.cache_hits;
                    lanes.push(out.sel.len() as u64);
                    batch = out;
                }
                Ok((batch, lanes, embedded))
            },
        );

        let metrics = &mut self.metrics;
        metrics.rows[source_slot] += rows as u64;
        let mut batches = Vec::with_capacity(chained.len());
        for result in chained {
            let (batch, lanes, embedded) = result?;
            for (depth, lanes) in lanes.into_iter().enumerate() {
                metrics.rows[source_slot - 1 - depth] += lanes;
            }
            self.stats.embedding_stats.model_calls += embedded.model_calls;
            self.stats.embedding_stats.cache_hits += embedded.cache_hits;
            batches.push(batch);
        }
        // every fused stage reports the chain's wall time, and so does the
        // scan under them; a join keeps its own
        let chain_micros = start.elapsed().as_micros() as u64;
        metrics.micros[source_slot] += if catalog_base {
            chain_micros
        } else {
            source_micros
        };
        for stage_micros in &mut metrics.micros[slot..source_slot] {
            *stage_micros += chain_micros;
        }
        for morsel_count in &mut metrics.morsels[slot..=source_slot] {
            *morsel_count += morsels.len() as u64;
        }
        Ok(batches)
    }

    /// The relational hash equi-join: the right input is drained once into a
    /// built hash side, radix-partitioned across the pool's workers, then
    /// the left morsels probe it.  The side is read-only, so morsels probe
    /// concurrently; concatenating their outputs in morsel order keeps
    /// matches in probe-row order.
    fn hash_join(&mut self, node: &HashJoinNode, slot: usize) -> Result<Table> {
        let right_slot = slot + 1 + node.left.operator_count();
        let build = finalize(self.run(&node.right, right_slot)?)?;
        let side = HashSide::build_with_pool(build, &node.right_column, &self.ctx.pool)?;
        let batches = self.run(&node.left, slot + 1)?;
        let probed = self.ctx.pool.parallel_map(&batches, |batch| {
            side.probe(&gather_batch(batch)?, &node.left_column)
        });
        let parts = probed.into_iter().collect::<Result<Vec<_>>>()?;
        let refs: Vec<&Table> = parts.iter().collect();
        Table::concat(&refs).map_err(CoreError::from)
    }

    /// The context-enhanced join: collects both inputs, then joins them.
    /// The inner subplan (if any) runs first — nested joins and embeds
    /// inside it account for their own model calls before this join counts
    /// its own.
    fn ejoin(&mut self, node: &JoinNode, slot: usize) -> Result<Table> {
        let inner = match &node.inner {
            InnerInput::Plan(inner) => {
                let inner_slot = slot + 1 + node.outer.operator_count();
                Some(join_side(self.run(inner, inner_slot)?)?)
            }
            InnerInput::Indexed(_) => None,
        };
        let outer = self.run(&node.outer, slot + 1)?;
        join_sides(node, outer, inner, self.ctx, &mut self.stats)
    }
}

/// The per-morsel probe strategy of a join: everything inner-side is
/// prepared once, then reused by every outer morsel.
enum Probe {
    Naive {
        right: Vec<String>,
    },
    Prefetch {
        join: PrefetchNlJoin,
        inner_norm: Matrix,
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

/// Accumulates per-morsel join statistics the way a single whole-input call
/// would have: additive counters sum, probe stats merge, peaks take the max.
fn merge_stats(acc: &mut JoinStats, part: &JoinStats) {
    acc.pairs_compared += part.pairs_compared;
    acc.blocks_computed += part.blocks_computed;
    acc.probe_stats.merge(&part.probe_stats);
    acc.peak_buffer_bytes = acc.peak_buffer_bytes.max(part.peak_buffer_bytes);
}

/// Unit-normalises the rows of an embedded side: the input of the prefetch
/// NLJ and the tensor join, prepared once for an inner side and once per
/// outer morsel.
fn normalized(mut embedded: Matrix, kernel: Kernel) -> Matrix {
    normalize_matrix_rows_with(&mut embedded, kernel);
    embedded
}

/// The selected lanes of a string column as owned strings (the naive NLJ
/// embeds inside its pair loop and wants plain slices).
fn gather_strings(strings: &[String], sel: &[u32]) -> Vec<String> {
    sel.iter()
        .map(|&lane| strings[lane as usize].clone())
        .collect()
}

/// The context-enhanced join over two collected inputs: `outer` as the
/// morsels its pipeline emitted, `inner` as one selection (`None` when a
/// persistent index stands in for it).  Both stay **selections** over their
/// base tables until the pairs are known: the inner join column is embedded
/// by row ([`embed_lanes`]); outer morsels stream through the probe —
/// concurrently on the context's pool, since the prepared probe state is
/// read-only — with pair offsets remapped by each morsel's cumulative
/// position (in morsel order, so output order does not depend on the cut);
/// and only the matched rows of either side are ever copied
/// ([`materialize_pairs`]).
fn join_sides(
    node: &JoinNode,
    outer: Vec<ExecBatch>,
    inner: Option<ExecBatch>,
    ctx: &ExecContext<'_>,
    stats: &mut RunStats,
) -> Result<Table> {
    let start = Instant::now();
    let cache = ctx.embeddings.cache(&node.model, ctx.registry)?;
    // All of this join's embedding goes through a run-local counting view,
    // so the reported stats are exact per-run deltas even while other
    // executions share (and race on) the same cache.
    let run = RunEmbedder::new(cache.as_ref());
    let embed = |side: &ExecBatch, column: (usize, &[String])| {
        embed_lanes(side, column, &node.model, &cache, &run, ctx)
    };

    if outer.iter().all(|batch| batch.sel.is_empty()) {
        // Nothing to probe with — an IVM delta whose rows all failed the
        // filter below, the empty `removed` side of an append: the inner
        // side is not embedded, normalised or looked up in an index.  Only
        // its shape is needed, and the checks a probing run makes.
        for batch in &outer {
            string_column(batch, &node.left_column)?;
        }
        let inner_side = match &node.inner {
            InnerInput::Plan(_) => {
                let side = inner.expect("a planned inner input is collected by the caller");
                string_column(&side, &node.right_column)?;
                check_predicate(&node.predicate)?;
                side
            }
            InnerInput::Indexed(indexed) => {
                // any segment carries the schema; none is compacted for it
                let version = ctx.catalog.table_version(&indexed.key.table);
                let version = version.map_err(CoreError::from)?;
                let side = ExecBatch::window(version.segments()[0].rows().clone(), vec![], true);
                match &indexed.projection {
                    Some(columns) => project_batch(side, columns)?,
                    None => side,
                }
            }
        };
        stats.access_path = Some(node.access_path);
        return materialize_pairs(&join_side(outer)?, &inner_side, &JoinResult::default());
    }

    let (probe, inner_side) = match (&node.op, &node.inner) {
        (PhysicalJoinOp::Index(config), InnerInput::Indexed(indexed)) => {
            // epoch first, then the table read: a re-registration landing
            // between the two is detected at publication time, so an index
            // built from the rows snapshotted here can never be cached past
            // an invalidation of its own table or model
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
            let build = || join.build_index(&embed_all(&run, inner_strings)?);
            let index = if ctx.embeddings.shares(&node.model, &cache) {
                // tracked variant: evictions this call performed are
                // attributed to this run, not diffed off the shared
                // manager's global counter; single-flight means a losing
                // racer pays no embedding or build cost here at all
                let (index, built, evicted) =
                    ctx.indexes
                        .get_or_build_tracked_from(epoch, &indexed.key, build)?;
                if built {
                    stats.index_builds += 1;
                } else {
                    stats.index_reuses += 1;
                }
                stats.index_evictions += evicted;
                index
            } else {
                // a statement prepared before the model was re-registered
                // embeds through a private cache of its old model (checked
                // after the epoch read, so a swap landing later is caught at
                // publication): the manager's graph under this key holds —
                // or will hold — the new model's vectors, so this run
                // neither probes it nor publishes its own
                stats.index_builds += 1;
                Arc::new(build()?)
            };

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
            let side = inner.expect("a planned inner input is collected by the caller");
            let column = string_column(&side, &node.right_column)?;
            check_predicate(&node.predicate)?;
            let probe = match op {
                PhysicalJoinOp::NaiveNlj => Probe::Naive {
                    right: gather_strings(column.1, &side.sel),
                },
                // the inner side is normalised exactly once; every outer
                // morsel reuses it
                PhysicalJoinOp::PrefetchNlj(config) => Probe::Prefetch {
                    join: PrefetchNlJoin::new(*config),
                    inner_norm: normalized(embed(&side, column), config.kernel),
                },
                PhysicalJoinOp::Tensor(config) => Probe::Tensor {
                    join: TensorJoin::new(*config),
                    inner_norm: normalized(embed(&side, column), config.kernel),
                },
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

    // Embed + probe every outer morsel concurrently: the probe state above
    // is read-only and the run-local embedding counters are atomic.
    let probed = ctx
        .pool
        .parallel_map(&outer, |batch| -> Result<Option<JoinResult>> {
            // the column lookup happens for every morsel (even empty ones)
            // so a missing probe column errors whatever the input holds
            let column = string_column(batch, &node.left_column)?;
            if batch.sel.is_empty() {
                return Ok(None);
            }
            let result = match &probe {
                Probe::Naive { right } => {
                    let left = gather_strings(column.1, &batch.sel);
                    NaiveNlJoin::new().join(&run, &left, right, node.predicate)?
                }
                Probe::Prefetch { join, inner_norm } => {
                    let left_norm = normalized(embed(batch, column), join.config().kernel);
                    join.join(&left_norm, inner_norm, node.predicate)?
                }
                Probe::Tensor { join, inner_norm } => {
                    let left_norm = normalized(embed(batch, column), join.config().kernel);
                    join.join(&left_norm, inner_norm, node.predicate)?
                }
                Probe::Hnsw {
                    join,
                    index,
                    inner_filter,
                } => join.probe(
                    &embed(batch, column),
                    index,
                    node.predicate,
                    inner_filter.as_ref(),
                )?,
            };
            Ok(Some(result))
        });

    // Fold per-morsel results in morsel order: pair offsets are remapped by
    // the cumulative outer position, so the pair list does not depend on
    // where the morsels were cut.
    let mut pairs: Vec<JoinPair> = Vec::new();
    let mut join_stats = JoinStats::default();
    let mut offset = 0usize;
    for (batch, result) in outer.iter().zip(probed) {
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
    materialize_pairs(&join_side(outer)?, &inner_side, &result)
}

/// Late materialisation of a join: pair offsets are positions in each side's
/// selection, so they are mapped through `sel` to base rows and only those
/// rows — the matched ones — are gathered, straight from the base tables.
/// The gathered columns are moved, not copied, into the output: `l_*`
/// columns, `r_*` columns, then `similarity`.
fn materialize_pairs(outer: &ExecBatch, inner: &ExecBatch, result: &JoinResult) -> Result<Table> {
    let pairs = result.sorted_pairs();
    let left_rows: Vec<u32> = pairs.iter().map(|p| outer.sel[p.left]).collect();
    let right_rows: Vec<u32> = pairs.iter().map(|p| inner.sel[p.right]).collect();
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (prefix, side) in [
        ("l_", gather_rows(outer, &left_rows)?),
        ("r_", gather_rows(inner, &right_rows)?),
    ] {
        let (schema, side_columns) = side.into_parts();
        for field in schema.fields() {
            fields.push(Field::new(
                format!("{prefix}{}", field.name),
                field.data_type,
            ));
        }
        columns.extend(side_columns);
    }
    fields.push(Field::new("similarity", DataType::Float64));
    columns.push(Column::Float64(
        pairs.iter().map(|p| p.score as f64).collect(),
    ));
    let schema = Schema::new(fields).map_err(CoreError::from)?;
    Table::new(schema, columns).map_err(CoreError::from)
}

/// Executes a plan in `morsel_rows`-sized morsels: per-operator actual rows
/// in pre-order, per-run stat deltas, and the output table.
pub(crate) fn execute(
    plan: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    morsel_rows: usize,
) -> Result<ExecOutcome> {
    let operators = plan.operator_count();
    let mut interpreter = Interpreter {
        ctx,
        morsel_rows: morsel_rows.max(1),
        stats: RunStats::default(),
        metrics: OpMetrics {
            rows: vec![0; operators],
            micros: vec![0; operators],
            morsels: vec![0; operators],
        },
    };
    let pool_before = cej_exec::ExecPool::metrics();
    let table = finalize(interpreter.run(plan, 0)?)?;
    let Interpreter {
        mut stats, metrics, ..
    } = interpreter;
    stats.scheduler = cej_exec::ExecPool::metrics().delta_since(&pool_before);
    Ok(ExecOutcome {
        table,
        stats,
        operator_rows: metrics.rows,
        operator_micros: metrics.micros,
        operator_morsels: metrics.morsels,
    })
}

/// One stage operator over one already-materialised table — how IVM pushes
/// a delta through a `Filter | Project | Embed | Rename`.
pub(crate) fn stage_over_table(
    stage: &PhysicalPlan,
    table: Table,
    ctx: &ExecContext<'_>,
) -> Result<Table> {
    let (out, _) = apply_stage(stage, ExecBatch::whole(Arc::new(table)), ctx)?;
    finalize(vec![out])
}

/// `node`'s join over two already-collected tables (`inner` is `None` when
/// a persistent index stands in for it) — IVM's delta-sized joins.
pub(crate) fn join_tables(
    node: &JoinNode,
    outer: &Arc<Table>,
    inner: Option<&Arc<Table>>,
    ctx: &ExecContext<'_>,
) -> Result<Table> {
    let inner = inner.map(|table| ExecBatch::whole(table.clone()));
    let outer = vec![ExecBatch::whole(outer.clone())];
    join_sides(node, outer, inner, ctx, &mut RunStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical_plan::PlanEstimate;
    use cej_storage::TableBuilder;

    #[test]
    fn rename_selects_reorders_and_renames() {
        let (catalog, registry) = Default::default();
        let (embeddings, indexes) = Default::default();
        let ctx = ExecContext {
            catalog: &catalog,
            registry: &registry,
            embeddings: &embeddings,
            indexes: &indexes,
            pool: cej_exec::ExecPool::new(1),
        };
        let fact = TableBuilder::new()
            .int64("fk", vec![1, 2, 2, 9])
            .utf8("caption", "abcd".chars().map(String::from).collect())
            .build()
            .unwrap();
        let est = PlanEstimate::new(4.0, 0.0);
        let rename = |columns: &[(&str, &str)]| PhysicalPlan::Rename {
            columns: columns
                .iter()
                .map(|(from, to)| (from.to_string(), to.to_string()))
                .collect(),
            input: Box::new(PhysicalPlan::TableScan {
                table: "fact".into(),
                est,
            }),
            est,
        };
        let stage = rename(&[("caption", "text"), ("fk", "fk")]);
        let out = stage_over_table(&stage, fact.clone(), &ctx).unwrap();
        let names: Vec<&str> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["text", "fk"]);
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.column(1).unwrap(), fact.column(0).unwrap());
        assert!(stage_over_table(&rename(&[("ghost", "g")]), fact.clone(), &ctx).is_err());
        let twice = rename(&[("fk", "x"), ("caption", "x")]);
        assert!(stage_over_table(&twice, fact, &ctx).is_err());
    }
}
