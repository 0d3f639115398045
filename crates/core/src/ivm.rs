//! Incremental view maintenance: delta propagation through physical plans
//! and delta-driven standing queries.
//!
//! A registered table can be mutated with a [`cej_storage::Delta`]
//! ([`crate::session::ContextJoinSession::apply_delta`]); the applied change
//! — the appended rows and the removed rows — is pushed through every
//! standing query's already-planned [`PhysicalPlan`] by [`DeltaEngine`],
//! which emits the exact set of result rows the change adds and removes.
//! The propagation rules are the classic Δ-substitution of incremental view
//! maintenance, specialised to the fact that exactly **one** base table
//! mutates per delta (so at every binary operator at most one side carries
//! a delta).  This module owns the Δ-rules, the linearity conditions that
//! force a refresh, and the per-node memos — but no operator body: every
//! delta-sized execution goes through the interpreter's own stage and join
//! functions ([`crate::batch_exec`]), the code a full run executes, so the
//! two cannot drift apart.
//!
//! * `Filter` / `Project` / `Embed` / `Rename` are linear: push the added
//!   and the removed rows through the same stage independently.
//! * `HashJoin` with a probe-side (left) delta probes the **live build-side
//!   hash map** the engine memoises per node — only the delta rows are
//!   probed, never the full probe input.  A build-side delta joins the delta
//!   against the probe input and extends the memoised build map in place
//!   (append-only deltas) or drops it (deletes).
//! * A context-enhanced join with an **outer** delta runs the interpreter's
//!   join over just the delta rows against the unchanged (memoised) inner —
//!   exact for every operator and both predicates, because all four kernels
//!   compute each outer row's matches independently of other outer rows
//!   (and the index path probes the *same* persistent graph a full re-run
//!   would).
//! * A context-enhanced join with an **inner** delta is linear only for
//!   threshold predicates under exact scan kernels; top-k predicates,
//!   approximate index probes, and persistent-index inners are non-linear in
//!   the inner relation, so those report [`Propagation::Refresh`] and the
//!   standing query falls back to a full re-run.
//!
//! Either way the subscriber observes a correct [`ResultDelta`]: a refresh
//! diffs the re-run against the maintained result, so the emitted frame is
//! still the exact multiset difference.  The maintained result after any
//! sequence of deltas is multiset-identical to re-running the query from
//! scratch — the property `tests/ivm_property.rs` fuzzes.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cej_relational::SimilarityPredicate;
use cej_storage::{Column, Table};
use parking_lot::{Mutex, RwLock};

use crate::batch_exec::{join_tables, stage_over_table};
use crate::error::CoreError;
use crate::executor::ExecContext;
use crate::join::hash_join::HashSide;
use crate::physical_plan::{InnerInput, PhysicalJoinOp, PhysicalPlan};
use crate::prepared::PreparedQuery;
use crate::Result;

/// The change one applied delta made to a base table: the rows that were
/// appended and the rows that were removed (an upsert contributes to both).
#[derive(Debug, Clone)]
pub struct TableChange {
    /// Catalog name of the mutated table.
    pub table: String,
    /// Rows appended (at the end of the new table version, in order).
    pub added: Table,
    /// Rows removed from the previous table version.
    pub removed: Table,
}

impl TableChange {
    /// Total changed rows (appended plus removed).
    pub fn rows(&self) -> usize {
        self.added.num_rows() + self.removed.num_rows()
    }
}

/// The added and removed output rows of one operator (or of the whole plan)
/// under a single base-table change.  Both tables carry the operator's
/// output schema.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// Output rows the change adds.
    pub added: Table,
    /// Output rows the change removes.
    pub removed: Table,
}

impl DeltaBatch {
    /// Total rows across both directions.
    pub fn rows(&self) -> usize {
        self.added.num_rows() + self.removed.num_rows()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }
}

/// The outcome of pushing a table change through a plan.
#[derive(Debug)]
pub enum Propagation {
    /// The change propagates linearly; here is the exact result delta.
    Delta(DeltaBatch),
    /// The change hits a non-linear operator (reason attached); the standing
    /// query must re-run in full.
    Refresh(&'static str),
}

/// Whether `plan` reads `table` anywhere (scans or persistent-index inners).
pub fn touches(plan: &PhysicalPlan, table: &str) -> bool {
    match plan {
        PhysicalPlan::TableScan { table: t, .. } => t == table,
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Embed { input, .. }
        | PhysicalPlan::Rename { input, .. } => touches(input, table),
        PhysicalPlan::Join(node) => {
            touches(&node.outer, table)
                || match &node.inner {
                    InnerInput::Plan(inner) => touches(inner, table),
                    InnerInput::Indexed(ii) => ii.key.table == table,
                }
        }
        PhysicalPlan::HashJoin(node) => touches(&node.left, table) || touches(&node.right, table),
    }
}

/// Per-node state the engine keeps alive between deltas.
enum NodeMemo {
    /// The live build side of a hash join (key map plus materialised rows).
    HashBuild(HashSide),
    /// The materialised inner input of a scan-kernel ejoin.
    InnerTable(Arc<Table>),
}

/// The delta-propagation engine of one standing query: pushes a
/// [`TableChange`] through a [`PhysicalPlan`] and keeps per-node memos
/// (live hash-join build sides, materialised ejoin inners) so repeated
/// deltas pay delta-sized work, not input-sized work.
#[derive(Default)]
pub struct DeltaEngine {
    memos: Mutex<HashMap<usize, NodeMemo>>,
}

impl DeltaEngine {
    /// Creates an engine with no memoised state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all memoised per-node state (used after a refresh re-seeded
    /// the maintained result, so no stale build side survives).
    pub fn clear(&self) {
        self.memos.lock().clear();
    }

    /// Pushes `change` through `plan`, returning the exact result delta or
    /// a refresh request when a non-linear operator is hit.  A plan that
    /// does not read the changed table propagates an empty delta.
    ///
    /// # Errors
    /// Propagates catalog, evaluation, embedding, index, and join errors
    /// from the delta-sized executions it performs.
    pub fn propagate(
        &self,
        plan: &PhysicalPlan,
        ctx: &ExecContext<'_>,
        change: &TableChange,
    ) -> Result<Propagation> {
        if !touches(plan, &change.table) {
            let empty = change.added.take(&[]).map_err(CoreError::from)?;
            return Ok(Propagation::Delta(DeltaBatch {
                added: empty.clone(),
                removed: empty,
            }));
        }
        let mut memos = self.memos.lock();
        let mut cursor = 0usize;
        propagate_node(plan, ctx, change, &mut memos, &mut cursor)
    }
}

/// The recursive Δ-substitution.  `cursor` assigns every operator its
/// pre-order id (static subtrees advance it by their operator count without
/// being visited), which keys the engine's per-node memos stably across
/// deltas.
fn propagate_node(
    plan: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    change: &TableChange,
    memos: &mut HashMap<usize, NodeMemo>,
    cursor: &mut usize,
) -> Result<Propagation> {
    let id = *cursor;
    *cursor += 1;
    match plan {
        PhysicalPlan::TableScan { table, .. } => {
            debug_assert_eq!(table, &change.table, "propagated into a static scan");
            Ok(Propagation::Delta(DeltaBatch {
                added: change.added.clone(),
                removed: change.removed.clone(),
            }))
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Embed { input, .. }
        | PhysicalPlan::Rename { input, .. } => {
            let delta = match propagate_node(input, ctx, change, memos, cursor)? {
                Propagation::Delta(d) => d,
                refresh => return Ok(refresh),
            };
            Ok(Propagation::Delta(DeltaBatch {
                added: stage_over_table(plan, delta.added, ctx)?,
                removed: stage_over_table(plan, delta.removed, ctx)?,
            }))
        }
        PhysicalPlan::HashJoin(node) => {
            let left_touched = touches(&node.left, &change.table);
            let right_touched = touches(&node.right, &change.table);
            if left_touched && right_touched {
                return Ok(Propagation::Refresh(
                    "changed table appears on both sides of a hash join",
                ));
            }
            if left_touched {
                let delta = match propagate_node(&node.left, ctx, change, memos, cursor)? {
                    Propagation::Delta(d) => d,
                    refresh => return Ok(refresh),
                };
                *cursor += node.right.operator_count();
                // Probe only the delta rows against the live build side.
                if let Entry::Vacant(slot) = memos.entry(id) {
                    let right_full = node.right.execute(ctx)?.table;
                    slot.insert(NodeMemo::HashBuild(HashSide::build(
                        right_full,
                        &node.right_column,
                    )?));
                }
                let Some(NodeMemo::HashBuild(side)) = memos.get(&id) else {
                    return Err(CoreError::InvalidInput(
                        "ivm memo kind mismatch at a hash join".into(),
                    ));
                };
                Ok(Propagation::Delta(DeltaBatch {
                    added: side.probe(&delta.added, &node.left_column)?,
                    removed: side.probe(&delta.removed, &node.left_column)?,
                }))
            } else {
                *cursor += node.left.operator_count();
                let delta = match propagate_node(&node.right, ctx, change, memos, cursor)? {
                    Propagation::Delta(d) => d,
                    refresh => return Ok(refresh),
                };
                // Build-side delta: join it against the full probe input.
                let left_full = node.left.execute(ctx)?.table;
                let added = HashSide::build(delta.added.clone(), &node.right_column)?
                    .probe(&left_full, &node.left_column)?;
                let removed = HashSide::build(delta.removed.clone(), &node.right_column)?
                    .probe(&left_full, &node.left_column)?;
                // Keep the memoised build map aligned with the new build
                // input: extend in place on append-only deltas, drop (and
                // lazily rebuild) on removals.
                if let Some(NodeMemo::HashBuild(side)) = memos.get_mut(&id) {
                    if delta.removed.num_rows() == 0 {
                        side.extend_build(&delta.added, &node.right_column)?;
                    } else {
                        memos.remove(&id);
                    }
                }
                Ok(Propagation::Delta(DeltaBatch { added, removed }))
            }
        }
        PhysicalPlan::Join(node) => {
            let outer_touched = touches(&node.outer, &change.table);
            let inner_touched = match &node.inner {
                InnerInput::Plan(inner) => touches(inner, &change.table),
                InnerInput::Indexed(ii) => ii.key.table == change.table,
            };
            if outer_touched && inner_touched {
                return Ok(Propagation::Refresh(
                    "changed table appears on both sides of an ejoin",
                ));
            }
            if outer_touched {
                let delta = match propagate_node(&node.outer, ctx, change, memos, cursor)? {
                    Propagation::Delta(d) => d,
                    refresh => return Ok(refresh),
                };
                let (added, removed) = (Arc::new(delta.added), Arc::new(delta.removed));
                // Join only the delta rows against the unchanged inner: the
                // resident persistent index, or the memoised inner input.
                let inner_table = match &node.inner {
                    InnerInput::Indexed(_) => None,
                    InnerInput::Plan(inner) => {
                        *cursor += inner.operator_count();
                        if let Entry::Vacant(slot) = memos.entry(id) {
                            let table = Arc::new(inner.execute(ctx)?.table);
                            slot.insert(NodeMemo::InnerTable(table));
                        }
                        let Some(NodeMemo::InnerTable(inner_table)) = memos.get(&id) else {
                            return Err(CoreError::InvalidInput(
                                "ivm memo kind mismatch at an ejoin".into(),
                            ));
                        };
                        Some(inner_table)
                    }
                };
                Ok(Propagation::Delta(DeltaBatch {
                    added: join_tables(node, &added, inner_table, ctx)?,
                    removed: join_tables(node, &removed, inner_table, ctx)?,
                }))
            } else {
                // Inner delta: linear only for per-pair (threshold)
                // predicates under exact scan kernels.
                if matches!(node.inner, InnerInput::Indexed(_)) {
                    return Ok(Propagation::Refresh(
                        "delta to the inner of a persistent-index ejoin",
                    ));
                }
                if matches!(node.predicate, SimilarityPredicate::TopK(_)) {
                    return Ok(Propagation::Refresh("delta to the inner of a top-k ejoin"));
                }
                if matches!(node.op, PhysicalJoinOp::Index(_)) {
                    return Ok(Propagation::Refresh(
                        "delta to the inner of an approximate index probe",
                    ));
                }
                let InnerInput::Plan(inner) = &node.inner else {
                    unreachable!("indexed inner handled above");
                };
                *cursor += node.outer.operator_count();
                let delta = match propagate_node(inner, ctx, change, memos, cursor)? {
                    Propagation::Delta(d) => d,
                    refresh => return Ok(refresh),
                };
                let outer_full = Arc::new(node.outer.execute(ctx)?.table);
                let (delta_added, delta_removed) = (Arc::new(delta.added), Arc::new(delta.removed));
                let added = join_tables(node, &outer_full, Some(&delta_added), ctx)?;
                let removed = join_tables(node, &outer_full, Some(&delta_removed), ctx)?;
                if let Some(NodeMemo::InnerTable(inner_table)) = memos.get_mut(&id) {
                    if delta_removed.num_rows() == 0 {
                        Arc::make_mut(inner_table)
                            .extend(&delta_added)
                            .map_err(CoreError::from)?;
                    } else {
                        memos.remove(&id);
                    }
                }
                Ok(Propagation::Delta(DeltaBatch { added, removed }))
            }
        }
    }
}

/// Canonical byte keys for every row of a table, packed into one flat
/// buffer (a per-row `Vec<u8>` would put an allocation on every row of
/// every patch — the maintenance hot loop).  The encoding is stable and
/// type-tagged: two rows' keys compare equal exactly when their values
/// do.  Floats encode as their IEEE bit patterns, so "byte-identical"
/// really means bit-identical.
pub(crate) struct RowKeys {
    bytes: Vec<u8>,
    /// `rows + 1` offsets into `bytes`; row `i` is `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
}

impl RowKeys {
    /// Number of row keys.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The canonical byte key of row `i`.
    pub(crate) fn key(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the row keys in row order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.key(i))
    }
}

pub(crate) fn row_keys(table: &Table) -> RowKeys {
    let rows = table.num_rows();
    // first pass: per-row key length, so the flat buffer is sized exactly
    let mut lens = vec![0usize; rows];
    for column in table.columns() {
        match column {
            Column::Int64(_) | Column::Float64(_) => {
                for len in &mut lens {
                    *len += 9;
                }
            }
            Column::Date(_) => {
                for len in &mut lens {
                    *len += 5;
                }
            }
            Column::Utf8(v) => {
                for (len, s) in lens.iter_mut().zip(v) {
                    *len += 9 + s.len();
                }
            }
            Column::Bool(_) => {
                for len in &mut lens {
                    *len += 2;
                }
            }
            Column::Vector(m) => {
                for (row, len) in lens.iter_mut().enumerate() {
                    *len += 1 + 4 * m.row(row).expect("row in range").len();
                }
            }
        }
    }
    let mut offsets = Vec::with_capacity(rows + 1);
    let mut total = 0usize;
    offsets.push(0);
    for len in &lens {
        total += len;
        offsets.push(total);
    }
    // second pass: fill column-major through per-row write cursors
    let mut bytes = vec![0u8; total];
    let mut cursor = offsets[..rows].to_vec();
    let mut put = |cursor: &mut usize, chunk: &[u8]| {
        bytes[*cursor..*cursor + chunk.len()].copy_from_slice(chunk);
        *cursor += chunk.len();
    };
    for column in table.columns() {
        match column {
            Column::Int64(v) => {
                for (cursor, x) in cursor.iter_mut().zip(v) {
                    put(cursor, &[1]);
                    put(cursor, &x.to_le_bytes());
                }
            }
            Column::Float64(v) => {
                for (cursor, x) in cursor.iter_mut().zip(v) {
                    put(cursor, &[2]);
                    put(cursor, &x.to_bits().to_le_bytes());
                }
            }
            Column::Utf8(v) => {
                for (cursor, s) in cursor.iter_mut().zip(v) {
                    put(cursor, &[3]);
                    put(cursor, &(s.len() as u64).to_le_bytes());
                    put(cursor, s.as_bytes());
                }
            }
            Column::Date(v) => {
                for (cursor, x) in cursor.iter_mut().zip(v) {
                    put(cursor, &[4]);
                    put(cursor, &x.to_le_bytes());
                }
            }
            Column::Bool(v) => {
                for (cursor, x) in cursor.iter_mut().zip(v) {
                    put(cursor, &[5]);
                    put(cursor, &[u8::from(*x)]);
                }
            }
            Column::Vector(m) => {
                for (row, cursor) in cursor.iter_mut().enumerate() {
                    put(cursor, &[6]);
                    for x in m.row(row).expect("row in range") {
                        put(cursor, &x.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    RowKeys { bytes, offsets }
}

/// FNV-1a over a byte slice (the same checksum the serving layer frames
/// results with).
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The multiset difference `new ∖ old` / `old ∖ new`, as a [`DeltaBatch`]
/// (used to turn a full refresh into a correct delta frame).
pub(crate) fn diff_tables(old: &Table, new: &Table) -> Result<DeltaBatch> {
    let old_keys = row_keys(old);
    let new_keys = row_keys(new);
    let mut counts: HashMap<&[u8], usize> = HashMap::with_capacity(old_keys.len());
    for key in old_keys.iter() {
        *counts.entry(key).or_insert(0) += 1;
    }
    let mut added_rows = Vec::new();
    for (i, key) in new_keys.iter().enumerate() {
        match counts.get_mut(key) {
            Some(count) if *count > 0 => *count -= 1,
            _ => added_rows.push(i),
        }
    }
    let mut removed_rows = Vec::new();
    for (i, key) in old_keys.iter().enumerate() {
        if let Some(count) = counts.get_mut(key) {
            if *count > 0 {
                *count -= 1;
                removed_rows.push(i);
            }
        }
    }
    Ok(DeltaBatch {
        added: new.take(&added_rows).map_err(CoreError::from)?,
        removed: old.take(&removed_rows).map_err(CoreError::from)?,
    })
}

/// The maintained result of a standing query: a row multiset that takes a
/// result delta in O(delta).
///
/// Rows are appended in place and removed by *marking*: the first removal
/// builds a `canonical row key → positions` multimap over the rows (later
/// deltas patch it), a removed row's position joins the dead set, and the
/// dead rows are dropped in one pass once they outnumber the live ones.
#[derive(Debug, Clone)]
pub struct MaintainedResult {
    /// Every row added and not yet compacted away, in insertion order.
    table: Table,
    /// Parallel to `table`'s rows: removed, waiting for the next compaction.
    dead: Vec<bool>,
    dead_rows: usize,
    /// The live positions of every distinct row, ascending.  `None` until a
    /// removal needs it, and again after a compaction moved the positions.
    positions: Option<HashMap<Box<[u8]>, Vec<u32>>>,
}

impl MaintainedResult {
    /// Seeds the maintained result from a full run.
    pub fn new(table: Table) -> Self {
        Self {
            dead: vec![false; table.num_rows()],
            table,
            dead_rows: 0,
            positions: None,
        }
    }

    /// Number of maintained rows.
    pub fn rows(&self) -> usize {
        self.table.num_rows() - self.dead_rows
    }

    /// Positions of the live rows in `table`, ascending.
    fn live(&self) -> Vec<u32> {
        let rows = 0..self.table.num_rows() as u32;
        rows.filter(|&row| !self.dead[row as usize]).collect()
    }

    /// The maintained rows in insertion order, as an owned table (use
    /// [`MaintainedResult::canonical`] for a comparable ordering).
    ///
    /// # Errors
    /// Propagates storage errors from the gather.
    pub fn to_table(&self) -> Result<Table> {
        if self.dead_rows == 0 {
            return Ok(self.table.clone());
        }
        self.table.gather(&self.live()).map_err(CoreError::from)
    }

    /// Patches the multiset with a result delta: all of it, or — on
    /// divergence — none of it.
    ///
    /// # Errors
    /// Returns an error when a removed row is not present — the signal that
    /// maintenance diverged and the standing query must refresh.
    pub fn apply(&mut self, delta: &DeltaBatch) -> Result<()> {
        let removed = row_keys(&delta.removed);
        let mut wanted: HashMap<&[u8], usize> = HashMap::with_capacity(removed.len());
        for key in removed.iter() {
            *wanted.entry(key).or_insert(0) += 1;
        }
        if !wanted.is_empty() {
            let (table, dead) = (&self.table, &self.dead);
            let positions = self.positions.get_or_insert_with(|| {
                let mut positions: HashMap<Box<[u8]>, Vec<u32>> = HashMap::new();
                for (row, key) in row_keys(table).iter().enumerate() {
                    if !dead[row] {
                        positions.entry(key.into()).or_default().push(row as u32);
                    }
                }
                positions
            });
            let held = |key: &[u8]| positions.get(key).map_or(0, Vec::len);
            let outstanding: usize = wanted
                .iter()
                .map(|(key, count)| count.saturating_sub(held(key)))
                .sum();
            if outstanding > 0 {
                return Err(CoreError::InvalidInput(format!(
                    "ivm divergence: {outstanding} removed row(s) not in the maintained result"
                )));
            }
        }
        // rows the delta adds are not candidates for what it removes: they
        // join the multimap only after the removals were matched
        let first_added = self.table.num_rows() as u32;
        if delta.added.num_rows() > 0 {
            self.table.extend(&delta.added).map_err(CoreError::from)?;
        }
        self.dead.resize(self.table.num_rows(), false);
        if let Some(positions) = &mut self.positions {
            for (key, count) in wanted {
                let held = positions.get_mut(key).expect("matched above");
                for row in held.drain(..count) {
                    self.dead[row as usize] = true;
                }
                if held.is_empty() {
                    positions.remove(key);
                }
            }
            for (row, key) in (first_added..).zip(row_keys(&delta.added).iter()) {
                positions.entry(key.into()).or_default().push(row);
            }
        }
        self.dead_rows += removed.len();
        if self.dead_rows * 2 > self.table.num_rows() {
            self.table = self.to_table()?;
            self.dead = vec![false; self.table.num_rows()];
            self.dead_rows = 0;
            self.positions = None;
        }
        Ok(())
    }

    /// The maintained rows in canonical (sorted-by-key) order, so two
    /// multiset-equal results render byte-identically.
    pub fn canonical(&self) -> Result<Table> {
        let keys = row_keys(&self.table);
        let mut order = self.live();
        order.sort_by(|&a, &b| keys.key(a as usize).cmp(keys.key(b as usize)));
        self.table.gather(&order).map_err(CoreError::from)
    }

    /// FNV-1a checksum of the canonical row encoding — equal exactly when
    /// the maintained multisets are equal.
    pub fn checksum(&self) -> u64 {
        let keys = row_keys(&self.table);
        let live = self.live();
        let mut sorted: Vec<&[u8]> = live.iter().map(|&row| keys.key(row as usize)).collect();
        sorted.sort_unstable();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for key in sorted {
            hash = fnv1a(key, hash);
        }
        hash
    }
}

/// Tunables of a standing query's maintenance loop.
#[derive(Debug, Clone, Copy)]
pub struct IvmPolicy {
    /// Propagate incrementally only while the base-table delta stays under
    /// this fraction of the table's rows; larger deltas fall back to a full
    /// re-run (propagation work scales with the delta, so past this point
    /// the re-run is the cheaper exact plan).
    pub refresh_fraction: f64,
    /// Bounded mailbox depth.  When a subscriber falls this far behind, the
    /// queued frames are dropped and the next poll returns one snapshot
    /// frame carrying the complete current result.
    pub mailbox_capacity: usize,
}

impl Default for IvmPolicy {
    fn default() -> Self {
        Self {
            refresh_fraction: 0.3,
            mailbox_capacity: 64,
        }
    }
}

/// One result change emitted to a standing query's mailbox.
#[derive(Debug, Clone)]
pub struct ResultDelta {
    /// Version of the mutated base table after the delta that produced
    /// this frame (0 for overflow snapshot frames).
    pub version: u64,
    /// Process-wide sequence number of the `apply_delta` call that produced
    /// this frame (0 for overflow snapshot frames, which depend on
    /// per-subscriber mailbox state).  Two standing queries over the same
    /// plan absorbing the same table change emit frames with the same `seq`
    /// and identical content — the key a serving layer uses to render a
    /// frame body once and fan it out to every subscriber.
    pub seq: u64,
    /// Result rows added.
    pub added: Table,
    /// Result rows removed.
    pub removed: Table,
    /// Whether this frame came from a full re-run (refresh fallback) rather
    /// than delta propagation.  The frame is still an exact diff.
    pub refreshed: bool,
    /// Whether `added` is the *complete* current result (mailbox-overflow
    /// recovery): the subscriber must replace its state, not patch it.
    pub snapshot: bool,
}

/// Counters of one standing query's maintenance history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandingStats {
    /// Deltas handled incrementally.
    pub propagations: u64,
    /// Full re-runs (non-linear operators, oversized deltas, divergence).
    pub refreshes: u64,
    /// Frames currently queued in the mailbox.
    pub pending: usize,
}

struct StandingState {
    maintained: MaintainedResult,
    mailbox: VecDeque<ResultDelta>,
    overflowed: bool,
    propagations: u64,
    refreshes: u64,
}

/// How one standing query absorbed one table change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChangeOutcome {
    /// The query does not read the changed table.
    Unaffected,
    /// Handled by delta propagation.
    Propagated,
    /// Handled by a full re-run.
    Refreshed,
}

pub(crate) struct StandingInner {
    id: u64,
    prepared: PreparedQuery<'static>,
    engine: DeltaEngine,
    policy: IvmPolicy,
    state: Mutex<StandingState>,
}

impl StandingInner {
    fn push(&self, state: &mut StandingState, frame: ResultDelta) {
        if state.mailbox.len() >= self.policy.mailbox_capacity {
            state.mailbox.clear();
            state.overflowed = true;
            return;
        }
        if !state.overflowed {
            state.mailbox.push_back(frame);
        }
    }

    fn refresh_locked(&self, state: &mut StandingState) -> Result<DeltaBatch> {
        let report = self.prepared.run()?;
        let delta = diff_tables(&state.maintained.to_table()?, &report.table)?;
        state.maintained = MaintainedResult::new(report.table);
        state.refreshes += 1;
        self.engine.clear();
        Ok(delta)
    }

    /// Absorbs one applied table change: propagate if linear and small
    /// enough, refresh otherwise; queue the resulting frame.
    pub(crate) fn on_table_change(
        &self,
        change: &TableChange,
        version: u64,
        seq: u64,
    ) -> Result<ChangeOutcome> {
        let plan = self.prepared.physical_plan();
        if !touches(plan, &change.table) {
            return Ok(ChangeOutcome::Unaffected);
        }
        let mut state = self.state.lock();
        let catalog = self.prepared.exec_session().catalog();
        let base_rows = catalog.row_count(&change.table).unwrap_or(0);
        let oversized =
            change.rows() as f64 > self.policy.refresh_fraction * base_rows.max(1) as f64;
        let registry = self.prepared.exec_registry();
        let session = self.prepared.exec_session();
        let ctx = ExecContext {
            catalog: session.catalog(),
            registry: &registry,
            embeddings: session.embedding_caches(),
            indexes: session.index_manager(),
            pool: *cej_exec::ExecPool::global(),
        };
        let propagation = if oversized {
            Propagation::Refresh("delta exceeds the refresh-fraction cost threshold")
        } else {
            self.engine.propagate(plan, &ctx, change)?
        };
        let (delta, refreshed) = match propagation {
            Propagation::Delta(delta) => {
                // Divergence (a removed row missing from the maintained
                // multiset) downgrades to a refresh instead of failing.
                if state.maintained.apply(&delta).is_ok() {
                    state.propagations += 1;
                    (delta, false)
                } else {
                    (self.refresh_locked(&mut state)?, true)
                }
            }
            Propagation::Refresh(_) => (self.refresh_locked(&mut state)?, true),
        };
        if !delta.is_empty() {
            self.push(
                &mut state,
                ResultDelta {
                    version,
                    seq,
                    added: delta.added,
                    removed: delta.removed,
                    refreshed,
                    snapshot: false,
                },
            );
        }
        Ok(if refreshed {
            ChangeOutcome::Refreshed
        } else {
            ChangeOutcome::Propagated
        })
    }
}

/// A live, delta-maintained query: created by
/// [`crate::prepared::PreparedQuery::subscribe`], updated by every
/// [`crate::session::ContextJoinSession::apply_delta`] that touches one of
/// its tables, and drained through [`StandingQuery::poll`].
///
/// Cloning returns a second handle onto the same standing query (same
/// mailbox, same maintained result).
#[derive(Clone)]
pub struct StandingQuery {
    inner: Arc<StandingInner>,
}

impl StandingQuery {
    /// The runtime-assigned id (what the serving layer's `SUBSCRIBE <id>`
    /// names).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Fingerprint of the maintained physical plan
    /// ([`PreparedQuery::fingerprint`]): standing queries with equal
    /// fingerprints produce identical frame content for the same
    /// [`ResultDelta::seq`], so a serving layer can share one rendered
    /// frame body across all of them.
    pub fn fingerprint(&self) -> u64 {
        self.inner.prepared.fingerprint()
    }

    /// The next queued result frame, if any.  After a mailbox overflow this
    /// returns a single snapshot frame carrying the complete current result.
    pub fn poll(&self) -> Option<ResultDelta> {
        let mut state = self.inner.state.lock();
        if state.overflowed {
            state.overflowed = false;
            state.mailbox.clear();
            let maintained = &state.maintained;
            let snapshot = maintained.canonical().or_else(|_| maintained.to_table());
            let snapshot = snapshot.ok()?;
            let empty = snapshot.take(&[]).ok()?;
            return Some(ResultDelta {
                version: 0,
                seq: 0,
                added: snapshot,
                removed: empty,
                refreshed: true,
                snapshot: true,
            });
        }
        state.mailbox.pop_front()
    }

    /// Drains every queued frame.
    pub fn drain(&self) -> Vec<ResultDelta> {
        let mut out = Vec::new();
        while let Some(frame) = self.poll() {
            out.push(frame);
        }
        out
    }

    /// The maintained result in canonical row order.
    ///
    /// # Errors
    /// Propagates storage errors from the canonicalising take.
    pub fn snapshot(&self) -> Result<Table> {
        self.inner.state.lock().maintained.canonical()
    }

    /// Checksum of the maintained multiset (order-independent).
    pub fn checksum(&self) -> u64 {
        self.inner.state.lock().maintained.checksum()
    }

    /// Forces a full re-run, replacing the maintained result and returning
    /// the exact diff against the previous state (nothing is queued to the
    /// mailbox — the caller owns the frame).
    ///
    /// # Errors
    /// Propagates execution errors from the re-run.
    pub fn refresh(&self) -> Result<DeltaBatch> {
        let mut state = self.inner.state.lock();
        self.inner.refresh_locked(&mut state)
    }

    /// Maintenance counters.
    pub fn stats(&self) -> StandingStats {
        let state = self.inner.state.lock();
        StandingStats {
            propagations: state.propagations,
            refreshes: state.refreshes,
            pending: state.mailbox.len(),
        }
    }
}

impl std::fmt::Debug for StandingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("StandingQuery")
            .field("id", &self.inner.id)
            .field("propagations", &stats.propagations)
            .field("refreshes", &stats.refreshes)
            .field("pending", &stats.pending)
            .finish()
    }
}

/// Creates and registers a standing query from a prepared statement: one
/// seeding run, then delta maintenance (called by
/// [`crate::prepared::PreparedQuery::subscribe`]).
pub(crate) fn subscribe(
    prepared: PreparedQuery<'static>,
    policy: IvmPolicy,
) -> Result<StandingQuery> {
    let seed = prepared.run()?;
    let session = prepared.exec_session().clone();
    let runtime = session.ivm_runtime();
    let id = runtime.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let inner = Arc::new(StandingInner {
        id,
        prepared,
        engine: DeltaEngine::new(),
        policy,
        state: Mutex::new(StandingState {
            maintained: MaintainedResult::new(seed.table),
            mailbox: VecDeque::new(),
            overflowed: false,
            propagations: 0,
            refreshes: 0,
        }),
    });
    runtime.standing.write().insert(id, inner.clone());
    Ok(StandingQuery { inner })
}

/// Aggregate view of a session's IVM activity — what the serving layer's
/// `STATS` verb reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IvmStats {
    /// Standing queries currently registered.
    pub standing: usize,
    /// Table deltas applied through the session.
    pub deltas_applied: u64,
    /// Standing-query updates handled by delta propagation.
    pub propagations: u64,
    /// Standing-query updates handled by a full re-run.
    pub refreshes: u64,
    /// Delta-propagation latency percentiles in microseconds (p50, p95,
    /// p99) — zero until the first delta.  Sourced from a log-bucketed
    /// [`cej_obs::Histogram`] over the full history: bounded memory, ≈4.4%
    /// bucket resolution, no window-recency bias.
    pub latency_us: (u64, u64, u64),
}

/// Session-owned registry of standing queries plus delta bookkeeping.
#[derive(Default)]
pub struct IvmRuntime {
    pub(crate) standing: RwLock<HashMap<u64, Arc<StandingInner>>>,
    pub(crate) next_id: AtomicU64,
    deltas_applied: AtomicU64,
    propagations: AtomicU64,
    refreshes: AtomicU64,
    latencies_us: cej_obs::Histogram,
    /// Serialises whole delta applications (catalog publish + index
    /// maintenance + standing-query notification), so every standing query
    /// observes table changes in one global order.
    pub(crate) apply_gate: Mutex<()>,
}

impl IvmRuntime {
    /// A snapshot of the registered standing queries.
    pub(crate) fn queries(&self) -> Vec<Arc<StandingInner>> {
        let mut out: Vec<Arc<StandingInner>> = self.standing.read().values().cloned().collect();
        out.sort_by_key(|q| q.id);
        out
    }

    /// Removes a standing query; returns whether it existed.
    pub(crate) fn unregister(&self, id: u64) -> bool {
        self.standing.write().remove(&id).is_some()
    }

    /// Looks up a registered standing query by id.
    pub(crate) fn get(&self, id: u64) -> Option<StandingQuery> {
        self.standing.read().get(&id).map(|inner| StandingQuery {
            inner: inner.clone(),
        })
    }

    pub(crate) fn record_apply(&self, outcomes: &[ChangeOutcome], elapsed: std::time::Duration) {
        self.deltas_applied.fetch_add(1, Ordering::Relaxed);
        for outcome in outcomes {
            match outcome {
                ChangeOutcome::Propagated => {
                    self.propagations.fetch_add(1, Ordering::Relaxed);
                }
                ChangeOutcome::Refreshed => {
                    self.refreshes.fetch_add(1, Ordering::Relaxed);
                }
                ChangeOutcome::Unaffected => {}
            }
        }
        self.latencies_us
            .observe(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// The propagation-latency histogram handle — what the serving layer
    /// registers into its metrics registry (shares the cells, no copying).
    pub fn latency_histogram(&self) -> cej_obs::Histogram {
        self.latencies_us.clone()
    }

    /// Aggregate counters plus propagation-latency percentiles.
    pub fn stats(&self) -> IvmStats {
        let latency_us = if self.latencies_us.count() == 0 {
            (0, 0, 0)
        } else {
            (
                self.latencies_us.quantile(0.50),
                self.latencies_us.quantile(0.95),
                self.latencies_us.quantile(0.99),
            )
        };
        IvmStats {
            standing: self.standing.read().len(),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            propagations: self.propagations.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            latency_us,
        }
    }
}

impl std::fmt::Debug for IvmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("IvmRuntime")
            .field("standing", &stats.standing)
            .field("deltas_applied", &stats.deltas_applied)
            .field("propagations", &stats.propagations)
            .field("refreshes", &stats.refreshes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::index_join::IndexJoinConfig;
    use crate::session::{ContextJoinSession, JoinStrategy};
    use cej_embedding::{FastTextConfig, FastTextModel};
    use cej_relational::{col, lit_i64, LogicalPlan};
    use cej_storage::{Delta, ScalarValue, TableBuilder};

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    fn photos(ids: &[i64], captions: &[&str]) -> Table {
        TableBuilder::new()
            .int64("photo_id", ids.to_vec())
            .utf8("caption", captions.iter().map(|s| s.to_string()).collect())
            .build()
            .unwrap()
    }

    fn session() -> ContextJoinSession {
        let mut s = ContextJoinSession::new();
        s.register_table(
            "photos",
            photos(
                &[1, 2, 3, 4],
                &["barbecue", "database", "laptop", "vacation"],
            ),
        );
        s.register_table(
            "products",
            TableBuilder::new()
                .int64("product_id", vec![10, 20, 30])
                .utf8(
                    "title",
                    vec!["barbecues".into(), "databases".into(), "notebooks".into()],
                )
                .build()
                .unwrap(),
        );
        s.register_table(
            "owners",
            TableBuilder::new()
                .int64("owner_photo", vec![1, 2, 2, 9])
                .utf8(
                    "owner",
                    vec!["ada".into(), "bob".into(), "cyd".into(), "eve".into()],
                )
                .build()
                .unwrap(),
        );
        s.register_model("fasttext", model());
        s
    }

    /// Asserts the standing query's maintained multiset is byte-identical to
    /// re-running its plan from scratch right now.
    fn assert_in_sync(s: &ContextJoinSession, q: &StandingQuery, plan: &LogicalPlan) {
        let rerun = s.execute(plan).unwrap().table;
        let fresh = MaintainedResult::new(rerun);
        assert_eq!(
            q.checksum(),
            fresh.checksum(),
            "maintained result diverged from a full re-run"
        );
    }

    fn ejoin_plan(predicate: SimilarityPredicate) -> LogicalPlan {
        LogicalPlan::e_join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("products"),
            "caption",
            "title",
            "fasttext",
            predicate,
        )
    }

    #[test]
    fn filter_standing_query_propagates_appends_and_deletes() {
        let s = session();
        let plan = LogicalPlan::scan("photos").select(col("photo_id").gt(lit_i64(1)));
        let q = s
            .prepare(&plan)
            .unwrap()
            .subscribe_with(IvmPolicy {
                refresh_fraction: f64::INFINITY,
                ..IvmPolicy::default()
            })
            .unwrap();
        assert_eq!(q.snapshot().unwrap().num_rows(), 3);

        let report = s
            .apply_delta(
                "photos",
                &Delta::Append(photos(&[5, 6], &["sunset", "harbor"])),
            )
            .unwrap();
        assert_eq!(report.added_rows, 2);
        assert_eq!(report.propagated, 1);
        assert_eq!(report.refreshed, 0);
        assert_in_sync(&s, &q, &plan);

        let frame = q.poll().unwrap();
        assert!(!frame.refreshed);
        assert_eq!(frame.added.num_rows(), 2);
        assert_eq!(frame.removed.num_rows(), 0);

        s.apply_delta(
            "photos",
            &Delta::DeleteByKey {
                key_column: "photo_id".into(),
                keys: vec![ScalarValue::Int64(2), ScalarValue::Int64(5)],
            },
        )
        .unwrap();
        assert_in_sync(&s, &q, &plan);
        let frame = q.poll().unwrap();
        assert_eq!(frame.removed.num_rows(), 2);
        assert_eq!(q.stats().propagations, 2);
        assert_eq!(q.stats().refreshes, 0);
    }

    #[test]
    fn hash_join_standing_query_is_incremental_on_both_sides() {
        let s = session();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("owners"),
            "photo_id",
            "owner_photo",
        );
        let q = s
            .prepare(&plan)
            .unwrap()
            .subscribe_with(IvmPolicy {
                refresh_fraction: f64::INFINITY,
                ..IvmPolicy::default()
            })
            .unwrap();
        // photo 1 -> ada; photo 2 -> bob, cyd
        assert_eq!(q.snapshot().unwrap().num_rows(), 3);

        // probe-side (left) append: photo 9 now matches eve
        s.apply_delta("photos", &Delta::Append(photos(&[9], &["glacier"])))
            .unwrap();
        assert_in_sync(&s, &q, &plan);
        assert_eq!(q.poll().unwrap().added.num_rows(), 1);

        // build-side (right) append-only delta extends the live hash map
        s.apply_delta(
            "owners",
            &Delta::Append(
                TableBuilder::new()
                    .int64("owner_photo", vec![3, 9])
                    .utf8("owner", vec!["dan".into(), "fay".into()])
                    .build()
                    .unwrap(),
            ),
        )
        .unwrap();
        assert_in_sync(&s, &q, &plan);
        assert_eq!(q.poll().unwrap().added.num_rows(), 2);

        // build-side delete drops the memo and still stays exact
        s.apply_delta(
            "owners",
            &Delta::DeleteByKey {
                key_column: "owner".into(),
                keys: vec![ScalarValue::Utf8("bob".into())],
            },
        )
        .unwrap();
        assert_in_sync(&s, &q, &plan);
        let frame = q.poll().unwrap();
        assert_eq!(frame.removed.num_rows(), 1);
        assert_eq!(q.stats().propagations, 3);
        assert_eq!(q.stats().refreshes, 0);
    }

    #[test]
    fn upsert_propagates_as_remove_plus_add() {
        let s = session();
        let plan = LogicalPlan::scan("photos");
        let q = s
            .prepare(&plan)
            .unwrap()
            .subscribe_with(IvmPolicy {
                refresh_fraction: f64::INFINITY,
                ..IvmPolicy::default()
            })
            .unwrap();
        s.apply_delta(
            "photos",
            &Delta::Upsert {
                key_column: "photo_id".into(),
                rows: photos(&[2, 7], &["lakeside", "comet"]),
            },
        )
        .unwrap();
        assert_in_sync(&s, &q, &plan);
        let frame = q.poll().unwrap();
        assert_eq!(frame.added.num_rows(), 2);
        assert_eq!(frame.removed.num_rows(), 1, "old photo 2 row replaced");
    }

    #[test]
    fn threshold_ejoin_propagates_outer_and_inner_deltas() {
        let s = session();
        let plan = ejoin_plan(SimilarityPredicate::Threshold(0.5));
        let q = s
            .prepare(&plan)
            .unwrap()
            .subscribe_with(IvmPolicy {
                refresh_fraction: f64::INFINITY,
                ..IvmPolicy::default()
            })
            .unwrap();

        // outer append: only the new rows are joined against the inner
        s.apply_delta("photos", &Delta::Append(photos(&[5], &["databases"])))
            .unwrap();
        assert_in_sync(&s, &q, &plan);

        // inner append under a threshold scan kernel is linear too
        s.apply_delta(
            "products",
            &Delta::Append(
                TableBuilder::new()
                    .int64("product_id", vec![40])
                    .utf8("title", vec!["laptops".into()])
                    .build()
                    .unwrap(),
            ),
        )
        .unwrap();
        assert_in_sync(&s, &q, &plan);

        // inner delete drops the memoised inner and still stays exact
        s.apply_delta(
            "products",
            &Delta::DeleteByKey {
                key_column: "product_id".into(),
                keys: vec![ScalarValue::Int64(20)],
            },
        )
        .unwrap();
        assert_in_sync(&s, &q, &plan);
        assert_eq!(
            q.stats().refreshes,
            0,
            "threshold scan ejoin never refreshes"
        );
    }

    #[test]
    fn topk_ejoin_outer_delta_propagates_but_inner_delta_refreshes() {
        let mut s = session();
        s.with_strategy(JoinStrategy::Tensor(
            crate::join::tensor_join::TensorJoinConfig::default(),
        ));
        let plan = ejoin_plan(SimilarityPredicate::TopK(1));
        let q = s.prepare(&plan).unwrap().subscribe().unwrap();

        s.apply_delta("photos", &Delta::Append(photos(&[5], &["grill"])))
            .unwrap();
        assert_in_sync(&s, &q, &plan);
        assert_eq!(q.stats().propagations, 1);

        // a top-k result can lose previously-best matches when the inner
        // grows: must refresh, and the refresh diff must reconcile exactly
        let report = s
            .apply_delta(
                "products",
                &Delta::Append(
                    TableBuilder::new()
                        .int64("product_id", vec![50])
                        .utf8("title", vec!["grills".into()])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        assert_eq!(report.refreshed, 1);
        assert_in_sync(&s, &q, &plan);
        let frames = q.drain();
        assert!(frames.iter().any(|f| f.refreshed));
    }

    #[test]
    fn indexed_ejoin_outer_delta_probes_the_extended_persistent_graph() {
        let mut s = session();
        s.with_strategy(JoinStrategy::Index(IndexJoinConfig {
            params: cej_index::HnswParams::tiny(),
            range_probe_k: 8,
        }));
        let plan = ejoin_plan(SimilarityPredicate::TopK(1));
        let q = s.prepare(&plan).unwrap().subscribe().unwrap();
        assert_eq!(s.index_manager().stats().builds, 1);

        // outer append probes the resident graph: no rebuild, no refresh
        s.apply_delta("photos", &Delta::Append(photos(&[5], &["notebook"])))
            .unwrap();
        assert_eq!(s.index_manager().stats().builds, 1, "no index rebuild");
        assert_eq!(q.stats().propagations, 1);
        assert_in_sync(&s, &q, &plan);

        // inner append extends the graph in place (still no rebuild) and the
        // standing query refreshes against it
        s.apply_delta(
            "products",
            &Delta::Append(
                TableBuilder::new()
                    .int64("product_id", vec![60])
                    .utf8("title", vec!["vacations".into()])
                    .build()
                    .unwrap(),
            ),
        )
        .unwrap();
        assert_eq!(
            s.index_manager().stats().builds,
            1,
            "graph extended, not rebuilt"
        );
        assert_eq!(q.stats().refreshes, 1);
        assert_in_sync(&s, &q, &plan);
    }

    #[test]
    fn oversized_delta_falls_back_to_refresh() {
        let s = session();
        let plan = LogicalPlan::scan("photos");
        let q = s
            .prepare(&plan)
            .unwrap()
            .subscribe_with(IvmPolicy {
                refresh_fraction: 0.1,
                ..IvmPolicy::default()
            })
            .unwrap();
        // 3 appended rows over a 4-row base is way past 10%
        let report = s
            .apply_delta(
                "photos",
                &Delta::Append(photos(&[5, 6, 7], &["a", "b", "c"])),
            )
            .unwrap();
        assert_eq!(report.refreshed, 1);
        assert_eq!(report.propagated, 0);
        assert_in_sync(&s, &q, &plan);
    }

    #[test]
    fn mailbox_overflow_collapses_into_one_snapshot_frame() {
        let s = session();
        let plan = LogicalPlan::scan("photos");
        let q = s
            .prepare(&plan)
            .unwrap()
            .subscribe_with(IvmPolicy {
                mailbox_capacity: 2,
                ..IvmPolicy::default()
            })
            .unwrap();
        for i in 0..5 {
            s.apply_delta("photos", &Delta::Append(photos(&[100 + i], &["x"])))
                .unwrap();
        }
        let frame = q.poll().unwrap();
        assert!(frame.snapshot, "overflow must produce a snapshot frame");
        assert_eq!(frame.added.num_rows(), 9);
        assert_eq!(frame.removed.num_rows(), 0);
        assert!(
            q.poll().is_none(),
            "snapshot frame supersedes queued frames"
        );
        assert_in_sync(&s, &q, &plan);
    }

    #[test]
    fn unsubscribe_freezes_the_standing_query() {
        let s = session();
        let q = s
            .prepare(&LogicalPlan::scan("photos"))
            .unwrap()
            .subscribe()
            .unwrap();
        assert!(s.standing_query(q.id()).is_some());
        assert!(s.unsubscribe(q.id()));
        assert!(!s.unsubscribe(q.id()));
        s.apply_delta("photos", &Delta::Append(photos(&[5], &["x"])))
            .unwrap();
        assert_eq!(
            q.snapshot().unwrap().num_rows(),
            4,
            "frozen after unsubscribe"
        );
        assert!(q.poll().is_none());
    }

    #[test]
    fn ivm_stats_count_deltas_and_latencies() {
        let s = session();
        let _q = s
            .prepare(&LogicalPlan::scan("photos"))
            .unwrap()
            .subscribe()
            .unwrap();
        s.apply_delta("photos", &Delta::Append(photos(&[5], &["x"])))
            .unwrap();
        s.apply_delta("photos", &Delta::Append(photos(&[6], &["y"])))
            .unwrap();
        let stats = s.ivm_stats();
        assert_eq!(stats.standing, 1);
        assert_eq!(stats.deltas_applied, 2);
        assert_eq!(stats.propagations, 2);
        assert_eq!(stats.refreshes, 0);
        assert!(stats.latency_us.2 >= stats.latency_us.0);
    }

    #[test]
    fn maintained_result_detects_divergence_and_diffs_are_exact() {
        let a = photos(&[1, 2, 3], &["a", "b", "c"]);
        let b = photos(&[2, 3, 4], &["b", "c", "d"]);
        let delta = diff_tables(&a, &b).unwrap();
        assert_eq!(delta.added.num_rows(), 1);
        assert_eq!(delta.removed.num_rows(), 1);
        let mut maintained = MaintainedResult::new(a.clone());
        maintained.apply(&delta).unwrap();
        assert_eq!(maintained.checksum(), MaintainedResult::new(b).checksum());
        // removing a row that is not present is a divergence error
        let bogus = DeltaBatch {
            added: photos(&[], &[]),
            removed: photos(&[99], &["zz"]),
        };
        assert!(maintained.apply(&bogus).is_err());
        // canonical order is deterministic regardless of insertion order
        let x = MaintainedResult::new(photos(&[2, 1], &["b", "a"]));
        let y = MaintainedResult::new(photos(&[1, 2], &["a", "b"]));
        assert_eq!(
            x.canonical()
                .unwrap()
                .column_by_name("photo_id")
                .unwrap()
                .as_int64()
                .unwrap(),
            y.canonical()
                .unwrap()
                .column_by_name("photo_id")
                .unwrap()
                .as_int64()
                .unwrap(),
        );
        assert_eq!(x.checksum(), y.checksum());
    }

    /// The implementation this module had before removals were marked: every
    /// patch re-keys the whole result and rebuilds it.  Kept as the reference
    /// [`MaintainedResult`] must agree with bit for bit.
    struct RebuiltResult {
        table: Table,
    }

    impl RebuiltResult {
        fn apply(&mut self, delta: &DeltaBatch) -> Result<()> {
            if delta.removed.num_rows() > 0 {
                let removed_keys = row_keys(&delta.removed);
                let mut pending: HashMap<&[u8], usize> = HashMap::new();
                for key in removed_keys.iter() {
                    *pending.entry(key).or_insert(0) += 1;
                }
                let own_keys = row_keys(&self.table);
                let mut keep = Vec::with_capacity(self.table.num_rows());
                let mut outstanding = removed_keys.len();
                for (i, key) in own_keys.iter().enumerate() {
                    match pending.get_mut(key) {
                        Some(count) if *count > 0 => {
                            *count -= 1;
                            outstanding -= 1;
                        }
                        _ => keep.push(i),
                    }
                }
                if outstanding > 0 {
                    return Err(CoreError::InvalidInput("ivm divergence".into()));
                }
                self.table = self.table.take(&keep).map_err(CoreError::from)?;
            }
            if delta.added.num_rows() > 0 {
                self.table =
                    Table::concat(&[&self.table, &delta.added]).map_err(CoreError::from)?;
            }
            Ok(())
        }

        fn canonical(&self) -> Table {
            let keys = row_keys(&self.table);
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by(|&a, &b| keys.key(a).cmp(keys.key(b)));
            self.table.take(&order).unwrap()
        }

        fn checksum(&self) -> u64 {
            let keys = row_keys(&self.table);
            let mut sorted: Vec<&[u8]> = keys.iter().collect();
            sorted.sort_unstable();
            sorted
                .into_iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |hash, key| fnv1a(key, hash))
        }
    }

    #[test]
    fn maintained_result_agrees_with_the_rebuilding_reference_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // five distinct rows, so the multiset is mostly duplicates
        let mut draw = |rows: usize| {
            let ids: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..5)).collect();
            let captions: Vec<String> = ids.iter().map(|id| format!("row {id}")).collect();
            let captions: Vec<&str> = captions.iter().map(String::as_str).collect();
            photos(&ids, &captions)
        };
        let seed = draw(40);
        let mut reference = RebuiltResult {
            table: seed.clone(),
        };
        let mut maintained = MaintainedResult::new(seed);
        let (mut compactions, mut divergences) = (0, 0);
        for step in 0..300usize {
            // remove rows that are there (the oldest few, duplicates and all)
            // and, now and then, one that is not
            let held = reference.table.num_rows();
            let mut removed = reference
                .table
                .take(&[0, 1, 2][..held.min(step % 4)])
                .unwrap();
            if step % 9 == 8 {
                removed = Table::concat(&[&removed, &photos(&[99], &["absent"])]).unwrap();
            }
            let added = draw(if held < 12 { 30 } else { step % 3 });
            let delta = DeltaBatch { added, removed };
            let stored = maintained.table.num_rows();
            let outcome = maintained.apply(&delta);
            assert_eq!(outcome.is_ok(), reference.apply(&delta).is_ok(), "{step}");
            divergences += usize::from(outcome.is_err());
            compactions += usize::from(maintained.table.num_rows() < stored);
            assert_eq!(maintained.rows(), reference.table.num_rows(), "{step}");
            assert_eq!(maintained.checksum(), reference.checksum(), "{step}");
            assert_eq!(maintained.canonical().unwrap(), reference.canonical());
            assert_eq!(maintained.to_table().unwrap(), reference.table, "{step}");
        }
        assert!(compactions > 2, "the dead set was never compacted");
        assert!(divergences > 20, "divergence was never exercised");
    }

    #[test]
    fn duplicate_rows_are_removed_one_at_a_time() {
        let one = || DeltaBatch {
            added: photos(&[], &[]),
            removed: photos(&[1], &["a"]),
        };
        let mut maintained = MaintainedResult::new(photos(&[1, 2, 1, 1], &["a", "b", "a", "a"]));
        for left in [3, 2, 1] {
            maintained.apply(&one()).unwrap();
            assert_eq!(maintained.rows(), left);
        }
        let last = MaintainedResult::new(photos(&[2], &["b"])).checksum();
        assert_eq!(maintained.checksum(), last);
        // the fourth copy never existed: divergence, and nothing changes
        assert!(maintained.apply(&one()).is_err());
        assert_eq!(maintained.checksum(), last);
        // a delta cannot remove the very row it adds
        let both = DeltaBatch {
            added: photos(&[1], &["a"]),
            removed: photos(&[1], &["a"]),
        };
        assert!(maintained.apply(&both).is_err());
        assert_eq!((maintained.rows(), maintained.checksum()), (1, last));
    }

    #[test]
    fn a_delta_filtered_to_nothing_never_reaches_the_inner_side() {
        for strategy in [
            JoinStrategy::Tensor(crate::join::tensor_join::TensorJoinConfig::default()),
            JoinStrategy::Index(IndexJoinConfig {
                params: cej_index::HnswParams::tiny(),
                range_probe_k: 8,
            }),
        ] {
            let mut s = session();
            s.with_strategy(strategy);
            let plan = LogicalPlan::e_join(
                LogicalPlan::scan("photos").select(col("photo_id").gt(lit_i64(100))),
                LogicalPlan::scan("products"),
                "caption",
                "title",
                "fasttext",
                SimilarityPredicate::TopK(1),
            );
            let policy = IvmPolicy {
                refresh_fraction: f64::INFINITY,
                ..IvmPolicy::default()
            };
            let q = s.prepare(&plan).unwrap().subscribe_with(policy).unwrap();
            let requests = || s.embedding_caches().stats().total_requests();
            let (before, lookups) = (requests(), s.index_manager().stats());
            // every appended row fails `photo_id > 100`: the ejoin sees an
            // empty outer delta in both directions
            let report = s
                .apply_delta(
                    "photos",
                    &Delta::Append(photos(&[5, 6], &["sunset", "harbor"])),
                )
                .unwrap();
            assert_eq!((report.propagated, report.refreshed), (1, 0));
            assert_eq!(requests(), before, "{strategy:?}: nothing was embedded");
            assert_eq!(s.index_manager().stats(), lookups, "{strategy:?}");
            assert!(q.poll().is_none(), "an empty result delta queues no frame");
            assert_in_sync(&s, &q, &plan);
        }
    }

    #[test]
    fn untouched_tables_do_not_disturb_standing_queries() {
        let s = session();
        let plan = LogicalPlan::scan("photos");
        let q = s.prepare(&plan).unwrap().subscribe().unwrap();
        let report = s
            .apply_delta(
                "owners",
                &Delta::Append(
                    TableBuilder::new()
                        .int64("owner_photo", vec![1])
                        .utf8("owner", vec!["gus".into()])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        assert_eq!(report.standing_updated, 0);
        assert!(q.poll().is_none());
        assert_eq!(q.stats().propagations, 0);
    }
}
