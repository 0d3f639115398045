//! Selinger-style dynamic-programming join ordering.
//!
//! Runs between the rewrite optimizer and the physical planner (see
//! `cej-core`'s `Session::prepare`).  Two cooperating transformations:
//!
//! 1. **Ejoin placement** ([`sink` rewrites]): a relational equi-join sitting
//!    *above* a context-enhanced join is pushed *below* it whenever the
//!    equi-join shrinks the ejoin's input — ejoin cost is dominated by model
//!    calls, whose count the optimizer controls through input cardinality.
//!    A compensating [`LogicalPlan::Rename`] restores the original output
//!    schema, so the rewrite is invisible to callers.
//! 2. **Join-order DP**: every maximal region of [`LogicalPlan::Join`] nodes
//!    is flattened into a query graph (leaves + equi-edges) and re-ordered
//!    bottom-up over *connected* subsets — the classic Selinger enumeration,
//!    extended to bushy trees (every connected split is considered, not just
//!    leaf extensions).  Cross products are never enumerated while a
//!    connecting predicate exists; disconnected graphs keep their original
//!    shape.
//!
//! Cardinalities come from the catalog's `ANALYZE` statistics: leaf rows are
//! scaled by [`estimate_selectivity`] for pushed-down filters, and each
//! equi-edge contributes the classic `1 / max(ndv_left, ndv_right)`
//! selectivity.  Costs are abstract row units: build + probe + output per
//! hash join, summed over the tree.

use std::cell::RefCell;

use cej_storage::ColumnStats;

use crate::algebra::{LogicalPlan, SimilarityPredicate};
use crate::catalog::Catalog;
use crate::error::RelationalError;
use crate::expr::col;
use crate::selectivity::{estimate_selectivity, threshold_selectivity, DEFAULT_SELECTIVITY};
use crate::Result;

use super::transform_up;

/// Largest join region the DP enumerates (2^n subsets); bigger regions keep
/// their written order.
pub const MAX_DP_RELATIONS: usize = 14;

/// Computes the *physical* output column names of a plan — the names results
/// actually carry, including the ejoin's `l_*` / `r_*` / `similarity`
/// renaming (unlike [`super::output_columns`], which resolves the
/// pre-rename names used for pushdown side decisions).
///
/// # Errors
/// [`RelationalError::AmbiguousColumn`] when an equi-join's inputs share a
/// column name — the documented N-table naming rule: equi-joins preserve
/// names and therefore require them to be disjoint; rename first.
pub fn physical_output_columns(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<String>> {
    match plan {
        LogicalPlan::Scan { table } => {
            let schema = catalog.schema(table)?;
            Ok(schema.fields().iter().map(|f| f.name.clone()).collect())
        }
        LogicalPlan::Selection { input, .. } => physical_output_columns(input, catalog),
        LogicalPlan::Projection { columns, .. } => Ok(columns.clone()),
        LogicalPlan::Rename { columns, .. } => {
            Ok(columns.iter().map(|(_, to)| to.clone()).collect())
        }
        LogicalPlan::Embed { spec, input } => {
            let mut cols = physical_output_columns(input, catalog)?;
            cols.push(spec.output_column.clone());
            Ok(cols)
        }
        LogicalPlan::Join { left, right, .. } => {
            let mut cols = physical_output_columns(left, catalog)?;
            let right_cols = physical_output_columns(right, catalog)?;
            for c in &right_cols {
                if cols.iter().any(|l| l == c) {
                    return Err(RelationalError::AmbiguousColumn(format!(
                        "`{c}` is produced by both equi-join inputs; project or rename one side"
                    )));
                }
            }
            cols.extend(right_cols);
            Ok(cols)
        }
        LogicalPlan::EJoin { left, right, .. } => {
            let mut cols: Vec<String> = physical_output_columns(left, catalog)?
                .into_iter()
                .map(|c| format!("l_{c}"))
                .collect();
            cols.extend(
                physical_output_columns(right, catalog)?
                    .into_iter()
                    .map(|c| format!("r_{c}")),
            );
            cols.push("similarity".to_string());
            Ok(cols)
        }
    }
}

/// Estimated output rows of a plan, from catalog statistics.
pub(crate) fn estimate_rows(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    match plan {
        LogicalPlan::Scan { table } => catalog
            .stats(table)
            .map(|s| s.row_count as f64)
            .or_else(|_| catalog.row_count(table).map(|rows| rows as f64))
            .unwrap_or(1000.0),
        LogicalPlan::Selection { predicate, input } => {
            let base = estimate_rows(input, catalog);
            let sel = base_table(input)
                .and_then(|t| catalog.stats(t).ok())
                .map(|s| estimate_selectivity(predicate, &s))
                .unwrap_or(DEFAULT_SELECTIVITY);
            base * sel
        }
        LogicalPlan::Projection { input, .. }
        | LogicalPlan::Rename { input, .. }
        | LogicalPlan::Embed { input, .. } => estimate_rows(input, catalog),
        LogicalPlan::Join {
            left,
            right,
            left_column,
            right_column,
        } => {
            let lr = estimate_rows(left, catalog);
            let rr = estimate_rows(right, catalog);
            equi_join_rows(
                lr,
                rr,
                column_stats(left, left_column, catalog).as_ref(),
                column_stats(right, right_column, catalog).as_ref(),
            )
        }
        LogicalPlan::EJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let lr = estimate_rows(left, catalog);
            let rr = estimate_rows(right, catalog);
            match predicate {
                SimilarityPredicate::TopK(k) => lr * (*k as f64).min(rr.max(1.0)),
                SimilarityPredicate::Threshold(t) => lr * rr * threshold_selectivity(*t),
            }
        }
    }
}

/// Base table a single-source plan chain reads from (`None` below joins).
fn base_table(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { table } => Some(table),
        LogicalPlan::Selection { input, .. }
        | LogicalPlan::Projection { input, .. }
        | LogicalPlan::Rename { input, .. }
        | LogicalPlan::Embed { input, .. } => base_table(input),
        LogicalPlan::Join { .. } | LogicalPlan::EJoin { .. } => None,
    }
}

/// Full base-table statistics of `column` in the plan's output, resolved
/// through projections, renames, and joins.  Filters and joins above the
/// base table do not adjust the stats — the same approximation the ndv
/// estimate always made.
fn column_stats(plan: &LogicalPlan, column: &str, catalog: &Catalog) -> Option<ColumnStats> {
    match plan {
        LogicalPlan::Scan { table } => catalog
            .stats(table)
            .ok()
            .and_then(|s| s.column(column).cloned()),
        LogicalPlan::Selection { input, .. }
        | LogicalPlan::Projection { input, .. }
        | LogicalPlan::Embed { input, .. } => column_stats(input, column, catalog),
        LogicalPlan::Rename { columns, input } => {
            let (from, _) = columns.iter().find(|(_, to)| to == column)?;
            column_stats(input, from, catalog)
        }
        LogicalPlan::Join { left, right, .. } => {
            column_stats(left, column, catalog).or_else(|| column_stats(right, column, catalog))
        }
        LogicalPlan::EJoin { left, right, .. } => {
            if let Some(c) = column.strip_prefix("l_") {
                column_stats(left, c, catalog)
            } else if let Some(c) = column.strip_prefix("r_") {
                column_stats(right, c, catalog)
            } else {
                None
            }
        }
    }
}

/// Estimated equi-join output rows: bucket-wise histogram intersection of
/// the two key domains when both sides carry histograms
/// ([`Histogram::join_rows`]), the classic `|L|·|R| / max(ndv)` otherwise.
/// The intersection matters whenever the key domains only partially overlap
/// (a fact table referencing just the old half of a grown dimension): the
/// classic formula assumes coinciding domains and over-counts there.
fn equi_join_rows(
    lr: f64,
    rr: f64,
    left: Option<&ColumnStats>,
    right: Option<&ColumnStats>,
) -> f64 {
    if let (Some(l), Some(r)) = (left, right) {
        if let (Some(lh), Some(rh)) = (&l.histogram, &r.histogram) {
            return lh.join_rows(
                rh,
                lr,
                (l.distinct_count as f64).max(1.0),
                rr,
                (r.distinct_count as f64).max(1.0),
            );
        }
    }
    let lndv = left.map(|s| s.distinct_count as f64).unwrap_or(lr.max(1.0));
    let rndv = right
        .map(|s| s.distinct_count as f64)
        .unwrap_or(rr.max(1.0));
    (lr * rr / lndv.max(rndv).max(1.0)).max(0.0)
}

/// Entry point: re-orders every join region of `plan` (see module docs).
/// The returned plan is semantically equivalent — same result set, same
/// output schema — but may execute its joins in a different order.
pub fn reorder_joins(plan: &LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let sunk = sink_joins_below_ejoins(plan, catalog)?;
    reorder_node(&sunk, catalog)
}

// ---------------------------------------------------------------------------
// Ejoin placement: sink equi-joins below context-enhanced joins
// ---------------------------------------------------------------------------

/// Fixpoint loop over the sink / rename-pull-up rewrites, bounded like the
/// rule optimizer's pass limit.
fn sink_joins_below_ejoins(plan: &LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let mut current = plan.clone();
    for _ in 0..16 {
        let error: RefCell<Option<RelationalError>> = RefCell::new(None);
        let (next, changed) = transform_up(&current, &|node| {
            if error.borrow().is_some() {
                return None;
            }
            match try_sink(node, catalog) {
                Ok(result) => result,
                Err(e) => {
                    *error.borrow_mut() = Some(e);
                    None
                }
            }
        });
        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        if !changed {
            break;
        }
        current = next;
    }
    Ok(current)
}

/// One sink step: either pulls a compensating `Rename` out of a join's left
/// input (so the ejoin underneath becomes visible to the sink pattern), or
/// sinks the equi-join below the ejoin itself.
fn try_sink(node: &LogicalPlan, catalog: &Catalog) -> Result<Option<LogicalPlan>> {
    let LogicalPlan::Join {
        left,
        right,
        left_column,
        right_column,
    } = node
    else {
        return Ok(None);
    };
    match left.as_ref() {
        // Join over (Rename over EJoin): pull the rename above the join so a
        // later pass can sink the join into the now-exposed ejoin.
        LogicalPlan::Rename { columns, input } if matches!(**input, LogicalPlan::EJoin { .. }) => {
            let Some((from, _)) = columns.iter().find(|(_, to)| to == left_column) else {
                return Ok(None);
            };
            let mut new_columns = columns.clone();
            for c in physical_output_columns(right, catalog)? {
                if new_columns.iter().any(|(f, t)| f == &c || t == &c) {
                    return Ok(None); // would collide; leave the plan alone
                }
                new_columns.push((c.clone(), c));
            }
            Ok(Some(LogicalPlan::Rename {
                columns: new_columns,
                input: Box::new(LogicalPlan::Join {
                    left: input.clone(),
                    right: right.clone(),
                    left_column: from.clone(),
                    right_column: right_column.clone(),
                }),
            }))
        }
        LogicalPlan::EJoin {
            left: e_left,
            right: e_right,
            left_column: e_lc,
            right_column: e_rc,
            model,
            predicate,
        } => {
            let right_cols = physical_output_columns(right, catalog)?;
            // Keyed on the ejoin's outer side (`l_x`): always semantics-
            // preserving — per-outer-row top-k / threshold sets are computed
            // from the same inner relation before and after.
            if let Some(x) = left_column.strip_prefix("l_") {
                let outer_cols = physical_output_columns(e_left, catalog)?;
                if !outer_cols.iter().any(|c| c == x) {
                    return Ok(None);
                }
                if right_cols.iter().any(|c| outer_cols.contains(c)) {
                    return Ok(None); // inner join would be ambiguous
                }
                let sunk_join = LogicalPlan::Join {
                    left: e_left.clone(),
                    right: right.clone(),
                    left_column: x.to_string(),
                    right_column: right_column.clone(),
                };
                // Only sink when the equi-join shrinks the ejoin's outer
                // input — that is the whole point (fewer model calls).
                if estimate_rows(&sunk_join, catalog)
                    >= estimate_rows(e_left, catalog) * (1.0 - 1e-9)
                {
                    return Ok(None);
                }
                let inner_cols = physical_output_columns(e_right, catalog)?;
                let mut renames: Vec<(String, String)> = Vec::new();
                for c in &outer_cols {
                    renames.push((format!("l_{c}"), format!("l_{c}")));
                }
                for c in &inner_cols {
                    renames.push((format!("r_{c}"), format!("r_{c}")));
                }
                renames.push(("similarity".to_string(), "similarity".to_string()));
                for c in &right_cols {
                    renames.push((format!("l_{c}"), c.clone()));
                }
                let rewritten = LogicalPlan::Rename {
                    columns: renames,
                    input: Box::new(LogicalPlan::EJoin {
                        left: Box::new(sunk_join),
                        right: e_right.clone(),
                        left_column: e_lc.clone(),
                        right_column: e_rc.clone(),
                        model: model.clone(),
                        predicate: *predicate,
                    }),
                };
                // The rewrite must reproduce the original schema exactly.
                debug_assert_eq!(
                    physical_output_columns(&rewritten, catalog).ok(),
                    physical_output_columns(node, catalog).ok()
                );
                return Ok(Some(rewritten));
            }
            // Keyed on the ejoin's inner side (`r_x`): only valid for
            // threshold predicates — top-k winners depend on the full inner
            // set, so filtering it first would change the result.
            if let Some(x) = left_column.strip_prefix("r_") {
                if !matches!(predicate, SimilarityPredicate::Threshold(_)) {
                    return Ok(None);
                }
                let inner_cols = physical_output_columns(e_right, catalog)?;
                if !inner_cols.iter().any(|c| c == x) {
                    return Ok(None);
                }
                if right_cols.iter().any(|c| inner_cols.contains(c)) {
                    return Ok(None);
                }
                let sunk_join = LogicalPlan::Join {
                    left: e_right.clone(),
                    right: right.clone(),
                    left_column: x.to_string(),
                    right_column: right_column.clone(),
                };
                if estimate_rows(&sunk_join, catalog)
                    >= estimate_rows(e_right, catalog) * (1.0 - 1e-9)
                {
                    return Ok(None);
                }
                let outer_cols = physical_output_columns(e_left, catalog)?;
                let mut renames: Vec<(String, String)> = Vec::new();
                for c in &outer_cols {
                    renames.push((format!("l_{c}"), format!("l_{c}")));
                }
                for c in &inner_cols {
                    renames.push((format!("r_{c}"), format!("r_{c}")));
                }
                renames.push(("similarity".to_string(), "similarity".to_string()));
                for c in &right_cols {
                    renames.push((format!("r_{c}"), c.clone()));
                }
                let rewritten = LogicalPlan::Rename {
                    columns: renames,
                    input: Box::new(LogicalPlan::EJoin {
                        left: e_left.clone(),
                        right: Box::new(sunk_join),
                        left_column: e_lc.clone(),
                        right_column: e_rc.clone(),
                        model: model.clone(),
                        predicate: *predicate,
                    }),
                };
                debug_assert_eq!(
                    physical_output_columns(&rewritten, catalog).ok(),
                    physical_output_columns(node, catalog).ok()
                );
                return Ok(Some(rewritten));
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Selinger DP over equi-join regions
// ---------------------------------------------------------------------------

/// An equi-edge of the flattened query graph.
struct Edge {
    a: usize,
    a_col: String,
    b: usize,
    b_col: String,
}

/// A flattened maximal region of `Join` nodes.
struct Region {
    leaves: Vec<LogicalPlan>,
    cols: Vec<Vec<String>>,
    edges: Vec<Edge>,
}

/// A DP plan shape over region leaf indices.
enum Tree {
    Leaf(usize),
    Join {
        left: Box<Tree>,
        right: Box<Tree>,
        left_column: String,
        right_column: String,
        /// Additional equi-edges between the same two subtrees, applied as a
        /// post-join selection.
        extra: Vec<(String, String)>,
    },
}

/// One DP table entry: best known cost/rows/shape for a leaf subset.
struct Entry {
    cost: f64,
    rows: f64,
    tree: Tree,
}

/// Recursively re-orders join regions bottom-up through the plan.
fn reorder_node(plan: &LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    if matches!(plan, LogicalPlan::Join { .. }) {
        return optimize_region(plan, catalog);
    }
    Ok(match plan {
        LogicalPlan::Scan { .. } => plan.clone(),
        LogicalPlan::Selection { predicate, input } => LogicalPlan::Selection {
            predicate: predicate.clone(),
            input: Box::new(reorder_node(input, catalog)?),
        },
        LogicalPlan::Projection { columns, input } => LogicalPlan::Projection {
            columns: columns.clone(),
            input: Box::new(reorder_node(input, catalog)?),
        },
        LogicalPlan::Rename { columns, input } => LogicalPlan::Rename {
            columns: columns.clone(),
            input: Box::new(reorder_node(input, catalog)?),
        },
        LogicalPlan::Embed { spec, input } => LogicalPlan::Embed {
            spec: spec.clone(),
            input: Box::new(reorder_node(input, catalog)?),
        },
        LogicalPlan::EJoin {
            left,
            right,
            left_column,
            right_column,
            model,
            predicate,
        } => LogicalPlan::EJoin {
            left: Box::new(reorder_node(left, catalog)?),
            right: Box::new(reorder_node(right, catalog)?),
            left_column: left_column.clone(),
            right_column: right_column.clone(),
            model: model.clone(),
            predicate: *predicate,
        },
        LogicalPlan::Join { .. } => unreachable!("handled above"),
    })
}

/// Flattens a maximal `Join` subtree into `region`.  Returns `false` when
/// the region cannot be represented (duplicate column ownership).
fn flatten(plan: &LogicalPlan, catalog: &Catalog, region: &mut Region) -> Result<bool> {
    if let LogicalPlan::Join {
        left,
        right,
        left_column,
        right_column,
    } = plan
    {
        if !flatten(left, catalog, region)? || !flatten(right, catalog, region)? {
            return Ok(false);
        }
        let Some(a) = owner_of(&region.cols, left_column) else {
            return Ok(false);
        };
        let Some(b) = owner_of(&region.cols, right_column) else {
            return Ok(false);
        };
        if a == b {
            return Ok(false); // self-join edge; keep the written order
        }
        region.edges.push(Edge {
            a,
            a_col: left_column.clone(),
            b,
            b_col: right_column.clone(),
        });
        Ok(true)
    } else {
        // Region leaf: optimize its interior (it may contain nested regions,
        // e.g. below an ejoin), then record its physical columns.
        let optimized = reorder_node(plan, catalog)?;
        let cols = physical_output_columns(&optimized, catalog)?;
        // Every column must have a unique owner for edge attribution.
        for c in &cols {
            if owner_of(&region.cols, c).is_some() {
                return Ok(false);
            }
        }
        region.leaves.push(optimized);
        region.cols.push(cols);
        Ok(true)
    }
}

/// Index of the unique leaf producing `column`, if any.
fn owner_of(cols: &[Vec<String>], column: &str) -> Option<usize> {
    cols.iter()
        .position(|leaf| leaf.iter().any(|c| c == column))
}

/// Runs the DP over one region root; falls back to recursing into the
/// children when the region is not DP-able.
fn optimize_region(plan: &LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let mut region = Region {
        leaves: Vec::new(),
        cols: Vec::new(),
        edges: Vec::new(),
    };
    let flattened = flatten(plan, catalog, &mut region)?;
    let n = region.leaves.len();
    if !flattened || n < 2 {
        return fallback_rebuild(plan, catalog);
    }

    // Per-leaf estimates and per-edge selectivities.
    let leaf_rows: Vec<f64> = region
        .leaves
        .iter()
        .map(|l| estimate_rows(l, catalog).max(1.0))
        .collect();
    let edge_sel: Vec<f64> = region
        .edges
        .iter()
        .map(|e| {
            let joined = equi_join_rows(
                leaf_rows[e.a],
                leaf_rows[e.b],
                column_stats(&region.leaves[e.a], &e.a_col, catalog).as_ref(),
                column_stats(&region.leaves[e.b], &e.b_col, catalog).as_ref(),
            );
            (joined / (leaf_rows[e.a] * leaf_rows[e.b])).clamp(1e-12, 1.0)
        })
        .collect();
    let rows_of = |mask: usize| -> f64 {
        let mut rows: f64 = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| leaf_rows[i])
            .product();
        for (e, sel) in region.edges.iter().zip(&edge_sel) {
            if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
                rows *= sel;
            }
        }
        rows.max(0.0)
    };

    // Regions too wide for the 2^n enumeration get a greedy min-cost-edge
    // left-deep order instead of keeping the written order: start from the
    // cheapest-output edge and repeatedly absorb the connected leaf whose
    // join keeps the intermediate smallest.  O(n²·edges) instead of 2^n,
    // and still cross-product-free (disconnected graphs fall back).
    if n > MAX_DP_RELATIONS {
        return match greedy_tree(&region, &leaf_rows, &rows_of) {
            Some(tree) => finish_region(plan, catalog, &tree, &region),
            None => fallback_rebuild(plan, catalog),
        };
    }

    // Bottom-up enumeration: every strict submask is numerically smaller, so
    // a single ascending pass visits subsets in a valid DP order.
    let mut best: Vec<Option<Entry>> = (0..1usize << n).map(|_| None).collect();
    for (i, &rows) in leaf_rows.iter().enumerate() {
        best[1 << i] = Some(Entry {
            cost: rows,
            rows,
            tree: Tree::Leaf(i),
        });
    }
    for mask in 1..1usize << n {
        if (mask as u64).count_ones() < 2 {
            continue;
        }
        let out_rows = rows_of(mask);
        let low = mask & mask.wrapping_neg(); // canonical split: keep lowest bit left
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            let other = mask ^ sub;
            if sub & low != 0 {
                // Selinger cross-product avoidance: a split is only priced
                // when an equi-edge connects the two halves.
                let connecting: Vec<usize> = region
                    .edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| {
                        (sub & (1 << e.a) != 0 && other & (1 << e.b) != 0)
                            || (sub & (1 << e.b) != 0 && other & (1 << e.a) != 0)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if !connecting.is_empty() {
                    if let (Some(se), Some(oe)) = (&best[sub], &best[other]) {
                        let cost = se.cost + oe.cost + se.rows + oe.rows + out_rows;
                        let better = match &best[mask] {
                            None => true,
                            Some(existing) => cost < existing.cost,
                        };
                        if better {
                            // Probe with the larger side, build on the
                            // smaller (hash joins build their right input).
                            let (probe_mask, build_mask) = if se.rows >= oe.rows {
                                (sub, other)
                            } else {
                                (other, sub)
                            };
                            let first = &region.edges[connecting[0]];
                            let (lc, rc) = if probe_mask & (1 << first.a) != 0 {
                                (first.a_col.clone(), first.b_col.clone())
                            } else {
                                (first.b_col.clone(), first.a_col.clone())
                            };
                            let extra = connecting[1..]
                                .iter()
                                .map(|&i| {
                                    let e = &region.edges[i];
                                    if probe_mask & (1 << e.a) != 0 {
                                        (e.a_col.clone(), e.b_col.clone())
                                    } else {
                                        (e.b_col.clone(), e.a_col.clone())
                                    }
                                })
                                .collect();
                            let probe = rebuild_tree(&best, probe_mask);
                            let build = rebuild_tree(&best, build_mask);
                            best[mask] = Some(Entry {
                                cost,
                                rows: out_rows,
                                tree: Tree::Join {
                                    left: Box::new(probe),
                                    right: Box::new(build),
                                    left_column: lc,
                                    right_column: rc,
                                    extra,
                                },
                            });
                        }
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
    }

    let full = (1usize << n) - 1;
    if best[full].is_none() {
        // Disconnected query graph: a cross product is unavoidable, which
        // the DP refuses to price — keep the written order.
        return fallback_rebuild(plan, catalog);
    }
    let chosen = best[full].take().expect("checked above");
    finish_region(plan, catalog, &chosen.tree, &region)
}

/// Materialises an ordered tree and restores the original output column
/// order (join re-ordering permutes the concatenation) so the rewrite stays
/// schema-invisible.
fn finish_region(
    plan: &LogicalPlan,
    catalog: &Catalog,
    tree: &Tree,
    region: &Region,
) -> Result<LogicalPlan> {
    let (ordered, ordered_cols) = emit(tree, region);
    let original_cols = physical_output_columns(plan, catalog)?;
    if ordered_cols == original_cols {
        Ok(ordered)
    } else {
        Ok(LogicalPlan::Rename {
            columns: original_cols.into_iter().map(|c| (c.clone(), c)).collect(),
            input: Box::new(ordered),
        })
    }
}

/// Greedy left-deep ordering for regions wider than [`MAX_DP_RELATIONS`]:
/// seed with the edge whose join output is smallest, then repeatedly join in
/// the connected leaf that keeps the running intermediate smallest.  Returns
/// `None` when the query graph is disconnected (a cross product would be
/// required — keep the written order instead).
fn greedy_tree(region: &Region, leaf_rows: &[f64], rows_of: &dyn Fn(usize) -> f64) -> Option<Tree> {
    let n = region.leaves.len();
    // Seed: the edge with the smallest joined output.
    let seed = region.edges.iter().min_by(|x, y| {
        let rx = rows_of((1 << x.a) | (1 << x.b));
        let ry = rows_of((1 << y.a) | (1 << y.b));
        rx.partial_cmp(&ry).unwrap_or(std::cmp::Ordering::Equal)
    })?;
    // Probe with the larger side, build on the smaller, like the DP.
    let (probe, build) = if leaf_rows[seed.a] >= leaf_rows[seed.b] {
        (seed.a, seed.b)
    } else {
        (seed.b, seed.a)
    };
    let (lc, rc) = if probe == seed.a {
        (seed.a_col.clone(), seed.b_col.clone())
    } else {
        (seed.b_col.clone(), seed.a_col.clone())
    };
    let mut mask = (1 << seed.a) | (1 << seed.b);
    let mut extra = Vec::new();
    for e in &region.edges {
        if ((1 << e.a) | (1 << e.b)) == mask && !std::ptr::eq(e, seed) {
            extra.push(if probe == e.a {
                (e.a_col.clone(), e.b_col.clone())
            } else {
                (e.b_col.clone(), e.a_col.clone())
            });
        }
    }
    let mut tree = Tree::Join {
        left: Box::new(Tree::Leaf(probe)),
        right: Box::new(Tree::Leaf(build)),
        left_column: lc,
        right_column: rc,
        extra,
    };
    while mask != (1 << n) - 1 {
        // Candidate leaves: outside the joined set, connected to it.
        let next = (0..n)
            .filter(|i| mask & (1 << i) == 0)
            .filter(|i| {
                region.edges.iter().any(|e| {
                    (e.a == *i && mask & (1 << e.b) != 0) || (e.b == *i && mask & (1 << e.a) != 0)
                })
            })
            .min_by(|&x, &y| {
                let rx = rows_of(mask | (1 << x));
                let ry = rows_of(mask | (1 << y));
                rx.partial_cmp(&ry).unwrap_or(std::cmp::Ordering::Equal)
            })?;
        // All edges connecting the joined set to the new leaf: first one
        // keys the join, the rest become post-join selections.
        let connecting: Vec<&Edge> = region
            .edges
            .iter()
            .filter(|e| {
                (e.a == next && mask & (1 << e.b) != 0) || (e.b == next && mask & (1 << e.a) != 0)
            })
            .collect();
        let first = connecting[0];
        // The running intermediate is the probe (left) side; `next` builds.
        let orient = |e: &Edge| {
            if e.b == next {
                (e.a_col.clone(), e.b_col.clone())
            } else {
                (e.b_col.clone(), e.a_col.clone())
            }
        };
        let (lc, rc) = orient(first);
        let extra = connecting[1..].iter().map(|e| orient(e)).collect();
        tree = Tree::Join {
            left: Box::new(tree),
            right: Box::new(Tree::Leaf(next)),
            left_column: lc,
            right_column: rc,
            extra,
        };
        mask |= 1 << next;
    }
    Some(tree)
}

/// Clones the stored tree for `mask` (trees are small; the DP stores the
/// shape rather than back-pointers for simplicity).
fn rebuild_tree(best: &[Option<Entry>], mask: usize) -> Tree {
    fn clone_tree(t: &Tree) -> Tree {
        match t {
            Tree::Leaf(i) => Tree::Leaf(*i),
            Tree::Join {
                left,
                right,
                left_column,
                right_column,
                extra,
            } => Tree::Join {
                left: Box::new(clone_tree(left)),
                right: Box::new(clone_tree(right)),
                left_column: left_column.clone(),
                right_column: right_column.clone(),
                extra: extra.clone(),
            },
        }
    }
    clone_tree(&best[mask].as_ref().expect("DP entry must exist").tree)
}

/// Materialises a DP tree back into a `LogicalPlan`, returning the plan and
/// its output column order.
fn emit(tree: &Tree, region: &Region) -> (LogicalPlan, Vec<String>) {
    match tree {
        Tree::Leaf(i) => (region.leaves[*i].clone(), region.cols[*i].clone()),
        Tree::Join {
            left,
            right,
            left_column,
            right_column,
            extra,
        } => {
            let (lp, mut lc) = emit(left, region);
            let (rp, rc) = emit(right, region);
            let mut plan = LogicalPlan::Join {
                left: Box::new(lp),
                right: Box::new(rp),
                left_column: left_column.clone(),
                right_column: right_column.clone(),
            };
            for (a, b) in extra {
                plan = plan.select(col(a).eq(col(b)));
            }
            lc.extend(rc);
            (plan, lc)
        }
    }
}

/// Keeps the written join order but still recurses into the region's
/// immediate inputs (they may contain optimizable regions of their own).
fn fallback_rebuild(plan: &LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let LogicalPlan::Join {
        left,
        right,
        left_column,
        right_column,
    } = plan
    else {
        return reorder_node(plan, catalog);
    };
    let l = if matches!(**left, LogicalPlan::Join { .. }) {
        fallback_rebuild(left, catalog)?
    } else {
        reorder_node(left, catalog)?
    };
    let r = if matches!(**right, LogicalPlan::Join { .. }) {
        fallback_rebuild(right, catalog)?
    } else {
        reorder_node(right, catalog)?
    };
    Ok(LogicalPlan::Join {
        left: Box::new(l),
        right: Box::new(r),
        left_column: left_column.clone(),
        right_column: right_column.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit_i64;
    use cej_storage::TableBuilder;

    /// fact(fk1, fk2, caption) 1000 rows; dim1(id, tag) 100 rows;
    /// dim2(id, price) 10 rows; ctx(title) 50 rows.
    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(
            "fact",
            TableBuilder::new()
                .int64("fk1", (0..1000).map(|i| i % 100).collect())
                .int64("fk2", (0..1000).map(|i| i % 10).collect())
                .utf8("caption", (0..1000).map(|i| format!("cap {i}")).collect())
                .build()
                .unwrap(),
        );
        c.register(
            "dim1",
            TableBuilder::new()
                .int64("id", (0..100).collect())
                .int64("tag", (0..100).map(|i| i % 4).collect())
                .build()
                .unwrap(),
        );
        c.register(
            "dim2",
            TableBuilder::new()
                .int64("d2_id", (0..10).collect())
                .int64("price", (0..10).map(|i| i * 7).collect())
                .build()
                .unwrap(),
        );
        c.register(
            "ctx",
            TableBuilder::new()
                .utf8("title", (0..50).map(|i| format!("title {i}")).collect())
                .build()
                .unwrap(),
        );
        for t in ["fact", "dim1", "dim2", "ctx"] {
            c.analyze(t).unwrap();
        }
        c
    }

    fn leaf_tables(plan: &LogicalPlan, acc: &mut Vec<String>) {
        match plan {
            LogicalPlan::Scan { table } => acc.push(table.clone()),
            _ => {
                for c in plan.children() {
                    leaf_tables(c, acc);
                }
            }
        }
    }

    #[test]
    fn physical_columns_of_ejoin_are_prefixed() {
        let c = catalog();
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("fact"),
            LogicalPlan::scan("ctx"),
            "caption",
            "title",
            "m",
            SimilarityPredicate::TopK(2),
        );
        assert_eq!(
            physical_output_columns(&plan, &c).unwrap(),
            vec!["l_fk1", "l_fk2", "l_caption", "r_title", "similarity"]
        );
    }

    #[test]
    fn join_with_duplicate_columns_is_ambiguous() {
        let c = catalog();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("dim1"),
            LogicalPlan::scan("dim1"),
            "id",
            "id",
        );
        assert!(matches!(
            physical_output_columns(&plan, &c),
            Err(RelationalError::AmbiguousColumn(_))
        ));
        // rename on one side resolves the ambiguity
        let renamed = LogicalPlan::join(
            LogicalPlan::scan("dim1"),
            LogicalPlan::scan("dim1").rename(&[("id", "id2"), ("tag", "tag2")]),
            "id",
            "id2",
        );
        let cols = physical_output_columns(&renamed, &c).unwrap();
        assert_eq!(cols, vec!["id", "tag", "id2", "tag2"]);
    }

    #[test]
    fn dp_orders_selective_dimension_first() {
        let c = catalog();
        // Written order joins the (unfiltered) dim1 first, the highly
        // selective dim2 last; the DP must flip that.
        let written = LogicalPlan::join(
            LogicalPlan::join(
                LogicalPlan::scan("fact"),
                LogicalPlan::scan("dim1"),
                "fk1",
                "id",
            ),
            LogicalPlan::scan("dim2").select(col("price").lt(lit_i64(7))),
            "fk2",
            "d2_id",
        );
        let ordered = reorder_joins(&written, &c).unwrap();
        // Schema must be preserved exactly.
        assert_eq!(
            physical_output_columns(&ordered, &c).unwrap(),
            physical_output_columns(&written, &c).unwrap()
        );
        // The first join applied to fact must now involve dim2 (1 row after
        // the filter) rather than dim1: some join node's leaves must be
        // exactly {fact, dim2}.
        fn has_fact_dim2_join(plan: &LogicalPlan) -> bool {
            if let LogicalPlan::Join { .. } = plan {
                let mut tables = Vec::new();
                leaf_tables(plan, &mut tables);
                tables.sort();
                if tables == ["dim2".to_string(), "fact".to_string()] {
                    return true;
                }
            }
            plan.children().iter().any(|c| has_fact_dim2_join(c))
        }
        assert!(
            has_fact_dim2_join(&ordered),
            "selective dim2 should join fact first:\n{ordered}"
        );
    }

    #[test]
    fn dp_never_prices_a_cross_product_when_edges_exist() {
        let c = catalog();
        // Chain graph: dim1 — fact — dim2 (no dim1–dim2 edge).  dim1 and
        // dim2 are tiny, so a greedy enumerator would pair them first; the
        // cross product must never appear in the DP result.
        let written = LogicalPlan::join(
            LogicalPlan::join(
                LogicalPlan::scan("fact"),
                LogicalPlan::scan("dim1"),
                "fk1",
                "id",
            ),
            LogicalPlan::scan("dim2"),
            "fk2",
            "d2_id",
        );
        let ordered = reorder_joins(&written, &c).unwrap();
        fn no_cross(plan: &LogicalPlan) {
            if let LogicalPlan::Join { left, right, .. } = plan {
                let mut lt = Vec::new();
                let mut rt = Vec::new();
                leaf_tables(left, &mut lt);
                leaf_tables(right, &mut rt);
                let disconnected = (lt == vec!["dim1".to_string()]
                    && rt == vec!["dim2".to_string()])
                    || (lt == vec!["dim2".to_string()] && rt == vec!["dim1".to_string()]);
                assert!(!disconnected, "cross product dim1 × dim2 in plan");
            }
            for ch in plan.children() {
                no_cross(ch);
            }
        }
        no_cross(&ordered);
    }

    #[test]
    fn equi_join_sinks_below_ejoin_when_selective() {
        let c = catalog();
        // ejoin(fact, ctx) first, then a very selective dim2 join keyed on
        // the ejoin's outer side: the sink rewrite must push the equi-join
        // below the ejoin (fewer model calls) and hide it behind a Rename.
        let written = LogicalPlan::join(
            LogicalPlan::e_join(
                LogicalPlan::scan("fact"),
                LogicalPlan::scan("ctx"),
                "caption",
                "title",
                "m",
                SimilarityPredicate::Threshold(0.5),
            ),
            LogicalPlan::scan("dim2").select(col("price").lt(lit_i64(7))),
            "l_fk2",
            "d2_id",
        );
        let ordered = reorder_joins(&written, &c).unwrap();
        assert_eq!(
            physical_output_columns(&ordered, &c).unwrap(),
            physical_output_columns(&written, &c).unwrap(),
            "sink rewrite must preserve the output schema"
        );
        // After the rewrite the equi-join must sit below the ejoin.
        let display = ordered.to_string();
        let ejoin_pos = display.find("EJoin").unwrap();
        let join_pos = display.find("Join:").unwrap();
        assert!(
            join_pos > ejoin_pos,
            "equi-join should print below the ejoin:\n{display}"
        );
    }

    #[test]
    fn topk_ejoin_never_sinks_into_inner_side() {
        let c = catalog();
        // Join keyed on the ejoin's *inner* side with top-k semantics: the
        // rewrite would change which k rows win, so it must not fire.
        let written = LogicalPlan::join(
            LogicalPlan::e_join(
                LogicalPlan::scan("dim1"),
                LogicalPlan::scan("fact"),
                "tag",
                "caption",
                "m",
                SimilarityPredicate::TopK(3),
            ),
            LogicalPlan::scan("dim2"),
            "r_fk2",
            "d2_id",
        );
        let ordered = reorder_joins(&written, &c).unwrap();
        assert_eq!(ordered, written, "top-k inner-side sink must not fire");
    }

    /// Sum of estimated intermediate rows over every equi-join in the plan —
    /// the cost measure the ordering tests compare plans by.
    fn summed_join_rows(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
        let own = if matches!(plan, LogicalPlan::Join { .. }) {
            estimate_rows(plan, catalog)
        } else {
            0.0
        };
        own + plan
            .children()
            .iter()
            .map(|c| summed_join_rows(c, catalog))
            .sum::<f64>()
    }

    #[test]
    fn skewed_fk_join_estimate_uses_histogram_intersection() {
        // A "grown dimension" workload: the dimension covers keys 50..150
        // but the fact only references 0..100 — half its rows are dangling,
        // and 500 of them pile onto the single hot key 75.
        let c = Catalog::new();
        let mut fks: Vec<i64> = vec![75; 500];
        fks.extend((0..500).map(|i| i % 100));
        c.register(
            "skew_fact",
            TableBuilder::new().int64("fk", fks).build().unwrap(),
        );
        c.register(
            "grown_dim",
            TableBuilder::new()
                .int64("id", (50..150).collect())
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::join(
            LogicalPlan::scan("skew_fact"),
            LogicalPlan::scan("grown_dim"),
            "fk",
            "id",
        );
        let est = estimate_rows(&plan, &c);
        // True output: 500 (hot key) + 250 (uniform rows in the overlap).
        // The classic |L|·|R|/max(ndv) formula says 1000·100/100 = 1000.
        assert!(
            (600.0..=900.0).contains(&est),
            "histogram intersection estimate {est} should be near 750, not the classic 1000"
        );
    }

    #[test]
    fn wide_chain_uses_greedy_order_and_beats_written() {
        // 16-relation chain r0 — r1 — … — r15 (beyond MAX_DP_RELATIONS=14).
        // Every table has 400 rows with unique keys except r15, which has a
        // single row: joining from the r15 end carries a 1-row intermediate
        // across the whole chain, while the written order drags 400 rows
        // through every join.
        const N: usize = 16;
        let c = Catalog::new();
        for i in 0..N {
            let rows: Vec<i64> = if i == N - 1 {
                vec![0]
            } else {
                (0..400).collect()
            };
            c.register(
                &format!("r{i}"),
                TableBuilder::new()
                    .int64(&format!("a{i}"), rows.clone())
                    .int64(&format!("b{i}"), rows)
                    .build()
                    .unwrap(),
            );
        }
        // written: (((r0 ⋈ r1) ⋈ r2) ⋈ …) on b{i} = a{i+1}
        let mut written = LogicalPlan::scan("r0");
        for i in 1..N {
            written = LogicalPlan::join(
                written,
                LogicalPlan::scan(&format!("r{i}")),
                &format!("b{}", i - 1),
                &format!("a{i}"),
            );
        }
        let ordered = reorder_joins(&written, &c).unwrap();
        assert_eq!(
            physical_output_columns(&ordered, &c).unwrap(),
            physical_output_columns(&written, &c).unwrap(),
            "greedy reorder must preserve the output schema"
        );
        let written_cost = summed_join_rows(&written, &c);
        let greedy_cost = summed_join_rows(&ordered, &c);
        assert!(
            greedy_cost < written_cost / 10.0,
            "greedy ({greedy_cost}) should beat written order ({written_cost}) on the chain"
        );
    }

    #[test]
    fn estimates_follow_stats() {
        let c = catalog();
        let fact = LogicalPlan::scan("fact");
        assert!((estimate_rows(&fact, &c) - 1000.0).abs() < 1e-9);
        // fact ⋈ dim1 on fk1=id is a perfect FK join: ~1000 output rows.
        // The histogram intersection lands near the classic 1000 (within
        // one-bucket interpolation error).
        let j = LogicalPlan::join(
            LogicalPlan::scan("fact"),
            LogicalPlan::scan("dim1"),
            "fk1",
            "id",
        );
        let est = estimate_rows(&j, &c);
        assert!((est - 1000.0).abs() < 200.0, "FK join estimate {est}");
    }
}
