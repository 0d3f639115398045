//! Column batches with selection vectors — the unit of work exchanged by the
//! vectorised executor.
//!
//! Following the MonetDB/X100 design, operators pass around fixed-size
//! *batches* of rows instead of whole tables.  A batch never copies data out
//! of its base [`Table`]: it is a window `[start, end)` of row positions plus
//! a **selection vector** listing the lanes that are still alive after
//! filtering.  `Filter` shrinks the selection vector, `Project` narrows the
//! set of visible columns, and only a materialising boundary (`Embed`, join
//! probe, final drain) gathers the surviving lanes into contiguous storage.

use crate::column::Column;
use crate::error::StorageError;
use crate::table::Table;
use crate::Result;

/// Default number of rows per batch handed between operators.
///
/// A morsel is the unit of per-task fixed cost, not of cache residency: a
/// filter over a morsel streams one column once, whatever its length, and
/// what a morsel pays besides is a live-row vector, a filter dispatch, a
/// scheduler task and, under a hash join, a gathered probe table and one
/// part of the final concatenation.  At 1,024 rows that fixed cost (≈ 3 µs)
/// dominated a selective scan: the benchmark's `serve_live` query
/// `live JOIN dim … WHERE live.slot = 7`, its slowest, cut 200 k rows into
/// 196 morsels to find 200 survivors.  A sweep of `serve_live`'s
/// `op_p95_ms` over morsel sizes (median of 3 runs, seed 20240513, a
/// 2-vCPU x86-64 Xeon with AVX2 and AVX-512) read 1.14 ms at 1,024 rows,
/// 0.76 ms at 4,096, 0.61 ms at 16,384 and 0.67 ms at 65,536, so the size
/// sits at the minimum.  A morsel is also the grain of parallel work, so a
/// source under this many rows is one task at any thread budget.  With the
/// benchmark rebuilt for two worker threads, 16,384 rows still beat 1,024
/// on `serve_live` (`op_p95_ms` 0.79 → 0.65 ms) and `adhoc_cold` and tie on
/// `scan_join_warm` (median of 10 runs each side).  Results do not depend
/// on it.
pub const DEFAULT_BATCH_ROWS: usize = 16_384;

/// A zero-copy view over a subset of a table's rows and columns.
///
/// `sel` holds **absolute row indices** into `table` (ascending, no repeats
/// for pipeline batches; gather-style repeats are allowed), and `visible`
/// holds the schema positions of the columns the view exposes, in output
/// order.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    table: &'a Table,
    sel: &'a [u32],
    visible: &'a [usize],
}

impl<'a> BatchView<'a> {
    /// Creates a validated view.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] when a selection lane exceeds
    /// the row count or a visible index exceeds the column count.
    pub fn new(table: &'a Table, sel: &'a [u32], visible: &'a [usize]) -> Result<Self> {
        for &lane in sel {
            if lane as usize >= table.num_rows() {
                return Err(StorageError::RowOutOfBounds {
                    row: lane as usize,
                    rows: table.num_rows(),
                });
            }
        }
        for &col in visible {
            if col >= table.num_columns() {
                return Err(StorageError::RowOutOfBounds {
                    row: col,
                    rows: table.num_columns(),
                });
            }
        }
        Ok(Self {
            table,
            sel,
            visible,
        })
    }

    /// The base table the view windows into.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The selection vector (absolute row indices into the base table).
    pub fn selection(&self) -> &'a [u32] {
        self.sel
    }

    /// The visible column positions, in output order.
    pub fn visible(&self) -> &'a [usize] {
        self.visible
    }

    /// Number of selected lanes (the batch's logical row count).
    pub fn num_selected(&self) -> usize {
        self.sel.len()
    }

    /// `true` when no lanes survive.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Materialises the view into an owned table: visible columns only, in
    /// view order, with exactly the selected lanes.
    ///
    /// # Errors
    /// Propagates column gather / table construction errors.
    pub fn gather(&self) -> Result<Table> {
        let mut names = Vec::with_capacity(self.visible.len());
        let mut columns = Vec::with_capacity(self.visible.len());
        for &col in self.visible {
            names.push(self.table.schema().fields()[col].name.as_str());
            columns.push(self.table.column(col)?.gather(self.sel)?);
        }
        let schema = self.table.schema().project(&names)?;
        Table::new(schema, columns)
    }

    /// Borrows a visible column of the base table by *view* position.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] when `i` exceeds the number
    /// of visible columns.
    pub fn column(&self, i: usize) -> Result<&'a Column> {
        let &base = self.visible.get(i).ok_or(StorageError::RowOutOfBounds {
            row: i,
            rows: self.visible.len(),
        })?;
        self.table.column(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::scalar::ScalarValue;
    use crate::schema::{Field, Schema};

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("word", DataType::Utf8),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::Int64(vec![10, 20, 30, 40]),
                Column::Utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn view_validates_bounds() {
        let t = sample();
        assert!(BatchView::new(&t, &[0, 4], &[0]).is_err());
        assert!(BatchView::new(&t, &[0], &[2]).is_err());
        let v = BatchView::new(&t, &[1, 3], &[1, 0]).unwrap();
        assert_eq!(v.num_selected(), 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn gather_materialises_selected_lanes_and_visible_columns() {
        let t = sample();
        let v = BatchView::new(&t, &[3, 1], &[1]).unwrap();
        let out = v.gather().unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.value(0, "word").unwrap(), ScalarValue::Utf8("d".into()));
        assert_eq!(out.value(1, "word").unwrap(), ScalarValue::Utf8("b".into()));
    }

    #[test]
    fn column_resolves_view_positions() {
        let t = sample();
        let v = BatchView::new(&t, &[0], &[1, 0]).unwrap();
        assert_eq!(v.column(0).unwrap().data_type(), DataType::Utf8);
        assert_eq!(v.column(1).unwrap().data_type(), DataType::Int64);
        assert!(v.column(2).is_err());
    }

    #[test]
    fn empty_selection_gathers_zero_rows() {
        let t = sample();
        let v = BatchView::new(&t, &[], &[0, 1]).unwrap();
        let out = v.gather().unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 2);
    }
}
