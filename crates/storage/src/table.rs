//! Tables: schemas plus equal-length columns.

use serde::{Deserialize, Serialize};

use crate::bitmap::SelectionBitmap;
use crate::column::Column;
use crate::error::StorageError;
use crate::scalar::ScalarValue;
use crate::schema::Schema;
use crate::Result;

/// An in-memory columnar table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Creates a table from a schema and matching columns.
    ///
    /// # Errors
    /// Returns [`StorageError::LengthMismatch`] when column counts or row
    /// counts disagree, and [`StorageError::TypeMismatch`] when a column's
    /// type differs from its schema field.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (field, column) in schema.fields().iter().zip(columns.iter()) {
            if column.len() != rows {
                return Err(StorageError::LengthMismatch {
                    expected: rows,
                    actual: column.len(),
                });
            }
            if column.data_type() != field.data_type {
                return Err(StorageError::TypeMismatch {
                    expected: field.data_type.to_string(),
                    actual: column.data_type().to_string(),
                });
            }
        }
        Ok(Self {
            schema,
            columns,
            rows,
        })
    }

    /// An empty table with an empty schema.
    pub fn empty() -> Self {
        Self {
            schema: Schema::empty(),
            columns: Vec::new(),
            rows: 0,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Takes the table apart into its schema and its columns (in schema
    /// order), so a consumer that builds a new table from them — a join
    /// output, a renamed view — moves the column buffers instead of cloning
    /// them.
    pub fn into_parts(self) -> (Schema, Vec<Column>) {
        (self.schema, self.columns)
    }

    /// The column at schema position `i`.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] when `i` exceeds the column
    /// count (reusing the bounds error with column semantics).
    pub fn column(&self, i: usize) -> Result<&Column> {
        self.columns.get(i).ok_or(StorageError::RowOutOfBounds {
            row: i,
            rows: self.columns.len(),
        })
    }

    /// The column with the given name.
    ///
    /// # Errors
    /// Returns [`StorageError::ColumnNotFound`] when absent.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// The value at (`row`, `column name`).
    ///
    /// # Errors
    /// Propagates column lookup and row bound errors.
    pub fn value(&self, row: usize, column: &str) -> Result<ScalarValue> {
        self.column_by_name(column)?.get(row)
    }

    /// Returns a new table containing only the selected rows.
    ///
    /// # Errors
    /// Returns [`StorageError::LengthMismatch`] when the bitmap length does
    /// not match the row count.
    pub fn filter(&self, selection: &SelectionBitmap) -> Result<Table> {
        if selection.len() != self.rows {
            return Err(StorageError::LengthMismatch {
                expected: self.rows,
                actual: selection.len(),
            });
        }
        let columns: Result<Vec<Column>> =
            self.columns.iter().map(|c| c.filter(selection)).collect();
        Table::new(self.schema.clone(), columns?)
    }

    /// Returns a new table with the rows at `indices` (repeats allowed).
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] for out-of-range indices.
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        let columns: Result<Vec<Column>> = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.schema.clone(), columns?)
    }

    /// Returns a new table restricted to the named columns, in order.
    ///
    /// # Errors
    /// Returns [`StorageError::ColumnNotFound`] for unknown columns.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let mut columns = Vec::with_capacity(names.len());
        for name in names {
            columns.push(self.column_by_name(name)?.clone());
        }
        Table::new(schema, columns)
    }

    /// Returns a new table with the rows named by a `u32` selection vector
    /// (repeats allowed) — the lane-compaction twin of [`Table::take`] used
    /// by the vectorised executor when a batch is materialised.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] for out-of-range lanes.
    pub fn gather(&self, sel: &[u32]) -> Result<Table> {
        let columns: Result<Vec<Column>> = self.columns.iter().map(|c| c.gather(sel)).collect();
        let columns = columns?;
        let rows = sel.len();
        if columns.is_empty() {
            // keep the schema even for zero-column tables
            return Table::new(self.schema.clone(), columns);
        }
        Ok(Self {
            schema: self.schema.clone(),
            columns,
            rows,
        })
    }

    /// Vertically concatenates tables that share a schema.
    ///
    /// This reassembles the per-batch outputs of the vectorised executor into
    /// one materialised result table.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidArgument`] for an empty input and
    /// [`StorageError::TypeMismatch`] when schemas disagree; column-level
    /// incompatibilities propagate from [`Column::concat`].
    pub fn concat(parts: &[&Table]) -> Result<Table> {
        let first = parts
            .first()
            .ok_or_else(|| StorageError::InvalidArgument("concat of zero tables".into()))?;
        if parts.len() == 1 {
            return Ok((*first).clone());
        }
        for part in &parts[1..] {
            if part.schema != first.schema {
                return Err(StorageError::TypeMismatch {
                    expected: format!("{:?}", first.schema),
                    actual: format!("{:?}", part.schema),
                });
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for i in 0..first.num_columns() {
            let slices: Vec<&Column> = parts.iter().map(|p| &p.columns[i]).collect();
            columns.push(Column::concat(&slices)?);
        }
        let rows = parts.iter().map(|p| p.rows).sum();
        Ok(Self {
            schema: first.schema.clone(),
            columns,
            rows,
        })
    }

    /// Appends the rows of `other` in place: O(`other`), where
    /// [`Table::concat`] copies both sides.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] when the schemas disagree; the
    /// table is untouched then.
    pub fn extend(&mut self, other: &Table) -> Result<()> {
        if other.schema != self.schema {
            return Err(StorageError::TypeMismatch {
                expected: format!("{:?}", self.schema),
                actual: format!("{:?}", other.schema),
            });
        }
        // equal schemas mean equal column types, vector widths included
        for (column, more) in self.columns.iter_mut().zip(&other.columns) {
            column.extend(more)?;
        }
        self.rows += other.rows;
        Ok(())
    }

    /// Runs the `ANALYZE` pass: per-column row/null counts, distinct counts,
    /// min/max, equi-depth histograms, and average string lengths (see
    /// [`crate::stats`]).  The result is a point-in-time snapshot — callers
    /// that keep tables mutable-by-replacement (the catalog) recompute it on
    /// re-registration.
    pub fn analyze(&self) -> crate::stats::TableStats {
        crate::stats::TableStats::analyze(self)
    }

    /// Returns a new table with an extra column appended.
    ///
    /// This is how the embedding operator `E_µ` materialises its output: the
    /// embedded column is appended alongside the original relational columns,
    /// never replacing them (the original data stays addressable for decode /
    /// post-verification).
    ///
    /// # Errors
    /// Returns [`StorageError::LengthMismatch`] when the new column's length
    /// differs from the row count, or [`StorageError::InvalidArgument`] for a
    /// duplicate name.
    pub fn with_column(&self, name: &str, column: Column) -> Result<Table> {
        if column.len() != self.rows {
            return Err(StorageError::LengthMismatch {
                expected: self.rows,
                actual: column.len(),
            });
        }
        let mut fields = self.schema.fields().to_vec();
        fields.push(crate::schema::Field::new(name, column.data_type()));
        let schema = Schema::new(fields)?;
        let mut columns = self.columns.clone();
        columns.push(column);
        Table::new(schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Field;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("word", DataType::Utf8),
            Field::new("taken", DataType::Date),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::Int64(vec![1, 2, 3]),
                Column::Utf8(vec!["bbq".into(), "grill".into(), "dbms".into()]),
                Column::Date(vec![100, 200, 300]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_shapes_and_types() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]).unwrap();
        assert!(Table::new(schema.clone(), vec![]).is_err());
        assert!(Table::new(schema.clone(), vec![Column::Utf8(vec!["x".into()])]).is_err());
        let schema2 = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        assert!(Table::new(
            schema2,
            vec![Column::Int64(vec![1, 2]), Column::Int64(vec![1])]
        )
        .is_err());
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.schema().len(), 3);
        assert_eq!(t.column(1).unwrap().data_type(), DataType::Utf8);
        assert!(t.column(9).is_err());
        assert_eq!(t.value(0, "word").unwrap(), ScalarValue::Utf8("bbq".into()));
        assert!(t.column_by_name("missing").is_err());
    }

    #[test]
    fn filter_preserves_schema() {
        let t = sample();
        let sel = SelectionBitmap::from_bools(vec![true, false, true]);
        let f = t.filter(&sel).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.schema(), t.schema());
        assert_eq!(
            f.value(1, "word").unwrap(),
            ScalarValue::Utf8("dbms".into())
        );
        assert!(t.filter(&SelectionBitmap::all(5)).is_err());
    }

    #[test]
    fn take_materialises_join_output_order() {
        let t = sample();
        let out = t.take(&[2, 2, 0]).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "id").unwrap(), ScalarValue::Int64(3));
        assert_eq!(out.value(2, "id").unwrap(), ScalarValue::Int64(1));
    }

    #[test]
    fn into_parts_moves_the_columns_out() {
        let t = sample();
        let (schema, columns) = t.clone().into_parts();
        assert_eq!(&schema, t.schema());
        assert_eq!(columns, t.columns());
        assert_eq!(Table::new(schema, columns).unwrap(), t);
    }

    #[test]
    fn project_subsets_columns() {
        let t = sample();
        let p = t.project(&["word"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.num_rows(), 3);
        assert!(t.project(&["nope"]).is_err());
    }

    #[test]
    fn with_column_appends() {
        let t = sample();
        let t2 = t
            .with_column("flag", Column::Bool(vec![true, false, true]))
            .unwrap();
        assert_eq!(t2.num_columns(), 4);
        assert_eq!(t2.value(2, "flag").unwrap(), ScalarValue::Bool(true));
        // wrong length rejected
        assert!(t.with_column("bad", Column::Bool(vec![true])).is_err());
        // duplicate name rejected
        assert!(t
            .with_column("id", Column::Bool(vec![true, false, true]))
            .is_err());
    }

    #[test]
    fn gather_compacts_lanes() {
        let t = sample();
        let g = t.gather(&[2, 0]).unwrap();
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.schema(), t.schema());
        assert_eq!(g.value(0, "id").unwrap(), ScalarValue::Int64(3));
        assert_eq!(g.value(1, "word").unwrap(), ScalarValue::Utf8("bbq".into()));
        assert_eq!(t.gather(&[]).unwrap().num_rows(), 0);
        assert!(t.gather(&[3]).is_err());
    }

    #[test]
    fn concat_stacks_batches() {
        let t = sample();
        let a = t.gather(&[0]).unwrap();
        let b = t.gather(&[]).unwrap();
        let c = t.gather(&[1, 2]).unwrap();
        let whole = Table::concat(&[&a, &b, &c]).unwrap();
        assert_eq!(whole, t);
        assert!(Table::concat(&[]).is_err());
        let other = t.project(&["id"]).unwrap();
        assert!(Table::concat(&[&t, &other]).is_err());
        // single part is a plain clone
        assert_eq!(Table::concat(&[&t]).unwrap(), t);
    }

    #[test]
    fn extend_appends_rows_in_place() {
        let t = sample();
        let mut grown = t.gather(&[0]).unwrap();
        grown.extend(&t.gather(&[1, 2]).unwrap()).unwrap();
        assert_eq!(grown, t);
        assert!(grown.extend(&t.project(&["id"]).unwrap()).is_err());
        assert_eq!(grown, t, "a rejected extend leaves the table alone");
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }
}
