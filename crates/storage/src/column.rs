//! Typed columnar storage.

use cej_vector::{Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::bitmap::SelectionBitmap;
use crate::datatype::DataType;
use crate::error::StorageError;
use crate::scalar::ScalarValue;
use crate::Result;

/// A single typed column of values.
///
/// Embedding columns store their vectors contiguously as a [`Matrix`]
/// (one row per tuple), which is exactly the layout the tensor join consumes —
/// materialising an embedding column therefore costs nothing beyond the
/// embedding itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// UTF-8 strings.
    Utf8(Vec<String>),
    /// Dates as days since the epoch.
    Date(Vec<i32>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dense embeddings, one row per tuple.
    Vector(Matrix),
}

impl Column {
    /// The logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Date(_) => DataType::Date,
            Column::Bool(_) => DataType::Bool,
            Column::Vector(m) => DataType::Vector(m.cols()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Vector(m) => m.rows(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] for out-of-range rows.
    pub fn get(&self, i: usize) -> Result<ScalarValue> {
        if i >= self.len() {
            return Err(StorageError::RowOutOfBounds {
                row: i,
                rows: self.len(),
            });
        }
        Ok(match self {
            Column::Int64(v) => ScalarValue::Int64(v[i]),
            Column::Float64(v) => ScalarValue::Float64(v[i]),
            Column::Utf8(v) => ScalarValue::Utf8(v[i].clone()),
            Column::Date(v) => ScalarValue::Date(v[i]),
            Column::Bool(v) => ScalarValue::Bool(v[i]),
            Column::Vector(m) => {
                ScalarValue::Vector(m.row_vector(i).expect("row bound already checked"))
            }
        })
    }

    /// Returns a new column containing only the selected rows (in order).
    ///
    /// # Errors
    /// Returns [`StorageError::LengthMismatch`] when the bitmap length does
    /// not match the column length.
    pub fn filter(&self, selection: &SelectionBitmap) -> Result<Column> {
        if selection.len() != self.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.len(),
                actual: selection.len(),
            });
        }
        Ok(match self {
            Column::Int64(v) => Column::Int64(selection.iter_selected().map(|i| v[i]).collect()),
            Column::Float64(v) => {
                Column::Float64(selection.iter_selected().map(|i| v[i]).collect())
            }
            Column::Utf8(v) => {
                Column::Utf8(selection.iter_selected().map(|i| v[i].clone()).collect())
            }
            Column::Date(v) => Column::Date(selection.iter_selected().map(|i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(selection.iter_selected().map(|i| v[i]).collect()),
            Column::Vector(m) => {
                let mut out = Matrix::zeros(0, m.cols());
                for i in selection.iter_selected() {
                    out.push_row(m.row(i).expect("selected row in range"))
                        .expect("row widths agree");
                }
                Column::Vector(out)
            }
        })
    }

    /// Returns a new column containing the rows at `indices` (with repeats
    /// allowed) — the classic `take` kernel used to materialise join results.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] for any out-of-range index.
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        for &i in indices {
            if i >= self.len() {
                return Err(StorageError::RowOutOfBounds {
                    row: i,
                    rows: self.len(),
                });
            }
        }
        Ok(match self {
            Column::Int64(v) => Column::Int64(indices.iter().map(|&i| v[i]).collect()),
            Column::Float64(v) => Column::Float64(indices.iter().map(|&i| v[i]).collect()),
            Column::Utf8(v) => Column::Utf8(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Date(v) => Column::Date(indices.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::Vector(m) => {
                let mut out = Matrix::zeros(0, m.cols());
                for &i in indices {
                    out.push_row(m.row(i).expect("index already validated"))
                        .expect("row widths agree");
                }
                Column::Vector(out)
            }
        })
    }

    /// Returns a new column containing the rows named by a selection vector
    /// (repeats allowed) — the `u32`-lane variant of [`Column::take`] used
    /// by the vectorised executor to compact a batch's survivors.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] for any out-of-range lane.
    pub fn gather(&self, sel: &[u32]) -> Result<Column> {
        for &lane in sel {
            if lane as usize >= self.len() {
                return Err(StorageError::RowOutOfBounds {
                    row: lane as usize,
                    rows: self.len(),
                });
            }
        }
        Ok(match self {
            Column::Int64(v) => Column::Int64(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float64(v) => Column::Float64(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Utf8(v) => Column::Utf8(sel.iter().map(|&i| v[i as usize].clone()).collect()),
            Column::Date(v) => Column::Date(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Bool(v) => Column::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Vector(m) => {
                Column::Vector(m.gather_rows(sel).expect("lanes already validated"))
            }
        })
    }

    /// Vertically concatenates columns of the same type into one column.
    ///
    /// Used by the vectorised executor to reassemble per-batch outputs into
    /// a materialised table.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidArgument`] for an empty input and
    /// [`StorageError::TypeMismatch`] when the parts disagree on type
    /// (including vector dimensionality, except that empty vector parts
    /// adopt the established dimension).
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let first = parts
            .first()
            .ok_or_else(|| StorageError::InvalidArgument("concat of zero columns".into()))?;
        for part in &parts[1..] {
            let compatible = match (first, part) {
                // empty vector parts carry a possibly-unknown dimension
                (Column::Vector(a), Column::Vector(b)) => {
                    a.cols() == b.cols() || a.is_empty() || b.is_empty()
                }
                _ => first.data_type() == part.data_type(),
            };
            if !compatible {
                return Err(StorageError::TypeMismatch {
                    expected: first.data_type().to_string(),
                    actual: part.data_type().to_string(),
                });
            }
        }
        // Exact-capacity outputs: a concatenated table is often kept (merged
        // segments, compacted snapshots), so growth slack would stay resident.
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut out = match first {
            Column::Int64(_) => Column::Int64(Vec::with_capacity(total)),
            Column::Float64(_) => Column::Float64(Vec::with_capacity(total)),
            Column::Utf8(_) => Column::Utf8(Vec::with_capacity(total)),
            Column::Date(_) => Column::Date(Vec::with_capacity(total)),
            Column::Bool(_) => Column::Bool(Vec::with_capacity(total)),
            Column::Vector(first_m) => {
                let cols = parts
                    .iter()
                    .filter_map(|p| match p {
                        Column::Vector(m) if !m.is_empty() => Some(m.cols()),
                        _ => None,
                    })
                    .next()
                    .unwrap_or(first_m.cols());
                let mut data = Vec::with_capacity(total * cols);
                for part in parts {
                    if let Column::Vector(m) = part {
                        data.extend_from_slice(m.as_slice());
                    }
                }
                return Ok(Column::Vector(
                    Matrix::from_flat(total, cols, data)
                        .map_err(|e| StorageError::InvalidArgument(e.to_string()))?,
                ));
            }
        };
        for part in parts {
            out.extend(part)?;
        }
        Ok(out)
    }

    /// Appends the rows of `other` in place — how a maintained result or a
    /// live hash-join build side takes a delta without being rebuilt.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] when the types disagree
    /// (including vector dimensionality, except that an empty vector column
    /// adopts the dimension of the rows it is given).
    pub fn extend(&mut self, other: &Column) -> Result<()> {
        match (&mut *self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (Column::Utf8(a), Column::Utf8(b)) => a.extend_from_slice(b),
            (Column::Date(a), Column::Date(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Vector(a), Column::Vector(b)) if a.is_empty() || b.is_empty() => {
                if a.is_empty() {
                    *a = b.clone();
                }
            }
            (Column::Vector(a), Column::Vector(b)) if a.cols() == b.cols() => {
                for row in 0..b.rows() {
                    a.push_row(b.row(row).expect("row in range"))
                        .expect("widths checked above");
                }
            }
            _ => {
                return Err(StorageError::TypeMismatch {
                    expected: self.data_type().to_string(),
                    actual: other.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    /// Borrows the strings of a `Utf8` column.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] for other column types.
    pub fn as_utf8(&self) -> Result<&[String]> {
        match self {
            Column::Utf8(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: "Utf8".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrows the values of an `Int64` column.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] for other column types.
    pub fn as_int64(&self) -> Result<&[i64]> {
        match self {
            Column::Int64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: "Int64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrows the values of a `Float64` column.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] for other column types.
    pub fn as_float64(&self) -> Result<&[f64]> {
        match self {
            Column::Float64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: "Float64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrows the values of a `Date` column.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] for other column types.
    pub fn as_date(&self) -> Result<&[i32]> {
        match self {
            Column::Date(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: "Date".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrows the embedding matrix of a `Vector` column.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] for other column types.
    pub fn as_vectors(&self) -> Result<&Matrix> {
        match self {
            Column::Vector(m) => Ok(m),
            other => Err(StorageError::TypeMismatch {
                expected: "Vector".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Builds a vector column from owned vectors.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidArgument`] when rows disagree on
    /// dimensionality or the input is empty (dimension would be unknown).
    pub fn from_vectors(vectors: &[Vector]) -> Result<Column> {
        let m =
            Matrix::from_rows(vectors).map_err(|e| StorageError::InvalidArgument(e.to_string()))?;
        Ok(Column::Vector(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn utf8_col() -> Column {
        Column::Utf8(vec!["a".into(), "b".into(), "c".into()])
    }

    #[test]
    fn data_type_and_len() {
        assert_eq!(utf8_col().data_type(), DataType::Utf8);
        assert_eq!(utf8_col().len(), 3);
        assert!(!utf8_col().is_empty());
        let vcol = Column::Vector(Matrix::zeros(2, 8));
        assert_eq!(vcol.data_type(), DataType::Vector(8));
        assert_eq!(vcol.len(), 2);
    }

    #[test]
    fn get_values_and_bounds() {
        let c = Column::Int64(vec![10, 20]);
        assert_eq!(c.get(1).unwrap(), ScalarValue::Int64(20));
        assert!(c.get(2).is_err());
        let v = Column::Vector(Matrix::from_rows(&[Vector::new(vec![1.0, 2.0])]).unwrap());
        assert_eq!(
            v.get(0).unwrap().as_vector().unwrap().as_slice(),
            &[1.0, 2.0]
        );
    }

    #[test]
    fn filter_selects_rows() {
        let c = utf8_col();
        let sel = SelectionBitmap::from_bools(vec![true, false, true]);
        let f = c.filter(&sel).unwrap();
        assert_eq!(f.as_utf8().unwrap(), &["a".to_string(), "c".to_string()]);
        assert!(c.filter(&SelectionBitmap::all(2)).is_err());
    }

    #[test]
    fn filter_vector_column() {
        let m = Matrix::from_rows(&[
            Vector::new(vec![1.0, 0.0]),
            Vector::new(vec![0.0, 1.0]),
            Vector::new(vec![0.5, 0.5]),
        ])
        .unwrap();
        let c = Column::Vector(m);
        let sel = SelectionBitmap::from_bools(vec![false, true, true]);
        let f = c.filter(&sel).unwrap();
        let fm = f.as_vectors().unwrap();
        assert_eq!(fm.rows(), 2);
        assert_eq!(fm.row(0).unwrap(), &[0.0, 1.0]);
    }

    #[test]
    fn take_with_repeats() {
        let c = Column::Int64(vec![5, 6, 7]);
        let t = c.take(&[2, 0, 2]).unwrap();
        assert_eq!(t.as_int64().unwrap(), &[7, 5, 7]);
        assert!(c.take(&[3]).is_err());
    }

    #[test]
    fn take_on_every_type() {
        let cols = vec![
            Column::Int64(vec![1, 2]),
            Column::Float64(vec![1.0, 2.0]),
            utf8_col(),
            Column::Date(vec![0, 1]),
            Column::Bool(vec![true, false]),
            Column::Vector(Matrix::zeros(2, 3)),
        ];
        for c in cols {
            let t = c.take(&[0]).unwrap();
            assert_eq!(t.len(), 1);
            assert_eq!(t.data_type(), c.data_type());
        }
    }

    #[test]
    fn concat_stacks_every_type_without_growth_slack() {
        let big: Vec<i64> = (0..1000).collect();
        let tail = Column::Int64(vec![7; 3]);
        let Column::Int64(out) = Column::concat(&[&Column::Int64(big), &tail]).unwrap() else {
            panic!("int64 in, int64 out");
        };
        assert_eq!(out.len(), 1003);
        assert_eq!(out[1000..], [7, 7, 7]);
        // a published table version keeps this buffer: no doubling slack
        assert_eq!(out.capacity(), out.len());
        let pairs = vec![
            (Column::Float64(vec![1.0]), Column::Float64(vec![2.0, 3.0])),
            (utf8_col(), utf8_col()),
            (Column::Date(vec![1]), Column::Date(vec![])),
            (Column::Bool(vec![true]), Column::Bool(vec![false])),
            (
                Column::Vector(Matrix::zeros(0, 0)),
                Column::Vector(Matrix::zeros(2, 3)),
            ),
        ];
        for (a, b) in pairs {
            let joined = Column::concat(&[&a, &b]).unwrap();
            assert_eq!(joined.len(), a.len() + b.len());
            assert_eq!(
                joined.get(0).unwrap(),
                a.get(0).or_else(|_| b.get(0)).unwrap()
            );
            assert_eq!(
                joined.get(joined.len() - 1).unwrap(),
                b.get(b.len().max(1) - 1)
                    .or_else(|_| a.get(a.len() - 1))
                    .unwrap()
            );
        }
        assert!(Column::concat(&[]).is_err());
        assert!(Column::concat(&[&Column::Int64(vec![1]), &utf8_col()]).is_err());
    }

    #[test]
    fn extend_appends_in_place_and_checks_types() {
        let mut c = utf8_col();
        c.extend(&Column::Utf8(vec!["d".into()])).unwrap();
        assert_eq!(c.as_utf8().unwrap(), &["a", "b", "c", "d"]);
        assert!(c.extend(&Column::Int64(vec![1])).is_err());
        assert_eq!(c.len(), 4, "a rejected extend leaves the column alone");
        // an empty vector column adopts the width it is given, then holds it
        let mut v = Column::Vector(Matrix::zeros(0, 0));
        v.extend(&Column::Vector(Matrix::zeros(2, 3))).unwrap();
        v.extend(&Column::Vector(Matrix::zeros(0, 9))).unwrap();
        v.extend(&Column::Vector(Matrix::zeros(1, 3))).unwrap();
        assert_eq!(v.data_type(), DataType::Vector(3));
        assert_eq!(v.len(), 3);
        assert!(v.extend(&Column::Vector(Matrix::zeros(1, 4))).is_err());
    }

    #[test]
    fn typed_accessors_enforce_types() {
        assert!(utf8_col().as_utf8().is_ok());
        assert!(utf8_col().as_int64().is_err());
        assert!(Column::Int64(vec![1]).as_int64().is_ok());
        assert!(Column::Float64(vec![1.0]).as_float64().is_ok());
        assert!(Column::Date(vec![1]).as_date().is_ok());
        assert!(Column::Date(vec![1]).as_vectors().is_err());
    }

    #[test]
    fn from_vectors_builds_matrix_column() {
        let c = Column::from_vectors(&[Vector::new(vec![1.0]), Vector::new(vec![2.0])]).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.data_type(), DataType::Vector(1));
        assert!(Column::from_vectors(&[]).is_err());
    }
}
