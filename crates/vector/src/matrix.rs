//! Row-major dense matrix holding batches of embeddings.

use serde::{Deserialize, Serialize};

use crate::error::VectorError;
use crate::vector::Vector;
use crate::Result;

/// A dense, row-major `f32` matrix.
///
/// In the tensor join formulation (paper Section IV-C, Figure 6) both join
/// inputs are materialised as matrices with **one embedding per row**:
/// an `|R| × d` matrix for the outer relation and an `|S| × d` matrix for the
/// inner relation.  The similarity matrix is then computed block-wise as
/// `R · Sᵀ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`VectorError::RaggedData`] when `data.len()` is not
    /// `rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(VectorError::RaggedData {
                len: data.len(),
                width: cols,
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix whose rows are the given vectors.
    ///
    /// # Errors
    /// Returns [`VectorError::Empty`] for an empty input and
    /// [`VectorError::DimensionMismatch`] when rows disagree on dimension.
    pub fn from_rows(rows: &[Vector]) -> Result<Self> {
        let first = rows.first().ok_or(VectorError::Empty("matrix rows"))?;
        let cols = first.dim();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.dim() != cols {
                return Err(VectorError::DimensionMismatch {
                    left: cols,
                    right: row.dim(),
                });
            }
            data.extend_from_slice(row.as_slice());
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows (tuples / embeddings).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (embedding dimensionality).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrows the full row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the full row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Errors
    /// Returns [`VectorError::IndexOutOfBounds`] when `i >= rows`.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        if i >= self.rows {
            return Err(VectorError::IndexOutOfBounds {
                index: i,
                len: self.rows,
            });
        }
        Ok(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Mutably borrows row `i`.
    ///
    /// # Errors
    /// Returns [`VectorError::IndexOutOfBounds`] when `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> Result<&mut [f32]> {
        if i >= self.rows {
            return Err(VectorError::IndexOutOfBounds {
                index: i,
                len: self.rows,
            });
        }
        Ok(&mut self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Copies row `i` into an owned [`Vector`].
    ///
    /// # Errors
    /// Returns [`VectorError::IndexOutOfBounds`] when `i >= rows`.
    pub fn row_vector(&self, i: usize) -> Result<Vector> {
        Ok(Vector::new(self.row(i)?.to_vec()))
    }

    /// Returns a new matrix consisting of rows `[start, end)`.
    ///
    /// This is the tuple-boundary partitioning used for mini-batching
    /// (paper Section V-B): partitions are along tuples, never dimensions.
    ///
    /// # Errors
    /// Returns [`VectorError::IndexOutOfBounds`] when the range is invalid.
    pub fn row_slice(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.rows {
            return Err(VectorError::IndexOutOfBounds {
                index: end,
                len: self.rows,
            });
        }
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    /// Borrows rows `[start, end)` as a contiguous slice (no copy).
    ///
    /// # Errors
    /// Returns [`VectorError::IndexOutOfBounds`] when the range is invalid.
    pub fn rows_as_slice(&self, start: usize, end: usize) -> Result<&[f32]> {
        if start > end || end > self.rows {
            return Err(VectorError::IndexOutOfBounds {
                index: end,
                len: self.rows,
            });
        }
        Ok(&self.data[start * self.cols..end * self.cols])
    }

    /// Appends a row to the matrix.
    ///
    /// # Errors
    /// Returns [`VectorError::DimensionMismatch`] when the row width differs
    /// (an empty matrix adopts the width of its first row).
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(VectorError::DimensionMismatch {
                left: self.cols,
                right: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Gathers the rows named by a selection vector into a new compact
    /// matrix (one output row per selected lane, in lane order; repeats are
    /// allowed).
    ///
    /// This is the columnar compaction step of the vectorised executor: a
    /// batch's surviving lanes are materialised in one pass instead of
    /// row-at-a-time `push_row` calls.
    ///
    /// # Errors
    /// Returns [`VectorError::IndexOutOfBounds`] when a lane exceeds the row
    /// count.
    pub fn gather_rows(&self, sel: &[u32]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(sel.len() * self.cols);
        for &lane in sel {
            let row = lane as usize;
            if row >= self.rows {
                return Err(VectorError::IndexOutOfBounds {
                    index: row,
                    len: self.rows,
                });
            }
            data.extend_from_slice(&self.data[row * self.cols..(row + 1) * self.cols]);
        }
        Ok(Matrix {
            rows: sel.len(),
            cols: self.cols,
            data,
        })
    }

    /// Memory footprint of the value buffer, in bytes.
    ///
    /// Used by Figure 13's memory-requirement accounting.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_flat(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(2, 5);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.as_slice().len(), 10);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 5).is_empty());
    }

    #[test]
    fn from_flat_rejects_ragged() {
        assert!(matches!(
            Matrix::from_flat(2, 3, vec![1.0; 5]),
            Err(VectorError::RaggedData { .. })
        ));
    }

    #[test]
    fn from_rows_builds_row_major() {
        let m =
            Matrix::from_rows(&[Vector::new(vec![1.0, 2.0]), Vector::new(vec![3.0, 4.0])]).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_mixed_dims_and_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[Vector::zeros(2), Vector::zeros(3)]).is_err());
    }

    #[test]
    fn row_access() {
        let m = sample();
        assert_eq!(m.row(1).unwrap(), &[3.0, 4.0]);
        assert!(m.row(3).is_err());
        assert_eq!(m.row_vector(2).unwrap().as_slice(), &[5.0, 6.0]);
    }

    #[test]
    fn row_mut_modifies() {
        let mut m = sample();
        m.row_mut(0).unwrap()[1] = 9.0;
        assert_eq!(m.row(0).unwrap(), &[1.0, 9.0]);
        assert!(m.row_mut(5).is_err());
    }

    #[test]
    fn row_slice_copies_range() {
        let m = sample();
        let s = m.row_slice(1, 3).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert!(m.row_slice(2, 1).is_err());
        assert!(m.row_slice(0, 4).is_err());
    }

    #[test]
    fn rows_as_slice_is_borrowed_view() {
        let m = sample();
        assert_eq!(m.rows_as_slice(0, 2).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(m.rows_as_slice(0, 4).is_err());
    }

    #[test]
    fn push_row_grows_and_checks_width() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0, 3.0]).unwrap();
        m.push_row(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn bytes_accounts_buffer() {
        assert_eq!(sample().bytes(), 6 * 4);
    }

    #[test]
    fn gather_rows_compacts_selected_lanes() {
        let m = sample();
        let g = m.gather_rows(&[2, 0, 0]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 2);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 1.0, 2.0]);
        let empty = m.gather_rows(&[]).unwrap();
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.cols(), 2);
        assert!(m.gather_rows(&[3]).is_err());
    }
}
