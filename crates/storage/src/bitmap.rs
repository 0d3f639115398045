//! Selection bitmaps (selection vectors).
//!
//! Relational pre-filtering is central to the paper's scan-vs-probe study
//! (Section VI-E): the date predicate produces a selection over each input
//! relation, and the join only considers selected tuples.  A
//! [`SelectionBitmap`] represents such a selection and supports the boolean
//! algebra needed to combine multiple predicates.

use serde::{Deserialize, Serialize};

use crate::error::StorageError;
use crate::Result;

/// A per-row boolean selection over a relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionBitmap {
    bits: Vec<bool>,
}

impl SelectionBitmap {
    /// A bitmap selecting every row of an `len`-row relation.
    pub fn all(len: usize) -> Self {
        Self {
            bits: vec![true; len],
        }
    }

    /// A bitmap selecting no rows.
    pub fn none(len: usize) -> Self {
        Self {
            bits: vec![false; len],
        }
    }

    /// Builds a bitmap from raw booleans.
    pub fn from_bools(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Builds a bitmap of length `len` selecting exactly the given indices.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut bits = vec![false; len];
        for &i in indices {
            if i < len {
                bits[i] = true;
            }
        }
        Self { bits }
    }

    /// Number of rows covered (selected or not).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether row `i` is selected (out-of-range rows are not selected).
    pub fn is_selected(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// Marks row `i` as selected or not.
    ///
    /// # Errors
    /// Returns [`StorageError::RowOutOfBounds`] for out-of-range rows.
    pub fn set(&mut self, i: usize, selected: bool) -> Result<()> {
        if i >= self.bits.len() {
            return Err(StorageError::RowOutOfBounds {
                row: i,
                rows: self.bits.len(),
            });
        }
        self.bits[i] = selected;
        Ok(())
    }

    /// Number of selected rows.
    pub fn count_selected(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Fraction of rows selected (`0.0` for an empty bitmap).
    pub fn selectivity(&self) -> f64 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.count_selected() as f64 / self.bits.len() as f64
        }
    }

    /// Indices of the selected rows, ascending.
    pub fn selected_indices(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect()
    }

    /// Iterates over the selected row indices without allocating.
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
    }

    /// Logical AND with another bitmap of the same length.
    ///
    /// # Errors
    /// Returns [`StorageError::LengthMismatch`] when lengths differ.
    pub fn and(&self, other: &SelectionBitmap) -> Result<SelectionBitmap> {
        if self.len() != other.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(SelectionBitmap {
            bits: self
                .bits
                .iter()
                .zip(other.bits.iter())
                .map(|(a, b)| *a && *b)
                .collect(),
        })
    }

    /// Logical OR with another bitmap of the same length.
    ///
    /// # Errors
    /// Returns [`StorageError::LengthMismatch`] when lengths differ.
    pub fn or(&self, other: &SelectionBitmap) -> Result<SelectionBitmap> {
        if self.len() != other.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(SelectionBitmap {
            bits: self
                .bits
                .iter()
                .zip(other.bits.iter())
                .map(|(a, b)| *a || *b)
                .collect(),
        })
    }

    /// Borrow the raw booleans.
    pub fn as_bools(&self) -> &[bool] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        assert_eq!(SelectionBitmap::all(3).count_selected(), 3);
        assert_eq!(SelectionBitmap::none(3).count_selected(), 0);
        assert!(SelectionBitmap::all(0).is_empty());
    }

    #[test]
    fn from_indices_selects_only_those() {
        let b = SelectionBitmap::from_indices(5, &[1, 3, 99]);
        assert!(b.is_selected(1));
        assert!(b.is_selected(3));
        assert!(!b.is_selected(0));
        assert!(!b.is_selected(99));
        assert_eq!(b.count_selected(), 2);
        assert_eq!(b.selected_indices(), vec![1, 3]);
    }

    #[test]
    fn set_and_bounds() {
        let mut b = SelectionBitmap::none(2);
        b.set(1, true).unwrap();
        assert!(b.is_selected(1));
        assert!(b.set(5, true).is_err());
    }

    #[test]
    fn selectivity_fraction() {
        let b = SelectionBitmap::from_bools(vec![true, false, true, false]);
        assert!((b.selectivity() - 0.5).abs() < 1e-12);
        assert_eq!(SelectionBitmap::all(0).selectivity(), 0.0);
    }

    #[test]
    fn boolean_algebra() {
        let a = SelectionBitmap::from_bools(vec![true, true, false, false]);
        let b = SelectionBitmap::from_bools(vec![true, false, true, false]);
        assert_eq!(a.and(&b).unwrap().as_bools(), &[true, false, false, false]);
        assert_eq!(a.or(&b).unwrap().as_bools(), &[true, true, true, false]);
    }

    #[test]
    fn length_mismatch_errors() {
        let a = SelectionBitmap::all(2);
        let b = SelectionBitmap::all(3);
        assert!(a.and(&b).is_err());
        assert!(a.or(&b).is_err());
    }

    #[test]
    fn iter_selected_matches_selected_indices() {
        let b = SelectionBitmap::from_bools(vec![false, true, true, false, true]);
        let via_iter: Vec<usize> = b.iter_selected().collect();
        assert_eq!(via_iter, b.selected_indices());
    }
}
