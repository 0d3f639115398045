//! Buffer budgets for mini-batched execution.
//!
//! The naive tensor join materialises the full `|R| × |S|` score matrix,
//! which for two 100 k-row inputs is 40 GB of FP32 (paper Section V-B).  The
//! paper's remedy is to partition both inputs along tuple boundaries into
//! mini-batches so that each intermediate block fits a caller-supplied buffer
//! budget (Figure 7).  This module derives those mini-batch shapes.

use serde::{Deserialize, Serialize};

/// A byte budget for the intermediate score matrix of the tensor join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferBudget {
    /// Maximum number of bytes the intermediate block may occupy.
    pub bytes: usize,
}

impl BufferBudget {
    /// A budget of `bytes` bytes.
    pub fn from_bytes(bytes: usize) -> Self {
        Self { bytes }
    }

    /// A budget of `mib` mebibytes.
    pub fn from_mib(mib: usize) -> Self {
        Self {
            bytes: mib * 1024 * 1024,
        }
    }

    /// An effectively unlimited budget (the "No Batch" configuration of
    /// Figure 13).
    pub fn unlimited() -> Self {
        Self { bytes: usize::MAX }
    }

    /// Maximum number of `f32` cells the intermediate block may hold.
    pub fn max_cells(&self) -> usize {
        self.bytes / std::mem::size_of::<f32>()
    }

    /// Derives (outer, inner) mini-batch row counts for joining `outer_rows`
    /// with `inner_rows` so that `outer_batch * inner_batch` score cells fit
    /// within the budget.
    ///
    /// The split keeps batches roughly square (both sides get ~√cells) but
    /// never exceeds the actual relation sizes, and always returns at least
    /// one row per side so progress is guaranteed even under a tiny budget.
    pub fn batch_shape(&self, outer_rows: usize, inner_rows: usize) -> (usize, usize) {
        if outer_rows == 0 || inner_rows == 0 {
            return (outer_rows.max(1), inner_rows.max(1));
        }
        let cells = self.max_cells().max(1);
        if outer_rows.saturating_mul(inner_rows) <= cells {
            return (outer_rows, inner_rows);
        }
        let side = (cells as f64).sqrt().floor() as usize;
        let mut inner = side.clamp(1, inner_rows);
        let mut outer = (cells / inner).clamp(1, outer_rows);
        // If one side is smaller than the square side, give the freed capacity
        // to the other side.
        if inner == inner_rows {
            outer = (cells / inner).clamp(1, outer_rows);
        } else if outer == outer_rows {
            inner = (cells / outer).clamp(1, inner_rows);
        }
        (outer.max(1), inner.max(1))
    }

    /// Intermediate-state bytes required by a `(outer, inner)` block shape.
    pub fn block_bytes(outer: usize, inner: usize) -> usize {
        outer * inner * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_splits() {
        let b = BufferBudget::unlimited();
        assert_eq!(b.batch_shape(100_000, 100_000), (100_000, 100_000));
    }

    #[test]
    fn budget_shape_fits_budget() {
        let b = BufferBudget::from_mib(1); // 262144 cells
        let (o, i) = b.batch_shape(100_000, 100_000);
        assert!(o * i <= b.max_cells());
        assert!(o >= 1 && i >= 1);
    }

    #[test]
    fn budget_small_relations_untouched() {
        let b = BufferBudget::from_mib(64);
        assert_eq!(b.batch_shape(100, 200), (100, 200));
    }

    #[test]
    fn budget_asymmetric_relations() {
        let b = BufferBudget::from_bytes(4 * 1000); // 1000 cells
        let (o, i) = b.batch_shape(10, 100_000);
        assert!(o * i <= 1000);
        assert!(o >= 1 && i >= 1);
        // the small side should not be shrunk below its size unnecessarily
        assert!(o <= 10);
    }

    #[test]
    fn budget_tiny_always_progresses() {
        let b = BufferBudget::from_bytes(1);
        let (o, i) = b.batch_shape(50, 60);
        assert_eq!((o, i), (1, 1));
    }

    #[test]
    fn block_bytes_accounting() {
        assert_eq!(BufferBudget::block_bytes(10, 20), 800);
    }

    #[test]
    fn from_mib_conversion() {
        assert_eq!(BufferBudget::from_mib(2).bytes, 2 * 1024 * 1024);
        assert_eq!(BufferBudget::from_mib(1).max_cells(), 262_144);
    }
}
