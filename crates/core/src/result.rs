//! Join results and execution statistics.

use std::time::Duration;

use cej_index::ProbeStats;
use serde::{Deserialize, Serialize};

/// One matched pair produced by a context-enhanced join.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinPair {
    /// Row offset into the (possibly pre-filtered) left input.
    pub left: usize,
    /// Row offset into the (possibly pre-filtered) right input.
    pub right: usize,
    /// Similarity score of the pair.
    pub score: f32,
}

impl JoinPair {
    /// Creates a pair.
    pub fn new(left: usize, right: usize, score: f32) -> Self {
        Self { left, right, score }
    }
}

/// Execution statistics of one join operator invocation.
///
/// These are the quantities the paper's cost model reasons about, made
/// observable: number of model invocations (the `M` term), number of
/// pair-wise similarity evaluations (the `|R|·|S|·C` term), the peak size of
/// the intermediate score buffer (Figure 13's memory axis), and index probe
/// counters where applicable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JoinStats {
    /// Real model invocations performed by (or on behalf of) the operator.
    pub model_calls: u64,
    /// Number of pair-wise similarity evaluations.
    pub pairs_compared: u64,
    /// Peak bytes of intermediate score state held at any one time.
    pub peak_buffer_bytes: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Aggregate index probe counters (index join only).
    pub probe_stats: ProbeStats,
    /// Number of mini-batch block computations performed (tensor join only).
    pub blocks_computed: u64,
    /// Exact fp32 scores computed (tensor join only): `pairs_compared` on
    /// the fp32 block path, only the int8 screen's candidates when it ran.
    /// Whether the screen runs depends on each call's outer rows, so, like
    /// the operator's morsel count, this depends on where the outer side
    /// was cut into morsels; the pairs never do.
    pub pairs_rescored: u64,
    /// Inner rows the int8 screen quantised preparing a tensor join's
    /// inner side, once per join ([`crate::PreparedInner::rows_quantized`],
    /// which the interpreter reports here; a join call quantises none): the
    /// whole side when it is prepared from a matrix, only the embedding
    /// slots never coded before when it is assembled from the codes the
    /// session keeps per slot — 0 on a warm run.
    pub inner_rows_quantized: u64,
}

/// The outcome of a join operator: matched pairs plus statistics.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// Matched pairs.  Order is deterministic for a given operator and input
    /// but differs between operators; use [`JoinResult::sorted_pairs`] to
    /// compare results across operators.
    pub pairs: Vec<JoinPair>,
    /// Execution statistics.
    pub stats: JoinStats,
}

impl JoinResult {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no pairs matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pairs sorted by `(left, right)` — a canonical order for comparing the
    /// output of different physical operators on the same logical join.
    pub fn sorted_pairs(&self) -> Vec<JoinPair> {
        let mut out = self.pairs.clone();
        out.sort_by(|a, b| a.left.cmp(&b.left).then(a.right.cmp(&b.right)));
        out
    }

    /// The set of `(left, right)` index pairs, for equality checks that
    /// ignore score rounding differences between operators.
    pub fn pair_indices(&self) -> Vec<(usize, usize)> {
        self.sorted_pairs()
            .iter()
            .map(|p| (p.left, p.right))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_zero() {
        let s = JoinStats::default();
        assert_eq!(s.model_calls, 0);
        assert_eq!(s.pairs_compared, 0);
        assert_eq!(s.peak_buffer_bytes, 0);
        assert_eq!(s.elapsed, Duration::ZERO);
        assert_eq!(s.blocks_computed, 0);
    }

    #[test]
    fn sorted_pairs_canonical_order() {
        let result = JoinResult {
            pairs: vec![
                JoinPair::new(2, 1, 0.9),
                JoinPair::new(0, 5, 0.8),
                JoinPair::new(2, 0, 0.7),
            ],
            stats: JoinStats::default(),
        };
        assert_eq!(result.len(), 3);
        assert!(!result.is_empty());
        assert_eq!(result.pair_indices(), vec![(0, 5), (2, 0), (2, 1)]);
        assert!(JoinResult::default().is_empty());
    }
}
