//! Recall measurement against the exact baseline.
//!
//! Every place that validates graph quality — the unit tests and the
//! workspace integration tests — asks the same question: *of the exact
//! top-k neighbours, how many does the index recover?*  This module is the
//! single definition of that metric, so the tests cannot silently drift
//! apart.

use cej_vector::Matrix;

use crate::brute_force::BruteForce;
use crate::hnsw::HnswIndex;
use crate::Result;

/// Average top-`k` recall of `index` over the rows of `queries`, measured
/// against an exact [`BruteForce`] scan of `corpus` (the indexed vectors).
///
/// Returns a value in `[0, 1]`.  An empty query matrix has no true
/// neighbours to recover and is defined as recall 0 (not `0 / 0`).
///
/// # Errors
/// Propagates search errors (dimension mismatches, `k == 0`).
pub fn probe_recall(index: &HnswIndex, corpus: &Matrix, queries: &Matrix, k: usize) -> Result<f64> {
    let exact = BruteForce::new(corpus.clone(), index.params().metric);
    let mut hits = 0usize;
    let mut total = 0usize;
    for row in 0..queries.rows() {
        let query = queries.row(row).expect("row in range");
        let approx = index.search(query, k, None)?;
        let truth = exact.search(query, k, None)?;
        let truth_ids: Vec<usize> = truth.iter().map(|e| e.id).collect();
        hits += approx
            .neighbors
            .iter()
            .filter(|e| truth_ids.contains(&e.id))
            .count();
        total += truth.len();
    }
    Ok(hits as f64 / total.max(1) as f64)
}

/// [`probe_recall`] with self-queries: every `step`-th corpus row probes the
/// index built over that same corpus (the pattern the unit and integration
/// tests use).
///
/// # Errors
/// Propagates search errors.
pub fn self_probe_recall(index: &HnswIndex, corpus: &Matrix, k: usize, step: usize) -> Result<f64> {
    let mut queries = Matrix::zeros(0, corpus.cols());
    for row in (0..corpus.rows()).step_by(step.max(1)) {
        queries
            .push_row(corpus.row(row).expect("row in range"))
            .expect("row widths agree");
    }
    probe_recall(index, corpus, &queries, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HnswParams;
    use cej_vector::Vector;

    fn tiny_corpus() -> Matrix {
        let rows: Vec<Vector> = (0..32)
            .map(|i| {
                let angle = i as f32 * 0.2;
                Vector::new(vec![angle.cos(), angle.sin(), 0.1, 0.2])
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn self_probes_of_a_healthy_index_score_high() {
        let corpus = tiny_corpus();
        let index = HnswIndex::build(corpus.clone(), HnswParams::tiny()).unwrap();
        let recall = self_probe_recall(&index, &corpus, 3, 1).unwrap();
        assert!(recall > 0.9, "self-probe recall {recall} unexpectedly low");
    }

    #[test]
    fn empty_queries_define_recall_zero() {
        let corpus = tiny_corpus();
        let index = HnswIndex::build(corpus.clone(), HnswParams::tiny()).unwrap();
        let queries = Matrix::zeros(0, corpus.cols());
        assert_eq!(probe_recall(&index, &corpus, &queries, 3).unwrap(), 0.0);
    }

    #[test]
    fn search_errors_propagate() {
        let corpus = tiny_corpus();
        let index = HnswIndex::build(corpus.clone(), HnswParams::tiny()).unwrap();
        assert!(probe_recall(&index, &corpus, &corpus, 0).is_err());
        let wrong_dim = Matrix::zeros(1, 8);
        assert!(probe_recall(&index, &corpus, &wrong_dim, 1).is_err());
    }
}
