//! Distance and similarity metrics over dense vectors.
//!
//! The paper's context-enhanced join is defined over *similarity expressions*
//! between embeddings, with cosine similarity as the running example
//! (Section III-A).  This module provides the metric implementations plus a
//! [`Metric`] enum that operators and indexes use to agree on the comparison
//! semantics.

use serde::{Deserialize, Serialize};

use crate::kernels::{dot_unrolled, l2_norm_unrolled};

/// The similarity / distance metric an operator or index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Metric {
    /// Cosine similarity (higher is more similar, range `[-1, 1]`).
    #[default]
    Cosine,
    /// Raw inner product (higher is more similar).  Equivalent to cosine on
    /// pre-normalised inputs — the equivalence the tensor join exploits, and
    /// the one a cosine HNSW index compares its unit rows and probes by.
    InnerProduct,
    /// Euclidean (L2) distance (lower is more similar).
    Euclidean,
}

impl Metric {
    /// Similarity score under this metric.
    ///
    /// For [`Metric::Euclidean`] the *negated* distance is returned so that
    /// "larger is better" holds for every metric, which keeps top-k selection
    /// uniform across metrics.
    #[inline]
    pub fn similarity(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Cosine => cosine_similarity(a, b),
            Metric::InnerProduct => dot(a, b),
            Metric::Euclidean => -euclidean_distance(a, b),
        }
    }

    /// `true` when larger scores mean "more similar" for the *raw* metric
    /// value (before the sign normalisation applied by [`Metric::similarity`]).
    pub fn higher_is_better(&self) -> bool {
        !matches!(self, Metric::Euclidean)
    }

    /// Whether the metric is invariant to the scale of its inputs.
    pub fn scale_invariant(&self) -> bool {
        matches!(self, Metric::Cosine)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::InnerProduct => "ip",
            Metric::Euclidean => "l2",
        }
    }
}

/// Dot product of two slices (unrolled kernel).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_unrolled(a, b)
}

/// Cosine similarity `A·B / (‖A‖‖B‖)`.
///
/// Returns `0.0` when either input has zero norm, so degenerate embeddings
/// never satisfy a positive similarity threshold.
#[inline]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm_unrolled(a);
    let nb = l2_norm_unrolled(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot_unrolled(a, b) / (na * nb)
}

/// Cosine distance `1 - cos(a, b)`.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// Euclidean (L2) distance between two slices.
#[inline]
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!(approx(cosine_similarity(&a, &b), 1.0));
    }

    #[test]
    fn cosine_of_opposite_vectors_is_minus_one() {
        let a = [1.0, 0.0];
        let b = [-1.0, 0.0];
        assert!(approx(cosine_similarity(&a, &b), -1.0));
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        let a = [0.0, 0.0];
        let b = [1.0, 2.0];
        assert_eq!(cosine_similarity(&a, &b), 0.0);
        assert_eq!(cosine_similarity(&b, &a), 0.0);
    }

    #[test]
    fn cosine_distance_complements_similarity() {
        let a = [0.3, 0.5, -0.2];
        let b = [0.1, 0.9, 0.4];
        assert!(approx(
            cosine_distance(&a, &b),
            1.0 - cosine_similarity(&a, &b)
        ));
    }

    #[test]
    fn euclidean_distance_of_identical_is_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(euclidean_distance(&a, &a), 0.0);
    }

    #[test]
    fn euclidean_distance_matches_manual() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!(approx(euclidean_distance(&a, &b), 5.0));
    }

    #[test]
    fn metric_similarity_sign_convention() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        // all metrics: larger = more similar
        assert!(Metric::Cosine.similarity(&a, &a) > Metric::Cosine.similarity(&a, &b));
        assert!(Metric::InnerProduct.similarity(&a, &a) > Metric::InnerProduct.similarity(&a, &b));
        assert!(Metric::Euclidean.similarity(&a, &a) > Metric::Euclidean.similarity(&a, &b));
    }

    #[test]
    fn inner_product_equals_cosine_on_normalized_inputs() {
        let a = [0.6, 0.8];
        let b = [0.8, 0.6];
        assert!(approx(
            Metric::InnerProduct.similarity(&a, &b),
            Metric::Cosine.similarity(&a, &b)
        ));
    }

    #[test]
    fn metric_metadata() {
        assert!(Metric::Cosine.higher_is_better());
        assert!(Metric::InnerProduct.higher_is_better());
        assert!(!Metric::Euclidean.higher_is_better());
        assert!(Metric::Cosine.scale_invariant());
        assert!(!Metric::InnerProduct.scale_invariant());
        assert_eq!(Metric::Cosine.label(), "cosine");
        assert_eq!(Metric::default(), Metric::Cosine);
    }
}
