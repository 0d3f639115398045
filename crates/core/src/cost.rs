//! The abstract cost model of Section IV.
//!
//! The paper expresses operator costs in terms of relative parameters: `A`
//! (per-tuple data access), `M` (per-tuple model invocation) and `C`
//! (per-pair similarity computation).  The two E-NL Join formulas below are
//! the paper's equations verbatim:
//!
//! * E-NL Join (naive):      `|R| · |S| · (A + M + C)`
//! * E-NLJ + prefetch:       `|R| · |S| · (A + C) + (|R| + |S|) · M`
//!
//! Costs are unitless; what matters is their *ratios*, which is why
//! [`CostParameters`] is expressed relative to `A = 1`.  Nothing plans with
//! them: the operators' measured model-call counts are held to the
//! formulas' counts ([`CostModel::naive_model_calls`],
//! [`CostModel::prefetch_model_calls`]), and the one access-path decision,
//! scan or index probe, is priced in nanoseconds by
//! [`crate::IndexJoin::route`].

use serde::{Deserialize, Serialize};

/// Relative cost parameters (normalised to `access_cost = 1.0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParameters {
    /// Per-tuple data access cost `A`.
    pub access_cost: f64,
    /// Per-tuple model invocation cost `M` (typically ≫ `A`).
    pub model_cost: f64,
    /// Per-pair similarity computation cost `C`.
    pub compute_cost: f64,
}

impl Default for CostParameters {
    fn default() -> Self {
        // Model access is orders of magnitude more expensive than a single
        // vector comparison (the relative magnitudes the paper discusses).
        Self {
            access_cost: 1.0,
            model_cost: 1_000.0,
            compute_cost: 4.0,
        }
    }
}

/// The closed-form cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostModel {
    /// The relative cost parameters.
    pub params: CostParameters,
}

impl CostModel {
    /// Cost of the naive E-NLJ (`|R| · |S| · (A + M + C)`): the model is
    /// invoked for every *pair*.
    pub fn e_nlj_naive(&self, r: usize, s: usize) -> f64 {
        (r as f64)
            * (s as f64)
            * (self.params.access_cost + self.params.model_cost + self.params.compute_cost)
    }

    /// Cost of the prefetch-optimised E-NLJ
    /// (`|R| · |S| · (A + C) + (|R| + |S|) · M`).
    pub fn e_nlj_prefetch(&self, r: usize, s: usize) -> f64 {
        (r as f64) * (s as f64) * (self.params.access_cost + self.params.compute_cost)
            + (r + s) as f64 * self.params.model_cost
    }

    /// The model-invocation *count* of the naive join (`|R| · |S|`) — used by
    /// tests to validate operators against the model, independent of the
    /// relative cost constants.
    pub fn naive_model_calls(r: usize, s: usize) -> u64 {
        (r as u64) * (s as u64)
    }

    /// The model-invocation count of every prefetch-based operator
    /// (`|R| + |S|`).
    pub fn prefetch_model_calls(r: usize, s: usize) -> u64 {
        (r + s) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_are_model_dominated() {
        let p = CostParameters::default();
        assert!(p.model_cost > 100.0 * p.access_cost);
        assert!(p.model_cost > p.compute_cost);
    }

    #[test]
    fn naive_join_cost_is_quadratic_in_inputs() {
        let m = CostModel::default();
        let base = m.e_nlj_naive(100, 100);
        let doubled = m.e_nlj_naive(200, 200);
        assert!((doubled / base - 4.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_is_never_worse_than_naive_beyond_trivial_inputs() {
        // For any inputs where |R|·|S| >= |R| + |S| (i.e. everything except
        // degenerate single-tuple relations) the prefetch formulation cannot
        // lose, because it strictly reduces the number of model invocations.
        let m = CostModel::default();
        for (r, s) in [(2, 2), (10, 10), (100, 1000), (1000, 10), (7, 3)] {
            assert!(m.e_nlj_prefetch(r, s) <= m.e_nlj_naive(r, s) + 1e-9);
        }
    }

    #[test]
    fn prefetch_speedup_grows_with_input_size() {
        // the speed-up the logical optimisation alone is expected to
        // deliver (Figure 8): naive over prefetch cost
        let m = CostModel::default();
        let speedup = |n| m.e_nlj_naive(n, n) / m.e_nlj_prefetch(n, n);
        assert!(speedup(1000) > speedup(10));
        // with model-dominated costs the speed-up is orders of magnitude
        assert!(speedup(1000) > 50.0);
    }

    #[test]
    fn model_call_counts() {
        assert_eq!(CostModel::naive_model_calls(10, 20), 200);
        assert_eq!(CostModel::prefetch_model_calls(10, 20), 30);
    }
}
