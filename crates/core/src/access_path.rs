//! Access-path selection: scan-based tensor join vs. index-probe join.
//!
//! The paper frames the choice between its scan-based tensor join and a
//! vector-index join as an access path selection problem in the tradition of
//! Kester et al. (Section IV-B, VI-E).  The experimental setup of
//! Figures 15-17 is: an outer relation of probe vectors joins a large indexed
//! inner relation, and a relational predicate *on the inner relation* controls
//! selectivity.  The two paths react very differently to that selectivity:
//!
//! * the **scan** (tensor join) pre-filters the inner relation, so its cost
//!   shrinks linearly with the selectivity;
//! * the **index probe** walks the graph with the filter: in the paper's
//!   vector databases pre-filtering only drops results, so a probe's cost is
//!   flat in the selectivity; in this engine the walk admits only passing
//!   rows into its results and goes further the fewer rows pass, so a probe
//!   gets *dearer* as the selectivity falls.  Either way its cost grows with
//!   `k` (and degrades further for range predicates, which it can only
//!   answer by over-probing with a fixed `k` and post-filtering).
//!
//! Consequently the index only wins when the selectivity is *high* (most of
//! the inner relation qualifies) and `k` is small — the paper reports a
//! crossover around 20-30 % selectivity for top-1, around 80 % for top-32
//! with the low-recall index, and essentially never for the high-recall index
//! or range predicates.  [`AccessPathAdvisor`] makes that decision at plan
//! time with the closed-form [`CostModel`], whose probe term is the paper's
//! flat one.  A plan that chose the index makes it again at run time, with
//! the filter's exact survivor count and both paths priced in nanoseconds
//! ([`crate::IndexJoin::route`]).

use serde::{Deserialize, Serialize};

use cej_relational::SimilarityPredicate;

use crate::cost::CostModel;

/// The physical access path chosen for a context-enhanced join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPath {
    /// Exhaustive scan with the tensor join (with relational pre-filtering).
    TensorScan,
    /// HNSW index probes, the relational filter applied inside the walk (or,
    /// when scanning the rows that pass it is priced cheaper, an exact scan
    /// of those rows).
    IndexProbe,
}

impl AccessPath {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AccessPath::TensorScan => "tensor-scan",
            AccessPath::IndexProbe => "index-probe",
        }
    }
}

/// Inputs to an access-path decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessPathQuery {
    /// Number of outer tuples (probes) after relational filtering.
    pub outer_rows: usize,
    /// Number of inner tuples (the indexed / scanned side).
    pub inner_rows: usize,
    /// Fraction of the *inner* relation selected by relational predicates —
    /// the selectivity axis of Figures 15-17.
    pub inner_selectivity: f64,
    /// The join predicate.
    pub predicate: SimilarityPredicate,
    /// Whether an index on the inner relation already exists (otherwise the
    /// build cost counts against the probe path).
    pub index_available: bool,
}

impl AccessPathQuery {
    /// Convenience constructor with full selectivity and an existing index.
    pub fn new(outer_rows: usize, inner_rows: usize, predicate: SimilarityPredicate) -> Self {
        Self {
            outer_rows,
            inner_rows,
            inner_selectivity: 1.0,
            predicate,
            index_available: true,
        }
    }
}

/// The advisor that picks an access path.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AccessPathAdvisor {
    /// The cost model used for the scan-vs-probe comparison.
    pub cost_model: CostModel,
}

impl AccessPathAdvisor {
    /// Creates an advisor with an explicit cost model.
    pub fn new(cost_model: CostModel) -> Self {
        Self { cost_model }
    }

    /// Estimated cost of the scan path: the tensor join compares every probe
    /// against the *pre-filtered* inner relation.
    pub fn scan_cost(&self, query: &AccessPathQuery) -> f64 {
        let p = &self.cost_model.params;
        let filtered_inner =
            (query.inner_rows as f64 * query.inner_selectivity.clamp(0.0, 1.0)).max(1.0);
        query.outer_rows as f64 * filtered_inner * (p.access_cost + p.compute_cost)
    }

    /// Estimated cost of the probe path: one graph traversal per probe,
    /// priced flat in the relational selectivity as the paper's
    /// post-filtering vector databases pay it (this engine's filtered walk
    /// gets dearer as fewer rows pass; the run-time route prices that,
    /// [`crate::IndexJoin::route`]), scaled by the top-k size (and a
    /// further penalty for range predicates, which over-probe and
    /// post-filter), plus the index build when no index exists.
    pub fn probe_cost(&self, query: &AccessPathQuery) -> f64 {
        let p = &self.cost_model.params;
        let per_probe = p.index_probe_cost * (1.0 + (query.inner_rows.max(2) as f64).ln());
        let k_factor = match query.predicate {
            SimilarityPredicate::TopK(k) => 1.0 + (k.max(1) as f64).ln(),
            // Range predicates probe with a fixed k (32 in the paper) and
            // post-filter, and lose the index's build-time distance
            // assumptions — Figure 17 shows them uncompetitive.
            SimilarityPredicate::Threshold(_) => (1.0 + 32.0f64.ln()) * 4.0,
        };
        let mut cost =
            query.outer_rows as f64 * per_probe * (p.access_cost + p.compute_cost) * k_factor;
        if !query.index_available {
            // Building HNSW costs roughly efConstruction · log(n) distance
            // computations per inserted vector.
            cost += query.inner_rows as f64
                * p.index_probe_cost
                * (1.0 + (query.inner_rows.max(2) as f64).ln())
                * 0.05;
        }
        cost
    }

    /// Chooses an access path for the given query shape.
    pub fn choose(&self, query: &AccessPathQuery) -> AccessPath {
        if self.probe_cost(query) < self.scan_cost(query) {
            AccessPath::IndexProbe
        } else {
            AccessPath::TensorScan
        }
    }

    /// The selectivity at which the two paths cost the same (holding the
    /// other query parameters fixed) — the "crossover" the paper reports per
    /// figure.  Returns a value above 1.0 when the index never wins.
    pub fn crossover_selectivity(&self, query: &AccessPathQuery) -> f64 {
        let p = &self.cost_model.params;
        let probe = self.probe_cost(query);
        let per_selectivity =
            query.outer_rows as f64 * query.inner_rows as f64 * (p.access_cost + p.compute_cost);
        if per_selectivity == 0.0 {
            return f64::INFINITY;
        }
        probe / per_selectivity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(
        outer_rows: usize,
        inner_rows: usize,
        selectivity: f64,
        predicate: SimilarityPredicate,
    ) -> AccessPathQuery {
        AccessPathQuery {
            outer_rows,
            inner_rows,
            inner_selectivity: selectivity,
            predicate,
            index_available: true,
        }
    }

    #[test]
    fn low_selectivity_prefers_scan_topk1() {
        // Figure 15: below the ~20-30% crossover the pre-filtered scan wins.
        let advisor = AccessPathAdvisor::default();
        let q = query(10_000, 1_000_000, 0.05, SimilarityPredicate::TopK(1));
        assert_eq!(advisor.choose(&q), AccessPath::TensorScan);
    }

    #[test]
    fn high_selectivity_prefers_index_topk1() {
        // Figure 15: near 100% selectivity the index probe wins for top-1.
        let advisor = AccessPathAdvisor::default();
        let q = query(10_000, 1_000_000, 1.0, SimilarityPredicate::TopK(1));
        assert_eq!(advisor.choose(&q), AccessPath::IndexProbe);
    }

    #[test]
    fn topk1_crossover_matches_paper_band() {
        let advisor = AccessPathAdvisor::default();
        let q = query(10_000, 1_000_000, 1.0, SimilarityPredicate::TopK(1));
        let crossover = advisor.crossover_selectivity(&q);
        assert!(
            (0.1..=0.45).contains(&crossover),
            "top-1 crossover {crossover} should land in the paper's 20-30% band (±)"
        );
    }

    #[test]
    fn larger_k_shifts_crossover_towards_full_selectivity() {
        // Figure 16: top-32 crosses over only around 80%+ selectivity.
        let advisor = AccessPathAdvisor::default();
        let q1 = query(10_000, 1_000_000, 1.0, SimilarityPredicate::TopK(1));
        let q32 = query(10_000, 1_000_000, 1.0, SimilarityPredicate::TopK(32));
        let c1 = advisor.crossover_selectivity(&q1);
        let c32 = advisor.crossover_selectivity(&q32);
        assert!(
            c32 > c1 * 2.0,
            "top-32 crossover {c32} should be far above top-1 {c1}"
        );
        assert!(
            c32 > 0.6,
            "top-32 crossover {c32} should sit in the high-selectivity range"
        );
        // at moderate selectivity top-32 therefore picks the scan
        let q32_mid = query(10_000, 1_000_000, 0.5, SimilarityPredicate::TopK(32));
        assert_eq!(advisor.choose(&q32_mid), AccessPath::TensorScan);
    }

    #[test]
    fn range_predicate_prefers_scan_even_at_full_selectivity() {
        // Figure 17: the range predicate makes the index uncompetitive.
        let advisor = AccessPathAdvisor::default();
        let q = query(10_000, 1_000_000, 1.0, SimilarityPredicate::Threshold(0.9));
        assert_eq!(advisor.choose(&q), AccessPath::TensorScan);
        assert!(advisor.crossover_selectivity(&q) > 1.0);
    }

    #[test]
    fn missing_index_charges_build_cost() {
        let advisor = AccessPathAdvisor::default();
        let mut q = query(10_000, 200_000, 0.9, SimilarityPredicate::TopK(1));
        q.index_available = true;
        let with_index = advisor.probe_cost(&q);
        q.index_available = false;
        let without_index = advisor.probe_cost(&q);
        assert!(without_index > with_index);
    }

    #[test]
    fn scan_cost_scales_with_selectivity_but_probe_cost_does_not() {
        let advisor = AccessPathAdvisor::default();
        let lo = query(1_000, 1_000_000, 0.1, SimilarityPredicate::TopK(1));
        let hi = query(1_000, 1_000_000, 1.0, SimilarityPredicate::TopK(1));
        assert!(advisor.scan_cost(&hi) > 5.0 * advisor.scan_cost(&lo));
        assert!((advisor.probe_cost(&hi) - advisor.probe_cost(&lo)).abs() < 1e-6);
    }

    #[test]
    fn convenience_constructor_and_labels() {
        let q = AccessPathQuery::new(10, 100, SimilarityPredicate::TopK(2));
        assert_eq!(q.inner_selectivity, 1.0);
        assert!(q.index_available);
        assert_eq!(AccessPath::TensorScan.label(), "tensor-scan");
        assert_eq!(AccessPath::IndexProbe.label(), "index-probe");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let advisor = AccessPathAdvisor::default();
        let q = query(0, 0, 0.0, SimilarityPredicate::TopK(1));
        let _ = advisor.choose(&q);
        assert!(advisor.crossover_selectivity(&q).is_infinite());
    }
}
