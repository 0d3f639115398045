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
//!   gets *dearer* as the selectivity falls.  A range predicate it can only
//!   answer by over-probing with a fixed `k` and post-filtering.
//!
//! Consequently the index only wins when the selectivity is *high* and the
//! graph is large against its search width — the paper reports a crossover
//! around 20-30 % selectivity for top-1 at 10k × 1M.  One function makes the
//! decision, [`crate::IndexJoin::route`], which prices both paths per outer
//! row in nanoseconds from the survivors `S` and the indexed rows `n`.  The
//! planner asks it under [`crate::JoinStrategy::Auto`] with the
//! statistics-estimated `S`, and plans the index only for a top-k whose
//! route walks a base-table index that is (or could stay) resident; a plan
//! that chose the index asks it again per run, with the filter's exact `S`.

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    //! The decision at Figures 15-17's shape: 10k probes against 1M indexed
    //! rows under the default (`low_recall`) index.  The route reads no
    //! outer count, so the 10k appears nowhere.

    use super::*;
    use crate::join::index_join::{IndexJoin, IndexJoinConfig};
    use crate::result::IndexPath;
    use cej_relational::SimilarityPredicate;

    const ROWS: usize = 1_000_000;

    fn route(survivors: usize) -> crate::IndexRoute {
        IndexJoin::new(IndexJoinConfig::default()).route(survivors, ROWS)
    }

    /// The pass ratio at which the walk starts to win, by bisection over
    /// `S` (the route is monotone in `S`).
    fn crossover() -> f64 {
        let (mut scans, mut walks) = (0, ROWS);
        assert_eq!(route(walks).path, IndexPath::Walk);
        while walks - scans > 1 {
            let mid = (scans + walks) / 2;
            match route(mid).path {
                IndexPath::Walk => walks = mid,
                IndexPath::SurvivorScan => scans = mid,
            }
        }
        walks as f64 / ROWS as f64
    }

    #[test]
    fn low_selectivity_prefers_scan_topk1() {
        // Figure 15: below the crossover the pre-filtered scan wins.
        let low = route(ROWS / 20);
        assert_eq!(low.path, IndexPath::SurvivorScan, "{low:?}");
        assert!(low.scan_ns < low.walk_ns);
    }

    #[test]
    fn high_selectivity_prefers_index_topk1() {
        // Figure 15: near 100 % selectivity the index probe wins for top-1.
        let high = route(ROWS);
        assert_eq!(high.path, IndexPath::Walk, "{high:?}");
        assert!(high.walk_ns < high.scan_ns);
    }

    #[test]
    fn topk1_crossover_matches_paper_band() {
        let crossover = crossover();
        assert!(
            (0.1..=0.45).contains(&crossover),
            "top-1 crossover {crossover} should land in the paper's 20-30% band (±)"
        );
    }

    #[test]
    fn range_predicate_prefers_scan_even_at_full_selectivity() {
        // Figure 17: a walk answers a range predicate by probing a fixed
        // top k and post-filtering, an approximation the scan does not
        // make, so Auto never walks one — where a top-1 over the same
        // rows walks (`Auto`'s first condition, before any price)
        let big = crate::planner::tests::Big::new();
        let (range, range_route) = big.auto(95, SimilarityPredicate::Threshold(0.5));
        let (top_1, top_1_route) = big.auto(95, SimilarityPredicate::TopK(1));
        assert_eq!(
            (range_route.path, top_1_route.path),
            (IndexPath::Walk, IndexPath::Walk)
        );
        assert_eq!(range, AccessPath::TensorScan);
        assert_eq!(top_1, AccessPath::IndexProbe);
    }

    #[test]
    fn the_scan_price_falls_with_selectivity_and_the_walk_price_rises() {
        // the scan scores only the survivors; a filtered walk scores
        // `D̂ · n / S` rows to fill its list, so it gets dearer as fewer pass
        let (lo, hi) = (route(ROWS / 10), route(ROWS));
        assert!(hi.scan_ns > 5 * lo.scan_ns);
        assert!(lo.walk_ns > 5 * hi.walk_ns);
    }

    #[test]
    fn the_walk_price_carries_no_build_term() {
        // building an n-row graph inserts every row, so a build term would
        // grow the walk's price at least linearly in n; the unfiltered walk
        // grows as `log2 n` (and `c_dist(n)`), the scan as n
        let join = IndexJoin::default();
        let (small, large) = (join.route(ROWS / 10, ROWS / 10), route(ROWS));
        assert_eq!(large.scan_ns, 10 * small.scan_ns);
        assert!(large.walk_ns < 2 * small.walk_ns, "{small:?} {large:?}");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        // an empty table prices both paths at nothing, and is not walked:
        // there is no graph to build
        let join = IndexJoin::default();
        let empty = join.route(0, 0);
        let scans = (IndexPath::SurvivorScan, 0, 0);
        assert_eq!((empty.path, empty.scan_ns, empty.walk_ns), scans);
        for (survivors, rows) in [(0, 1), (1, 1)] {
            assert_eq!(join.route(survivors, rows).path, IndexPath::SurvivorScan);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(AccessPath::TensorScan.label(), "tensor-scan");
        assert_eq!(AccessPath::IndexProbe.label(), "index-probe");
    }
}
