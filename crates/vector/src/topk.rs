//! Top-k selection over scored candidates.
//!
//! Index probes (HNSW) and top-k join predicates both need "keep the k best
//! scores seen so far".  [`TopK`] is a small bounded max-collector built on a
//! binary min-heap keyed by score, with deterministic tie-breaking on the id
//! so results are reproducible across runs.
//!
//! A score row (one outer tuple against a block of inner tuples) is mostly
//! scores that fail the predicate.  [`scan_at_least`] is the harvest
//! primitive that skips them eight at a time (an AVX2 compare where the CPU
//! has it); [`TopK::push_row`] and the threshold harvests of the tensor join
//! are built on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::kernels::UNROLL_LANES;

/// A scored candidate kept by [`TopK`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// Identifier of the candidate (row offset, node id, ...).
    pub id: usize,
    /// Similarity score (larger is better).
    pub score: f32,
}

impl TopKEntry {
    /// Creates a new entry.
    pub fn new(id: usize, score: f32) -> Self {
        Self { id, score }
    }
}

/// Reverse ordering wrapper so `BinaryHeap` (a max-heap) behaves as a
/// min-heap on score: the root is always the *worst* kept candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinByScore(TopKEntry);

impl Eq for MinByScore {}

impl Ord for MinByScore {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed comparison on score, ties broken by id (reversed too so the
        // heap root is the entry we'd evict first: lowest score, largest id).
        other
            .0
            .score
            .partial_cmp(&self.0.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for MinByScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Entries a [`TopK`] reserves up front at most; a larger `k` grows the
/// heap as entries arrive, so a collector never reserves more than its
/// caller can fill (1 MiB of entries).
const MAX_RESERVED: usize = 1 << 16;

/// Bounded collector retaining the `k` highest-scoring entries.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<MinByScore>,
}

impl TopK {
    /// Creates a collector for the best `k` entries.  `k == 0` collects
    /// nothing; any `k` is accepted, and at most `MAX_RESERVED` (65,536)
    /// entries are reserved up front.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(MAX_RESERVED) + 1),
        }
    }

    /// Offers a candidate; it is kept only if it beats the current k-th best.
    ///
    /// An unfilled collector keeps a NaN score like any other; the heap order
    /// is then no longer total and which entries later pushes evict is
    /// unspecified (deterministic, but not "the k best").
    pub fn push(&mut self, id: usize, score: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(MinByScore(TopKEntry::new(id, score)));
            return;
        }
        let worst = self.heap.peek().expect("non-empty heap").0;
        if score > worst.score || (score == worst.score && id < worst.id) {
            self.heap.pop();
            self.heap.push(MinByScore(TopKEntry::new(id, score)));
        }
    }

    /// Offers `scores[i]` under id `first_id + i` for every `i`, with the
    /// outcome of calling [`TopK::push`] on each in ascending order.  Once
    /// the collector is full only scores that reach its current k-th best
    /// are looked at individually ([`scan_at_least`]).
    ///
    /// The equivalence rests on the k-th best never falling, which holds
    /// while the kept scores are totally ordered.  A NaN kept by an unfilled
    /// collector breaks that order (it compares equal to everything): a
    /// later push can then surface a kept score *below* the k-th best seen
    /// so far, and which entries survive is unspecified — for this method as
    /// for [`TopK::push`].  What this method still guarantees in that state
    /// is [`scan_at_least`]'s precondition: the bound it scans against never
    /// falls, so no score under a bound once in force is admitted later in
    /// the row.  A NaN offered to a full collector is always refused.
    pub fn push_row(&mut self, first_id: usize, scores: &[f32]) {
        // an unfilled collector keeps whatever comes, NaN included
        let fill = (self.k - self.heap.len()).min(scores.len());
        for (i, &score) in scores[..fill].iter().enumerate() {
            self.push(first_id + i, score);
        }
        let Some(mut bound) = self.threshold() else {
            return;
        };
        scan_at_least(&scores[fill..], bound, |i, score| {
            self.push(first_id + fill + i, score);
            // `f32::max` keeps `bound` when the new worst is lower or NaN
            bound = bound.max(self.heap.peek().map_or(bound, |worst| worst.0.score));
            bound
        });
    }

    /// Current worst kept score, if the collector is full.
    pub fn threshold(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|e| e.0.score)
        }
    }

    /// Number of entries currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector and returns entries sorted by descending score
    /// (ties broken by ascending id).
    pub fn into_sorted(self) -> Vec<TopKEntry> {
        let mut entries: Vec<TopKEntry> = self.heap.into_iter().map(|e| e.0).collect();
        entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        entries
    }
}

/// Score-row harvest: calls `visit(i, scores[i])`, in ascending `i`, for
/// exactly those scores that are `>=` the bound in force when `i` is
/// reached.  The bound starts at `bound` and `visit` returns the one to use
/// from there on, which must not be lower (a top-k collector's k-th best
/// only rises — [`TopK::push_row`] clamps it so that this holds even after a
/// NaN was kept; a threshold harvest returns its threshold).  NaN is never
/// visited.
///
/// The row is walked in 8-lane groups: one branch-free compare produces a
/// bit mask per group and only set bits are visited, so a row of
/// non-qualifying scores costs a compare per group instead of a branch per
/// score.  The CPU picks the compare once
/// ([`SimdIsa::detect`](crate::kernels::SimdIsa::detect)): with AVX2
/// it is one `vcmpps` + `vmovmskps` per group (`crate::avx2`), elsewhere
/// the portable loop of eight scalar compares; both walk the same set bits
/// and re-check them against the same bound, so `visit` sees the same
/// calls.  Every harvest shares it — the fp32 block path's and the int8
/// screen's, threshold and top-k alike.
#[inline]
pub fn scan_at_least(scores: &[f32], bound: f32, visit: impl FnMut(usize, f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::SimdIsa::detect() == crate::kernels::SimdIsa::Avx2 {
        // SAFETY: `SimdIsa::detect` returned `Avx2`, i.e. the running CPU
        // has the feature the callee is compiled for.
        unsafe { crate::avx2::scan_at_least(scores, bound, visit) };
        return;
    }
    scan_groups(scores, bound, visit, portable_mask);
}

/// The portable group compare: bit `l` is set iff `group[l] >= bound`.
#[inline(always)]
pub(crate) fn portable_mask(group: &[f32; UNROLL_LANES], bound: f32) -> u32 {
    let mut mask = 0u32;
    for (lane, &score) in group.iter().enumerate() {
        mask |= u32::from(score >= bound) << lane;
    }
    mask
}

/// [`scan_at_least`]'s walk with `group_mask` as the compare of an 8-lane
/// group against the bound in force at the group's start; the tail is
/// compared score by score.
#[inline(always)]
pub(crate) fn scan_groups(
    scores: &[f32],
    mut bound: f32,
    mut visit: impl FnMut(usize, f32) -> f32,
    group_mask: impl Fn(&[f32; UNROLL_LANES], f32) -> u32,
) {
    let mut groups = scores.chunks_exact(UNROLL_LANES);
    let mut base = 0usize;
    for group in &mut groups {
        let group: &[f32; UNROLL_LANES] = group.try_into().expect("chunks_exact(8) yields 8");
        let mut mask = group_mask(group, bound);
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // the mask saw the bound of the group's start; it may have risen
            if group[lane] >= bound {
                bound = visit(base + lane, group[lane]);
            }
        }
        base += UNROLL_LANES;
    }
    for (i, &score) in groups.remainder().iter().enumerate() {
        if score >= bound {
            bound = visit(base + i, score);
        }
    }
}

/// Convenience: select the `k` highest scores of an iterator of `(id, score)`.
pub fn top_k<I: IntoIterator<Item = (usize, f32)>>(k: usize, items: I) -> Vec<TopKEntry> {
    let mut collector = TopK::new(k);
    for (id, score) in items {
        collector.push(id, score);
    }
    collector.into_sorted()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn an_unbounded_k_reserves_a_bounded_heap_and_keeps_everything() {
        let mut all = TopK::new(usize::MAX);
        assert!(all.heap.capacity() <= MAX_RESERVED + 1);
        for id in 0..3 * MAX_RESERVED {
            all.push(id, (id % 7) as f32);
        }
        assert_eq!(all.threshold(), None);
        let kept = all.into_sorted();
        assert_eq!(kept.len(), 3 * MAX_RESERVED);
        assert_eq!((kept[0].id, kept[0].score), (6, 6.0));
    }

    #[test]
    fn keeps_best_k() {
        let scores = vec![(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7), (4, 0.2)];
        let best = top_k(2, scores);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].id, 1);
        assert_eq!(best[1].id, 3);
    }

    #[test]
    fn k_zero_keeps_nothing() {
        let best = top_k(0, vec![(0, 1.0), (1, 2.0)]);
        assert!(best.is_empty());
    }

    #[test]
    fn fewer_items_than_k() {
        let best = top_k(10, vec![(0, 0.3), (1, 0.8)]);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].id, 1);
    }

    #[test]
    fn sorted_descending_with_deterministic_ties() {
        let best = top_k(3, vec![(5, 0.5), (2, 0.5), (9, 0.5), (1, 0.5)]);
        assert_eq!(best.len(), 3);
        // ties broken by smallest id kept and ascending id in output
        assert_eq!(best.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 5]);
    }

    #[test]
    fn threshold_tracks_worst_kept() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), None);
        tk.push(0, 0.4);
        assert_eq!(tk.threshold(), None);
        tk.push(1, 0.9);
        assert_eq!(tk.threshold(), Some(0.4));
        tk.push(2, 0.6);
        assert_eq!(tk.threshold(), Some(0.6));
        assert_eq!(tk.len(), 2);
        assert!(!tk.is_empty());
    }

    #[test]
    fn negative_scores_supported() {
        let best = top_k(2, vec![(0, -0.5), (1, -0.1), (2, -0.9)]);
        assert_eq!(best[0].id, 1);
        assert_eq!(best[1].id, 0);
    }

    #[test]
    fn large_input_matches_sort() {
        let items: Vec<(usize, f32)> = (0..1000)
            .map(|i| (i, ((i * 7919) % 1000) as f32 / 1000.0))
            .collect();
        let mut expected = items.clone();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let got = top_k(25, items);
        let expected_ids: Vec<usize> = expected[..25].iter().map(|e| e.0).collect();
        let got_ids: Vec<usize> = got.iter().map(|e| e.id).collect();
        assert_eq!(got_ids, expected_ids);
    }

    /// Scores with many exact ties, plus NaN and infinities when asked.
    fn tied_scores(n: usize, seed: u32, special: bool) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                match (state >> 8) % 16 {
                    0 if special => f32::NAN,
                    1 if special => f32::INFINITY,
                    2 if special => f32::NEG_INFINITY,
                    3 if special => -0.0,
                    v => (v % 5) as f32 * 0.25,
                }
            })
            .collect()
    }

    fn heap_bits(collector: TopK) -> Vec<(usize, u32)> {
        let entries = collector.heap.into_vec();
        entries
            .iter()
            .map(|e| (e.0.id, e.0.score.to_bits()))
            .collect()
    }

    /// Rows shorter than, equal to and longer than a group, with and without a
    /// tail.
    const ROW_LENS: [usize; 10] = [0, 1, 3, 7, 8, 9, 16, 17, 64, 101];

    #[test]
    fn threshold_scan_visits_what_the_per_score_loop_visits() {
        for special in [false, true] {
            for (li, &len) in ROW_LENS.iter().enumerate() {
                let scores = tied_scores(len, 3 + li as u32, special);
                for bound in [
                    f32::NEG_INFINITY,
                    -0.0,
                    0.0,
                    0.5,
                    1.0,
                    2.0,
                    f32::INFINITY,
                    f32::NAN,
                ] {
                    let expected: Vec<(usize, u32)> = scores
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| **s >= bound)
                        .map(|(i, s)| (i, s.to_bits()))
                        .collect();
                    let mut visited = Vec::new();
                    scan_at_least(&scores, bound, |i, s| {
                        visited.push((i, s.to_bits()));
                        bound
                    });
                    assert_eq!(visited, expected, "len {len} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn scan_honours_a_bound_that_rises_inside_a_group() {
        // the mask of the group saw bound 0.0; after the first visit only
        // scores >= 0.5 may be visited
        let scores = [0.1f32, 0.2, 0.6, 0.3, 0.5, 0.4, 0.9, 0.0, 0.45, 0.7];
        let mut visited = Vec::new();
        scan_at_least(&scores, 0.0, |i, _| {
            visited.push(i);
            0.5
        });
        assert_eq!(visited, vec![0, 2, 4, 6, 9]);
    }

    /// A harvest implementation under test.
    type Harvest = fn(&[f32], f32, &mut dyn FnMut(usize, f32) -> f32);

    /// The harvests this CPU can run: the portable loop everywhere (the
    /// reference), the AVX2 compare where the CPU has it.
    fn harvests() -> Vec<(&'static str, Harvest)> {
        let mut harvests: Vec<(&'static str, Harvest)> =
            vec![("portable", |s, b, v| scan_groups(s, b, v, portable_mask))];
        #[cfg(target_arch = "x86_64")]
        if crate::kernels::SimdIsa::detect() == crate::kernels::SimdIsa::Avx2 {
            harvests.push(("avx2", |s, b, v| {
                // SAFETY: `SimdIsa::detect` saw AVX2 on this CPU.
                unsafe { crate::avx2::scan_at_least(s, b, v) }
            }));
        }
        harvests
    }

    /// Scores and bounds of the harvest property: NaN, ±inf, ±0.0,
    /// subnormals of either sign and a few normal values, every one of them
    /// a possible bound, so scores land exactly on it.
    const PALETTE: [f32; 13] = [
        f32::NAN,
        f32::NEG_INFINITY,
        -1.0,
        -f32::MIN_POSITIVE / 2.0,
        -0.0,
        0.0,
        1e-45,
        f32::MIN_POSITIVE / 4.0,
        f32::MIN_POSITIVE,
        0.25,
        0.5,
        1.0,
        f32::INFINITY,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_harvest_calls_visit_as_the_portable_loop_does(
            picks in proptest::collection::vec(0usize..PALETTE.len(), 40),
            start in 0usize..PALETTE.len(),
            raises in proptest::collection::vec(0usize..PALETTE.len() + 2, 1..9),
        ) {
            // every row length 0..=40, so every tail length occurs with and
            // without whole groups before it
            for len in 0..=picks.len() {
                let scores: Vec<f32> = picks[..len].iter().map(|&p| PALETTE[p]).collect();
                let mut expected = None;
                for (name, harvest) in harvests() {
                    // each visit raises the bound to a palette value or keeps
                    // it, mid-group as `TopK::push_row` does; `f32::max`
                    // never lowers it and ignores a NaN
                    let mut bound = PALETTE[start];
                    let mut calls = Vec::new();
                    harvest(&scores, bound, &mut |i, score| {
                        let raise = raises[calls.len() % raises.len()];
                        calls.push((i, score.to_bits(), bound.to_bits()));
                        if let Some(&to) = PALETTE.get(raise) {
                            bound = bound.max(to);
                        }
                        bound
                    });
                    prop_assert!(calls.iter().all(|c| !f32::from_bits(c.1).is_nan()));
                    match &expected {
                        None => expected = Some(calls),
                        Some(expected) => {
                            prop_assert!(&calls == expected, "{} len {}: {:?}", name, len, calls)
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn push_row_equals_pushing_every_score() {
        for special in [false, true] {
            for k in [0usize, 1, 2, 3, 8, 50, 1000] {
                for (li, &len) in ROW_LENS.iter().enumerate() {
                    // three blocks of one outer row, harvested with ascending
                    // and with descending inner ids: equal scores must keep
                    // the smallest ids either way
                    for first_ids in [[0usize, 200, 400], [400, 200, 0]] {
                        let mut by_row = TopK::new(k);
                        let mut by_score = TopK::new(k);
                        for (bi, &first_id) in first_ids.iter().enumerate() {
                            let scores = tied_scores(len, (7 * li + bi) as u32, special);
                            by_row.push_row(first_id, &scores);
                            for (i, &s) in scores.iter().enumerate() {
                                by_score.push(first_id + i, s);
                            }
                            assert_eq!(by_row.len(), by_score.len());
                            assert_eq!(
                                by_row.threshold().map(f32::to_bits),
                                by_score.threshold().map(f32::to_bits)
                            );
                        }
                        // rejected pushes leave a collector untouched, so
                        // the two heaps must be in the same state entry for
                        // entry (NaN kept by an unfilled collector included,
                        // hence bits and not `into_sorted`)
                        let got = heap_bits(by_row);
                        let expected = heap_bits(by_score);
                        assert_eq!(got, expected, "k {k} len {len} ids {first_ids:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn push_row_bound_never_falls_once_a_nan_is_kept() {
        // An unfilled collector keeps a NaN; the heap order is then not
        // total and a later push can surface a kept score *below* the bound
        // the row is being scanned against.  Whatever survives, the scan
        // must not follow the bound down: nothing offered after the fill
        // phase gets in with a score under the bound in force when the fill
        // ended — neither in the rest of its 8-lane group nor later.
        let mut falls_seen = 0;
        for k in [2usize, 3, 4, 5, 8] {
            for seed in 0..400u32 {
                // blocks harvested with descending ids put a NaN above
                // lower-id entries it compares equal to
                let mut collector = TopK::new(k);
                for (bi, first_id) in [400usize, 200, 0].into_iter().enumerate() {
                    let scores = tied_scores(19, seed * 3 + bi as u32, true);
                    let fill = (k - collector.len()).min(scores.len());
                    let mut filled = collector.clone();
                    for (i, &s) in scores[..fill].iter().enumerate() {
                        filled.push(first_id + i, s);
                    }
                    let bound = filled.threshold();
                    collector.push_row(first_id, &scores);
                    // per-score pushes do follow the bound down in that state
                    let mut by_score = filled.clone();
                    for (i, &s) in scores.iter().enumerate().skip(fill) {
                        by_score.push(first_id + i, s);
                    }
                    let Some(bound) = bound.filter(|b| !b.is_nan()) else {
                        continue;
                    };
                    let scanned = first_id + fill..first_id + scores.len();
                    let below = |c: &TopK| {
                        c.heap
                            .iter()
                            .filter(|e| scanned.contains(&e.0.id) && e.0.score < bound)
                            .count()
                    };
                    assert_eq!(below(&collector), 0, "k {k} seed {seed} block {bi}");
                    falls_seen += below(&by_score);
                }
            }
        }
        assert!(falls_seen > 0, "the sweep must reach the non-total state");
    }

    #[test]
    fn push_row_never_admits_nan_into_a_full_collector() {
        let mut tk = TopK::new(2);
        tk.push_row(0, &[0.1, 0.2]);
        tk.push_row(2, &[f32::NAN; 19]);
        tk.push_row(21, &[f32::NAN, 0.3, f32::NAN]);
        let ids: Vec<usize> = tk.into_sorted().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![22, 1]);
    }
}
