//! Hierarchical Navigable Small World (HNSW) graph index.
//!
//! A from-scratch implementation of Malkov & Yashunin's algorithm with the
//! features the paper's evaluation exercises: configurable `M` /
//! `efConstruction` / `efSearch`, cosine similarity, top-k probes, relational
//! pre-filtering, and per-probe cost statistics.
//!
//! ## Construction
//!
//! Construction runs through the shared [`cej_exec::ExecPool`] worker pool:
//!
//! * With a single-thread pool, nodes are inserted sequentially — every node
//!   sees all of its predecessors, the classic algorithm.
//! * With a multi-thread pool, nodes are inserted in **layer-safe batches**:
//!   each batch plans its inserts in parallel against the committed graph
//!   (a read-only phase), then commits the new adjacency — back-links are
//!   grouped by target node so each worker owns disjoint neighbour lists,
//!   guarded by per-node `parking_lot` mutexes.  Batch sizes grow with the
//!   graph, so early nodes still densely interconnect.  The batched build is
//!   deterministic for any thread count ≥ 2.
//!
//! Back-link pruning is *amortised*: a neighbour list may temporarily grow
//! to twice its degree bound before the diversity-preserving selection
//! heuristic prunes it back, and a final parallel pass restores the bound
//! everywhere.  This removes the dominant cost of the naive implementation
//! (re-running the heuristic on every single overflow) without changing the
//! invariants search relies on.
//!
//! The neighbour-selection heuristic is the diversity-preserving variant
//! (Malkov & Yashunin, Algorithm 4); graph quality is validated in tests by
//! measuring recall against the exact [`crate::BruteForce`] baseline, and
//! batched construction is validated against sequential construction.
//!
//! ## Distance
//!
//! A cosine index uses the identity the tensor join is built on,
//! `cos(a, b) = â · b̂` (paper Section IV-C): [`HnswIndex::build`] and
//! [`HnswIndex::extend`] unit-normalise each stored row once, a search
//! normalises its probe once, and every graph comparison — build and
//! search alike — is then one [`Metric::InnerProduct`] dot product instead
//! of [`cej_vector::cosine_similarity`]'s two norms and a divide.  Rows and
//! probes are normalised by the tensor join's own kernel and scored by the
//! same 8-lane dot product as its GEMM, so an index-join score carries the
//! tensor join's bits for the same pair.
//!
//! ## Search
//!
//! Probes and construction run one layer-search loop, and it is meant to
//! cost its dot products and little else:
//!
//! * **Keys.**  A candidate is one `u64`: an order-preserving image of its
//!   score in the high half, the complement of its id in the low half.  A
//!   larger key is a higher score, then a smaller id.  The frontier is a
//!   max-heap of keys, so it expands the higher score first, then the
//!   smaller id; the result heap holds complemented keys, so its root is the
//!   result evicted first: the lower score, then the larger id.  A full
//!   result heap admits a candidate only on a strictly higher score and
//!   overwrites its root in place (one sift).
//! * **Ties, zeros and NaN.**  `-0.0` and `+0.0` share a key and are ordered
//!   by id.  Every NaN shares key 0, below `-inf`: a NaN score is kept only
//!   while the result list is still filling, any number evicts it, and it is
//!   returned after every number.  A NaN probe scores NaN everywhere, so it
//!   walks each reachable node at most once and returns the smallest ids it
//!   kept, the same ones on every call.  Keys order; the scratch keeps each
//!   scored node's similarity beside them, and that is what is returned, so
//!   a `-0.0` keeps its sign.
//! * **Scratch reuse.**  Both heaps, the visited stamps, the per-node scores
//!   and the buffer one layer's results seed the next from live in a
//!   per-thread (probes) or per-worker (build) scratch, so no layer
//!   allocates once the scratch has grown; a layer's results leave the
//!   heap as plain `u64`s and are put best first by one `sort_unstable`.
//! * **Visited filter.**  An expanded node's neighbours are filtered without
//!   a data-dependent branch: each id is written to the next free slot,
//!   which advances only when the id's stamp is not the current epoch, and
//!   the id is stamped.  The survivors are then scored in list order.
//! * **Adjacency.**  A frozen index lends its neighbour lists to the search.
//!   Only the build graph copies a list out: its per-node mutex must be
//!   released before any distance is computed, or parallel planners reading
//!   the same node would queue on it.
//!
//! ## Filters
//!
//! A probe's relational pre-filter acts inside layer 0's walk, the
//! filter-functor form of filtered HNSW: a scored node enters the frontier
//! on the unfiltered rule, but only an allowed node enters the result heap,
//! so `ef` bounds *allowed* results and the stop rule compares against the
//! worst allowed one.  The walk explores through the rows it may not
//! return, and it walks further the fewer rows are allowed — roughly the
//! unfiltered walk's distance computations divided by the pass ratio —
//! until its list is full or the graph is exhausted.  The upper layers'
//! descent is not filtered: it only finds where layer 0 starts.  A filter
//! that allows no row is answered before any walk.  Where few rows pass,
//! scanning them beats walking to them; that choice is the caller's (the
//! `cej-core` interpreter makes it per run).
//!
//! The walk is pinned by the goldens in `hnsw/golden.txt`: per build, a hash
//! of every adjacency list; per probe, the ids, score bits and
//! [`ProbeStats`].

use std::collections::BinaryHeap;
use std::ops::Range;

use cej_exec::ExecPool;
use cej_storage::SelectionBitmap;
use cej_vector::{normalize, normalize_matrix_rows, Matrix, Metric, TopKEntry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::IndexError;
use crate::params::HnswParams;
use crate::Result;

/// The parallel insert window.  Nodes inside one batch cannot link to
/// each other (they are planned against the committed graph only), so the
/// batch must stay small relative to a cluster of similar vectors or
/// intra-cluster connectivity — and with it recall — degrades.  16
/// approximates the effective window of fine-grained-locking parallel
/// inserters.  Every pool of two or more threads plans batches of this
/// size, so all multi-thread builds produce the same graph.
const MAX_BATCH: usize = 16;

/// The metric the graph compares with: a cosine index holds unit rows and
/// searches with a unit probe, where cosine is the inner product.
fn graph_metric(metric: Metric) -> Metric {
    match metric {
        Metric::Cosine => Metric::InnerProduct,
        other => other,
    }
}

/// Per-probe cost counters.
///
/// The paper's index-join cost model charges `I_probe(S)` per outer tuple;
/// these counters expose what a probe actually costs in distance evaluations
/// and node visits so the scan-vs-probe trade-off can be analysed without a
/// profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Number of similarity computations performed.
    pub distance_computations: u64,
    /// Number of graph nodes visited (popped from the candidate queue).
    pub nodes_visited: u64,
}

impl ProbeStats {
    /// Accumulates another probe's counters into this one.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.distance_computations += other.distance_computations;
        self.nodes_visited += other.nodes_visited;
    }
}

/// Reusable visited-set for layer searches: an epoch-stamped array, so one
/// probe descending through several layers clears the set by bumping a
/// counter instead of re-zeroing (or re-allocating) `O(n)` bytes per layer.
#[derive(Debug)]
struct VisitScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VisitScratch {
    fn new(n: usize) -> Self {
        VisitScratch {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // A scratch now lives for a whole build, not one insert; guard
            // the (practically unreachable) epoch wrap-around.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `id` visited in the current epoch; `true` on first visit.
    fn first_visit(&mut self, id: usize) -> bool {
        if self.stamp[id] == self.epoch {
            false
        } else {
            self.stamp[id] = self.epoch;
            true
        }
    }
}

/// Order-preserving 32-bit image of a score: `a > b` exactly when
/// `score_key(a) > score_key(b)` for non-NaN scores, `-0.0` and `+0.0` share
/// one key, and every NaN takes key 0, below `-inf`.
#[inline]
fn score_key(score: f32) -> u32 {
    // `-0.0 + 0.0` is `+0.0`, so both zeros take the same key
    let bits = (score + 0.0).to_bits();
    let key = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 0x8000_0000
    };
    if score.is_nan() {
        0
    } else {
        key
    }
}

/// A candidate's 8-byte heap key: [`score_key`] in the high half and the
/// complement of the id in the low half, so a larger key is a higher score,
/// then a smaller id.
#[inline]
fn pack(score: f32, id: usize) -> u64 {
    (u64::from(score_key(score)) << 32) | u64::from(!(id as u32))
}

/// The node id a [`pack`]ed key carries.
#[inline]
fn key_id(key: u64) -> usize {
    !(key as u32) as usize
}

/// The [`score_key`] half of a [`pack`]ed key.
#[inline]
fn key_score(key: u64) -> u32 {
    (key >> 32) as u32
}

/// Reusable per-worker search state (see the module docs' "Search"
/// section): the epoch-stamped visited set, the scores of the nodes the
/// current probe has scored, both candidate heaps, the keys one layer hands
/// the next, and the unit-normalised copy of a cosine probe.
#[derive(Debug)]
struct SearchScratch {
    visited: VisitScratch,
    /// `scores[id]` is node `id`'s similarity to the current probe, with
    /// its own bits, for every node the probe has seeded or scored.
    scores: Vec<f32>,
    /// Copy buffer for the locked build graph's neighbour lists.
    links: Vec<u32>,
    /// The not-yet-visited neighbours of the node being expanded.
    fresh: Vec<u32>,
    /// Max-heap of keys: the best candidate is expanded first.
    frontier: BinaryHeap<u64>,
    /// Max-heap of *complemented* keys: the root is the worst kept result.
    results: BinaryHeap<u64>,
    /// The seeds of the next layer search, then its results; keys, best
    /// first.
    layer: Vec<u64>,
    unit_query: Vec<f32>,
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        SearchScratch {
            visited: VisitScratch::new(n),
            scores: vec![0.0; n],
            links: Vec::new(),
            fresh: Vec::new(),
            frontier: BinaryHeap::new(),
            results: BinaryHeap::new(),
            layer: Vec::new(),
            unit_query: Vec::new(),
        }
    }

    /// Grows the visited set and the scores to cover `n` nodes.  New
    /// entries are stamped 0, which never equals a live epoch (epochs start
    /// at 1), so growing keeps every node correctly unvisited.
    fn ensure_capacity(&mut self, n: usize) {
        if self.visited.stamp.len() < n {
            self.visited.stamp.resize(n, 0);
            self.scores.resize(n, 0.0);
        }
    }

    /// Makes `id`, already scored, the single seed of the next layer search.
    fn seed(&mut self, id: usize, score: f32) {
        self.scores[id] = score;
        self.layer.clear();
        self.layer.push(pack(score, id));
    }

    /// The last layer search's results, best first.
    fn entries(&self) -> impl Iterator<Item = TopKEntry> + '_ {
        self.layer.iter().map(|&key| {
            let id = key_id(key);
            TopKEntry::new(id, self.scores[id])
        })
    }
}

/// Runs `f` with this thread's reusable query scratch, grown to cover `n`
/// nodes.  Queries allocate the `O(n)` stamp array once per thread instead
/// of once per probe — the same amortisation the build paths get from
/// [`ScratchPool`].  Worker threads of a pooled probe batch each keep one
/// scratch for their whole chunk of probes.
fn with_query_scratch<R>(n: usize, f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Option<SearchScratch>> =
            const { std::cell::RefCell::new(None) };
    }
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let scratch = slot.get_or_insert_with(|| SearchScratch::new(n));
        scratch.ensure_capacity(n);
        f(scratch)
    })
}

/// A lock-free-ish lending pool of [`SearchScratch`] instances, so the
/// batched build reuses the `O(n)` stamp arrays across batches instead of
/// allocating (and zeroing) one per chunk — the epoch-stamp design exists
/// precisely so a scratch can serve many searches.
///
/// Slots start empty and are filled lazily; `take` falls back to a fresh
/// allocation if every slot is busy, so correctness never depends on pool
/// capacity.  Scratch identity has no effect on search results (epochs
/// isolate every search), so reuse order does not disturb determinism.
struct ScratchPool {
    slots: Vec<std::sync::Mutex<Option<SearchScratch>>>,
    n: usize,
}

impl ScratchPool {
    fn new(capacity: usize, n: usize) -> Self {
        ScratchPool {
            slots: (0..capacity.max(1))
                .map(|_| std::sync::Mutex::new(None))
                .collect(),
            n,
        }
    }

    fn take(&self) -> SearchScratch {
        for slot in &self.slots {
            if let Ok(mut guard) = slot.try_lock() {
                if let Some(scratch) = guard.take() {
                    return scratch;
                }
            }
        }
        SearchScratch::new(self.n)
    }

    fn put(&self, scratch: SearchScratch) {
        for slot in &self.slots {
            if let Ok(mut guard) = slot.try_lock() {
                if guard.is_none() {
                    *guard = Some(scratch);
                    return;
                }
            }
        }
        // Every slot is occupied or busy: drop the scratch.
    }
}

/// Read access to a node's adjacency at one layer.
///
/// Query-time search borrows the frozen index's own lists; build-time
/// search reads through the per-node mutexes of the under-construction
/// graph, which copies into the caller's buffer so no lock is held while
/// distances are computed.
trait AdjacencySource {
    /// `node`'s neighbours at `layer` (empty above the node's level),
    /// either borrowed from `self` or copied into `buf`.
    fn neighbors<'s>(&'s self, node: usize, layer: usize, buf: &'s mut Vec<u32>) -> &'s [u32];
}

impl AdjacencySource for Vec<Vec<Vec<u32>>> {
    fn neighbors<'s>(&'s self, node: usize, layer: usize, _buf: &'s mut Vec<u32>) -> &'s [u32] {
        self[node].get(layer).map_or(&[], Vec::as_slice)
    }
}

/// The under-construction graph: one `parking_lot` mutex per node guarding
/// that node's per-layer neighbour lists, so batch commits only lock the
/// lists they actually touch.
struct LockedAdjacency {
    lists: Vec<Mutex<Vec<Vec<u32>>>>,
}

impl LockedAdjacency {
    fn new(levels: &[usize]) -> Self {
        LockedAdjacency {
            lists: levels
                .iter()
                .map(|&level| Mutex::new(vec![Vec::new(); level + 1]))
                .collect(),
        }
    }

    fn into_lists(self) -> Vec<Vec<Vec<u32>>> {
        self.lists.into_iter().map(|m| m.into_inner()).collect()
    }
}

impl AdjacencySource for LockedAdjacency {
    fn neighbors<'s>(&'s self, node: usize, layer: usize, buf: &'s mut Vec<u32>) -> &'s [u32] {
        buf.clear();
        let guard = self.lists[node].lock();
        if let Some(list) = guard.get(layer) {
            buf.extend_from_slice(list);
        }
        buf
    }
}

/// Layer-search routines shared by queries and construction, generic over
/// how adjacency is read.
struct Searcher<'a, A: AdjacencySource> {
    vectors: &'a Matrix,
    metric: Metric,
    adj: &'a A,
}

impl<A: AdjacencySource> Searcher<'_, A> {
    #[inline]
    fn similarity(&self, query: &[f32], node: usize) -> f32 {
        self.metric
            .similarity(query, self.vectors.row(node).expect("node in range"))
    }

    /// Greedy search for the single closest node at `layer`, returning the
    /// node and its similarity.
    fn greedy_closest(
        &self,
        query: &[f32],
        entry: usize,
        entry_score: f32,
        layer: usize,
        scratch: &mut SearchScratch,
        stats: &mut ProbeStats,
    ) -> (usize, f32) {
        let mut current = entry;
        let mut current_score = entry_score;
        loop {
            let mut improved = false;
            stats.nodes_visited += 1;
            for &n in self.adj.neighbors(current, layer, &mut scratch.links) {
                let n = n as usize;
                let score = self.similarity(query, n);
                stats.distance_computations += 1;
                if score > current_score {
                    current = n;
                    current_score = score;
                    improved = true;
                }
            }
            if !improved {
                return (current, current_score);
            }
        }
    }

    /// Best-first search at one layer with a candidate list of size `ef`
    /// (`ef > 0`), seeded with `scratch.layer`'s keys and leaving its
    /// results there, best first (see the module docs' "Search" section).
    ///
    /// Accepts multiple *pre-scored* entry points: seeding the frontier from
    /// several upper-layer candidates (rather than the single greedy winner)
    /// lets the search escape the entry point's cluster, which measurably
    /// improves recall for probes that do not come from the indexed
    /// distribution.  Seeds carry the similarity already computed by the
    /// caller (or the previous layer), so seeding costs no distance
    /// computations and does not inflate [`ProbeStats`].
    fn search_layer(
        &self,
        query: &[f32],
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        stats: &mut ProbeStats,
    ) {
        self.search_layer_admitting(query, ef, layer, scratch, stats, |_| true);
    }

    /// [`Searcher::search_layer`] whose result heap takes only nodes
    /// `admit` accepts (module docs, "Filters"): every scored node still
    /// enters the frontier on the usual rule, so the walk explores through
    /// the nodes it may not return, and `ef` bounds the admitted results.
    /// Admitting every node is the unfiltered search, step for step.
    fn search_layer_admitting(
        &self,
        query: &[f32],
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        stats: &mut ProbeStats,
        admit: impl Fn(usize) -> bool,
    ) {
        let SearchScratch {
            visited,
            scores,
            links,
            fresh,
            frontier,
            results,
            layer: keys,
            ..
        } = scratch;
        visited.next_epoch();
        frontier.clear();
        results.clear();
        for &seed in keys.iter() {
            if !visited.first_visit(key_id(seed)) {
                continue;
            }
            frontier.push(seed);
            if !admit(key_id(seed)) {
                continue;
            }
            // a seed displaces the worst result on a larger key (an equal
            // score with a smaller id is enough); a scored neighbour below
            // needs a strictly higher score
            if results.len() < ef {
                results.push(!seed);
            } else if let Some(mut worst) = results.peek_mut() {
                if seed > !*worst {
                    *worst = !seed;
                }
            }
        }

        while let Some(current) = frontier.pop() {
            // Stop when the best remaining candidate cannot improve the
            // worst kept result.
            if results.len() == ef
                && key_score(current) < key_score(!*results.peek().expect("ef > 0"))
            {
                break;
            }
            stats.nodes_visited += 1;
            let neighbors = self.adj.neighbors(key_id(current), layer, links);
            // Branch-free visited filter: every neighbour is written to the
            // next slot, which only an unvisited one claims.
            fresh.resize(neighbors.len(), 0);
            let mut len = 0;
            for &n in neighbors {
                let stamp = &mut visited.stamp[n as usize];
                fresh[len] = n;
                len += usize::from(*stamp != visited.epoch);
                *stamp = visited.epoch;
            }
            for &n in &fresh[..len] {
                let n = n as usize;
                let score = self.similarity(query, n);
                stats.distance_computations += 1;
                scores[n] = score;
                let key = pack(score, n);
                if results.len() < ef {
                    frontier.push(key);
                    if admit(n) {
                        results.push(!key);
                    }
                } else {
                    let mut worst = results.peek_mut().expect("ef > 0");
                    if key_score(key) > key_score(!*worst) {
                        frontier.push(key);
                        if admit(n) {
                            // replaces the root in place: one sift
                            *worst = !key;
                        }
                    }
                }
            }
        }
        keys.clear();
        keys.extend(results.drain());
        // ascending complements are descending keys: best first
        keys.sort_unstable();
        keys.iter_mut().for_each(|key| *key = !*key);
    }
}

/// One planned insertion: the neighbours selected for the new node at each
/// layer `0..=top_layer`, computed against the committed graph.
struct InsertPlan {
    id: usize,
    selected: Vec<Vec<u32>>,
}

/// Build-time state shared by the sequential and batched construction paths.
struct GraphBuilder<'a> {
    vectors: &'a Matrix,
    params: &'a HnswParams,
    levels: &'a [usize],
    adj: &'a LockedAdjacency,
}

impl GraphBuilder<'_> {
    fn metric(&self) -> Metric {
        graph_metric(self.params.metric)
    }

    fn searcher(&self) -> Searcher<'_, LockedAdjacency> {
        Searcher {
            vectors: self.vectors,
            metric: self.metric(),
            adj: self.adj,
        }
    }

    /// Degree bound at which a list is pruned back to `max_neighbors`.
    /// Allowing the list to overshoot its bound amortises the (expensive)
    /// selection heuristic over many back-link insertions instead of paying
    /// it on every single overflow.
    fn prune_trigger(&self, layer: usize) -> usize {
        2 * self.params.max_neighbors(layer)
    }

    /// Plans the insertion of `id` against the committed graph: descends
    /// from `entry` through the upper layers, then selects neighbours per
    /// layer with `efConstruction` candidates.  Read-only.
    fn plan_insert(
        &self,
        id: usize,
        entry: usize,
        max_level: usize,
        scratch: &mut SearchScratch,
    ) -> InsertPlan {
        let searcher = self.searcher();
        let query = self.vectors.row(id).expect("row exists");
        let level = self.levels[id];
        let mut stats = ProbeStats::default();

        let mut seed = (entry, searcher.similarity(query, entry));
        stats.distance_computations += 1;
        let mut layer = max_level;
        while layer > level {
            seed = searcher.greedy_closest(query, seed.0, seed.1, layer, scratch, &mut stats);
            layer -= 1;
        }
        scratch.seed(seed.0, seed.1);

        // For each layer at or below the node's level, find efConstruction
        // candidates and connect using the diversity-preserving neighbour
        // selection heuristic (Malkov & Yashunin, Algorithm 4).  The simple
        // "closest M" rule is known to disconnect clustered data because all
        // kept links end up inside the node's own cluster.
        let top_layer = level.min(max_level);
        let mut selected = vec![Vec::new(); top_layer + 1];
        let mut candidates = Vec::new();
        for layer in (0..=top_layer).rev() {
            searcher.search_layer(
                query,
                self.params.ef_construction,
                layer,
                scratch,
                &mut stats,
            );
            candidates.clear();
            candidates.extend(scratch.entries());
            // the best candidate alone seeds the next layer down
            scratch.layer.truncate(1);
            let max_links = self.params.max_neighbors(layer);
            selected[layer] = self.select_neighbors_heuristic(&candidates, max_links);
        }
        InsertPlan { id, selected }
    }

    /// Diversity-preserving neighbour selection: a candidate is kept when it
    /// is closer to the query than to every already-kept neighbour, which
    /// guarantees links that bridge towards other regions of the graph
    /// survive.  Remaining slots are filled with the best skipped candidates
    /// (the `keepPrunedConnections` variant of the original algorithm).
    fn select_neighbors_heuristic(&self, candidates: &[TopKEntry], max: usize) -> Vec<u32> {
        let metric = self.metric();
        let mut kept: Vec<u32> = Vec::with_capacity(max);
        let mut skipped: Vec<u32> = Vec::new();
        for cand in candidates {
            if kept.len() >= max {
                break;
            }
            let cand_vec = self.vectors.row(cand.id).expect("candidate in range");
            let diverse = kept.iter().all(|&k| {
                let to_kept = metric.similarity(
                    cand_vec,
                    self.vectors.row(k as usize).expect("kept in range"),
                );
                cand.score >= to_kept
            });
            if diverse {
                kept.push(cand.id as u32);
            } else {
                skipped.push(cand.id as u32);
            }
        }
        for s in skipped {
            if kept.len() >= max {
                break;
            }
            kept.push(s);
        }
        kept
    }

    /// Writes the plan's own adjacency lists (the forward links).
    fn commit_own_links(&self, plan: &InsertPlan) {
        let mut guard = self.adj.lists[plan.id].lock();
        for (layer, selected) in plan.selected.iter().enumerate() {
            guard[layer] = selected.clone();
        }
    }

    /// Adds the back-link `from -> to` at `layer`, pruning `from`'s list
    /// with the diversity heuristic once it overshoots the amortisation
    /// trigger.  Locks only `from`'s lists.
    fn connect(&self, from: usize, to: usize, layer: usize) {
        if from == to {
            return;
        }
        let mut guard = self.adj.lists[from].lock();
        let Some(list) = guard.get_mut(layer) else {
            return;
        };
        let to = to as u32;
        if list.contains(&to) {
            return;
        }
        list.push(to);
        if list.len() > self.prune_trigger(layer) {
            *list = self.pruned_list(from, list, self.params.max_neighbors(layer));
        }
    }

    /// Re-selects the best `bound` neighbours of `node` from `list` with the
    /// diversity heuristic.
    fn pruned_list(&self, node: usize, list: &[u32], bound: usize) -> Vec<u32> {
        let node_vec = self.vectors.row(node).expect("row exists");
        let metric = self.metric();
        let mut scored: Vec<TopKEntry> = list
            .iter()
            .map(|&n| {
                TopKEntry::new(
                    n as usize,
                    metric.similarity(node_vec, self.vectors.row(n as usize).expect("in range")),
                )
            })
            .collect();
        // best first by the search's key: higher score, then smaller id
        scored.sort_unstable_by_key(|e| std::cmp::Reverse(pack(e.score, e.id)));
        self.select_neighbors_heuristic(&scored, bound)
    }

    /// Classic sequential insertion of `ids` into a graph whose entry point
    /// and top level are `entry` and `max_level`: every node is planned
    /// against the full graph of its predecessors and committed
    /// immediately.  Returns the new entry point and top level.
    fn insert_sequential(
        &self,
        ids: Range<usize>,
        mut entry: usize,
        mut max_level: usize,
    ) -> (usize, usize) {
        let mut scratch = SearchScratch::new(self.levels.len());
        for id in ids {
            let plan = self.plan_insert(id, entry, max_level, &mut scratch);
            self.commit_own_links(&plan);
            for (layer, selected) in plan.selected.iter().enumerate() {
                for &nb in selected {
                    self.connect(nb as usize, id, layer);
                }
            }
            if self.levels[id] > max_level {
                max_level = self.levels[id];
                entry = id;
            }
        }
        (entry, max_level)
    }

    /// Batched parallel construction.
    ///
    /// Each batch is planned in parallel against the committed graph (pure
    /// reads), then committed in two steps: forward links per new node, and
    /// back-links grouped by *target* so every worker owns disjoint
    /// neighbour lists.  Group order and within-group order are fixed by
    /// node id, and every batch is [`MAX_BATCH`] nodes (or as many as are
    /// committed, while the graph is small), so the result is the same for
    /// every pool of two or more threads.
    fn build_batched(&self, pool: &ExecPool) -> (usize, usize) {
        let n = self.levels.len();
        let scratch_pool = ScratchPool::new(pool.threads(), n);
        let mut entry = 0usize;
        let mut max_level = self.levels[0];
        let mut next = 1usize;
        while next < n {
            let end = (next + next.min(MAX_BATCH)).min(n);
            let plans: Vec<InsertPlan> = pool
                .parallel_chunks(end - next, |range| {
                    let mut scratch = scratch_pool.take();
                    let chunk_plans: Vec<InsertPlan> = range
                        .map(|off| self.plan_insert(next + off, entry, max_level, &mut scratch))
                        .collect();
                    scratch_pool.put(scratch);
                    chunk_plans
                })
                .into_iter()
                .flatten()
                .collect();

            for plan in &plans {
                self.commit_own_links(plan);
            }

            let mut groups: std::collections::BTreeMap<u32, Vec<(u32, u32)>> =
                std::collections::BTreeMap::new();
            for plan in &plans {
                for (layer, selected) in plan.selected.iter().enumerate() {
                    for &nb in selected {
                        groups
                            .entry(nb)
                            .or_default()
                            .push((plan.id as u32, layer as u32));
                    }
                }
            }
            let groups: Vec<(u32, Vec<(u32, u32)>)> = groups.into_iter().collect();
            pool.parallel_map(&groups, |(target, additions)| {
                for &(new_id, layer) in additions {
                    self.connect(*target as usize, new_id as usize, layer as usize);
                }
            });

            for id in next..end {
                if self.levels[id] > max_level {
                    max_level = self.levels[id];
                    entry = id;
                }
            }
            next = end;
        }
        (entry, max_level)
    }

    /// Restores the per-layer degree bounds that amortised pruning may have
    /// left overshot, in parallel over nodes.
    fn final_prune(&self, pool: &ExecPool) {
        let n = self.levels.len();
        pool.parallel_chunks(n, |range| {
            for node in range {
                let mut guard = self.adj.lists[node].lock();
                for layer in 0..guard.len() {
                    let bound = self.params.max_neighbors(layer);
                    if guard[layer].len() > bound {
                        guard[layer] = self.pruned_list(node, &guard[layer], bound);
                    }
                }
            }
        });
    }
}

/// The result of one top-k probe.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The k best (unfiltered-out) neighbours, best first.
    pub neighbors: Vec<TopKEntry>,
    /// Probe cost counters.
    pub stats: ProbeStats,
}

/// An immutable HNSW index over a matrix of row-vectors.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    params: HnswParams,
    /// The indexed rows; unit-normalised for a cosine index.
    vectors: Matrix,
    /// `neighbors[node][layer]` is the adjacency list of `node` at `layer`
    /// (present for layers `0..=level(node)`).
    neighbors: Vec<Vec<Vec<u32>>>,
    levels: Vec<usize>,
    entry_point: usize,
    max_level: usize,
    /// [`HnswIndex::memory_bytes`], computed once when the graph is built.
    memory_bytes: usize,
}

/// Footprint of an index's vectors, adjacency lists and level table.
fn footprint(vectors: &Matrix, neighbors: &[Vec<Vec<u32>>], levels: &[usize]) -> usize {
    let adjacency: usize = neighbors
        .iter()
        .map(|per_layer| per_layer.iter().map(|l| l.len() * 4).sum::<usize>())
        .sum();
    vectors.bytes() + adjacency + std::mem::size_of_val(levels)
}

impl HnswIndex {
    /// Builds an index over the rows of `vectors` using the process-wide
    /// worker pool (`CEJ_THREADS`).
    ///
    /// # Errors
    /// Returns [`IndexError::EmptyIndex`] for an empty input and
    /// [`IndexError::InvalidParameter`] for degenerate parameters.
    pub fn build(vectors: Matrix, params: HnswParams) -> Result<Self> {
        Self::build_with_pool(vectors, params, ExecPool::global())
    }

    /// Builds an index using an explicit worker pool.
    ///
    /// A single-thread pool runs the classic sequential insertion; a
    /// multi-thread pool runs the batched parallel construction (see the
    /// module docs).  Either way the build is deterministic for a given
    /// seed and pool size class.  A cosine index stores its rows
    /// unit-normalised (see the module docs).
    ///
    /// # Errors
    /// Returns [`IndexError::EmptyIndex`] for an empty input and
    /// [`IndexError::InvalidParameter`] for degenerate parameters.
    pub fn build_with_pool(
        mut vectors: Matrix,
        params: HnswParams,
        pool: &ExecPool,
    ) -> Result<Self> {
        if vectors.rows() == 0 {
            return Err(IndexError::EmptyIndex);
        }
        if params.m < 2 || params.m0 < params.m || params.ef_construction == 0 {
            return Err(IndexError::InvalidParameter(format!(
                "degenerate HNSW parameters: M={}, M0={}, efC={}",
                params.m, params.m0, params.ef_construction
            )));
        }
        if params.metric == Metric::Cosine {
            normalize_matrix_rows(&mut vectors);
        }
        let n = vectors.rows();
        // Levels come from the same seeded RNG stream for every build mode,
        // so the layer structure is identical across thread counts.
        let mut rng = StdRng::seed_from_u64(params.seed);
        let lambda = params.level_lambda();
        let levels: Vec<usize> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (-u.ln() * lambda).floor() as usize
            })
            .collect();

        let adj = LockedAdjacency::new(&levels);
        let builder = GraphBuilder {
            vectors: &vectors,
            params: &params,
            levels: &levels,
            adj: &adj,
        };
        let (entry_point, max_level) = if n == 1 || pool.threads() <= 1 {
            builder.insert_sequential(1..n, 0, levels[0])
        } else {
            builder.build_batched(pool)
        };
        builder.final_prune(pool);

        Ok(Self::assemble(
            params,
            vectors,
            adj,
            levels,
            entry_point,
            max_level,
        ))
    }

    /// Freezes a finished build into an index, sizing it once.
    fn assemble(
        params: HnswParams,
        vectors: Matrix,
        adj: LockedAdjacency,
        levels: Vec<usize>,
        entry_point: usize,
        max_level: usize,
    ) -> Self {
        let neighbors = adj.into_lists();
        let memory_bytes = footprint(&vectors, &neighbors, &levels);
        HnswIndex {
            params,
            vectors,
            neighbors,
            levels,
            entry_point,
            max_level,
            memory_bytes,
        }
    }

    /// Extends the index with additional vectors, returning a new index
    /// that contains the old graph plus the new nodes — the incremental
    /// insert path for delta maintenance, where rebuilding the whole graph
    /// per append would cost O(table) instead of O(delta).
    ///
    /// New nodes are inserted sequentially with the classic algorithm: each
    /// is planned against the full existing graph, so graph quality matches
    /// a sequential build's tail inserts.  Node levels are drawn from the
    /// same seeded RNG stream as construction, skipping the draws the
    /// existing nodes consumed — an index extended in two steps assigns the
    /// same levels as one extended in a single step.  Existing node ids are
    /// stable: new rows take ids `old_len..old_len + added.rows()`, matching
    /// their row offsets in the concatenated base table.
    ///
    /// `self` is untouched (live probes keep their snapshot); the returned
    /// index is the replacement to publish.
    ///
    /// # Errors
    /// Returns [`IndexError::DimensionMismatch`] when `added`'s width
    /// differs from the indexed vectors.
    pub fn extend(&self, added: &Matrix) -> Result<Self> {
        if added.rows() == 0 {
            return Ok(self.clone());
        }
        if added.cols() != self.dim() {
            return Err(IndexError::DimensionMismatch {
                indexed: self.dim(),
                query: added.cols(),
            });
        }
        let old_n = self.len();
        let n = old_n + added.rows();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let lambda = self.params.level_lambda();
        for _ in 0..old_n {
            let _: f64 = rng.gen_range(f64::EPSILON..1.0);
        }
        let mut levels = self.levels.clone();
        levels.extend((0..added.rows()).map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (-u.ln() * lambda).floor() as usize
        }));

        let mut vectors = self.vectors.clone();
        for r in 0..added.rows() {
            vectors
                .push_row(added.row(r).expect("row in range"))
                .expect("dimensions checked above");
        }
        if self.params.metric == Metric::Cosine {
            // only the appended rows: the stored ones are unit already
            for r in old_n..n {
                normalize(vectors.row_mut(r).expect("row in range"));
            }
        }

        // Re-materialise the committed graph behind per-node locks so the
        // shared build machinery (plan / commit / connect / prune) applies.
        let adj = LockedAdjacency::new(&levels);
        for (id, per_layer) in self.neighbors.iter().enumerate() {
            let mut guard = adj.lists[id].lock();
            for (layer, list) in per_layer.iter().enumerate() {
                guard[layer] = list.clone();
            }
        }
        let builder = GraphBuilder {
            vectors: &vectors,
            params: &self.params,
            levels: &levels,
            adj: &adj,
        };
        let (entry, max_level) =
            builder.insert_sequential(old_n..n, self.entry_point, self.max_level);
        // Amortised pruning may leave lists overshot; restore the bounds.
        // Per-node pruning is independent, so the pool split cannot affect
        // the result.
        builder.final_prune(ExecPool::global());

        Ok(Self::assemble(
            self.params,
            vectors,
            adj,
            levels,
            entry,
            max_level,
        ))
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.rows()
    }

    /// `true` when no vectors are indexed (never true for a built index).
    pub fn is_empty(&self) -> bool {
        self.vectors.rows() == 0
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The highest layer currently in use.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Approximate memory footprint of the graph structure in bytes
    /// (vectors + adjacency lists), measured once at build time.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Top-k probe with optional relational pre-filter.
    ///
    /// The filter acts inside layer 0's walk (module docs, "Filters"): only
    /// allowed rows enter the result list, while the walk still explores
    /// through the rows it may not return.  A probe therefore returns the
    /// top k of the *allowed* rows as the graph finds them — `min(k,
    /// allowed)` rows whenever the allowed rows are reachable — and the
    /// fewer rows the filter allows, the further the walk goes to fill its
    /// list.  A filter that allows no row returns at once: no neighbours and
    /// no distance computations.
    ///
    /// Neighbours come best first: higher score, then smaller id.  A NaN
    /// score ranks below every number, so it is returned only when too few
    /// numbers were kept; a NaN probe never panics or loops and returns the
    /// same neighbours on every call (module docs, "Search").
    ///
    /// # Errors
    /// Returns dimension and filter-length errors, and
    /// [`IndexError::InvalidParameter`] for `k == 0`.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        filter: Option<&SelectionBitmap>,
    ) -> Result<SearchResult> {
        if k == 0 {
            return Err(IndexError::InvalidParameter("k must be > 0".into()));
        }
        if query.len() != self.dim() {
            return Err(IndexError::DimensionMismatch {
                indexed: self.dim(),
                query: query.len(),
            });
        }
        if let Some(f) = filter {
            if f.len() != self.len() {
                return Err(IndexError::FilterLengthMismatch {
                    rows: self.len(),
                    filter: f.len(),
                });
            }
            if f.iter_selected().next().is_none() {
                // nothing can be returned, so nothing is walked
                return Ok(SearchResult {
                    neighbors: Vec::new(),
                    stats: ProbeStats::default(),
                });
            }
        }
        with_query_scratch(self.len(), |scratch| {
            if self.params.metric != Metric::Cosine {
                return self.search_inner(query, k, filter, scratch);
            }
            // Normalise the probe once into the scratch's reused buffer; it
            // is lent out for the walk so the scratch stays borrowable.
            let mut unit = std::mem::take(&mut scratch.unit_query);
            unit.clear();
            unit.extend_from_slice(query);
            normalize(&mut unit);
            let result = self.search_inner(&unit, k, filter, scratch);
            scratch.unit_query = unit;
            result
        })
    }

    /// The probe body, run with a borrowed (thread-reused) scratch and a
    /// probe already in the graph's metric space.
    fn search_inner(
        &self,
        query: &[f32],
        k: usize,
        filter: Option<&SelectionBitmap>,
        scratch: &mut SearchScratch,
    ) -> Result<SearchResult> {
        let searcher = Searcher {
            vectors: &self.vectors,
            metric: graph_metric(self.params.metric),
            adj: &self.neighbors,
        };
        let mut stats = ProbeStats::default();
        let ef = self.params.ef_search.max(k);
        // Multi-entry descent: keep a small beam of candidates per upper
        // layer instead of a single greedy winner, then seed the layer-0
        // search with the whole beam.  For probes drawn from a different
        // distribution than the indexed vectors (the hard case in the
        // scan-vs-probe experiments) a single greedy entry frequently lands
        // in the wrong cluster and the layer-0 search cannot escape it;
        // the beam repairs exactly that failure mode.  Each layer's output
        // seeds the next (scores included), so the descent never re-scores
        // a node it already knows.  The width comes from
        // [`HnswParams::beam_for`]: an explicit `beam_width`, or the
        // `(ef/8).clamp(1, 16)`-style heuristic by default.
        let beam_width = self.params.beam_for(k);
        let entry_score = searcher.similarity(query, self.entry_point);
        stats.distance_computations += 1;
        scratch.seed(self.entry_point, entry_score);
        for layer in (1..=self.max_level).rev() {
            searcher.search_layer(query, beam_width, layer, scratch, &mut stats);
        }
        match filter {
            None => searcher.search_layer(query, ef, 0, scratch, &mut stats),
            Some(f) => searcher
                .search_layer_admitting(query, ef, 0, scratch, &mut stats, |id| f.is_selected(id)),
        }
        // the results are allowed and best first: the first k are the top k
        let neighbors = scratch.entries().take(k).collect();
        Ok(SearchResult { neighbors, stats })
    }
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recall::self_probe_recall;
    use rand::Rng;

    /// Deterministic clustered vectors: `clusters` centroids, `per_cluster`
    /// points each, normalised.
    fn clustered(clusters: usize, per_cluster: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(0, dim);
        for c in 0..clusters {
            let centroid: Vec<f32> = (0..dim)
                .map(|_| rng.gen_range(-1.0..1.0) + c as f32)
                .collect();
            for _ in 0..per_cluster {
                let mut p: Vec<f32> = centroid
                    .iter()
                    .map(|v| v + rng.gen_range(-0.05..0.05))
                    .collect();
                let norm: f32 = p.iter().map(|x| x * x).sum::<f32>().sqrt();
                p.iter_mut().for_each(|x| *x /= norm);
                m.push_row(&p).unwrap();
            }
        }
        m
    }

    #[test]
    fn build_rejects_empty_and_bad_params() {
        assert!(matches!(
            HnswIndex::build(Matrix::zeros(0, 4), HnswParams::tiny()),
            Err(IndexError::EmptyIndex)
        ));
        let bad = HnswParams {
            m: 1,
            ..HnswParams::tiny()
        };
        assert!(HnswIndex::build(Matrix::zeros(1, 4), bad).is_err());
    }

    #[test]
    fn single_element_index() {
        let m = Matrix::from_flat(1, 3, vec![1.0, 0.0, 0.0]).unwrap();
        let idx = HnswIndex::build(m, HnswParams::tiny()).unwrap();
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        let res = idx.search(&[1.0, 0.0, 0.0], 1, None).unwrap();
        assert_eq!(res.neighbors[0].id, 0);
    }

    #[test]
    fn exact_match_is_top_result() {
        let vectors = clustered(4, 50, 16, 7);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        for probe in [0usize, 57, 123, 199] {
            let res = idx.search(vectors.row(probe).unwrap(), 1, None).unwrap();
            assert_eq!(
                res.neighbors[0].id, probe,
                "self-query should return itself"
            );
            assert!(res.stats.distance_computations > 0);
            assert!(res.stats.nodes_visited > 0);
        }
    }

    #[test]
    fn recall_against_brute_force_is_high() {
        let vectors = clustered(8, 40, 24, 11);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny().with_ef_search(64)).unwrap();
        let recall = self_probe_recall(&idx, &vectors, 10, 13).unwrap();
        assert!(
            recall > 0.8,
            "recall {recall} too low for a healthy HNSW graph"
        );
    }

    #[test]
    fn higher_ef_construction_does_not_reduce_recall() {
        let vectors = clustered(6, 30, 16, 3);
        let lo = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let hi_params = HnswParams {
            ef_construction: 128,
            ef_search: 64,
            ..HnswParams::tiny()
        };
        let hi = HnswIndex::build(vectors.clone(), hi_params).unwrap();
        let lo_recall = self_probe_recall(&lo, &vectors, 5, 7).unwrap();
        let hi_recall = self_probe_recall(&hi, &vectors, 5, 7).unwrap();
        assert!(hi_recall + 1e-9 >= lo_recall - 0.1);
    }

    #[test]
    fn sequential_and_batched_builds_have_equivalent_recall() {
        let vectors = clustered(6, 150, 16, 19);
        let params = HnswParams::tiny().with_ef_search(96);
        let sequential =
            HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(1)).unwrap();
        let batched =
            HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(4)).unwrap();
        let seq_recall = self_probe_recall(&sequential, &vectors, 10, 17).unwrap();
        let par_recall = self_probe_recall(&batched, &vectors, 10, 17).unwrap();
        assert!(
            (seq_recall - par_recall).abs() <= 0.01,
            "sequential recall {seq_recall} vs batched recall {par_recall}"
        );
    }

    #[test]
    fn batched_build_is_deterministic_within_the_small_window_class() {
        // Every multi-thread pool plans the same 16-node batches, so pools
        // of 2, 4 and 8 threads build bit-identical graphs.
        let vectors = clustered(4, 60, 12, 23);
        let params = HnswParams::tiny();
        let two = HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(2)).unwrap();
        for threads in [4, 8] {
            let other =
                HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(threads))
                    .unwrap();
            assert_eq!(two.neighbors, other.neighbors, "threads={threads}");
            assert_eq!(two.entry_point, other.entry_point, "threads={threads}");
            assert_eq!(two.max_level, other.max_level, "threads={threads}");
        }
    }

    #[test]
    fn wide_pool_recall_stays_equivalent_to_sequential() {
        let vectors = clustered(6, 100, 16, 19);
        let params = HnswParams::tiny().with_ef_search(96);
        let sequential =
            HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(1)).unwrap();
        let wide = HnswIndex::build_with_pool(vectors.clone(), params, &ExecPool::new(8)).unwrap();
        let seq_recall = self_probe_recall(&sequential, &vectors, 10, 17).unwrap();
        let wide_recall = self_probe_recall(&wide, &vectors, 10, 17).unwrap();
        // an 8-thread pool plans the same 16-node batches as any other
        // multi-thread pool; hold it to a few points of the sequential recall
        assert!(
            (seq_recall - wide_recall).abs() <= 0.05,
            "sequential recall {seq_recall} vs 8-thread recall {wide_recall}"
        );
    }

    #[test]
    fn degree_bounds_hold_after_build() {
        for pool in [ExecPool::new(1), ExecPool::new(4)] {
            let vectors = clustered(5, 80, 12, 29);
            let params = HnswParams::tiny();
            let idx = HnswIndex::build_with_pool(vectors, params, &pool).unwrap();
            for (node, per_layer) in idx.neighbors.iter().enumerate() {
                for (layer, list) in per_layer.iter().enumerate() {
                    assert!(
                        list.len() <= params.max_neighbors(layer),
                        "node {node} layer {layer} exceeds bound: {}",
                        list.len()
                    );
                    assert!(!list.contains(&(node as u32)), "self-link at node {node}");
                }
            }
        }
    }

    #[test]
    fn prefilter_excludes_rows_but_still_traverses() {
        let vectors = clustered(4, 25, 8, 5);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let probe = 10usize;
        let query = vectors.row(probe).unwrap();
        // Exclude the probe row itself: it can no longer be returned.
        let mut filter = SelectionBitmap::all(vectors.rows());
        filter.set(probe, false).unwrap();
        let res = idx.search(query, 3, Some(&filter)).unwrap();
        assert!(res.neighbors.iter().all(|e| e.id != probe));
        assert!(!res.neighbors.is_empty());
        // Traversal cost with and without the filter is comparable (the
        // filter does not prune the graph walk).
        let unfiltered = idx.search(query, 3, None).unwrap();
        assert!(res.stats.distance_computations >= unfiltered.stats.distance_computations / 2);
    }

    #[test]
    fn restrictive_filter_returns_only_allowed_rows() {
        let vectors = clustered(3, 20, 8, 9);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let allowed: Vec<usize> = (0..10).collect();
        let filter = SelectionBitmap::from_indices(vectors.rows(), &allowed);
        let res = idx
            .search(vectors.row(30).unwrap(), 5, Some(&filter))
            .unwrap();
        assert!(res.neighbors.iter().all(|e| allowed.contains(&e.id)));
    }

    #[test]
    fn a_filter_that_allows_nothing_walks_nothing() {
        let vectors = clustered(3, 20, 8, 9);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let none = SelectionBitmap::none(vectors.rows());
        let res = idx.search(vectors.row(7).unwrap(), 5, Some(&none)).unwrap();
        assert!(res.neighbors.is_empty());
        assert_eq!(res.stats, ProbeStats::default());
    }

    #[test]
    fn a_single_allowed_row_is_found_from_anywhere() {
        // the walk explores through the rows it may not return, so the one
        // allowed row is reached from every cluster, with its exact score
        let vectors = clustered(4, 25, 8, 5);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let exact = crate::BruteForce::new(idx.vectors.clone(), Metric::InnerProduct);
        for allowed in [0usize, 37, 99] {
            let filter = SelectionBitmap::from_indices(vectors.rows(), &[allowed]);
            for probe in [3usize, 30, 61, 88] {
                let query = vectors.row(probe).unwrap();
                let res = idx.search(query, 5, Some(&filter)).unwrap();
                let mut unit = query.to_vec();
                normalize(&mut unit);
                let want = exact.search(&unit, 5, Some(&filter)).unwrap();
                assert_eq!(res.neighbors.len(), 1, "allowed {allowed}, probe {probe}");
                assert_eq!(res.neighbors[0].id, allowed);
                assert_eq!(res.neighbors[0].score.to_bits(), want[0].score.to_bits());
            }
        }
    }

    #[test]
    fn search_error_cases() {
        let vectors = clustered(2, 10, 8, 13);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        assert!(idx.search(&[0.0; 4], 1, None).is_err());
        assert!(idx.search(vectors.row(0).unwrap(), 0, None).is_err());
        let bad_filter = SelectionBitmap::all(3);
        assert!(idx
            .search(vectors.row(0).unwrap(), 1, Some(&bad_filter))
            .is_err());
    }

    #[test]
    fn probe_stats_merge() {
        let mut a = ProbeStats {
            distance_computations: 3,
            nodes_visited: 2,
        };
        let b = ProbeStats {
            distance_computations: 5,
            nodes_visited: 7,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ProbeStats {
                distance_computations: 8,
                nodes_visited: 9
            }
        );
    }

    /// `m` with every value multiplied by `factor`.
    fn scaled(m: &Matrix, factor: f32) -> Matrix {
        let data = m.as_slice().iter().map(|v| v * factor).collect();
        Matrix::from_flat(m.rows(), m.cols(), data).unwrap()
    }

    /// `(id, score bits)` of a top-`k` probe, best first.
    fn hits(idx: &HnswIndex, query: &[f32], k: usize) -> Vec<(usize, u32)> {
        let res = idx.search(query, k, None).unwrap();
        res.neighbors
            .iter()
            .map(|e| (e.id, e.score.to_bits()))
            .collect()
    }

    #[test]
    fn power_of_two_scaling_changes_no_id_and_no_score_bit() {
        // Scaling by 2^p scales the norm by exactly 2^p, so the unit rows
        // (and with them the graph and every score) are the same bits.
        let vectors = clustered(4, 40, 12, 37);
        let base = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        for factor in [8.0f32, 0.125] {
            let idx = HnswIndex::build(scaled(&vectors, factor), HnswParams::tiny()).unwrap();
            assert_eq!(idx.neighbors, base.neighbors, "x{factor}: graph changed");
            for probe in [0usize, 41, 99, 158] {
                let q = vectors.row(probe).unwrap();
                let q_scaled: Vec<f32> = q.iter().map(|v| v * factor).collect();
                assert_eq!(hits(&idx, &q_scaled, 5), hits(&base, q, 5), "x{factor}");
            }
        }
    }

    #[test]
    fn zero_rows_and_zero_probes_score_exactly_zero() {
        // cosine_similarity's zero-norm contract: 0.0, never NaN
        let mut vectors = clustered(2, 10, 8, 41);
        for _ in 0..3 {
            vectors.push_row(&[0.0; 8]).unwrap();
        }
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let zero_probe = idx.search(&[0.0; 8], vectors.rows(), None).unwrap();
        assert!(!zero_probe.neighbors.is_empty());
        for e in &zero_probe.neighbors {
            assert_eq!(e.score.to_bits(), 0.0f32.to_bits(), "row {}", e.id);
        }
        for probe in 0..20 {
            let res = idx
                .search(vectors.row(probe).unwrap(), vectors.rows(), None)
                .unwrap();
            assert_eq!(res.neighbors[0].id, probe);
            for e in res.neighbors.iter().filter(|e| e.id >= 20) {
                assert_eq!(e.score.to_bits(), 0.0f32.to_bits(), "zero row {}", e.id);
            }
            assert!(res.neighbors.iter().all(|e| !e.score.is_nan()));
        }
    }

    #[test]
    fn extend_normalises_the_appended_rows() {
        let vectors = clustered(4, 40, 12, 47);
        let (head, tail) = split_rows(&vectors, 120);
        let base = HnswIndex::build(head, HnswParams::tiny().with_ef_search(64)).unwrap();
        let mut unit = tail.clone();
        normalize_matrix_rows(&mut unit);
        let from_unit = base.extend(&unit).unwrap();
        // Off the unit sphere by a power of two: exactly the same bits.
        let from_scaled = base.extend(&scaled(&unit, 4.0)).unwrap();
        assert_eq!(from_scaled.neighbors, from_unit.neighbors);
        // Off by arbitrary per-row factors: the appended rows are normalised
        // once here and twice in `from_unit`, which may move a last bit.
        let mut raw = tail.clone();
        for r in 0..raw.rows() {
            let factor = 0.3 + r as f32 * 0.37;
            raw.row_mut(r)
                .unwrap()
                .iter_mut()
                .for_each(|v| *v *= factor);
        }
        let from_raw = base.extend(&raw).unwrap();
        for probe in [0usize, 77, 120, 139, 159] {
            let q = vectors.row(probe).unwrap();
            assert_eq!(hits(&from_scaled, q, 5), hits(&from_unit, q, 5));
            let got = from_raw.search(q, 5, None).unwrap().neighbors;
            let want = from_unit.search(q, 5, None).unwrap().neighbors;
            assert_eq!(
                got.iter().map(|e| e.id).collect::<Vec<_>>(),
                want.iter().map(|e| e.id).collect::<Vec<_>>(),
                "probe {probe}"
            );
            for (g, w) in got.iter().zip(&want) {
                assert!((g.score - w.score).abs() <= 1e-6, "probe {probe}");
            }
        }
    }

    #[test]
    fn memory_bytes_is_the_footprint_of_the_finished_graph() {
        let vectors = clustered(3, 30, 8, 53);
        let (head, tail) = split_rows(&vectors, 60);
        let built = HnswIndex::build(head, HnswParams::tiny()).unwrap();
        let grown = built.extend(&tail).unwrap();
        for idx in [&built, &grown] {
            let expected = footprint(&idx.vectors, &idx.neighbors, &idx.levels);
            assert_eq!(idx.memory_bytes(), expected);
        }
        assert!(grown.memory_bytes() > built.memory_bytes());
    }

    #[test]
    fn memory_accounting_grows_with_size() {
        let small = HnswIndex::build(clustered(2, 10, 8, 1), HnswParams::tiny()).unwrap();
        let large = HnswIndex::build(clustered(4, 50, 8, 1), HnswParams::tiny()).unwrap();
        assert!(large.memory_bytes() > small.memory_bytes());
        assert!(small.max_level() <= large.max_level() + 5);
        assert_eq!(small.dim(), 8);
        assert_eq!(small.params().m, HnswParams::tiny().m);
    }

    #[test]
    fn deterministic_build_with_same_seed() {
        let vectors = clustered(3, 15, 8, 21);
        let a = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let b = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let qa = a.search(vectors.row(5).unwrap(), 5, None).unwrap();
        let qb = b.search(vectors.row(5).unwrap(), 5, None).unwrap();
        let ids_a: Vec<usize> = qa.neighbors.iter().map(|e| e.id).collect();
        let ids_b: Vec<usize> = qb.neighbors.iter().map(|e| e.id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn explicit_beam_width_is_honoured() {
        let vectors = clustered(4, 40, 12, 31);
        let wide = HnswIndex::build(
            vectors.clone(),
            HnswParams::tiny().with_beam_width(16).with_ef_search(64),
        )
        .unwrap();
        let narrow = HnswIndex::build(
            vectors.clone(),
            HnswParams::tiny().with_beam_width(1).with_ef_search(64),
        )
        .unwrap();
        for probe in [3usize, 47, 101] {
            let q = vectors.row(probe).unwrap();
            let wide_res = wide.search(q, 5, None).unwrap();
            let narrow_res = narrow.search(q, 5, None).unwrap();
            // Both beam settings must produce a healthy probe: the query
            // vector itself is always the top result.
            assert_eq!(wide_res.neighbors[0].id, probe);
            assert_eq!(narrow_res.neighbors[0].id, probe);
            assert_eq!(wide_res.neighbors.len(), 5);
            assert_eq!(narrow_res.neighbors.len(), 5);
        }
    }

    /// Split a matrix into `[0, at)` and `[at, rows)` halves.
    fn split_rows(m: &Matrix, at: usize) -> (Matrix, Matrix) {
        let mut head = Matrix::zeros(0, m.cols());
        let mut tail = Matrix::zeros(0, m.cols());
        for r in 0..m.rows() {
            let row = m.row(r).unwrap();
            if r < at {
                head.push_row(row).unwrap();
            } else {
                tail.push_row(row).unwrap();
            }
        }
        (head, tail)
    }

    #[test]
    fn extend_appends_searchable_rows() {
        let vectors = clustered(5, 40, 12, 43);
        let (head, tail) = split_rows(&vectors, 150);
        let base = HnswIndex::build(head, HnswParams::tiny().with_ef_search(64)).unwrap();
        let grown = base.extend(&tail).unwrap();
        assert_eq!(grown.len(), vectors.rows());
        assert_eq!(base.len(), 150, "extend must not mutate the original");
        for probe in [0usize, 149, 150, 175, 199] {
            let res = grown.search(vectors.row(probe).unwrap(), 1, None).unwrap();
            assert_eq!(res.neighbors[0].id, probe, "self-query after extend");
        }
        let recall = self_probe_recall(&grown, &vectors, 10, 17).unwrap();
        assert!(recall > 0.8, "recall {recall} too low after extend");
    }

    #[test]
    fn extend_preserves_degree_bounds_and_level_schedule() {
        let vectors = clustered(4, 50, 8, 9);
        let params = HnswParams::tiny();
        let (head, tail) = split_rows(&vectors, 120);
        let grown = HnswIndex::build(head, params)
            .unwrap()
            .extend(&tail)
            .unwrap();
        let full = HnswIndex::build(vectors, params).unwrap();
        // The level draws are replayed from the shared seed, so an extended
        // index assigns exactly the levels a from-scratch build would.
        assert_eq!(grown.levels, full.levels);
        assert_eq!(grown.max_level, full.max_level);
        for (node, per_layer) in grown.neighbors.iter().enumerate() {
            for (layer, list) in per_layer.iter().enumerate() {
                assert!(
                    list.len() <= params.max_neighbors(layer),
                    "node {node} layer {layer} exceeds bound after extend"
                );
                assert!(!list.contains(&(node as u32)), "self-link at node {node}");
            }
        }
    }

    #[test]
    fn extend_edge_cases() {
        let vectors = clustered(3, 20, 8, 51);
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny()).unwrap();
        let same = idx.extend(&Matrix::zeros(0, 8)).unwrap();
        assert_eq!(same.len(), idx.len());
        assert!(matches!(
            idx.extend(&Matrix::zeros(2, 4)),
            Err(IndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn keys_order_scores_then_ids_and_put_nan_last() {
        let ascending = [
            f32::NEG_INFINITY,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            0.5,
            f32::MAX,
            f32::INFINITY,
        ];
        for pair in ascending.windows(2) {
            assert!(score_key(pair[0]) < score_key(pair[1]), "{pair:?}");
        }
        assert_eq!(score_key(-0.0), score_key(0.0));
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
            assert_eq!(score_key(nan), 0);
            assert!(pack(nan, 0) < pack(f32::NEG_INFINITY, u32::MAX as usize));
        }
        // equal scores: the smaller id is the larger key
        assert!(pack(0.5, 3) > pack(0.5, 4));
        assert!(pack(-0.0, 3) > pack(0.0, 4));
        assert!(pack(0.0, 3) > pack(-0.0, 4));
        assert!(pack(0.75, 9) > pack(0.5, 1));
        for id in [0usize, 1, 77, u32::MAX as usize] {
            assert_eq!(key_id(pack(0.25, id)), id);
        }
    }

    /// `rows` with ten exact duplicates of row 3 appended.
    fn with_duplicates(rows: &Matrix) -> Matrix {
        let mut m = rows.clone();
        let dup = rows.row(3).unwrap().to_vec();
        for _ in 0..10 {
            m.push_row(&dup).unwrap();
        }
        m
    }

    #[test]
    fn equal_scores_are_returned_smaller_id_first() {
        let vectors = with_duplicates(&clustered(3, 30, 8, 59));
        let idx = HnswIndex::build(vectors.clone(), HnswParams::tiny().with_ef_search(64)).unwrap();
        let res = idx.search(vectors.row(3).unwrap(), 6, None).unwrap();
        let ids: Vec<usize> = res.neighbors.iter().map(|e| e.id).collect();
        assert_eq!(ids, [3, 90, 91, 92, 93, 94]);
        let bits = res.neighbors[0].score.to_bits();
        assert!(res.neighbors.iter().all(|e| e.score.to_bits() == bits));
    }

    #[test]
    fn minus_zero_scores_tie_by_id_and_keep_their_bits() {
        // Euclidean similarity is the negated distance: an exact duplicate
        // of the probe scores -0.0, which orders like +0.0 (the keys test
        // pins the mixed tie) and is returned with its own sign
        let vectors = with_duplicates(&clustered(3, 30, 8, 61));
        let params = HnswParams::tiny()
            .with_ef_search(64)
            .with_metric(Metric::Euclidean);
        let idx = HnswIndex::build(vectors.clone(), params).unwrap();
        let res = idx.search(vectors.row(3).unwrap(), 4, None).unwrap();
        let got: Vec<(usize, u32)> = res
            .neighbors
            .iter()
            .map(|e| (e.id, e.score.to_bits()))
            .collect();
        let minus_zero = (-0.0f32).to_bits();
        assert_eq!(
            got,
            [
                (3, minus_zero),
                (90, minus_zero),
                (91, minus_zero),
                (92, minus_zero)
            ]
        );
    }

    #[test]
    fn nan_probes_and_nan_rows_rank_last_and_repeat_exactly() {
        let mut vectors = clustered(3, 30, 8, 67);
        vectors.row_mut(5).unwrap()[2] = f32::NAN;
        vectors.push_row(&[f32::NAN; 8]).unwrap();
        for pool in [ExecPool::new(1), ExecPool::new(2)] {
            let idx =
                HnswIndex::build_with_pool(vectors.clone(), HnswParams::tiny(), &pool).unwrap();
            // a NaN row ranks below every number: never returned while
            // numbers remain
            for probe in [0usize, 31, 62] {
                let res = idx.search(vectors.row(probe).unwrap(), 10, None).unwrap();
                assert_eq!(res.neighbors[0].id, probe);
                assert!(res.neighbors.iter().all(|e| !e.score.is_nan()));
            }
            // every score of a NaN probe is NaN: they tie, so ids ascend;
            // the walk terminates and repeats exactly
            let nan_probe = [f32::NAN; 8];
            let first = idx.search(&nan_probe, 5, None).unwrap();
            assert_eq!(first.neighbors.len(), 5);
            assert!(first.neighbors.iter().all(|e| e.score.is_nan()));
            assert!(first.neighbors.windows(2).all(|w| w[0].id < w[1].id));
            let again = idx.search(&nan_probe, 5, None).unwrap();
            assert_eq!(first.stats, again.stats);
            assert_eq!(
                first.neighbors.iter().map(|e| e.id).collect::<Vec<_>>(),
                again.neighbors.iter().map(|e| e.id).collect::<Vec<_>>()
            );
        }
    }
}
