//! Parameterised experiment bodies behind the `paper_figs` binary.
//!
//! Each function reproduces the measurement loop of one (or one family of)
//! paper experiments and returns printable rows; the binary only chooses
//! parameters and prints.  Keeping the bodies here also lets the unit tests
//! smoke-test every experiment at a tiny scale.

use std::time::Duration;

use cej_core::{
    CostModel, IndexJoin, IndexJoinConfig, JoinPair, JoinResult, NljConfig, PrefetchNlJoin,
    TensorJoin, TensorJoinConfig,
};
use cej_embedding::{
    train_on_corpus, CachedEmbedder, Embedder, FastTextConfig, FastTextModel, TrainingConfig,
};
use cej_index::HnswParams;
use cej_relational::SimilarityPredicate;
use cej_storage::SelectionBitmap;
use cej_vector::{
    gemm::block_into, norm::normalize_matrix_rows_with, topk::scan_at_least, BufferBudget,
    GemmConfig, Kernel, Matrix,
};
use cej_workload::{uniform_matrix, CorpusGenerator, WordGenerator};

use crate::harness::{fmt_ms, fmt_ns_per, time_once};

/// Default embedding dimensionality used by the experiments (the paper's
/// 100-D FastText embeddings).
pub const DIM: usize = 100;

fn words(n: usize, prefix: &str) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}word{i}")).collect()
}

/// A deterministic "uniform [0, 100)" attribute used as the selectivity
/// control column (replaces an RNG so binaries need no rand dependency).
fn filter_value(i: usize) -> usize {
    (i.wrapping_mul(37) + 11) % 100
}

/// Builds the selectivity bitmap `filter < selectivity_percent` over `n` rows.
pub fn selectivity_bitmap(n: usize, selectivity_percent: usize) -> SelectionBitmap {
    SelectionBitmap::from_bools(
        (0..n)
            .map(|i| filter_value(i) < selectivity_percent)
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Table II — semantic matching with the trained embedding model
// ---------------------------------------------------------------------------

/// Trains a model on the synthetic synonym-cluster corpus and returns, for
/// each query word, its top-`k` nearest vocabulary words — the reproduction
/// of Table II.
pub fn table02_semantic_matches(k: usize) -> Vec<(String, Vec<String>)> {
    let mut generator = WordGenerator::new(42);
    let clusters = generator.clusters(10, 8);
    let corpus = CorpusGenerator::new(7)
        .with_noise(0.05)
        .generate(&clusters, 600);
    let mut model = FastTextModel::new(FastTextConfig {
        dim: DIM,
        buckets: 100_000,
        ..FastTextConfig::default()
    })
    .expect("valid config");
    train_on_corpus(&mut model, &corpus, &TrainingConfig::default()).expect("training succeeds");

    ["database", "postgres", "clothes", "barbecue"]
        .iter()
        .map(|query| {
            let matches = model
                .nearest_words(query, k)
                .into_iter()
                .map(|(w, _)| w)
                .collect::<Vec<_>>();
            (query.to_string(), matches)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8 — logical (prefetch) × physical (SIMD) optimisation of the E-NLJ
// ---------------------------------------------------------------------------

/// One Figure 8 measurement row.
#[derive(Debug, Clone)]
pub struct Fig08Row {
    /// `|R| x |S|` label.
    pub sizes: String,
    /// Naive (per-pair embedding) join, scalar kernel.
    pub naive_no_simd: Duration,
    /// Naive join, unrolled kernel.
    pub naive_simd: Duration,
    /// Prefetch join, scalar kernel.
    pub prefetch_no_simd: Duration,
    /// Prefetch join, unrolled kernel.
    pub prefetch_simd: Duration,
    /// Model calls of the naive formulation.
    pub naive_model_calls: u64,
    /// Model calls of the prefetch formulation.
    pub prefetch_model_calls: u64,
}

/// The prefetch step over strings: every tuple embedded once, its row
/// unit-normalised with `kernel` — the input the matrix-level joins take.
fn embed_normalized(model: &dyn Embedder, strings: &[String], kernel: Kernel) -> Matrix {
    let mut matrix = model.embed_batch(strings);
    normalize_matrix_rows_with(&mut matrix, kernel);
    matrix
}

/// Naive E-NLJ with a selectable kernel: embeds *inside* the pair loop.
fn naive_nlj_with_kernel(
    model: &dyn Embedder,
    left: &[String],
    right: &[String],
    threshold: f32,
    kernel: Kernel,
) -> usize {
    let mut matches = 0usize;
    for l in left {
        for r in right {
            let lv = model.embed(l);
            let rv = model.embed(r);
            let denom = kernel.l2_norm(lv.as_slice()) * kernel.l2_norm(rv.as_slice());
            let score = if denom > 0.0 {
                kernel.dot(lv.as_slice(), rv.as_slice()) / denom
            } else {
                0.0
            };
            if score >= threshold {
                matches += 1;
            }
        }
    }
    matches
}

/// Runs the Figure 8 experiment for the given `(|R|, |S|)` size pairs.
pub fn fig08_nlj_logical_physical(sizes: &[(usize, usize)], dim: usize) -> Vec<Fig08Row> {
    let threshold = 0.95;
    sizes
        .iter()
        .map(|&(r, s)| {
            let model = FastTextModel::new(FastTextConfig {
                dim,
                buckets: 20_000,
                ..FastTextConfig::default()
            })
            .expect("valid config");
            let left = words(r, "l");
            let right = words(s, "r");

            let counted = CachedEmbedder::uncached(
                FastTextModel::new(FastTextConfig {
                    dim,
                    buckets: 20_000,
                    ..FastTextConfig::default()
                })
                .expect("valid config"),
            );
            let (_, naive_no_simd) = time_once(|| {
                naive_nlj_with_kernel(&counted, &left, &right, threshold, Kernel::Scalar)
            });
            let naive_model_calls = counted.stats().model_calls;
            counted.reset_stats();
            let (_, naive_simd) = time_once(|| {
                naive_nlj_with_kernel(&counted, &left, &right, threshold, Kernel::Unrolled)
            });

            let prefetch_scalar =
                PrefetchNlJoin::new(NljConfig::default().with_kernel(Kernel::Scalar));
            let prefetch_simd_op = PrefetchNlJoin::new(NljConfig::default());
            let cached = CachedEmbedder::new(
                FastTextModel::new(FastTextConfig {
                    dim,
                    buckets: 20_000,
                    ..FastTextConfig::default()
                })
                .expect("valid config"),
            );
            let prefetch = |join: &PrefetchNlJoin, model: &dyn Embedder| {
                let kernel = join.config().kernel;
                join.join(
                    &embed_normalized(model, &left, kernel),
                    &embed_normalized(model, &right, kernel),
                    SimilarityPredicate::Threshold(threshold),
                )
                .expect("join succeeds")
            };
            let (_, prefetch_no_simd) = time_once(|| prefetch(&prefetch_scalar, &cached));
            let prefetch_model_calls = cached.stats().model_calls;
            let (_, prefetch_simd) = time_once(|| prefetch(&prefetch_simd_op, &model));

            Fig08Row {
                sizes: format!("{r} x {s}"),
                naive_no_simd,
                naive_simd,
                prefetch_no_simd,
                prefetch_simd,
                naive_model_calls,
                prefetch_model_calls,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 9 — thread scalability of the optimised NLJ
// ---------------------------------------------------------------------------

/// Runs the Figure 9 experiment: optimised NLJ over `rows x rows` inputs for
/// every thread count, with both kernels.  Returns `(threads, simd, no_simd)`.
pub fn fig09_thread_scalability(
    rows: usize,
    dim: usize,
    threads: &[usize],
) -> Vec<(usize, Duration, Duration)> {
    let left = uniform_matrix(rows, dim, 1, true);
    let right = uniform_matrix(rows, dim, 2, true);
    let predicate = SimilarityPredicate::Threshold(0.9);
    threads
        .iter()
        .map(|&t| {
            let simd_op = PrefetchNlJoin::new(NljConfig::default().with_threads(t));
            let scalar_op = PrefetchNlJoin::new(
                NljConfig::default()
                    .with_threads(t)
                    .with_kernel(Kernel::Scalar),
            );
            let (_, simd) = time_once(|| simd_op.join(&left, &right, predicate).unwrap());
            let (_, no_simd) = time_once(|| scalar_op.join(&left, &right, predicate).unwrap());
            (t, simd, no_simd)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10 — optimised NLJ across input-size combinations
// ---------------------------------------------------------------------------

/// Figure 10's "as-given order" series: the prefetch NLJ's threshold pair
/// loop with `left` always on the outer loop, whichever side is smaller
/// ([`PrefetchNlJoin::join`] keeps the smaller one inner).  Serial, like the
/// one-thread join it is compared with.
fn nlj_as_given_order(left: &Matrix, right: &Matrix, threshold: f32) -> Vec<JoinPair> {
    let mut pairs = Vec::new();
    for i in 0..left.rows() {
        let outer_row = left.row(i).expect("left row in range");
        for j in 0..right.rows() {
            let score = Kernel::Unrolled.dot(outer_row, right.row(j).expect("right row in range"));
            if score >= threshold {
                pairs.push(JoinPair::new(i, j, score));
            }
        }
    }
    pairs
}

/// Runs the Figure 10 experiment on one thread: for each `(|R|, |S|)` pair
/// report the optimised NLJ time with the loop-order heuristic (the
/// operator) and with the order as given, plus the number of pair
/// comparisons (the "operations" grouping of the figure).
pub fn fig10_input_sizes(
    sizes: &[(usize, usize)],
    dim: usize,
) -> Vec<(String, u64, Duration, Duration)> {
    let threshold = 0.9;
    let join = PrefetchNlJoin::new(NljConfig::default().with_threads(1));
    sizes
        .iter()
        .map(|&(r, s)| {
            let left = uniform_matrix(r, dim, 3, true);
            let right = uniform_matrix(s, dim, 4, true);
            let predicate = SimilarityPredicate::Threshold(threshold);
            let (_, ordered) = time_once(|| join.join(&left, &right, predicate).unwrap());
            let (_, unordered) = time_once(|| nlj_as_given_order(&left, &right, threshold));
            (
                format!("{r} x {s}"),
                (r as u64) * (s as u64),
                ordered,
                unordered,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 11 & 12 — per-element cost: NLJ vs tensor, batched vs non-batched
// ---------------------------------------------------------------------------

/// One row of the per-element experiments: total FP32 ops, vector width, and
/// the nanoseconds-per-element of the two compared strategies.
#[derive(Debug, Clone)]
pub struct PerElementRow {
    /// Total number of FP32 values processed per relation (`tuples · dim`).
    pub fp32_ops: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Tuples per input relation.
    pub tuples: usize,
    /// ns/element of the first strategy.
    pub first_ns: String,
    /// ns/element of the second strategy.
    pub second_ns: String,
}

fn tuples_for(fp32_ops: usize, dim: usize) -> usize {
    (((fp32_ops / dim.max(1)) as f64).sqrt().round() as usize).max(1)
}

/// Figure 11: vectorised NLJ vs the tensor formulation.
pub fn fig11_nlj_vs_tensor(fp32_ops: &[usize], dims: &[usize]) -> Vec<PerElementRow> {
    per_element_experiment(fp32_ops, dims, |left, right| {
        let nlj = PrefetchNlJoin::new(NljConfig::default());
        let tensor = TensorJoin::new(TensorJoinConfig::default());
        let predicate = SimilarityPredicate::Threshold(0.99);
        let (_, a) = time_once(|| nlj.join(left, right, predicate).unwrap());
        let (_, b) = time_once(|| tensor.join(left, right, predicate).unwrap());
        (a, b)
    })
}

/// Figure 12's "Tensor-Non-Batched" series: the inner relation one vector
/// at a time through the same GEMM kernel (degenerate 1-row blocks), so the
/// only difference from [`TensorJoin::join`] is the lost reuse of the inner
/// block.  Threshold predicates, like the figure.
fn tensor_join_per_vector(left: &Matrix, right: &Matrix, threshold: f32) -> JoinResult {
    let gemm = GemmConfig::default();
    let mut scores = vec![0.0f32; left.rows()];
    let mut result = JoinResult::default();
    for j in 0..right.rows() {
        let inner_row = right.row(j).expect("right row in range");
        block_into(
            left.as_slice(),
            inner_row,
            left.rows(),
            1,
            left.cols(),
            &gemm,
            &mut scores,
        );
        result.stats.blocks_computed += 1;
        scan_at_least(&scores, threshold, |i, score| {
            result.pairs.push(JoinPair::new(i, j, score));
            threshold
        });
    }
    result
}

/// Figure 12: fully-batched vs non-batched tensor formulation.
pub fn fig12_batched_vs_non_batched(fp32_ops: &[usize], dims: &[usize]) -> Vec<PerElementRow> {
    per_element_experiment(fp32_ops, dims, |left, right| {
        let batched = TensorJoin::new(TensorJoinConfig::default());
        let threshold = 0.99;
        let predicate = SimilarityPredicate::Threshold(threshold);
        let (_, a) = time_once(|| batched.join(left, right, predicate).unwrap());
        let (_, b) = time_once(|| tensor_join_per_vector(left, right, threshold));
        (a, b)
    })
}

fn per_element_experiment(
    fp32_ops: &[usize],
    dims: &[usize],
    mut run: impl FnMut(&Matrix, &Matrix) -> (Duration, Duration),
) -> Vec<PerElementRow> {
    let mut rows = Vec::new();
    for &ops in fp32_ops {
        for &dim in dims {
            let tuples = tuples_for(ops, dim);
            let left = uniform_matrix(tuples, dim, 5, true);
            let right = uniform_matrix(tuples, dim, 6, true);
            let (first, second) = run(&left, &right);
            let elements = tuples * dim;
            rows.push(PerElementRow {
                fp32_ops: ops,
                dim,
                tuples,
                first_ns: fmt_ns_per(first, elements),
                second_ns: fmt_ns_per(second, elements),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 13 — mini-batch size vs memory and slowdown
// ---------------------------------------------------------------------------

/// One Figure 13 row: batch label, relative slowdown, relative RAM reduction.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// `outer x inner` mini-batch shape label.
    pub batch: String,
    /// Execution time relative to the un-batched run (1.0 = equal).
    pub relative_slowdown: f64,
    /// Intermediate-state memory reduction factor vs the un-batched run.
    pub ram_reduction: f64,
}

/// Runs the Figure 13 experiment on an `n x n` self-join with the given
/// mini-batch shapes (tuples per side).
pub fn fig13_batch_size_impact(n: usize, dim: usize, batches: &[(usize, usize)]) -> Vec<Fig13Row> {
    let left = uniform_matrix(n, dim, 7, true);
    let right = uniform_matrix(n, dim, 8, true);
    let predicate = SimilarityPredicate::Threshold(0.95);
    let unbatched =
        TensorJoin::new(TensorJoinConfig::default().with_budget(BufferBudget::unlimited()));
    let (base_result, base_time) = time_once(|| unbatched.join(&left, &right, predicate).unwrap());
    let base_block_bytes = base_result.stats.peak_buffer_bytes.max(1);

    let mut rows = vec![Fig13Row {
        batch: format!("{n} x {n} (No Batch)"),
        relative_slowdown: 1.0,
        ram_reduction: 1.0,
    }];
    for &(outer, inner) in batches {
        let budget = BufferBudget::from_bytes(outer * inner * std::mem::size_of::<f32>());
        let op = TensorJoin::new(TensorJoinConfig::default().with_budget(budget));
        let (result, elapsed) = time_once(|| op.join(&left, &right, predicate).unwrap());
        let block_bytes = result.stats.peak_buffer_bytes.max(1);
        rows.push(Fig13Row {
            batch: format!("{outer} x {inner}"),
            relative_slowdown: elapsed.as_secs_f64() / base_time.as_secs_f64(),
            ram_reduction: base_block_bytes as f64 / block_bytes as f64,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 14 — tensor join vs optimised NLJ end-to-end
// ---------------------------------------------------------------------------

/// Runs the Figure 14 experiment: end-to-end tensor join vs optimised NLJ for
/// each `(|R|, |S|)` pair.  Returns `(label, tensor, nlj)`.
pub fn fig14_tensor_vs_nlj(
    sizes: &[(usize, usize)],
    dim: usize,
    threads: usize,
) -> Vec<(String, Duration, Duration)> {
    sizes
        .iter()
        .map(|&(r, s)| {
            let left = uniform_matrix(r, dim, 9, true);
            let right = uniform_matrix(s, dim, 10, true);
            let predicate = SimilarityPredicate::Threshold(0.95);
            let tensor = TensorJoin::new(TensorJoinConfig::default().with_threads(threads));
            let nlj = PrefetchNlJoin::new(NljConfig::default().with_threads(threads));
            let (_, tensor_time) = time_once(|| tensor.join(&left, &right, predicate).unwrap());
            let (_, nlj_time) = time_once(|| nlj.join(&left, &right, predicate).unwrap());
            (format!("{r} x {s}"), tensor_time, nlj_time)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 15-17 — scan vs probe under relational selectivity
// ---------------------------------------------------------------------------

/// One selectivity point of the scan-vs-probe experiments.
#[derive(Debug, Clone)]
pub struct ScanVsProbeRow {
    /// Selectivity in percent.
    pub selectivity: usize,
    /// Tensor join including the pre-filtering cost.
    pub tensor: Duration,
    /// Tensor join with the filtering cost excluded (the paper's
    /// "Tensor Join (-filter cost)" series).
    pub tensor_minus_filter: Duration,
    /// Index join with the low-recall configuration.
    pub index_lo: Duration,
    /// Index join with the high-recall configuration.
    pub index_hi: Duration,
}

/// Runs the scan-vs-probe experiment shared by Figures 15 (`TopK(1)`),
/// 16 (`TopK(32)`), and 17 (`Threshold(0.9)`).
pub fn scan_vs_probe(
    outer_rows: usize,
    inner_rows: usize,
    dim: usize,
    predicate: SimilarityPredicate,
    selectivities: &[usize],
    hnsw_scale_down: bool,
) -> Vec<ScanVsProbeRow> {
    let inner = uniform_matrix(inner_rows, dim, 11, true);
    let outer = uniform_matrix(outer_rows, dim, 12, true);

    // Scaled-down HNSW parameters keep index build times tolerable on one
    // core while preserving the Hi > Lo cost ordering.
    let (lo_params, hi_params) = if hnsw_scale_down {
        (
            HnswParams {
                m: 16,
                m0: 32,
                ef_construction: 64,
                ef_search: 48,
                ..HnswParams::low_recall()
            },
            HnswParams {
                m: 32,
                m0: 64,
                ef_construction: 128,
                ef_search: 96,
                ..HnswParams::high_recall()
            },
        )
    } else {
        (HnswParams::low_recall(), HnswParams::high_recall())
    };
    let k = match predicate {
        SimilarityPredicate::TopK(k) => k,
        SimilarityPredicate::Threshold(_) => 32,
    };
    let lo_join = IndexJoin::new(IndexJoinConfig {
        params: lo_params,
        range_probe_k: k,
    });
    let hi_join = IndexJoin::new(IndexJoinConfig {
        params: hi_params,
        range_probe_k: k,
    });
    let lo_index = lo_join.build_index(&inner).expect("index build");
    let hi_index = hi_join.build_index(&inner).expect("index build");
    let tensor = TensorJoin::new(TensorJoinConfig::default());

    selectivities
        .iter()
        .map(|&sel| {
            let bitmap = selectivity_bitmap(inner_rows, sel);

            // The scan pre-filters: only the selected inner rows are scored.
            let compact = || {
                let selected: Vec<u32> = bitmap.iter_selected().map(|i| i as u32).collect();
                inner
                    .gather_rows(&selected)
                    .expect("selected rows in range")
            };
            let (_, tensor_time) =
                time_once(|| tensor.join(&outer, &compact(), predicate).unwrap());
            // "-filter cost": the inner relation is compacted before timing.
            let compacted = compact();
            let (_, tensor_minus_filter) =
                time_once(|| tensor.join(&outer, &compacted, predicate).unwrap());
            let (_, lo) = time_once(|| {
                lo_join
                    .probe(&outer, &lo_index, predicate, Some(&bitmap))
                    .unwrap()
            });
            let (_, hi) = time_once(|| {
                hi_join
                    .probe(&outer, &hi_index, predicate, Some(&bitmap))
                    .unwrap()
            });
            ScanVsProbeRow {
                selectivity: sel,
                tensor: tensor_time,
                tensor_minus_filter,
                index_lo: lo,
                index_hi: hi,
            }
        })
        .collect()
}

/// Formats a [`ScanVsProbeRow`] list into printable table rows.
pub fn scan_vs_probe_rows(rows: &[ScanVsProbeRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                format!("{}%", r.selectivity),
                fmt_ms(r.tensor),
                fmt_ms(r.tensor_minus_filter),
                fmt_ms(r.index_lo),
                fmt_ms(r.index_hi),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cost-model validation (Section IV)
// ---------------------------------------------------------------------------

/// Returns `(label, naive model calls, prefetch model calls, predicted naive
/// cost, predicted prefetch cost)` rows validating the cost formulas against
/// the operators' measured counters.
pub fn costmodel_validation(sizes: &[(usize, usize)]) -> Vec<(String, u64, u64, f64, f64)> {
    let cost = CostModel::default();
    sizes
        .iter()
        .map(|&(r, s)| {
            let model = FastTextModel::new(FastTextConfig {
                dim: 32,
                buckets: 5_000,
                ..FastTextConfig::default()
            })
            .expect("valid config");
            let left = words(r, "l");
            let right = words(s, "r");
            let uncached = CachedEmbedder::uncached(
                FastTextModel::new(FastTextConfig {
                    dim: 32,
                    buckets: 5_000,
                    ..FastTextConfig::default()
                })
                .expect("valid config"),
            );
            cej_core::NaiveNlJoin::new()
                .join(
                    &uncached,
                    &left,
                    &right,
                    SimilarityPredicate::Threshold(0.99),
                )
                .expect("join succeeds");
            let cached = CachedEmbedder::new(model);
            TensorJoin::new(TensorJoinConfig::default())
                .join(
                    &embed_normalized(&cached, &left, Kernel::Unrolled),
                    &embed_normalized(&cached, &right, Kernel::Unrolled),
                    SimilarityPredicate::Threshold(0.99),
                )
                .expect("join succeeds");
            (
                format!("{r} x {s}"),
                uncached.stats().model_calls,
                cached.stats().model_calls,
                cost.e_nlj_naive(r, s),
                cost.e_nlj_prefetch(r, s),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_bitmap_is_roughly_uniform() {
        let b = selectivity_bitmap(10_000, 30);
        let frac = b.selectivity();
        assert!((frac - 0.3).abs() < 0.05, "got {frac}");
        assert_eq!(selectivity_bitmap(100, 0).count_selected(), 0);
        assert_eq!(selectivity_bitmap(100, 100).count_selected(), 100);
    }

    #[test]
    fn tuples_for_inverts_fp32_budget() {
        assert_eq!(tuples_for(25_600, 1), 160);
        assert_eq!(tuples_for(25_600, 256), 10);
        assert!(tuples_for(10, 100) >= 1);
    }

    #[test]
    fn table02_returns_matches_for_every_query() {
        let rows = table02_semantic_matches(5);
        assert_eq!(rows.len(), 4);
        for (query, matches) in rows {
            assert_eq!(matches.len(), 5, "query {query} should have 5 matches");
        }
    }

    #[test]
    fn fig08_rows_show_model_call_gap() {
        let rows = fig08_nlj_logical_physical(&[(4, 4)], 16);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].naive_model_calls > rows[0].prefetch_model_calls);
    }

    #[test]
    fn fig09_and_fig10_smoke() {
        let scal = fig09_thread_scalability(16, 8, &[1, 2]);
        assert_eq!(scal.len(), 2);
        let sizes = fig10_input_sizes(&[(8, 16), (16, 8)], 8);
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[0].1, 128);
    }

    #[test]
    fn fig11_to_fig14_smoke() {
        let rows = fig11_nlj_vs_tensor(&[256], &[4, 16]);
        assert_eq!(rows.len(), 2);
        let rows = fig12_batched_vs_non_batched(&[256], &[4]);
        assert_eq!(rows.len(), 1);
        let rows = fig13_batch_size_impact(32, 8, &[(8, 8), (16, 16)]);
        assert_eq!(rows.len(), 3);
        assert!(rows[1].ram_reduction >= 1.0);
        let rows = fig14_tensor_vs_nlj(&[(16, 16)], 8, 1);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn fig10_as_given_order_returns_the_operators_pairs() {
        // both orientations: the operator swaps loops only when the right
        // side is the larger one, and must still name (left, right)
        let join = PrefetchNlJoin::new(NljConfig::default().with_threads(1));
        for (r, s) in [(3, 50), (50, 3), (20, 20)] {
            let left = uniform_matrix(r, 8, 5, true);
            let right = uniform_matrix(s, 8, 6, true);
            let operator = join
                .join(&left, &right, SimilarityPredicate::Threshold(0.3))
                .unwrap();
            let as_given = JoinResult {
                pairs: nlj_as_given_order(&left, &right, 0.3),
                ..JoinResult::default()
            };
            assert!(!as_given.is_empty());
            assert!(as_given.pairs.iter().all(|p| p.left < r && p.right < s));
            assert_eq!(
                as_given.sorted_pairs(),
                operator.sorted_pairs(),
                "{r} x {s}"
            );
        }
    }

    #[test]
    fn fig12_per_vector_inner_returns_the_batched_pairs_in_more_blocks() {
        let left = uniform_matrix(20, 16, 9, true);
        let right = uniform_matrix(30, 16, 10, true);
        let batched = TensorJoin::new(TensorJoinConfig::default())
            .join(&left, &right, SimilarityPredicate::Threshold(0.15))
            .unwrap();
        let per_vector = tensor_join_per_vector(&left, &right, 0.15);
        assert!(!per_vector.is_empty());
        assert_eq!(per_vector.sorted_pairs(), batched.sorted_pairs());
        assert_eq!(per_vector.stats.blocks_computed, 30);
        assert!(batched.stats.blocks_computed < 30);
    }

    #[test]
    fn scan_vs_probe_smoke() {
        let rows = scan_vs_probe(8, 200, 16, SimilarityPredicate::TopK(1), &[10, 100], true);
        assert_eq!(rows.len(), 2);
        let printable = scan_vs_probe_rows(&rows);
        assert_eq!(printable[0].len(), 5);
    }

    #[test]
    fn costmodel_validation_counts() {
        let rows = costmodel_validation(&[(3, 5)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 2 * 15);
        assert_eq!(rows[0].2, 8);
        assert!(rows[0].3 > rows[0].4);
    }
}
