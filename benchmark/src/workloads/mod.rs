//! The four workloads and what they share: the [`Workload`] contract the
//! runner drives, result fingerprints, and the operator-shape walk that
//! turns `ExecutionReport::operator_micros` (inclusive, pre-order) into
//! per-operator-kind self times.

use std::time::Duration;

use cej_core::{ContextJoinSession, InnerInput, PhysicalJoinOp, PhysicalPlan};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_storage::{Column, Table};
use cej_vector::gemm::similarity_matrix;
use cej_vector::norm::normalize_matrix_rows_with;
use cej_vector::{filter_cmp, CmpOp, GemmConfig, Kernel, Matrix, TopK};

use crate::metrics::Layers;
use crate::oracle::Pred;
use crate::span::Tracer;

pub mod adhoc_cold;
pub mod index_probe;
pub mod scan_join_warm;
pub mod serve_live;

/// Embedding width of every workload (the ISSUE's dim 64).
pub const DIM: usize = 64;
/// Name the model is registered under.
pub const MODEL: &str = "ft";

/// The model every workload registers; the oracle builds its own instance
/// from the same configuration.
pub fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: DIM,
        ..FastTextConfig::default()
    })
    .expect("valid model configuration")
}

/// Computed size of `entries` cached embeddings: the vector plus the key
/// string (pseudo-words average about seven letters, plus a separator).
pub fn cache_mb(entries: usize, words_per_key: usize) -> f64 {
    (entries * (DIM * 4 + words_per_key * 8)) as f64 / 1e6
}

/// Outcome of checking warm-up results against the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verification {
    /// Statements (or final states) checked.
    pub checked: u64,
    /// Checks that disagreed with the oracle.
    pub failed: u64,
    /// Oracle pairs the program also returned, and oracle pairs in total —
    /// `recall_at_k` is their ratio.
    pub hits: u64,
    pub oracle_pairs: u64,
}

impl Verification {
    pub fn recall(&self) -> f64 {
        if self.oracle_pairs == 0 {
            1.0
        } else {
            self.hits as f64 / self.oracle_pairs as f64
        }
    }
}

/// One workload: generated inputs, a timed set-up, an oracle check, and a
/// fixed cycle of ops the runner repeats a fixed number of times.
pub trait Workload: Sized {
    /// Everything derived from the seed; built before any clock starts.
    type Inputs;

    /// Ops per cycle.  Position `p` of the cycle must do the same kind of
    /// work in every cycle: the runner compares its repetitions with each
    /// other.  A run is whole cycles, so every run offers the same mix.
    const CYCLE_LEN: usize;

    /// Cycles measured per second of `--seconds`: the run's op count is
    /// fixed, not its duration, so a faster program does not get more
    /// repetitions to pick its bests from.  Calibrated so that the default
    /// window takes about its nominal time on the 2-vCPU sandbox at the
    /// commit that defined the benchmark.
    const CYCLES_PER_SECOND: f64;

    /// Cycles the set-up runs before its clock stops, sized so that every
    /// set-up takes at least a second.
    const WARMUP_CYCLES: usize;

    /// Read `peak_rss_mb` when this many measured ops have run instead of at
    /// the end.  A workload whose memory grows with every op sets it, so
    /// that a run cut short by the window cap does not read as a leaner one.
    const RSS_AFTER_OPS: Option<u64> = None;

    /// Makes the inputs from the seed.  `quick` shrinks them for the smoke
    /// run (numbers from a quick run compare with nothing).
    fn generate(seed: u64, quick: bool) -> Self::Inputs;

    /// First call into the program → ready to serve ops.  Timed as
    /// `setup_s`.
    fn setup(inputs: &Self::Inputs) -> Self;

    /// Checks the warm-up results against the benchmark's own oracle.
    fn verify(&mut self, inputs: &Self::Inputs) -> Verification;

    /// Runs op `i` untraced; returns its latency and whether its result was
    /// right.  Verification happens outside the timed region.
    fn run_op(&mut self, inputs: &Self::Inputs, i: usize) -> (Duration, bool);

    /// Runs op `i` as its decomposed public calls under spans, issues the
    /// shadow calls for the layers hidden inside them, and feeds `layers`.
    /// The returned latency covers the real calls only.
    fn run_op_traced(
        &mut self,
        inputs: &Self::Inputs,
        i: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Duration, bool);

    /// End-of-run checks (e.g. maintained view == recompute) and, on the
    /// traced pass, whole-run layer readings.
    fn finish(self, inputs: &Self::Inputs, layers: Option<&mut Layers>) -> Verification;
}

/// FNV-1a fingerprint of a result table: every column, in order, row by
/// row.  Warm ops must reproduce their warm-up fingerprint exactly.
pub fn table_checksum(table: &Table) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(table.num_rows() as u64).to_le_bytes());
    for column in table.columns() {
        match column {
            Column::Int64(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
            Column::Float64(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            Column::Utf8(v) => v.iter().for_each(|s| {
                eat(s.as_bytes());
                eat(&[0xff]);
            }),
            Column::Date(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
            Column::Bool(v) => v.iter().for_each(|x| eat(&[u8::from(*x)])),
            Column::Vector(m) => m
                .as_slice()
                .iter()
                .for_each(|x| eat(&x.to_bits().to_le_bytes())),
        }
    }
    hash
}

/// The `(outer id, inner id)` pairs of an ejoin result, read from two
/// int64 id columns.
pub fn id_pairs(table: &Table, outer_id: &str, inner_id: &str) -> Vec<(usize, usize)> {
    let ids = |name: &str| -> Vec<i64> {
        table
            .column_by_name(name)
            .and_then(|c| c.as_int64().map(<[i64]>::to_vec))
            .unwrap_or_else(|e| panic!("result column {name}: {e}"))
    };
    ids(outer_id)
        .into_iter()
        .zip(ids(inner_id))
        .map(|(o, i)| (o as usize, i as usize))
        .collect()
}

/// Operator kinds the per-layer report distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    TensorJoin,
    IndexJoin,
    HashJoin,
    /// Scans and the linear operators fused above them.
    FilterScan,
}

/// Self time per operator kind, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSelfMicros {
    pub tensor_join: u64,
    pub index_join: u64,
    pub hash_join: u64,
    pub filter_scan: u64,
}

/// The operator tree of a physical plan in the executor's slot order
/// (pre-order; a persistent-index inner takes no slot).
#[derive(Debug, Clone, PartialEq)]
pub struct OpShape {
    kinds: Vec<OpKind>,
    children: Vec<Vec<usize>>,
}

impl OpShape {
    pub fn of(plan: &PhysicalPlan) -> Self {
        let mut shape = Self {
            kinds: Vec::new(),
            children: Vec::new(),
        };
        shape.walk(plan);
        shape
    }

    fn walk(&mut self, plan: &PhysicalPlan) -> usize {
        let slot = self.kinds.len();
        self.kinds.push(OpKind::FilterScan);
        self.children.push(Vec::new());
        match plan {
            PhysicalPlan::TableScan { .. } => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Embed { input, .. }
            | PhysicalPlan::Rename { input, .. } => {
                let child = self.walk(input);
                self.children[slot].push(child);
            }
            PhysicalPlan::Join(node) => {
                self.kinds[slot] = match node.op {
                    PhysicalJoinOp::Index(_) => OpKind::IndexJoin,
                    _ => OpKind::TensorJoin,
                };
                let outer = self.walk(&node.outer);
                self.children[slot].push(outer);
                if let InnerInput::Plan(inner) = &node.inner {
                    let inner = self.walk(inner);
                    self.children[slot].push(inner);
                }
            }
            PhysicalPlan::HashJoin(node) => {
                self.kinds[slot] = OpKind::HashJoin;
                let left = self.walk(&node.left);
                let right = self.walk(&node.right);
                self.children[slot].extend([left, right]);
            }
        }
        slot
    }

    /// Self time (inclusive − children) summed per operator kind.  Operators
    /// fused into one morsel chain all report the chain's wall time, so the
    /// chain's time lands once, on its innermost operator.
    pub fn self_micros(&self, inclusive: &[u64]) -> OpSelfMicros {
        let mut out = OpSelfMicros::default();
        for (slot, kind) in self.kinds.iter().enumerate() {
            let own = inclusive.get(slot).copied().unwrap_or(0);
            let kids: u64 = self.children[slot]
                .iter()
                .map(|c| inclusive.get(*c).copied().unwrap_or(0))
                .sum();
            let self_us = own.saturating_sub(kids);
            match kind {
                OpKind::TensorJoin => out.tensor_join += self_us,
                OpKind::IndexJoin => out.index_join += self_us,
                OpKind::HashJoin => out.hash_join += self_us,
                OpKind::FilterScan => out.filter_scan += self_us,
            }
        }
        out
    }
}

/// Feeds the `core.*` per-operator metrics of one traced run.
pub fn record_operators(
    layers: &mut Layers,
    shape: &OpShape,
    report: &cej_core::ExecutionReport,
    run_ns: u64,
) {
    let ops = shape.self_micros(&report.operator_micros);
    layers.add("core.run_ms", run_ns as f64 / 1e6, 1.0);
    layers.add("core.op_ms.tensor_join", ops.tensor_join as f64 / 1e3, 1.0);
    layers.add("core.op_ms.index_join", ops.index_join as f64 / 1e3, 1.0);
    layers.add("core.op_ms.hash_join", ops.hash_join as f64 / 1e3, 1.0);
    layers.add("core.op_ms.filter_scan", ops.filter_scan as f64 / 1e3, 1.0);
    layers.add(
        "core.morsels_per_op",
        report.operator_morsels.iter().sum::<u64>() as f64,
        1.0,
    );
    layers.add(
        "embedding.model_calls_per_op",
        report.embedding_stats.model_calls as f64,
        1.0,
    );
    let requests = report.embedding_stats.model_calls + report.embedding_stats.cache_hits;
    layers.add(
        "embedding.cache_hit_ratio",
        report.embedding_stats.cache_hits as f64,
        requests as f64,
    );
}

/// What the shadow replay of one tensor-scan ejoin needs: the inner table and
/// its pre-filter, the session's embedding cache, the op's outer embeddings
/// (not yet normalised) and its predicate.
pub struct ScanJoinShadow<'a> {
    pub session: &'a ContextJoinSession,
    /// The inner pre-filter is `filter_column < below` over `all_lanes`.
    pub filter_column: &'a [i64],
    pub all_lanes: &'a [u32],
    pub below: i64,
    pub outer: Matrix,
    pub pred: Pred,
}

/// Time the shadow calls of one tensor-scan ejoin spent per layer.
#[derive(Debug, Clone, Copy)]
pub struct ScanJoinShadowNs {
    /// Filter compare + normalise + GEMM + top-k / threshold harvest.
    pub vector: u64,
    /// Cache lookups of the admitted inner strings.
    pub lookup: u64,
    pub gather: u64,
}

/// Replays the work `run()` hides inside a tensor-scan ejoin against the
/// table `inner` (text column `itext`), one public layer function at a time
/// on the op's exact inputs, each as a shadow span, and feeds the `vector.*`,
/// `storage.gather_*` and `embedding.lookup_*` metrics.
pub fn shadow_scan_join(
    tracer: &mut Tracer,
    layers: &mut Layers,
    input: ScanJoinShadow<'_>,
) -> ScanJoinShadowNs {
    let ScanJoinShadow {
        session,
        filter_column,
        all_lanes,
        below,
        outer: mut outer_m,
        pred,
    } = input;
    let (lanes, filter_ns) = tracer.shadow("vector.filter_cmp", || {
        filter_cmp(filter_column, all_lanes, CmpOp::Lt, below)
    });
    layers.add(
        "vector.filter_cmp_ns_per_row",
        filter_ns as f64,
        filter_column.len() as f64,
    );
    let inner_table = session.catalog().table("inner").expect("inner table");
    let (gathered, gather_ns) = tracer.shadow("storage.gather", || {
        inner_table.gather(&lanes).expect("gather")
    });
    layers.add(
        "storage.gather_ns_per_row",
        gather_ns as f64,
        lanes.len() as f64,
    );
    let cache = session
        .embedding_caches()
        .cache(MODEL, &session.model_registry())
        .expect("model cache");
    let strings = gathered
        .column_by_name("itext")
        .and_then(|c| c.as_utf8())
        .expect("itext column");
    let ((mut inner_m, _), lookup_ns) =
        tracer.shadow("embedding.lookup", || cache.embed_batch_counted(strings));
    layers.add(
        "embedding.lookup_ns_per_string",
        lookup_ns as f64,
        strings.len() as f64,
    );
    let ((), norm_ns) = tracer.shadow("vector.normalize", || {
        normalize_matrix_rows_with(&mut inner_m, Kernel::Unrolled);
        normalize_matrix_rows_with(&mut outer_m, Kernel::Unrolled);
    });
    let gemm = GemmConfig::default().threads(cej_exec::default_threads());
    let (scores, gemm_ns) = tracer.shadow("vector.gemm", || {
        similarity_matrix(&outer_m, &inner_m, &gemm).expect("gemm")
    });
    let cells = (outer_m.rows() * inner_m.rows()) as f64;
    layers.add("vector.gemm_ns_per_mac", gemm_ns as f64, cells * DIM as f64);
    layers.add(
        "vector.bytes_scored_per_op",
        ((outer_m.rows() + inner_m.rows()) * DIM * 4) as f64 + cells * 4.0,
        1.0,
    );
    let harvest_ns = match pred {
        Pred::TopK(k) => {
            let (kept, ns) = tracer.shadow("vector.topk", || {
                (0..scores.a_rows)
                    .map(|row| {
                        let mut best = TopK::new(k);
                        for (id, score) in scores.row(row).iter().enumerate() {
                            best.push(id, *score);
                        }
                        best.len()
                    })
                    .sum::<usize>()
            });
            std::hint::black_box(kept);
            layers.add("vector.topk_ns_per_score", ns as f64, cells);
            ns
        }
        Pred::Threshold(t) => {
            let (pairs, ns) = tracer.shadow("vector.threshold", || scores.pairs_above(t));
            std::hint::black_box(pairs);
            ns
        }
    };
    ScanJoinShadowNs {
        vector: filter_ns + norm_ns + gemm_ns + harvest_ns,
        lookup: lookup_ns,
        gather: gather_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_core::{sim_gte, JoinStrategy, TensorJoinConfig};
    use cej_relational::{col, lit_i64, LogicalPlan};
    use cej_storage::TableBuilder;

    fn session() -> ContextJoinSession {
        let mut s = ContextJoinSession::new();
        s.register_model(MODEL, model());
        s.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
        s.register_table(
            "a",
            TableBuilder::new()
                .int64("aid", vec![0, 1])
                .int64("k", vec![7, 8])
                .utf8("atext", vec!["bolen kasou".into(), "mirat zeol".into()])
                .build()
                .unwrap(),
        );
        s.register_table(
            "d",
            TableBuilder::new()
                .int64("dk", vec![7, 8])
                .int64("w", vec![1, 2])
                .build()
                .unwrap(),
        );
        s.register_table(
            "b",
            TableBuilder::new()
                .int64("bid", vec![0, 1, 2])
                .int64("f", vec![1, 50, 2])
                .utf8(
                    "btext",
                    vec![
                        "bolen kasou".into(),
                        "zeol mirat".into(),
                        "stain pouler".into(),
                    ],
                )
                .build()
                .unwrap(),
        );
        s
    }

    #[test]
    fn shape_follows_executor_slot_order() {
        let s = session();
        let plan = LogicalPlan::e_join(
            LogicalPlan::join(LogicalPlan::scan("a"), LogicalPlan::scan("d"), "k", "dk"),
            LogicalPlan::scan("b").select(col("f").lt(lit_i64(10))),
            "atext",
            "btext",
            MODEL,
            sim_gte(0.5),
        );
        let prepared = s.prepare(&plan).unwrap();
        let shape = OpShape::of(prepared.physical_plan());
        let report = prepared.run().unwrap();
        assert_eq!(shape.kinds.len(), report.operator_micros.len());
        assert_eq!(shape.kinds[0], OpKind::TensorJoin);
        assert!(shape.kinds.contains(&OpKind::HashJoin));
        // inclusive times 100 > children: self times add back up to the root
        let inclusive: Vec<u64> = (0..shape.kinds.len())
            .map(|s| 100 - 10 * s as u64)
            .collect();
        let ops = shape.self_micros(&inclusive);
        let total = ops.tensor_join + ops.index_join + ops.hash_join + ops.filter_scan;
        assert!(total >= 100, "{ops:?}");
        assert_eq!(ops.index_join, 0);
    }

    #[test]
    fn fused_chain_time_counts_once() {
        // Join(0) -> [Scan(1), Filter(2) -> Scan(3)], filter+scan fused at 40us
        let shape = OpShape {
            kinds: vec![
                OpKind::TensorJoin,
                OpKind::FilterScan,
                OpKind::FilterScan,
                OpKind::FilterScan,
            ],
            children: vec![vec![1, 2], vec![], vec![3], vec![]],
        };
        let ops = shape.self_micros(&[100, 5, 40, 40]);
        assert_eq!(ops.tensor_join, 55);
        assert_eq!(ops.filter_scan, 45);
    }

    #[test]
    fn checksum_sees_values_order_and_row_count() {
        let t = |ids: Vec<i64>, s: Vec<&str>| {
            TableBuilder::new()
                .int64("id", ids)
                .utf8("s", s.into_iter().map(String::from).collect())
                .build()
                .unwrap()
        };
        let base = table_checksum(&t(vec![1, 2], vec!["ab", "c"]));
        assert_eq!(base, table_checksum(&t(vec![1, 2], vec!["ab", "c"])));
        assert_ne!(base, table_checksum(&t(vec![2, 1], vec!["ab", "c"])));
        assert_ne!(base, table_checksum(&t(vec![1, 2], vec!["a", "bc"])));
        assert_ne!(base, table_checksum(&t(vec![1], vec!["ab"])));
    }
}
