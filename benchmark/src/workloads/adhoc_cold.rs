//! `adhoc_cold` — the ingest-and-match / data-cleaning use the paper opens
//! with, and its Fig. 8 prefetch argument: nothing about an op is warm.
//!
//! Each op registers a fresh batch of never-seen twelve-word strings
//! (`register_table` runs ANALYZE), builds and `prepare()`s a three-table
//! plan — hash join to a filtered dimension, then a `top_k(1)` ejoin against
//! a large inner table pre-filtered to about one percent — and runs it once.
//! The model is the largest layer; ANALYZE, the optimizer with its DP join
//! ordering and the planner are paid on every op; the GEMM is small and the
//! index unused.  It is also the memory-growth workload: every op adds its
//! batch's strings to the embedding cache.

use std::time::{Duration, Instant};

use cej_core::{top_k, ContextJoinSession, JoinStrategy, TensorJoinConfig};
use cej_embedding::{Embedder, FastTextModel};
use cej_relational::{col, lit_i64, reorder_joins, LogicalPlan, Optimizer};
use cej_storage::{Table, TableBuilder};
use cej_vector::Matrix;

use super::{
    cache_mb, id_pairs, model, record_operators, shadow_scan_join, OpShape, ScanJoinShadow,
    Verification, Workload, DIM, MODEL,
};
use crate::gen::{percent_column, shuffle, SplitMix64, Vocab};
use crate::metrics::Layers;
use crate::oracle::{self, Normalized, Pred, Spec};
use crate::span::Tracer;

const BATCH_ROWS: usize = 140;
const BATCH_WORDS: usize = 12;
const INNER_ROWS: usize = 300_000;
const INNER_WORDS: usize = 3;
/// The inner pre-filter `tier < 1` keeps about one row in a hundred.
const INNER_TIER_BELOW: i64 = 1;
const DIM_ROWS: usize = 1_000;
const DIM_REGIONS: usize = 10;
/// The dimension filter `region < 8` keeps four dimension rows in five, and
/// every batch points exactly this many of its rows at kept dimension rows,
/// so each op embeds and matches the same number of strings.
const DIM_REGION_BELOW: i64 = 8;
const SURVIVING_ROWS: usize = BATCH_ROWS * 4 / 5;
const VOCAB: usize = 4_096;
/// Every this-many ops, a sample of the op's rows goes to the oracle.
const ORACLE_EVERY: usize = 8;
const ORACLE_ROWS: usize = 32;

pub struct Inputs {
    seed: u64,
    vocab: Vocab,
    inner_text: Vec<String>,
    inner_tier: Vec<i64>,
    dim_region: Vec<i64>,
    /// Dimension ids the filter keeps, and the ones it drops.
    dim_kept: Vec<i64>,
    dim_dropped: Vec<i64>,
}

/// One op's input: the batch table and what the benchmark knows about it.
struct Batch {
    table: Table,
    text: Vec<String>,
    /// Batch rows whose dimension row passes the filter, in order.
    surviving: Vec<usize>,
}

pub struct AdhocCold {
    session: ContextJoinSession,
    own_model: FastTextModel,
    /// Inner rows the pre-filter admits, and their normalised embeddings
    /// from the benchmark's own model instance.
    admitted: Vec<usize>,
    admitted_norm: Normalized,
    admitted_mask: Vec<bool>,
    all_lanes: Vec<u32>,
    warm: Option<(Batch, Table)>,
}

fn plan() -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::join(
            LogicalPlan::scan("batch"),
            LogicalPlan::scan("dim").select(col("region").lt(lit_i64(DIM_REGION_BELOW))),
            "dim_fk",
            "did",
        ),
        LogicalPlan::scan("inner").select(col("tier").lt(lit_i64(INNER_TIER_BELOW))),
        "btext",
        "itext",
        MODEL,
        top_k(1),
    )
}

impl Inputs {
    /// The batch of op `i` (`usize::MAX` is the set-up's warm-up batch): a
    /// stream of its own, so the op list is the same whatever ran before.
    fn batch(&self, i: usize) -> Batch {
        let mut rng = SplitMix64::stream(
            self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            "adhoc.batch",
        );
        let text = self.vocab.phrases(&mut rng, BATCH_ROWS, BATCH_WORDS);
        let mut dim_fk: Vec<i64> = (0..BATCH_ROWS)
            .map(|row| {
                let pool = if row < SURVIVING_ROWS {
                    &self.dim_kept
                } else {
                    &self.dim_dropped
                };
                pool[rng.below(pool.len())]
            })
            .collect();
        shuffle(&mut rng, &mut dim_fk);
        let surviving = (0..BATCH_ROWS)
            .filter(|row| self.dim_region[dim_fk[*row] as usize] < DIM_REGION_BELOW)
            .collect();
        let table = TableBuilder::new()
            .int64("bid", (0..BATCH_ROWS as i64).collect())
            .int64("dim_fk", dim_fk)
            .utf8("btext", text.clone())
            .build()
            .expect("batch table");
        Batch {
            table,
            text,
            surviving,
        }
    }
}

impl AdhocCold {
    /// Cheap per-op check: exactly one match per surviving batch row, each
    /// from an admitted inner row.
    fn plausible(&self, batch: &Batch, result: &Table) -> bool {
        let pairs = id_pairs(result, "l_bid", "r_iid");
        let mut rows: Vec<usize> = pairs.iter().map(|(b, _)| *b).collect();
        rows.sort_unstable();
        rows == batch.surviving
            && pairs
                .iter()
                .all(|(_, i)| self.admitted_mask.get(*i) == Some(&true))
    }

    /// Oracle check of a sample of the op's rows: the returned neighbour
    /// must be the best admitted one.
    fn oracle_sample(&self, batch: &Batch, result: &Table) -> oracle::Verdict {
        let pairs = id_pairs(result, "l_bid", "r_iid");
        let step = (batch.surviving.len() / ORACLE_ROWS).max(1);
        let sample: Vec<usize> = batch.surviving.iter().copied().step_by(step).collect();
        let strings: Vec<String> = sample.iter().map(|row| batch.text[*row].clone()).collect();
        let outer = self.own_model.embed_batch(&strings);
        let all_admitted = vec![true; self.admitted.len()];
        let exp = &oracle::expect(
            &outer,
            &self.admitted_norm,
            &[Spec {
                allowed: &all_admitted,
                pred: Pred::TopK(1),
            }],
        )[0];
        let returned: Vec<(usize, usize)> = pairs
            .iter()
            .filter_map(|&(b, i)| {
                let slot = sample.iter().position(|row| *row == b)?;
                let pos = self.admitted.binary_search(&i).unwrap_or(usize::MAX);
                Some((slot, pos))
            })
            .collect();
        exp.judge(&self.admitted_norm, &returned)
    }

    fn run_batch(&self, batch: &Batch) -> (Duration, Option<Table>) {
        // sessions are cheap handles onto shared state; registration wants
        // `&mut`, so each op takes its own handle
        let mut session = self.session.clone();
        let table = batch.table.clone();
        let plan = plan();
        let start = Instant::now();
        session.register_table("batch", table);
        let report = session.prepare(&plan).and_then(|p| p.run());
        let latency = start.elapsed();
        (latency, report.ok().map(|r| r.table))
    }
}

impl Workload for AdhocCold {
    type Inputs = Inputs;

    const CYCLE_LEN: usize = ORACLE_EVERY;
    // 175 cycles = 1,400 ops in a 20 s window
    const CYCLES_PER_SECOND: f64 = 8.75;
    const WARMUP_CYCLES: usize = 10;
    // the embedding cache gains a batch of strings per op: read memory at a
    // fixed op count that even a run cut short by the window cap reaches
    const RSS_AFTER_OPS: Option<u64> = Some(1_024);

    fn generate(seed: u64, quick: bool) -> Inputs {
        let inner_rows = if quick { INNER_ROWS / 10 } else { INNER_ROWS };
        let vocab = Vocab::new(seed, "adhoc.vocab", VOCAB);
        let mut rng = SplitMix64::stream(seed, "adhoc.inner");
        let inner_text = vocab.phrases(&mut rng, inner_rows, INNER_WORDS);
        let inner_tier = percent_column(&mut rng, inner_rows);
        let mut rng = SplitMix64::stream(seed, "adhoc.dim");
        let mut dim_region: Vec<i64> = (0..DIM_ROWS).map(|d| (d % DIM_REGIONS) as i64).collect();
        shuffle(&mut rng, &mut dim_region);
        let ids_where = |keep: bool| -> Vec<i64> {
            (0..DIM_ROWS as i64)
                .filter(|d| (dim_region[*d as usize] < DIM_REGION_BELOW) == keep)
                .collect()
        };
        Inputs {
            seed,
            vocab,
            inner_text,
            inner_tier,
            dim_kept: ids_where(true),
            dim_dropped: ids_where(false),
            dim_region,
        }
    }

    fn setup(inputs: &Inputs) -> Self {
        let mut session = ContextJoinSession::new();
        session.register_model(MODEL, model());
        session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
        session.register_table(
            "inner",
            TableBuilder::new()
                .int64("iid", (0..inputs.inner_text.len() as i64).collect())
                .int64("tier", inputs.inner_tier.clone())
                .utf8("itext", inputs.inner_text.clone())
                .build()
                .expect("inner table"),
        );
        session.register_table(
            "dim",
            TableBuilder::new()
                .int64("did", (0..DIM_ROWS as i64).collect())
                .int64("region", inputs.dim_region.clone())
                .build()
                .expect("dim table"),
        );
        let mut state = Self {
            session,
            own_model: model(),
            admitted: Vec::new(),
            admitted_norm: Normalized::new(&Matrix::zeros(0, DIM)),
            admitted_mask: Vec::new(),
            all_lanes: (0..inputs.inner_text.len() as u32).collect(),
            warm: None,
        };
        // one op before the clock: the admitted inner rows get embedded
        let batch = inputs.batch(usize::MAX);
        let (_, table) = state.run_batch(&batch);
        state.warm = Some((batch, table.expect("warm-up op")));
        state
    }

    fn verify(&mut self, inputs: &Inputs) -> Verification {
        self.admitted = (0..inputs.inner_tier.len())
            .filter(|i| inputs.inner_tier[*i] < INNER_TIER_BELOW)
            .collect();
        self.admitted_mask = inputs
            .inner_tier
            .iter()
            .map(|t| *t < INNER_TIER_BELOW)
            .collect();
        let strings: Vec<String> = self
            .admitted
            .iter()
            .map(|i| inputs.inner_text[*i].clone())
            .collect();
        self.admitted_norm = Normalized::new(&self.own_model.embed_batch(&strings));
        let (batch, table) = self.warm.take().expect("set-up ran the warm-up op");
        let verdict = self.oracle_sample(&batch, &table);
        let ok = self.plausible(&batch, &table) && verdict.exact();
        Verification {
            checked: 1,
            failed: u64::from(!ok),
            hits: verdict.hits as u64,
            oracle_pairs: verdict.oracle_pairs as u64,
        }
    }

    fn run_op(&mut self, inputs: &Inputs, i: usize) -> (Duration, bool) {
        let batch = inputs.batch(i);
        let (latency, table) = self.run_batch(&batch);
        let ok = table.is_some_and(|t| {
            self.plausible(&batch, &t)
                && (!i.is_multiple_of(ORACLE_EVERY) || self.oracle_sample(&batch, &t).exact())
        });
        (latency, ok)
    }

    fn run_op_traced(
        &mut self,
        inputs: &Inputs,
        i: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Duration, bool) {
        let batch = inputs.batch(i);
        let mut session = self.session.clone();
        let table = batch.table.clone();
        let plan = plan();
        let ((), register_ns) = tracer.call("storage.register", |_| {
            session.register_table("batch", table);
        });
        let (prepared, prepare_ns) = tracer.call("core.prepare", |_| session.prepare(&plan));
        let Ok(prepared) = prepared else {
            return (Duration::from_nanos(register_ns + prepare_ns), false);
        };
        let (report, run_ns) = tracer.call("core.run", |_| prepared.run());
        let op_ns = register_ns + prepare_ns + run_ns;
        let Ok(report) = report else {
            return (Duration::from_nanos(op_ns), false);
        };
        layers.add("core.prepare_us", prepare_ns as f64 / 1e3, 1.0);
        record_operators(
            layers,
            &OpShape::of(prepared.physical_plan()),
            &report,
            run_ns,
        );

        // Shadow calls, each on this op's exact inputs.
        let (stats, analyze_ns) = tracer.shadow("storage.analyze", || batch.table.analyze());
        std::hint::black_box(stats);
        layers.add("storage.analyze_ms", analyze_ns as f64 / 1e6, 1.0);
        let (ordered, optimize_ns) = tracer.shadow("relational.optimize", || {
            Optimizer::with_default_rules()
                .optimize(plan.clone(), session.catalog())
                .and_then(|p| reorder_joins(&p, session.catalog()))
        });
        std::hint::black_box(ordered.is_ok());
        layers.add("relational.optimize_us", optimize_ns as f64 / 1e3, 1.0);
        let fresh: Vec<String> = batch
            .surviving
            .iter()
            .map(|row| batch.text[*row].clone())
            .collect();
        let (outer, model_ns) =
            tracer.shadow("embedding.model", || self.own_model.embed_batch(&fresh));
        layers.add(
            "embedding.model_us_per_string",
            model_ns as f64 / 1e3,
            fresh.len() as f64,
        );
        let shadow = shadow_scan_join(
            tracer,
            layers,
            ScanJoinShadow {
                session: &session,
                filter_column: &inputs.inner_tier,
                all_lanes: &self.all_lanes,
                below: INNER_TIER_BELOW,
                outer,
                pred: Pred::TopK(1),
            },
        );

        let vector_ns = shadow.vector;
        let (lookup_ns, gather_ns) = (shadow.lookup, shadow.gather);
        let embedding_ns = model_ns + lookup_ns;
        let storage_ns = analyze_ns + gather_ns;
        let known = vector_ns + embedding_ns + storage_ns + optimize_ns;
        let op = op_ns as f64;
        layers.add(
            "core.exec_self_ms",
            op_ns.saturating_sub(known) as f64 / 1e6,
            1.0,
        );
        layers.add("share.vector", vector_ns as f64, op);
        layers.add("share.embedding", embedding_ns as f64, op);
        layers.add("share.storage", storage_ns as f64, op);
        layers.add("share.relational", optimize_ns as f64, op);
        layers.add("share.core_self", op_ns.saturating_sub(known) as f64, op);

        let ok = self.plausible(&batch, &report.table)
            && (!i.is_multiple_of(ORACLE_EVERY)
                || self.oracle_sample(&batch, &report.table).exact());
        (Duration::from_nanos(op_ns), ok)
    }

    fn finish(self, _inputs: &Inputs, layers: Option<&mut Layers>) -> Verification {
        if let Some(layers) = layers {
            let entries = self.session.embedding_caches().cached_entries();
            layers.set("embedding.cache_mb", cache_mb(entries, BATCH_WORDS));
        }
        Verification::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_depend_on_seed_and_op_only() {
        let a = AdhocCold::generate(5, true);
        let b = AdhocCold::generate(5, true);
        assert_eq!(a.batch(3).text, b.batch(3).text);
        assert_eq!(a.batch(3).surviving, b.batch(3).surviving);
        assert_ne!(a.batch(3).text, a.batch(4).text);
        assert_ne!(a.batch(3).text, AdhocCold::generate(6, true).batch(3).text);
        assert_eq!(a.batch(0).text.len(), BATCH_ROWS);
        assert_eq!(a.batch(0).surviving.len(), SURVIVING_ROWS);
        assert_eq!(a.batch(9).surviving.len(), SURVIVING_ROWS);
        assert!(a.batch(0).text[0].split(' ').count() == BATCH_WORDS);
    }
}
