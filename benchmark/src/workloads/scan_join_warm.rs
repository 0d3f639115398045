//! `scan_join_warm` — the paper's Fig. 11–14 regime: every embedding cached,
//! nothing planned, `PreparedQuery::run()` of a tensor-scan join.
//!
//! A small outer table joins a large inner one whose rows carry a `filter`
//! column uniform in 0..100.  Twenty statements are prepared in set-up with
//! the pre-filter `filter < s` for s = 2, 4, …, 40 %, alternating `top_k(3)`
//! and `sim_gte`; op *i* runs statement (7·i mod 20), so op latency is a
//! smooth spread instead of two modes.  `cej-vector` (filter compare,
//! normalise, GEMM, top-k) and the `cej-core` batch executor do the work;
//! the model, the planner, the index and the server do none — fused kernels,
//! real SIMD, SQ8 and the one-executor collapse must show (or stay flat)
//! here.

use std::time::{Duration, Instant};

use cej_core::{sim_gte, top_k, ContextJoinSession, JoinStrategy, PreparedQuery, TensorJoinConfig};
use cej_embedding::Embedder;
use cej_relational::{col, lit_i64, LogicalPlan};
use cej_storage::TableBuilder;

use super::{
    cache_mb, id_pairs, model, record_operators, shadow_scan_join, table_checksum, OpShape,
    ScanJoinShadow, Verification, Workload, MODEL,
};
use crate::gen::{percent_column, SplitMix64, Vocab};
use crate::metrics::Layers;
use crate::oracle::{self, Normalized, Pred, Spec};
use crate::span::Tracer;

const OUTER_ROWS: usize = 96;
const INNER_ROWS: usize = 48_000;
const STATEMENTS: usize = 20;
const WORDS_PER_PHRASE: usize = 3;
/// Small enough that phrases share words, so `sim_gte` has real matches.
const VOCAB: usize = 400;
const TOP_K: usize = 3;
const THRESHOLD: f32 = 0.62;

pub struct Inputs {
    outer_text: Vec<String>,
    inner_text: Vec<String>,
    inner_filter: Vec<i64>,
}

struct Statement {
    prepared: PreparedQuery<'static>,
    shape: OpShape,
    /// The pre-filter is `filter < percent`.
    percent: i64,
    pred: Pred,
    warm_checksum: u64,
    warm_pairs: Vec<(usize, usize)>,
    verified: bool,
}

pub struct ScanJoinWarm {
    session: ContextJoinSession,
    statements: Vec<Statement>,
    /// `0..inner_rows`, the selection vector the filter shadow starts from.
    all_lanes: Vec<u32>,
}

fn statement_pred(index: usize) -> Pred {
    if index.is_multiple_of(2) {
        Pred::TopK(TOP_K)
    } else {
        Pred::Threshold(THRESHOLD)
    }
}

fn statement_percent(index: usize) -> i64 {
    2 * (index as i64 + 1)
}

/// Op `i` runs this statement: 7 is coprime to 20, so a cycle of 20 ops
/// visits every statement once, in an order that mixes cheap and dear.
pub fn schedule(i: usize) -> usize {
    (7 * i) % STATEMENTS
}

impl Workload for ScanJoinWarm {
    type Inputs = Inputs;

    const CYCLE_LEN: usize = STATEMENTS;
    // 70 cycles = 1,400 ops in a 20 s window
    const CYCLES_PER_SECOND: f64 = 3.5;
    const WARMUP_CYCLES: usize = 2;

    fn generate(seed: u64, quick: bool) -> Inputs {
        let inner_rows = if quick { INNER_ROWS / 10 } else { INNER_ROWS };
        let vocab = Vocab::new(seed, "scan.vocab", VOCAB);
        let mut rng = SplitMix64::stream(seed, "scan.inner");
        let inner_text = vocab.phrases(&mut rng, inner_rows, WORDS_PER_PHRASE);
        let inner_filter = percent_column(&mut rng, inner_rows);
        let mut rng = SplitMix64::stream(seed, "scan.outer");
        let outer_text = vocab.phrases(&mut rng, OUTER_ROWS, WORDS_PER_PHRASE);
        Inputs {
            outer_text,
            inner_text,
            inner_filter,
        }
    }

    fn setup(inputs: &Inputs) -> Self {
        let mut session = ContextJoinSession::new();
        session.register_model(MODEL, model());
        session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
        session.register_table(
            "outer",
            TableBuilder::new()
                .int64("oid", (0..inputs.outer_text.len() as i64).collect())
                .utf8("otext", inputs.outer_text.clone())
                .build()
                .expect("outer table"),
        );
        session.register_table(
            "inner",
            TableBuilder::new()
                .int64("iid", (0..inputs.inner_text.len() as i64).collect())
                .int64("filter", inputs.inner_filter.clone())
                .utf8("itext", inputs.inner_text.clone())
                .build()
                .expect("inner table"),
        );
        let statements = (0..STATEMENTS)
            .map(|index| {
                let pred = statement_pred(index);
                let percent = statement_percent(index);
                let plan = LogicalPlan::e_join(
                    LogicalPlan::scan("outer"),
                    LogicalPlan::scan("inner").select(col("filter").lt(lit_i64(percent))),
                    "otext",
                    "itext",
                    MODEL,
                    match pred {
                        Pred::TopK(k) => top_k(k),
                        Pred::Threshold(t) => sim_gte(t),
                    },
                );
                let prepared = session.prepare(&plan).expect("prepare").detach();
                let shape = OpShape::of(prepared.physical_plan());
                // the warm-up run fills the embedding cache for this filter
                let warm = prepared.run().expect("warm-up run");
                Statement {
                    prepared,
                    shape,
                    percent,
                    pred,
                    warm_checksum: table_checksum(&warm.table),
                    warm_pairs: id_pairs(&warm.table, "l_oid", "r_iid"),
                    verified: false,
                }
            })
            .collect();
        Self {
            session,
            statements,
            all_lanes: (0..inputs.inner_text.len() as u32).collect(),
        }
    }

    fn verify(&mut self, inputs: &Inputs) -> Verification {
        // only rows some statement admits matter to the oracle
        let widest = statement_percent(STATEMENTS - 1);
        let candidates: Vec<usize> = (0..inputs.inner_filter.len())
            .filter(|i| inputs.inner_filter[*i] < widest)
            .collect();
        let own_model = model();
        let candidate_text: Vec<String> = candidates
            .iter()
            .map(|i| inputs.inner_text[*i].clone())
            .collect();
        let inner = Normalized::new(&own_model.embed_batch(&candidate_text));
        let outer = own_model.embed_batch(&inputs.outer_text);
        let masks: Vec<Vec<bool>> = self
            .statements
            .iter()
            .map(|st| {
                candidates
                    .iter()
                    .map(|i| inputs.inner_filter[*i] < st.percent)
                    .collect()
            })
            .collect();
        let specs: Vec<Spec<'_>> = self
            .statements
            .iter()
            .zip(&masks)
            .map(|(st, mask)| Spec {
                allowed: mask,
                pred: st.pred,
            })
            .collect();
        let expectations = oracle::expect(&outer, &inner, &specs);
        let mut position = vec![usize::MAX; inputs.inner_filter.len()];
        for (pos, row) in candidates.iter().enumerate() {
            position[*row] = pos;
        }
        let mut out = Verification::default();
        for (st, exp) in self.statements.iter_mut().zip(&expectations) {
            // a returned row outside every filter maps past the mask: unsound
            let pairs: Vec<(usize, usize)> = st
                .warm_pairs
                .iter()
                .map(|&(o, i)| (o, position.get(i).copied().unwrap_or(usize::MAX)))
                .collect();
            let verdict = exp.judge(&inner, &pairs);
            st.verified = verdict.exact();
            out.checked += 1;
            out.failed += u64::from(!st.verified);
            out.hits += verdict.hits as u64;
            out.oracle_pairs += verdict.oracle_pairs as u64;
        }
        out
    }

    fn run_op(&mut self, _inputs: &Inputs, i: usize) -> (Duration, bool) {
        let st = &self.statements[schedule(i)];
        let start = Instant::now();
        let report = st.prepared.run();
        let latency = start.elapsed();
        let ok = report.is_ok_and(|r| table_checksum(&r.table) == st.warm_checksum) && st.verified;
        (latency, ok)
    }

    fn run_op_traced(
        &mut self,
        inputs: &Inputs,
        i: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Duration, bool) {
        let st = &self.statements[schedule(i)];
        let (report, run_ns) = tracer.call("core.run", |_| st.prepared.run());
        let Ok(report) = report else {
            return (Duration::from_nanos(run_ns), false);
        };
        record_operators(layers, &st.shape, &report, run_ns);

        // Shadow calls: the same work `run()` hides, on this op's inputs.
        let cache = self
            .session
            .embedding_caches()
            .cache(MODEL, &self.session.model_registry())
            .expect("model cache");
        let ((outer, _), outer_lookup_ns) = tracer.shadow("embedding.lookup", || {
            cache.embed_batch_counted(&inputs.outer_text)
        });
        layers.add(
            "embedding.lookup_ns_per_string",
            outer_lookup_ns as f64,
            inputs.outer_text.len() as f64,
        );
        let shadow = shadow_scan_join(
            tracer,
            layers,
            ScanJoinShadow {
                session: &self.session,
                filter_column: &inputs.inner_filter,
                all_lanes: &self.all_lanes,
                below: st.percent,
                outer,
                pred: st.pred,
            },
        );
        let lookup_ns = shadow.lookup + outer_lookup_ns;
        let self_ns = run_ns.saturating_sub(shadow.vector + shadow.gather + lookup_ns);
        layers.add("core.exec_self_ms", self_ns as f64 / 1e6, 1.0);
        let run = run_ns as f64;
        layers.add("share.vector", shadow.vector as f64, run);
        layers.add("share.embedding", lookup_ns as f64, run);
        layers.add("share.storage", shadow.gather as f64, run);
        layers.add("share.core_self", self_ns as f64, run);

        let ok = table_checksum(&report.table) == st.warm_checksum && st.verified;
        (Duration::from_nanos(run_ns), ok)
    }

    fn finish(self, _inputs: &Inputs, layers: Option<&mut Layers>) -> Verification {
        if let Some(layers) = layers {
            let entries = self.session.embedding_caches().cached_entries();
            layers.set("embedding.cache_mb", cache_mb(entries, WORDS_PER_PHRASE));
        }
        Verification::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_visits_every_statement_once() {
        let mut seen: Vec<usize> = (0..STATEMENTS).map(schedule).collect();
        assert_eq!(
            seen,
            (STATEMENTS..2 * STATEMENTS)
                .map(schedule)
                .collect::<Vec<_>>()
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..STATEMENTS).collect::<Vec<_>>());
    }

    #[test]
    fn statements_alternate_predicates_over_rising_filters() {
        assert_eq!(statement_percent(0), 2);
        assert_eq!(statement_percent(STATEMENTS - 1), 40);
        assert_eq!(statement_pred(0), Pred::TopK(TOP_K));
        assert_eq!(statement_pred(1), Pred::Threshold(THRESHOLD));
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = ScanJoinWarm::generate(11, true);
        let b = ScanJoinWarm::generate(11, true);
        let c = ScanJoinWarm::generate(12, true);
        assert_eq!(a.inner_text, b.inner_text);
        assert_eq!(a.inner_filter, b.inner_filter);
        assert_eq!(a.outer_text, b.outer_text);
        assert_ne!(a.inner_text, c.inner_text);
        assert_eq!(a.inner_text.len(), c.inner_text.len());
    }
}
