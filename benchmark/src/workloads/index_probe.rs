//! `index_probe` — the paper's Fig. 15–17 regime: `JoinStrategy::Index`
//! probes of a persistent HNSW graph with probe-time relational filters.
//!
//! The HNSW build over the inner table lands in set-up.  Sixteen small outer
//! tables × four probe-time filters (100 / 50 / 20 / 5 %) are prepared and
//! warmed there too; every op is one warm `run()` with `top_k(5)`.
//! `cej-index` search dominates and the GEMM is bypassed, so a scan-kernel
//! gain must read "no change" here, an HNSW or pre-filter-bitmap change must
//! read "no change" on `scan_join_warm`, and build cost moved in or out of
//! set-up shows in `setup_s`.  The only approximate path: `recall_at_k` is
//! measured against the brute-force oracle per statement.

use std::time::{Duration, Instant};

use cej_core::{top_k, ContextJoinSession, IndexJoinConfig, IndexKey, JoinStrategy, PreparedQuery};
use cej_embedding::Embedder;
use cej_relational::{col, lit_i64, LogicalPlan};
use cej_storage::{SelectionBitmap, TableBuilder};
use cej_vector::Matrix;

use super::{
    cache_mb, id_pairs, model, record_operators, table_checksum, OpShape, Verification, Workload,
    DIM, MODEL,
};
use crate::gen::{percent_column, SplitMix64, Vocab};
use crate::metrics::Layers;
use crate::oracle::{self, Normalized, Pred, Spec};
use crate::span::Tracer;

const INNER_ROWS: usize = 5_000;
const OUTER_TABLES: usize = 16;
const OUTER_ROWS: usize = 32;
const FILTER_PERCENTS: [i64; 4] = [100, 50, 20, 5];
const WORDS_PER_PHRASE: usize = 3;
const VOCAB: usize = 400;
const TOP_K: usize = 5;
/// Index vectors each probe is dotted against for `vector.dot_ns_per_elem`.
const DOT_ROWS: usize = 256;

pub struct Inputs {
    inner_text: Vec<String>,
    inner_tag: Vec<i64>,
    outer_text: Vec<Vec<String>>,
}

struct Statement {
    prepared: PreparedQuery<'static>,
    shape: OpShape,
    outer: usize,
    percent: i64,
    warm_checksum: u64,
    warm_pairs: Vec<(usize, usize)>,
    sound: bool,
}

pub struct IndexProbe {
    session: ContextJoinSession,
    statements: Vec<Statement>,
    /// Cold first run minus the warm run of the same statement.
    build_s: f64,
    /// Probe-time bitmaps per filter, built once for the search shadow.
    bitmaps: Vec<SelectionBitmap>,
    /// The first `DOT_ROWS` index vectors, for the dot-kernel probe.
    dot_rows: Option<Matrix>,
}

fn config() -> IndexJoinConfig {
    IndexJoinConfig::low_recall()
}

/// Op `i` runs this statement: 37 is coprime to 64, so a cycle visits all
/// 16 × 4 statements once and neighbours differ in both table and filter.
pub fn schedule(i: usize) -> usize {
    (37 * i) % IndexProbe::CYCLE_LEN
}

impl Workload for IndexProbe {
    type Inputs = Inputs;

    const CYCLE_LEN: usize = OUTER_TABLES * FILTER_PERCENTS.len();
    // 80 cycles = 5,120 ops in a 20 s window
    const CYCLES_PER_SECOND: f64 = 4.0;
    const WARMUP_CYCLES: usize = 1;

    fn generate(seed: u64, quick: bool) -> Inputs {
        let inner_rows = if quick { INNER_ROWS / 8 } else { INNER_ROWS };
        let vocab = Vocab::new(seed, "index.vocab", VOCAB);
        let mut rng = SplitMix64::stream(seed, "index.inner");
        let inner_text = vocab.phrases(&mut rng, inner_rows, WORDS_PER_PHRASE);
        let inner_tag = percent_column(&mut rng, inner_rows);
        let mut rng = SplitMix64::stream(seed, "index.outer");
        let outer_text = (0..OUTER_TABLES)
            .map(|_| vocab.phrases(&mut rng, OUTER_ROWS, WORDS_PER_PHRASE))
            .collect();
        Inputs {
            inner_text,
            inner_tag,
            outer_text,
        }
    }

    fn setup(inputs: &Inputs) -> Self {
        let mut session = ContextJoinSession::new();
        session.register_model(MODEL, model());
        session.with_strategy(JoinStrategy::Index(config()));
        session.register_table(
            "inner",
            TableBuilder::new()
                .int64("iid", (0..inputs.inner_text.len() as i64).collect())
                .int64("tag", inputs.inner_tag.clone())
                .utf8("itext", inputs.inner_text.clone())
                .build()
                .expect("inner table"),
        );
        for (t, text) in inputs.outer_text.iter().enumerate() {
            session.register_table(
                &format!("outer{t}"),
                TableBuilder::new()
                    .int64("oid", (0..text.len() as i64).collect())
                    .utf8("otext", text.clone())
                    .build()
                    .expect("outer table"),
            );
        }
        let mut build_s = 0.0;
        let mut statements = Vec::with_capacity(OUTER_TABLES * FILTER_PERCENTS.len());
        for outer in 0..OUTER_TABLES {
            for percent in FILTER_PERCENTS {
                let plan = LogicalPlan::e_join(
                    LogicalPlan::scan(&format!("outer{outer}")),
                    LogicalPlan::scan("inner").select(col("tag").lt(lit_i64(percent))),
                    "otext",
                    "itext",
                    MODEL,
                    top_k(TOP_K),
                );
                let prepared = session.prepare(&plan).expect("prepare").detach();
                let start = Instant::now();
                let warm = prepared.run().expect("warm-up run");
                let first = start.elapsed();
                if warm.index_builds > 0 {
                    // the run that built the graph: time it against a warm
                    // run of the same statement
                    let start = Instant::now();
                    prepared.run().expect("second run");
                    build_s = first.saturating_sub(start.elapsed()).as_secs_f64();
                }
                statements.push(Statement {
                    shape: OpShape::of(prepared.physical_plan()),
                    prepared,
                    outer,
                    percent,
                    warm_checksum: table_checksum(&warm.table),
                    warm_pairs: id_pairs(&warm.table, "l_oid", "r_iid"),
                    sound: false,
                });
            }
        }
        let bitmaps = FILTER_PERCENTS
            .iter()
            .map(|p| SelectionBitmap::from_bools(inputs.inner_tag.iter().map(|t| t < p).collect()))
            .collect();
        Self {
            session,
            statements,
            build_s,
            bitmaps,
            dot_rows: None,
        }
    }

    fn verify(&mut self, inputs: &Inputs) -> Verification {
        let own_model = model();
        let inner = Normalized::new(&own_model.embed_batch(&inputs.inner_text));
        let masks: Vec<Vec<bool>> = FILTER_PERCENTS
            .iter()
            .map(|p| inputs.inner_tag.iter().map(|t| t < p).collect())
            .collect();
        let mut out = Verification::default();
        for (outer, text) in inputs.outer_text.iter().enumerate() {
            let specs: Vec<Spec<'_>> = masks
                .iter()
                .map(|mask| Spec {
                    allowed: mask,
                    pred: Pred::TopK(TOP_K),
                })
                .collect();
            let expectations = oracle::expect(&own_model.embed_batch(text), &inner, &specs);
            for (f, exp) in expectations.iter().enumerate() {
                let st = &mut self.statements[outer * FILTER_PERCENTS.len() + f];
                debug_assert_eq!((st.outer, st.percent), (outer, FILTER_PERCENTS[f]));
                let verdict = exp.judge(&inner, &st.warm_pairs);
                // approximate path: it may miss neighbours (that is recall),
                // but what it returns must be admissible
                st.sound = verdict.sound;
                out.checked += 1;
                out.failed += u64::from(!st.sound);
                out.hits += verdict.hits as u64;
                out.oracle_pairs += verdict.oracle_pairs as u64;
            }
        }
        out
    }

    fn run_op(&mut self, _inputs: &Inputs, i: usize) -> (Duration, bool) {
        let st = &self.statements[schedule(i)];
        let start = Instant::now();
        let report = st.prepared.run();
        let latency = start.elapsed();
        let ok = report.is_ok_and(|r| table_checksum(&r.table) == st.warm_checksum) && st.sound;
        (latency, ok)
    }

    fn run_op_traced(
        &mut self,
        inputs: &Inputs,
        i: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Duration, bool) {
        let slot = schedule(i);
        let st = &self.statements[slot];
        let (report, run_ns) = tracer.call("core.run", |_| st.prepared.run());
        let Ok(report) = report else {
            return (Duration::from_nanos(run_ns), false);
        };
        record_operators(layers, &st.shape, &report, run_ns);

        // Shadow calls: the probes `run()` issues, through the index's own
        // public search, on the op's exact vectors and bitmap.
        let cache = self
            .session
            .embedding_caches()
            .cache(MODEL, &self.session.model_registry())
            .expect("model cache");
        let outer_text = &inputs.outer_text[st.outer];
        let ((queries, _), lookup_ns) =
            tracer.shadow("embedding.lookup", || cache.embed_batch_counted(outer_text));
        layers.add(
            "embedding.lookup_ns_per_string",
            lookup_ns as f64,
            outer_text.len() as f64,
        );
        let key = IndexKey::new("inner", "itext", MODEL, config().params);
        let index = self
            .session
            .index_manager()
            .get(&key)
            .expect("the index built in set-up is resident");
        let bitmap = &self.bitmaps[slot % FILTER_PERCENTS.len()];
        let ((distances, visited, returned), search_ns) = tracer.shadow("index.search", || {
            let mut totals = (0u64, 0u64, 0u64);
            for row in 0..queries.rows() {
                let found = index
                    .search(queries.row(row).expect("query row"), TOP_K, Some(bitmap))
                    .expect("search");
                totals.0 += found.stats.distance_computations;
                totals.1 += found.stats.nodes_visited;
                totals.2 += found.neighbors.len() as u64;
            }
            totals
        });
        let probes = queries.rows() as f64;
        layers.add("index.search_us_per_probe", search_ns as f64 / 1e3, probes);
        layers.add(
            "index.distance_computations_per_probe",
            distances as f64,
            probes,
        );
        layers.add("index.filter_pass_ratio", returned as f64, visited as f64);

        let dot_rows = self.dot_rows.get_or_insert_with(|| {
            let rows = inputs.inner_text.len().min(DOT_ROWS);
            cache.embed_batch_counted(&inputs.inner_text[..rows]).0
        });
        let (sum, dot_ns) = tracer.shadow("vector.dot", || {
            let mut sum = 0.0f32;
            for q in 0..queries.rows() {
                let query = queries.row(q).expect("query row");
                for r in 0..dot_rows.rows() {
                    sum += cej_vector::dot(query, dot_rows.row(r).expect("index row"));
                }
            }
            sum
        });
        std::hint::black_box(sum);
        layers.add(
            "vector.dot_ns_per_elem",
            dot_ns as f64,
            (queries.rows() * dot_rows.rows() * DIM) as f64,
        );

        let known = search_ns + lookup_ns;
        let run = run_ns as f64;
        layers.add(
            "core.exec_self_ms",
            run_ns.saturating_sub(known) as f64 / 1e6,
            1.0,
        );
        layers.add("share.index", search_ns as f64, run);
        layers.add("share.embedding", lookup_ns as f64, run);
        layers.add("share.core_self", run_ns.saturating_sub(known) as f64, run);

        let ok = table_checksum(&report.table) == st.warm_checksum && st.sound;
        (Duration::from_nanos(run_ns), ok)
    }

    fn finish(self, _inputs: &Inputs, layers: Option<&mut Layers>) -> Verification {
        if let Some(layers) = layers {
            layers.set("index.build_s", self.build_s);
            let key = IndexKey::new("inner", "itext", MODEL, config().params);
            if let Some(index) = self.session.index_manager().get(&key) {
                layers.set("index.memory_mb", index.memory_bytes() as f64 / 1e6);
            }
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
        let n = OUTER_TABLES * FILTER_PERCENTS.len();
        let mut seen: Vec<usize> = (0..n).map(schedule).collect();
        assert_eq!(seen, (n..2 * n).map(schedule).collect::<Vec<_>>());
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = IndexProbe::generate(21, true);
        let b = IndexProbe::generate(21, true);
        assert_eq!(a.inner_text, b.inner_text);
        assert_eq!(a.inner_tag, b.inner_tag);
        assert_eq!(a.outer_text, b.outer_text);
        assert_eq!(a.outer_text.len(), OUTER_TABLES);
        assert!(a.outer_text.iter().all(|t| t.len() == OUTER_ROWS));
    }
}
