//! `serve_live` — writes beside reads, through the socket.
//!
//! An in-process `cej_server::Server` over loopback, one driver thread, two
//! connections.  Connection A issues a fixed thirty-op cycle, three rounds
//! of: eight `RUN`s rotating three warm statements (a top-k ejoin, a
//! `BIND`-derived threshold ejoin, and a hash join + filter over the table
//! being written), one `PROBE` with fresh text, and one `APPLY` of 100 rows —
//! APPEND in the first round, UPSERT in the second, DELETE-oldest in the
//! third, so every cycle position always does the same kind of work and the
//! live table stays within ±1 % of its size.
//! Connection B holds a `SUBSCRIBE` on a standing ejoin view over that
//! table; the `APPLY` op is timed from send until B has received its
//! `DELTA` frame.  `APPLY` copies the table today, so `op_p50_ms` tracks the
//! socket read path and `op_p95_ms` tracks apply→visible; storage that
//! speeds apply but slows scans shows as a gain here and a loss on
//! `scan_join_warm`.  After the run the maintained view must equal a
//! from-scratch re-run.

use std::time::{Duration, Instant};

use cej_core::{
    ContextJoinSession, JoinStrategy, MaintainedResult, PreparedQuery, StandingQuery,
    TensorJoinConfig,
};
use cej_embedding::{Embedder, FastTextModel};
use cej_server::protocol::{build_delta, Command};
use cej_server::{Client, Response, Server, ServerConfig};
use cej_storage::{Table, TableBuilder};

use super::{model, record_operators, OpShape, Verification, Workload, MODEL};
use crate::gen::{DeltaKind, DeltaOp, DeltaRotation, SplitMix64, Vocab};
use crate::metrics::Layers;
use crate::oracle::{self, Normalized, Pred, Spec};
use crate::span::Tracer;
use crate::stats::percentile;

const LIVE_ROWS: usize = 200_000;
const DELTA_ROWS: usize = 100;
const NOTE_WORDS: usize = 2;
const DOCS: usize = 4_000;
const QUERIES: usize = 16;
const TOPICS: usize = 64;
const PHRASE_WORDS: usize = 3;
const PROBE_WORDS: usize = 4;
const VOCAB: usize = 400;
/// `live.bucket = id % 100`; `dim` has one row per bucket.
const BUCKETS: i64 = 100;
/// `live.slot = id % 1000`; the hash-join statement reads one slot.
const SLOTS: i64 = 1_000;
const READ_SLOT: i64 = 7;
/// The standing view keeps `bucket < 5`: five rows of every 100-row delta.
const VIEW_BUCKET_BELOW: i64 = 5;
const TOP_K: usize = 3;
const THRESHOLD: f32 = 0.62;
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

const PREPARES: [&str; 5] = [
    "PREPARE w1 QUERY queries EJOIN docs ON qtext~dtext MODEL ft TOPK 3",
    "PREPARE w2 QUERY queries EJOIN docs ON qtext~dtext MODEL ft SIM 0.9",
    "PREPARE w4 QUERY live JOIN dim ON live.bucket=dim.dbucket WHERE live.slot = 7",
    "PREPARE pt PROBE docs.dtext MODEL ft TOPK 3",
    "PREPARE view QUERY live EJOIN topics ON note~label MODEL ft TOPK 1 WHERE live.bucket < 5",
];

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    RunTopK,
    RunThreshold,
    RunHashJoin,
    Probe,
    Apply(DeltaKind),
}

/// One round: 8 `RUN`, 1 `PROBE`, 1 `APPLY` (`None` marks its place).
const ROUND: [Option<OpKind>; 10] = [
    Some(OpKind::RunTopK),
    Some(OpKind::RunThreshold),
    Some(OpKind::RunHashJoin),
    Some(OpKind::RunTopK),
    Some(OpKind::Probe),
    Some(OpKind::RunThreshold),
    Some(OpKind::RunHashJoin),
    Some(OpKind::RunTopK),
    None,
    Some(OpKind::RunThreshold),
];

/// A cycle is one round per delta kind, in the rotation's order, so each of
/// its thirty positions does one fixed kind of work — the three `APPLY`
/// positions included.
const CYCLE_LEN: usize = ROUND.len() * DeltaKind::ROTATION.len();

pub fn schedule(i: usize) -> OpKind {
    let position = i % CYCLE_LEN;
    ROUND[position % ROUND.len()]
        .unwrap_or(OpKind::Apply(DeltaKind::ROTATION[position / ROUND.len()]))
}

pub struct Inputs {
    seed: u64,
    vocab: Vocab,
    docs_text: Vec<String>,
    queries_text: Vec<String>,
    topics_text: Vec<String>,
}

impl Inputs {
    /// The note of live row `id` as of write generation `gen` (0 = the
    /// initial load; an upsert at delta step `s` writes generation `s`).
    fn note(&self, id: i64, gen: u64) -> String {
        let mut rng = SplitMix64::stream(
            self.seed ^ (id as u64).wrapping_mul(0x9E37_79B9) ^ gen.wrapping_mul(0xC2B2_AE3D),
            "serve.note",
        );
        self.vocab.phrase(&mut rng, NOTE_WORDS)
    }

    fn wire_rows(&self, ids: &[i64], gen: u64) -> String {
        ids.iter()
            .map(|id| {
                format!(
                    "{id}|{}|{}|{}",
                    id % SLOTS,
                    id % BUCKETS,
                    self.note(*id, gen)
                )
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// The `APPLY` line of one delta, and the view rows its frame must add
    /// and remove.
    fn apply_line(&self, delta: &DeltaOp, step: u64) -> (String, usize, usize) {
        let in_view = |ids: &[i64]| {
            ids.iter()
                .filter(|id| *id % BUCKETS < VIEW_BUCKET_BELOW)
                .count()
        };
        match delta {
            DeltaOp::Append(ids) => (
                format!("APPLY live APPEND {}", self.wire_rows(ids, step)),
                in_view(ids),
                0,
            ),
            DeltaOp::Upsert(ids) => (
                format!("APPLY live UPSERT id {}", self.wire_rows(ids, step)),
                in_view(ids),
                in_view(ids),
            ),
            DeltaOp::Delete(ids) => (
                format!(
                    "APPLY live DELETE id {}",
                    ids.iter().map(i64::to_string).collect::<Vec<_>>().join(";")
                ),
                0,
                in_view(ids),
            ),
        }
    }

    fn probe_text(&self, i: usize) -> String {
        let mut rng = SplitMix64::stream(
            self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            "serve.probe",
        );
        self.vocab.phrase(&mut rng, PROBE_WORDS)
    }
}

/// Rows the hash-join statement returns: live ids in `range` on the read
/// slot (each joins exactly one `dim` row).
fn expected_slot_rows(range: std::ops::Range<i64>) -> usize {
    let below = |x: i64| ((x + SLOTS - 1 - READ_SLOT) / SLOTS).max(0);
    (below(range.end) - below(range.start)) as usize
}

/// The in-process twins the traced pass shadows with.
struct Shadow {
    top_k: PreparedQuery<'static>,
    threshold: PreparedQuery<'static>,
    hash_join: PreparedQuery<'static>,
    /// A second session holding the same live table and view, fed the same
    /// deltas, so `apply_delta` can be timed without the socket.
    mirror: ContextJoinSession,
    mirror_view: StandingQuery,
}

/// One `APPLY` op as the client saw it.
struct Applied {
    /// Send → `OK applied`.
    request: Duration,
    /// `OK applied` → the subscriber has its `DELTA` frame.
    frame_wait: Duration,
    ok: bool,
    /// The line sent, so the traced pass can replay the same delta.
    line: String,
    /// Rows the frame added plus removed; `None` if no frame came.
    frame_rows: Option<usize>,
}

impl Applied {
    fn visible(&self) -> Duration {
        self.request + self.frame_wait
    }
}

#[derive(Default)]
struct Samples {
    run_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    apply_visible_ms: Vec<f64>,
}

pub struct ServeLive {
    server: Server,
    a: Client,
    b: Client,
    subscription: u64,
    rotation: DeltaRotation,
    delta_step: u64,
    warm_top_k: (Response, bool),
    warm_threshold: (Response, bool),
    own_model: FastTextModel,
    docs_norm: Option<Normalized>,
    shadow: Option<Shadow>,
    samples: Samples,
}

fn expect_ok(client: &mut Client, line: &str) -> String {
    match client.request(line).expect("request") {
        Response::Ok(detail) => detail,
        other => panic!("`{line}` answered {other:?}"),
    }
}

fn statement_plan(prepare_line: &str) -> cej_relational::LogicalPlan {
    match Command::parse(prepare_line).expect("own PREPARE line parses") {
        Command::Prepare { spec, .. } => spec.to_plan(None).expect("statement plan"),
        other => panic!("not a PREPARE: {other:?}"),
    }
}

/// Data rows of a `ROWS` response (the header line dropped).
fn rows_of(response: &Response) -> Option<&[String]> {
    match response {
        Response::Rows { lines, .. } => Some(&lines[1..]),
        _ => None,
    }
}

/// The values of one named column of a `ROWS` response, parsed as ids.
fn id_column(response: &Response, name: &str) -> Vec<usize> {
    let Response::Rows { lines, .. } = response else {
        return Vec::new();
    };
    let Some(at) = lines[0].split('\t').position(|c| c == name) else {
        return Vec::new();
    };
    lines[1..]
        .iter()
        .filter_map(|line| line.split('\t').nth(at)?.parse().ok())
        .collect()
}

fn response_bytes(response: &Response) -> usize {
    match response {
        Response::Rows { lines, .. } => lines.iter().map(|l| l.len() + 1).sum::<usize>() + 32,
        Response::Ok(detail) => detail.len() + 4,
        Response::Err(message) => message.len() + 5,
        Response::Text(lines) => lines.iter().map(|l| l.len() + 1).sum(),
    }
}

/// Adds one op's layer times to the share accumulators.  Every op names
/// every share, so all of them divide by the same total op time.
fn record_shares(
    layers: &mut Layers,
    op_ns: u64,
    embedding: u64,
    delta: u64,
    server: u64,
    core: u64,
) {
    let op = op_ns as f64;
    layers.add("share.embedding", embedding as f64, op);
    layers.add("share.delta", delta as f64, op);
    layers.add("share.server", server as f64, op);
    layers.add("share.core_self", core as f64, op);
}

impl ServeLive {
    fn live_table(inputs: &Inputs, rows: usize) -> Table {
        let ids: Vec<i64> = (0..rows as i64).collect();
        TableBuilder::new()
            .int64("id", ids.clone())
            .int64("slot", ids.iter().map(|id| id % SLOTS).collect())
            .int64("bucket", ids.iter().map(|id| id % BUCKETS).collect())
            .utf8("note", ids.iter().map(|id| inputs.note(*id, 0)).collect())
            .build()
            .expect("live table")
    }

    fn topics_table(inputs: &Inputs) -> Table {
        TableBuilder::new()
            .int64("tid", (0..TOPICS as i64).collect())
            .utf8("label", inputs.topics_text.clone())
            .build()
            .expect("topics table")
    }

    /// Sends one `RUN`; returns the client-observed latency and response.
    fn run(&mut self, id: &str) -> (Duration, Response) {
        let line = format!("RUN {id}");
        let start = Instant::now();
        let response = self.a.request(&line).expect("request");
        (start.elapsed(), response)
    }

    fn check_run(&self, kind: OpKind, response: &Response) -> bool {
        match kind {
            OpKind::RunTopK => self.warm_top_k.1 && *response == self.warm_top_k.0,
            OpKind::RunThreshold => self.warm_threshold.1 && *response == self.warm_threshold.0,
            _ => rows_of(response)
                .is_some_and(|rows| rows.len() == expected_slot_rows(self.rotation.id_range())),
        }
    }

    fn check_probe(&self, text: &str, response: &Response) -> bool {
        let Some(docs) = &self.docs_norm else {
            return false;
        };
        let query = self.own_model.embed_batch(&[text.to_string()]);
        let all = vec![true; docs.rows()];
        let exp = &oracle::expect(
            &query,
            docs,
            &[Spec {
                allowed: &all,
                pred: Pred::TopK(TOP_K),
            }],
        )[0];
        let pairs: Vec<(usize, usize)> = id_column(response, "r_did")
            .into_iter()
            .map(|d| (0, d))
            .collect();
        exp.judge(docs, &pairs).exact()
    }

    /// Sends the next delta on A and waits for its frame on B.  The
    /// rotation must hand out the kind the schedule put at this position.
    fn apply(&mut self, inputs: &Inputs, kind: DeltaKind) -> Applied {
        let delta = self.rotation.next_delta();
        self.delta_step += 1;
        let (line, adds, removes) = inputs.apply_line(&delta, self.delta_step);
        let start = Instant::now();
        let response = self.a.request(&line).expect("request");
        let applied = start.elapsed();
        let frame = self.b.wait_delta(FRAME_TIMEOUT).expect("frame read");
        let visible = start.elapsed();
        let acknowledged = matches!(&response, Response::Ok(d) if d.starts_with("applied"));
        let ok = acknowledged
            && delta.kind() == kind
            && frame.as_ref().is_some_and(|f| {
                f.subscription == self.subscription
                    && (f.added, f.removed) == (adds, removes)
                    && f.kind != "snapshot"
            });
        Applied {
            request: applied,
            frame_wait: visible.saturating_sub(applied),
            ok,
            line,
            frame_rows: frame.map(|f| f.added + f.removed),
        }
    }

    /// Builds the traced pass's in-process twins on first use.
    fn ensure_shadow(&mut self, inputs: &Inputs) {
        if self.shadow.is_none() {
            let session = self.server.session();
            let prepare = |line: &str| {
                session
                    .prepare(&statement_plan(line))
                    .expect("in-process prepare")
                    .detach()
            };
            let threshold = prepare(PREPARES[1])
                .bind_threshold(THRESHOLD)
                .expect("bind");
            let mut mirror = ContextJoinSession::new();
            mirror.register_model(MODEL, model());
            mirror.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
            let live = session.catalog().table("live").expect("live");
            mirror.register_table("live", live.as_ref().clone());
            mirror.register_table("topics", Self::topics_table(inputs));
            let mirror_view = mirror
                .prepare(&statement_plan(PREPARES[4]))
                .expect("mirror view")
                .subscribe()
                .expect("mirror subscribe");
            self.shadow = Some(Shadow {
                top_k: prepare(PREPARES[0]),
                threshold,
                hash_join: prepare(PREPARES[2]),
                mirror,
                mirror_view,
            });
        }
    }
}

impl Workload for ServeLive {
    type Inputs = Inputs;

    const CYCLE_LEN: usize = CYCLE_LEN;
    // 120 cycles = 3,600 ops (360 of them `APPLY`) in a 20 s window
    const CYCLES_PER_SECOND: f64 = 6.0;
    const WARMUP_CYCLES: usize = 6;

    fn generate(seed: u64, _quick: bool) -> Inputs {
        let vocab = Vocab::new(seed, "serve.vocab", VOCAB);
        let mut rng = SplitMix64::stream(seed, "serve.static");
        let docs_text = vocab.phrases(&mut rng, DOCS, PHRASE_WORDS);
        let queries_text = vocab.phrases(&mut rng, QUERIES, PHRASE_WORDS);
        let topics_text = vocab.phrases(&mut rng, TOPICS, NOTE_WORDS);
        Inputs {
            seed,
            vocab,
            docs_text,
            queries_text,
            topics_text,
        }
    }

    fn setup(inputs: &Inputs) -> Self {
        let mut session = ContextJoinSession::new();
        session.register_model(MODEL, model());
        session.with_strategy(JoinStrategy::Tensor(TensorJoinConfig::default()));
        session.register_table("live", Self::live_table(inputs, LIVE_ROWS));
        session.register_table("topics", Self::topics_table(inputs));
        session.register_table(
            "dim",
            TableBuilder::new()
                .int64("dbucket", (0..BUCKETS).collect())
                .int64("weight", (0..BUCKETS).map(|b| (b * 37) % 100).collect())
                .build()
                .expect("dim table"),
        );
        session.register_table(
            "docs",
            TableBuilder::new()
                .int64("did", (0..inputs.docs_text.len() as i64).collect())
                .utf8("dtext", inputs.docs_text.clone())
                .build()
                .expect("docs table"),
        );
        session.register_table(
            "queries",
            TableBuilder::new()
                .int64("qid", (0..inputs.queries_text.len() as i64).collect())
                .utf8("qtext", inputs.queries_text.clone())
                .build()
                .expect("queries table"),
        );
        let server = Server::start(session, ServerConfig::default()).expect("bind loopback");
        let mut a = Client::connect(server.local_addr()).expect("connect A");
        let mut b = Client::connect(server.local_addr()).expect("connect B");
        for line in &PREPARES[..4] {
            expect_ok(&mut a, line);
        }
        expect_ok(&mut a, &format!("BIND w2 w3 {THRESHOLD}"));
        expect_ok(&mut b, PREPARES[4]);
        let subscribed = expect_ok(&mut b, "SUBSCRIBE view");
        let subscription = subscribed
            .rsplit(' ')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("subscription id");
        let mut state = Self {
            server,
            a,
            b,
            subscription,
            rotation: DeltaRotation::new(LIVE_ROWS, DELTA_ROWS),
            delta_step: 0,
            warm_top_k: (Response::Ok(String::new()), false),
            warm_threshold: (Response::Ok(String::new()), false),
            own_model: model(),
            docs_norm: None,
            shadow: None,
            samples: Samples::default(),
        };
        // warm every statement once: embeddings cached, sockets primed
        state.warm_top_k.0 = state.run("w1").1;
        state.warm_threshold.0 = state.run("w3").1;
        state.run("w4");
        let text = inputs.probe_text(usize::MAX);
        state
            .a
            .request(&format!("PROBE pt {text}"))
            .expect("warm probe");
        state
    }

    fn verify(&mut self, inputs: &Inputs) -> Verification {
        let docs = Normalized::new(&self.own_model.embed_batch(&inputs.docs_text));
        let queries = self.own_model.embed_batch(&inputs.queries_text);
        let all = vec![true; docs.rows()];
        let expectations = oracle::expect(
            &queries,
            &docs,
            &[
                Spec {
                    allowed: &all,
                    pred: Pred::TopK(TOP_K),
                },
                Spec {
                    allowed: &all,
                    pred: Pred::Threshold(THRESHOLD),
                },
            ],
        );
        let mut out = Verification::default();
        for (warm, exp) in [&mut self.warm_top_k, &mut self.warm_threshold]
            .into_iter()
            .zip(&expectations)
        {
            let pairs: Vec<(usize, usize)> = id_column(&warm.0, "l_qid")
                .into_iter()
                .zip(id_column(&warm.0, "r_did"))
                .collect();
            let verdict = exp.judge(&docs, &pairs);
            warm.1 = verdict.exact() && rows_of(&warm.0).is_some();
            out.checked += 1;
            out.failed += u64::from(!warm.1);
            out.hits += verdict.hits as u64;
            out.oracle_pairs += verdict.oracle_pairs as u64;
        }
        self.docs_norm = Some(docs);
        let (_, slot_rows) = self.run("w4");
        out.checked += 1;
        out.failed += u64::from(!self.check_run(OpKind::RunHashJoin, &slot_rows));
        out
    }

    fn run_op(&mut self, inputs: &Inputs, i: usize) -> (Duration, bool) {
        match schedule(i) {
            OpKind::Probe => {
                let text = inputs.probe_text(i);
                let line = format!("PROBE pt {text}");
                let start = Instant::now();
                let response = self.a.request(&line).expect("request");
                let latency = start.elapsed();
                (latency, self.check_probe(&text, &response))
            }
            OpKind::Apply(kind) => {
                let applied = self.apply(inputs, kind);
                (applied.visible(), applied.ok)
            }
            kind => {
                let id = match kind {
                    OpKind::RunTopK => "w1",
                    OpKind::RunThreshold => "w3",
                    _ => "w4",
                };
                let (latency, response) = self.run(id);
                (latency, self.check_run(kind, &response))
            }
        }
    }

    fn run_op_traced(
        &mut self,
        inputs: &Inputs,
        i: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Duration, bool) {
        self.ensure_shadow(inputs);
        match schedule(i) {
            OpKind::Probe => {
                let text = inputs.probe_text(i);
                let line = format!("PROBE pt {text}");
                let (response, probe_ns) =
                    tracer.call("server.probe", |_| self.a.request(&line).expect("request"));
                let (vector, model_ns) = tracer.shadow("embedding.model", || {
                    self.own_model.embed_batch(std::slice::from_ref(&text))
                });
                std::hint::black_box(vector);
                layers.add("embedding.model_us_per_string", model_ns as f64 / 1e3, 1.0);
                layers.add("embedding.model_calls_per_op", 1.0, 1.0);
                layers.add(
                    "server.bytes_per_response",
                    response_bytes(&response) as f64,
                    1.0,
                );
                record_shares(layers, probe_ns, model_ns, 0, 0, 0);
                self.samples.probe_ms.push(probe_ns as f64 / 1e6);
                (
                    Duration::from_nanos(probe_ns),
                    self.check_probe(&text, &response),
                )
            }
            OpKind::Apply(kind) => {
                let shadow = self.shadow.as_ref().expect("built above");
                let mirror_live = shadow.mirror.catalog().table("live").expect("mirror live");
                let (applied, _) =
                    tracer.call("server.apply_visible", |_| self.apply(inputs, kind));
                let op_ns = applied.visible().as_nanos() as u64;
                // the same delta, typed by the server's own parser, against
                // the mirror: storage apply alone, then the whole pipeline
                let Ok(Command::Apply { spec, .. }) = Command::parse(&applied.line) else {
                    return (applied.visible(), false);
                };
                let delta = build_delta(&spec, mirror_live.schema()).expect("mirror delta");
                let (stored, store_ns) =
                    tracer.shadow("storage.delta_apply", || delta.apply(&mirror_live));
                std::hint::black_box(stored.is_ok());
                let shadow = self.shadow.as_ref().expect("built above");
                let (report, ivm_ns) = tracer.shadow("ivm.apply_delta", || {
                    let report = shadow.mirror.apply_delta("live", &delta);
                    shadow.mirror_view.drain();
                    report
                });
                layers.add("storage.delta_apply_ms", store_ns as f64 / 1e6, 1.0);
                layers.add("ivm.apply_delta_ms", ivm_ns as f64 / 1e6, 1.0);
                layers.add(
                    "ivm.propagate_self_ms",
                    ivm_ns.saturating_sub(store_ns) as f64 / 1e6,
                    1.0,
                );
                if let Ok(report) = report {
                    layers.add(
                        "ivm.refresh_ratio",
                        report.refreshed as f64,
                        report.standing_updated as f64,
                    );
                }
                if let Some(rows) = applied.frame_rows {
                    layers.add("ivm.frame_rows_per_delta", rows as f64, 1.0);
                }
                layers.add(
                    "server.frame_lag_ms",
                    applied.frame_wait.as_secs_f64() * 1e3,
                    1.0,
                );
                record_shares(layers, op_ns, 0, ivm_ns, op_ns.saturating_sub(ivm_ns), 0);
                self.samples
                    .apply_visible_ms
                    .push(applied.visible().as_secs_f64() * 1e3);
                (applied.visible(), applied.ok)
            }
            kind => {
                let id = match kind {
                    OpKind::RunTopK => "w1",
                    OpKind::RunThreshold => "w3",
                    _ => "w4",
                };
                let ((latency, response), run_ns) = tracer.call("server.run", |_| self.run(id));
                let shadow = self.shadow.as_ref().expect("built above");
                let twin = match kind {
                    OpKind::RunTopK => &shadow.top_k,
                    OpKind::RunThreshold => &shadow.threshold,
                    _ => &shadow.hash_join,
                };
                let (report, twin_ns) = tracer.shadow("core.run", || twin.run());
                if let Ok(report) = &report {
                    record_operators(layers, &OpShape::of(twin.physical_plan()), report, twin_ns);
                }
                let overhead_ns = run_ns.saturating_sub(twin_ns);
                layers.add("server.overhead_us", overhead_ns as f64 / 1e3, 1.0);
                layers.add(
                    "server.bytes_per_response",
                    response_bytes(&response) as f64,
                    1.0,
                );
                record_shares(layers, run_ns, 0, 0, overhead_ns, twin_ns.min(run_ns));
                self.samples.run_ms.push(run_ns as f64 / 1e6);
                (latency, self.check_run(kind, &response))
            }
        }
    }

    fn finish(mut self, _inputs: &Inputs, layers: Option<&mut Layers>) -> Verification {
        let session = self.server.session();
        let mut out = Verification::default();
        // the maintained view must equal a from-scratch re-run
        let maintained = session
            .standing_query(self.subscription)
            .map(|q| q.checksum());
        let recomputed = session
            .prepare(&statement_plan(PREPARES[4]))
            .and_then(|p| p.run())
            .map(|r| MaintainedResult::new(r.table).checksum());
        out.checked += 1;
        out.failed += u64::from(maintained.is_none() || maintained != recomputed.ok());
        // the rotation's model of the table must be the table
        let live_rows = session.catalog().table("live").map(|t| t.num_rows());
        out.checked += 1;
        out.failed += u64::from(live_rows.ok() != Some(self.rotation.live_rows()));
        // nothing may have been refused, and no frame may be left over
        let admission = self.server.admission();
        out.checked += 1;
        out.failed += u64::from(admission.rejected != 0);
        if let Some(layers) = layers {
            layers.set(
                "server.rejected_share",
                admission.rejected as f64 / (admission.admitted + admission.rejected).max(1) as f64,
            );
            layers.set(
                "embedding.cache_mb",
                super::cache_mb(session.embedding_caches().cached_entries(), NOTE_WORDS),
            );
            layers.set("server.run_p50_ms", percentile(&self.samples.run_ms, 0.5));
            layers.set(
                "server.probe_p50_ms",
                percentile(&self.samples.probe_ms, 0.5),
            );
            layers.set(
                "server.apply_visible_p50_ms",
                percentile(&self.samples.apply_visible_ms, 0.5),
            );
        }
        let _ = self.a.request("QUIT");
        let _ = self.b.request("QUIT");
        self.server.shutdown();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_is_eight_runs_one_probe_one_apply() {
        for round in 0..3 {
            let kinds: Vec<OpKind> = (round * 10..round * 10 + 10).map(schedule).collect();
            let count = |k: OpKind| kinds.iter().filter(|x| **x == k).count();
            assert_eq!(count(OpKind::Probe), 1);
            assert_eq!(count(OpKind::Apply(DeltaKind::ROTATION[round])), 1);
            assert_eq!(
                count(OpKind::RunTopK) + count(OpKind::RunThreshold) + count(OpKind::RunHashJoin),
                8
            );
        }
    }

    /// The runner compares repetitions of one cycle position with each
    /// other, so a position must do one fixed kind of work in every cycle:
    /// the schedule's `APPLY` positions must meet the delta kind the
    /// rotation hands out there.
    #[test]
    fn each_position_has_one_kind_and_the_rotation_agrees() {
        let mut rotation = DeltaRotation::new(1_000, 10);
        for i in 0..4 * CYCLE_LEN {
            assert_eq!(schedule(i), schedule(i % CYCLE_LEN), "op {i}");
            if let OpKind::Apply(kind) = schedule(i) {
                assert_eq!(rotation.next_delta().kind(), kind, "op {i}");
            }
        }
        let applies: Vec<OpKind> = (0..CYCLE_LEN)
            .map(schedule)
            .filter(|k| matches!(k, OpKind::Apply(_)))
            .collect();
        assert_eq!(applies, DeltaKind::ROTATION.map(OpKind::Apply));
    }

    #[test]
    fn slot_rows_count_ids_on_the_read_slot() {
        assert_eq!(expected_slot_rows(0..7), 0);
        assert_eq!(expected_slot_rows(0..8), 1);
        assert_eq!(expected_slot_rows(0..200_000), 200);
        assert_eq!(expected_slot_rows(8..1_008), 1);
        assert_eq!(expected_slot_rows(100..200_100), 200);
        let brute = |r: std::ops::Range<i64>| r.filter(|id| id % SLOTS == READ_SLOT).count();
        for (lo, hi) in [(0, 1), (7, 8), (993, 3_500), (12_345, 23_456)] {
            assert_eq!(expected_slot_rows(lo..hi), brute(lo..hi), "{lo}..{hi}");
        }
    }

    #[test]
    fn apply_lines_parse_with_the_servers_grammar_and_predict_view_rows() {
        let inputs = ServeLive::generate(3, true);
        let mut rotation = DeltaRotation::new(1_000, DELTA_ROWS);
        let schema = ServeLive::live_table(&inputs, 10).schema().clone();
        for step in 1..=6u64 {
            let delta = rotation.next_delta();
            let (line, adds, removes) = inputs.apply_line(&delta, step);
            let Ok(Command::Apply { table, spec }) = Command::parse(&line) else {
                panic!("`{}` does not parse", &line[..40]);
            };
            assert_eq!(table, "live");
            let typed = build_delta(&spec, &schema).unwrap();
            assert_eq!(typed.payload_rows(), DELTA_ROWS);
            // 100 consecutive ids hold every bucket once: five are in view
            match delta {
                DeltaOp::Append(_) => assert_eq!((adds, removes), (5, 0)),
                DeltaOp::Upsert(_) => assert_eq!((adds, removes), (5, 5)),
                DeltaOp::Delete(_) => assert_eq!((adds, removes), (0, 5)),
            }
        }
    }

    #[test]
    fn notes_and_probe_text_depend_on_seed_row_and_generation() {
        let a = ServeLive::generate(3, true);
        let b = ServeLive::generate(3, true);
        assert_eq!(a.note(17, 0), b.note(17, 0));
        assert_ne!(a.note(17, 0), a.note(17, 4));
        assert_ne!(a.note(17, 0), a.note(18, 0));
        assert_eq!(a.probe_text(9), b.probe_text(9));
        assert_ne!(a.probe_text(9), a.probe_text(19));
    }
}
