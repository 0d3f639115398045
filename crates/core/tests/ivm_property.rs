//! Property test for incremental view maintenance: random streams of
//! `APPEND` / `DELETE` / `UPSERT` deltas against both sides of a
//! hash-join + ejoin plan must leave every standing query's maintained
//! result **byte-identical** (canonicalised multiset) to a full re-run of
//! the same plan — under all four physical join strategies and at the
//! whole-table morsel as well as awkward morsel sizes.  Every stream ends
//! with a bulk delete and a run of one-row appends, so the base tables the
//! re-runs scan have been through a half-dead segment rewrite and a tail
//! merge, whatever the random part did.
//!
//! This is the end-to-end exactness contract of `cej_core::ivm`: whether a
//! delta took the propagation fast path, fell back to a refresh, or hit
//! the divergence detector, the maintained multiset may never drift from
//! what re-planning and re-executing would produce.

use cej_core::{
    ContextJoinSession, Delta, ExecContext, IndexJoinConfig, IvmPolicy, JoinStrategy,
    MaintainedResult, NljConfig, ScalarValue, StandingQuery, TensorJoinConfig,
};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_relational::{LogicalPlan, SimilarityPredicate};
use cej_storage::{Table, TableBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Caption vocabulary: overlapping word pools on both sides so similarity
/// scores spread across the whole range instead of clustering.
const WORDS: &[&str] = &[
    "barbecue", "grill", "database", "laptop", "garden", "tent", "book", "server", "iron",
    "systems",
];

fn phrase(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..=3);
    (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// In-memory mirror of the mutable tables, used only to generate
/// plausible keys (existing ids for deletes/upserts, fresh ids for
/// appends) — correctness is judged against full re-runs, never against
/// this mirror.
struct Mirror {
    photo_ids: Vec<i64>,
    product_ids: Vec<i64>,
    next_photo: i64,
    next_product: i64,
}

fn photos_rows(ids: &[i64], owners: &[i64], captions: &[String]) -> Table {
    TableBuilder::new()
        .int64("id", ids.to_vec())
        .int64("owner_fk", owners.to_vec())
        .utf8("caption", captions.to_vec())
        .build()
        .unwrap()
}

fn products_rows(ids: &[i64], titles: &[String]) -> Table {
    TableBuilder::new()
        .int64("pid", ids.to_vec())
        .utf8("title", titles.to_vec())
        .build()
        .unwrap()
}

/// Generates one random delta against `photos` or `products`, keeping the
/// mirror's id bookkeeping in sync.
fn gen_delta(rng: &mut StdRng, mirror: &mut Mirror) -> (&'static str, Delta) {
    let on_photos = rng.gen_bool(0.6);
    let (ids, next): (&mut Vec<i64>, &mut i64) = if on_photos {
        (&mut mirror.photo_ids, &mut mirror.next_photo)
    } else {
        (&mut mirror.product_ids, &mut mirror.next_product)
    };
    let table = if on_photos { "photos" } else { "products" };
    // deletes and upserts need existing rows to be interesting
    let kind = if ids.is_empty() {
        0
    } else {
        rng.gen_range(0..3)
    };
    let delta = match kind {
        0 => {
            // append 1-3 fresh rows
            let n = rng.gen_range(1..=3);
            let mut new_ids = Vec::new();
            for _ in 0..n {
                new_ids.push(*next);
                *next += 1;
            }
            ids.extend(&new_ids);
            let captions: Vec<String> = new_ids.iter().map(|_| phrase(rng)).collect();
            if on_photos {
                let owners: Vec<i64> = new_ids.iter().map(|_| rng.gen_range(1..=3) * 100).collect();
                Delta::Append(photos_rows(&new_ids, &owners, &captions))
            } else {
                Delta::Append(products_rows(&new_ids, &captions))
            }
        }
        1 => {
            // delete 1-2 existing keys, sometimes plus a missing one
            let mut keys = Vec::new();
            for _ in 0..rng.gen_range(1..=2) {
                let victim = ids[rng.gen_range(0..ids.len())];
                keys.push(victim);
            }
            if rng.gen_bool(0.2) {
                keys.push(-1); // matches nothing: deltas may be partial no-ops
            }
            ids.retain(|id| !keys.contains(id));
            Delta::DeleteByKey {
                key_column: if on_photos { "id" } else { "pid" }.to_string(),
                keys: keys.into_iter().map(ScalarValue::Int64).collect(),
            }
        }
        _ => {
            // upsert 1-2 rows: half replace existing keys, half insert new
            let mut up_ids = Vec::new();
            for _ in 0..rng.gen_range(1..=2) {
                let id = if rng.gen_bool(0.5) && !ids.is_empty() {
                    ids[rng.gen_range(0..ids.len())]
                } else {
                    let id = *next;
                    *next += 1;
                    id
                };
                if !up_ids.contains(&id) {
                    up_ids.push(id);
                }
            }
            for id in &up_ids {
                if !ids.contains(id) {
                    ids.push(*id);
                }
            }
            let captions: Vec<String> = up_ids.iter().map(|_| phrase(rng)).collect();
            if on_photos {
                let owners: Vec<i64> = up_ids.iter().map(|_| rng.gen_range(1..=3) * 100).collect();
                Delta::Upsert {
                    key_column: "id".to_string(),
                    rows: photos_rows(&up_ids, &owners, &captions),
                }
            } else {
                Delta::Upsert {
                    key_column: "pid".to_string(),
                    rows: products_rows(&up_ids, &captions),
                }
            }
        }
    };
    (table, delta)
}

/// The fixed close of every stream: four photos arrive (so some are live
/// whatever the random part deleted), more than half of the live photos go
/// in one delete — some segment of `photos` is then more than half dead and
/// is rewritten — and three one-row appends follow, the second of which (at
/// the latest) merges with the first.
fn closing_deltas(rng: &mut StdRng, mirror: &mut Mirror) -> Vec<(&'static str, Delta)> {
    let mut append = |rows: usize, mirror: &mut Mirror| {
        let ids: Vec<i64> = (mirror.next_photo..).take(rows).collect();
        mirror.next_photo += rows as i64;
        mirror.photo_ids.extend(&ids);
        let owners: Vec<i64> = ids.iter().map(|_| rng.gen_range(1..=3) * 100).collect();
        let captions: Vec<String> = ids.iter().map(|_| phrase(rng)).collect();
        (
            "photos",
            Delta::Append(photos_rows(&ids, &owners, &captions)),
        )
    };
    let mut deltas = vec![append(4, mirror)];
    let victims: Vec<i64> = mirror.photo_ids[..mirror.photo_ids.len() / 2 + 1].to_vec();
    mirror.photo_ids.retain(|id| !victims.contains(id));
    deltas.push((
        "photos",
        Delta::DeleteByKey {
            key_column: "id".to_string(),
            keys: victims.into_iter().map(ScalarValue::Int64).collect(),
        },
    ));
    deltas.extend((0..3).map(|_| append(1, mirror)));
    deltas
}

/// Rows `photos` holds in storage, dead ones included, and its segment count.
fn photos_layout(s: &ContextJoinSession) -> (usize, usize) {
    let version = s.catalog().table_version("photos").unwrap();
    let segments = version.segments();
    let stored = segments.iter().map(|seg| seg.rows().num_rows()).sum();
    (stored, segments.len())
}

/// Builds one session (fixed seed tables, fresh caches and indexes) under
/// the given strategy, so every strategy maintains against its own
/// persistent-index state.
fn session(rng: &mut StdRng, strategy: JoinStrategy, mirror: &Mirror) -> ContextJoinSession {
    let mut s = ContextJoinSession::new();
    let captions: Vec<String> = mirror.photo_ids.iter().map(|_| phrase(rng)).collect();
    let owners: Vec<i64> = mirror
        .photo_ids
        .iter()
        .map(|_| rng.gen_range(1..=3) * 100)
        .collect();
    s.register_table("photos", photos_rows(&mirror.photo_ids, &owners, &captions));
    let titles: Vec<String> = mirror.product_ids.iter().map(|_| phrase(rng)).collect();
    s.register_table("products", products_rows(&mirror.product_ids, &titles));
    s.register_table(
        "owners",
        TableBuilder::new()
            .int64("owner_id", vec![100, 200, 300])
            .utf8("region", vec!["west".into(), "east".into(), "north".into()])
            .build()
            .unwrap(),
    );
    let model = FastTextModel::new(FastTextConfig {
        dim: 16,
        buckets: 1000,
        ..FastTextConfig::default()
    })
    .unwrap();
    s.register_model("ft", model);
    for table in ["photos", "products", "owners"] {
        s.catalog().analyze(table).unwrap();
    }
    s.with_strategy(strategy);
    s
}

/// The maintained plan: a hash join (photos → owners) feeding an ejoin
/// against products, so one delta stream exercises hash-join probe/build
/// propagation and every ejoin propagation rule at once.
fn plan(predicate: SimilarityPredicate) -> LogicalPlan {
    LogicalPlan::e_join(
        LogicalPlan::join(
            LogicalPlan::scan("photos"),
            LogicalPlan::scan("owners"),
            "owner_fk",
            "owner_id",
        ),
        LogicalPlan::scan("products"),
        "caption",
        "title",
        "ft",
        predicate,
    )
}

/// Full re-run of the plan in morsels of `morsel_rows` rows.
fn rerun(s: &ContextJoinSession, query: &LogicalPlan, morsel_rows: usize) -> Table {
    let prepared = s.prepare(query).unwrap();
    let ctx = ExecContext {
        catalog: s.catalog(),
        registry: &s.model_registry(),
        embeddings: s.embedding_caches(),
        indexes: s.index_manager(),
        pool: *cej_exec::ExecPool::global(),
    };
    prepared
        .physical_plan()
        .execute_with(&ctx, morsel_rows)
        .unwrap()
        .table
}

fn strategies() -> Vec<(JoinStrategy, &'static str)> {
    vec![
        (JoinStrategy::NaiveNlj, "naive-nlj"),
        (
            JoinStrategy::PrefetchNlj(NljConfig::default()),
            "prefetch-nlj",
        ),
        (JoinStrategy::Tensor(TensorJoinConfig::default()), "tensor"),
        (JoinStrategy::Index(IndexJoinConfig::default()), "index"),
    ]
}

fn check_in_sync(
    q: &StandingQuery,
    s: &ContextJoinSession,
    query: &LogicalPlan,
    context: &str,
) -> Result<(), TestCaseError> {
    for morsel_rows in [usize::MAX, 3, 7] {
        let full = MaintainedResult::new(rerun(s, query, morsel_rows));
        prop_assert!(
            q.checksum() == full.checksum(),
            "maintained result diverged from the {}-row-morsel re-run {}: {} maintained rows vs {} full rows",
            morsel_rows,
            context,
            q.snapshot().map(|t| t.num_rows()).unwrap_or(0),
            full.rows()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One random delta stream per case, replayed under every join
    /// strategy; after every delta the maintained multiset must equal a
    /// full re-run at every morsel size.
    #[test]
    fn maintained_results_are_byte_identical_to_full_reruns(
        seed in 0u64..1_000_000,
        topk in any::<bool>(),
    ) {
        let predicate = if topk {
            SimilarityPredicate::TopK(2)
        } else {
            SimilarityPredicate::Threshold(0.5)
        };
        let query = plan(predicate);

        // generate the stream once so every strategy sees identical deltas
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mirror = Mirror {
            photo_ids: (0..8).collect(),
            product_ids: (0..6).collect(),
            next_photo: 8,
            next_product: 6,
        };
        let table_rng_seed = rng.gen::<u64>();
        let mut stream: Vec<(&str, Delta)> =
            (0..6).map(|_| gen_delta(&mut rng, &mut mirror)).collect();
        let bulk_delete = stream.len() + 1;
        stream.extend(closing_deltas(&mut rng, &mut mirror));

        for (strategy, strategy_name) in strategies() {
            // the naive E-NLJ rejects top-k predicates by design
            if topk && matches!(strategy, JoinStrategy::NaiveNlj) {
                continue;
            }
            let mut table_rng = StdRng::seed_from_u64(table_rng_seed);
            let fresh_mirror = Mirror {
                photo_ids: (0..8).collect(),
                product_ids: (0..6).collect(),
                next_photo: 8,
                next_product: 6,
            };
            let s = session(&mut table_rng, strategy, &fresh_mirror);
            // exercise the propagation path as hard as possible: never
            // fall back just because a delta is large relative to the base
            let q = s
                .prepare(&query)
                .unwrap()
                .subscribe_with(IvmPolicy {
                    refresh_fraction: f64::INFINITY,
                    ..IvmPolicy::default()
                })
                .unwrap();
            check_in_sync(&q, &s, &query, &format!("(seed {seed}, {strategy_name}, seeded)"))?;
            let mut layout = photos_layout(&s);
            for (step, (table, delta)) in stream.iter().enumerate() {
                if step == bulk_delete || step == bulk_delete + 1 {
                    layout = photos_layout(&s);
                }
                s.apply_delta(table, delta).unwrap();
                if step == bulk_delete {
                    prop_assert!(
                        photos_layout(&s).0 < layout.0,
                        "no segment was rewritten under {}", strategy_name
                    );
                }
                if step + 1 == stream.len() {
                    prop_assert!(
                        photos_layout(&s).1 < layout.1 + 3,
                        "the appended tail never merged under {}", strategy_name
                    );
                }
                check_in_sync(
                    &q,
                    &s,
                    &query,
                    &format!("(seed {seed}, {strategy_name}, step {step} on {table})"),
                )?;
            }
            // every delta that touched the plan was absorbed one way or
            // the other — nothing silently dropped
            let stats = q.stats();
            prop_assert!(
                stats.propagations + stats.refreshes >= 1,
                "no delta was absorbed under {} (stats {:?})",
                strategy_name,
                stats
            );
        }
    }
}
