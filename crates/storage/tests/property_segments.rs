//! Property test: a segmented [`TableVersion`] is the contiguous table,
//! stored differently.
//!
//! Random `APPEND` / `UPSERT` / `DELETE` streams — duplicate keys, absent
//! keys, empty payloads, keys of every hashable type — go through
//! [`TableVersion::apply`] and, step by step, through the contiguous
//! reference [`Delta::apply`] over the version's own rows.  At every step the
//! new version's rows (bytes and order), `added` and `removed` must be
//! identical to the reference's, and every earlier snapshot must still read
//! what it read when it was published, whatever tail merges, half-dead
//! rewrites and adopted compactions have happened to its successors since.

use std::sync::Arc;

use cej_storage::{Delta, ScalarValue, Table, TableBuilder, TableVersion};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small value domains, so payloads repeat keys and hit live rows often.
const TAGS: &[&str] = &["ash", "birch", "cedar", "elm", "fir"];

fn random_rows(rng: &mut StdRng, rows: usize) -> Table {
    let mut pick = |n: i64| -> Vec<i64> { (0..rows).map(|_| rng.gen_range(0..n)).collect() };
    let (ids, tags, days, flags, notes) = (pick(12), pick(5), pick(4), pick(2), pick(1000));
    TableBuilder::new()
        .int64("id", ids)
        .utf8(
            "tag",
            tags.iter().map(|&t| TAGS[t as usize].to_string()).collect(),
        )
        .date("day", days.iter().map(|&d| d as i32).collect())
        .bool("flag", flags.iter().map(|&f| f == 1).collect())
        .utf8("note", notes.iter().map(|n| format!("note {n}")).collect())
        .build()
        .expect("rows")
}

fn random_delta(rng: &mut StdRng) -> Delta {
    let key_column = ["id", "tag", "day", "flag"][rng.gen_range(0..4usize)];
    // payloads of 0 rows / 0 keys included
    let payload = rng.gen_range(0..7usize);
    match rng.gen_range(0..3u32) {
        0 => Delta::Append(random_rows(rng, payload)),
        1 => Delta::Upsert {
            key_column: key_column.to_string(),
            rows: random_rows(rng, payload),
        },
        _ => {
            // keys drawn from a domain wider than the rows': some are absent
            let keys = (0..payload).map(|_| match key_column {
                "id" => ScalarValue::Int64(rng.gen_range(0..16)),
                "tag" => match TAGS.get(rng.gen_range(0..7usize)) {
                    Some(tag) => ScalarValue::Utf8(tag.to_string()),
                    None => ScalarValue::Utf8("oak".to_string()),
                },
                "day" => ScalarValue::Date(rng.gen_range(0..6)),
                _ => ScalarValue::Bool(rng.gen_range(0..2u32) == 1),
            });
            Delta::DeleteByKey {
                key_column: key_column.to_string(),
                keys: keys.collect(),
            }
        }
    }
}

/// The version's rows read off its segments — never through the cached
/// compaction, so a snapshot is re-read from what it actually shares.
fn rows_of(version: &TableVersion) -> Table {
    let parts: Vec<Table> = version
        .segments()
        .iter()
        .map(|segment| {
            let rows = segment.rows().num_rows() as u32;
            let live = segment.live_in(0..rows);
            assert_eq!(live.len(), segment.live_rows());
            segment.rows().gather(&live).expect("live rows in range")
        })
        .collect();
    Table::concat(&parts.iter().collect::<Vec<_>>()).expect("at least one segment")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segmented_versions_match_the_contiguous_reference_at_every_step(
        seed in 0u64..1_000_000,
        base_rows in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut head = TableVersion::initial(Arc::new(random_rows(&mut rng, base_rows)));
        let mut history: Vec<(Arc<TableVersion>, Table)> = Vec::new();
        for step in 0..40u64 {
            let delta = random_delta(&mut rng);
            let before = rows_of(&head);
            let (expected, reference) = delta.apply(&before).expect("reference apply");
            let (next, applied) = head.apply(&delta).expect("segmented apply");

            prop_assert!(rows_of(&next) == expected, "rows differ at step {} of seed {}", step, seed);
            prop_assert!(applied.added == reference.added, "added differs at step {}", step);
            prop_assert!(applied.removed == reference.removed, "removed differs at step {}", step);
            prop_assert_eq!(next.version(), step + 1);
            prop_assert_eq!(next.num_rows(), expected.num_rows());
            prop_assert_eq!(applied.changed_rows(), reference.changed_rows());
            // now and then someone asks for the contiguous table, and the
            // next apply builds on that compaction
            if rng.gen_range(0..4u32) == 0 {
                prop_assert!(*next.table() == expected, "compaction differs at step {}", step);
            }

            history.push((head, before));
            for (age, (snapshot, rows)) in history.iter().enumerate() {
                prop_assert!(
                    rows_of(snapshot) == *rows && snapshot.num_rows() == rows.num_rows(),
                    "snapshot {} changed under step {} of seed {}", age, step, seed
                );
            }
            head = next;
        }
        // the structural rules held the whole way: segment sizes at least
        // double towards the front (under 2^9 rows were ever live), and no
        // segment is mostly dead
        prop_assert!(head.segments().len() <= 9, "{} segments", head.segments().len());
        for segment in head.segments() {
            prop_assert!(segment.live_rows() * 2 >= segment.rows().num_rows());
        }
    }
}
