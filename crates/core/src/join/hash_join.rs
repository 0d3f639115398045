//! The relational hash equi-join: the N-table glue operator.
//!
//! Unlike the four context-enhanced join operators, this join has no model
//! in the loop — it connects tables on ordinary key equality so that
//! multi-way queries (fact/dimension schemas, chained ejoins) can be
//! expressed and *reordered* by the Selinger-style join-order optimizer in
//! `cej-relational`.
//!
//! The right input is drained once into a [`HashSide`] (key → row indices,
//! in right-row order), then the left input probes it, one morsel at a time.
//! Matches are emitted ordered by probe row first and build row second,
//! which is what makes the output deterministic and byte-identical across
//! morsel sizes, thread budgets, and join orders (after the compensating
//! `Rename` restores the written column order).
//!
//! ## Partitioned parallel build
//!
//! The build side is **radix-partitioned** on a stable FNV-1a hash of the
//! key: partition `p = hash(key) & mask`, one `key → rows` map per
//! partition, each built by one worker of the shared pool
//! ([`HashSide::build_with_pool`]).  Because every occurrence of a key
//! lands in the same partition and each partition inserts in build-row
//! order, the per-key match lists are identical to a single-map build — so
//! probe output is byte-identical for every partition count and thread
//! budget (including the fully skewed case where all keys share one
//! partition).  Probes only ever read, so probe batches can run in
//! parallel against the same [`HashSide`].

use std::collections::HashMap;

use cej_embedding::hasher::{fnv1a, fnv1a_extend};
use cej_exec::ExecPool;
use cej_storage::{Column, Schema, Table};

use crate::error::CoreError;
use crate::Result;

/// A join-key value with exact equality semantics.  `Float64` and `Vector`
/// keys are rejected at plan time, so execution only ever sees these.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Int(i64),
    Date(i32),
    Bool(bool),
    Str(String),
}

/// Extracts the key column of `table` as hashable values.
fn key_column(table: &Table, column: &str) -> Result<Vec<Key>> {
    let col = table.column_by_name(column).map_err(CoreError::from)?;
    Ok(match col {
        Column::Int64(v) => v.iter().map(|&x| Key::Int(x)).collect(),
        Column::Date(v) => v.iter().map(|&x| Key::Date(x)).collect(),
        Column::Bool(v) => v.iter().map(|&x| Key::Bool(x)).collect(),
        Column::Utf8(v) => v.iter().map(|s| Key::Str(s.clone())).collect(),
        other => {
            return Err(CoreError::InvalidInput(format!(
                "join key column {column} has unhashable type {}",
                other.data_type()
            )))
        }
    })
}

/// Stable FNV-1a hash of a key over its variant tag plus a canonical byte
/// encoding.  Deliberately *not* `std::hash` (whose `RandomState` is
/// per-process randomised): the radix partition of a key must be a pure
/// function of its value so partitioned builds are reproducible.
fn stable_hash(key: &Key) -> u64 {
    match key {
        Key::Int(v) => fnv1a_extend(fnv1a(&[0]), &v.to_le_bytes()),
        Key::Date(v) => fnv1a_extend(fnv1a(&[1]), &v.to_le_bytes()),
        Key::Bool(v) => fnv1a(&[2, u8::from(*v)]),
        Key::Str(s) => fnv1a_extend(fnv1a(&[3]), s.as_bytes()),
    }
}

/// The built (right) side of a hash equi-join: the materialised build table
/// plus radix-partitioned key → row-indices maps, match lists in right-row
/// order (see the module docs on partitioned builds).
pub struct HashSide {
    table: Table,
    /// One map per radix partition; always a power-of-two count.
    partitions: Vec<HashMap<Key, Vec<usize>>>,
    /// `partitions.len() - 1`, the radix mask applied to [`stable_hash`].
    mask: u64,
}

impl HashSide {
    /// Drains `table` into the hash map, keyed on `column`, on the calling
    /// thread (a single partition).
    pub fn build(table: Table, column: &str) -> Result<Self> {
        Self::build_with_pool(table, column, &ExecPool::new(1))
    }

    /// Partitioned parallel build: the key column is hashed once, then each
    /// worker of `pool` builds the map of one radix partition.  A budget-1
    /// pool degrades to the single-map serial build.
    pub fn build_with_pool(table: Table, column: &str, pool: &ExecPool) -> Result<Self> {
        let keys = key_column(&table, column)?;
        let parts = if pool.threads() <= 1 || keys.len() < 2 {
            1
        } else {
            // a few partitions per worker keeps the claim queue busy even
            // when key skew empties some partitions
            (pool.threads() * 4).next_power_of_two().min(64)
        };
        if parts == 1 {
            let mut map: HashMap<Key, Vec<usize>> = HashMap::with_capacity(keys.len());
            for (i, k) in keys.into_iter().enumerate() {
                map.entry(k).or_default().push(i);
            }
            return Ok(Self {
                table,
                partitions: vec![map],
                mask: 0,
            });
        }
        let mask = (parts - 1) as u64;
        let hashes: Vec<u64> = keys.iter().map(stable_hash).collect();
        let part_ids: Vec<u64> = (0..parts as u64).collect();
        let partitions = pool.parallel_map(&part_ids, |&pid| {
            // each worker owns one partition and scans the shared hash
            // vector for its rows, inserting in ascending row order — the
            // same per-key list a serial single-map build produces
            let mut map: HashMap<Key, Vec<usize>> = HashMap::new();
            for (i, &h) in hashes.iter().enumerate() {
                if h & mask == pid {
                    map.entry(keys[i].clone()).or_default().push(i);
                }
            }
            map
        });
        Ok(Self {
            table,
            partitions,
            mask,
        })
    }

    /// The materialised build-side table.
    #[cfg(test)]
    pub(crate) fn table(&self) -> &Table {
        &self.table
    }

    /// The partition map a key belongs to.
    #[inline]
    fn partition(&self, key: &Key) -> &HashMap<Key, Vec<usize>> {
        if self.partitions.len() == 1 {
            &self.partitions[0]
        } else {
            &self.partitions[(stable_hash(key) & self.mask) as usize]
        }
    }

    /// Appends `rows` to the build side in place, hashing the new rows under
    /// the same key `column` into their partitions.  Row indices of existing
    /// entries are unchanged (appends go at the end), so a standing query's
    /// maintained join state stays aligned with the table version the delta
    /// produced.
    pub(crate) fn extend_build(&mut self, rows: &Table, column: &str) -> Result<()> {
        let keys = key_column(rows, column)?;
        let base = self.table.num_rows();
        self.table.extend(rows).map_err(CoreError::from)?;
        let single = self.partitions.len() == 1;
        let mask = self.mask;
        for (i, k) in keys.into_iter().enumerate() {
            let pid = if single {
                0
            } else {
                (stable_hash(&k) & mask) as usize
            };
            self.partitions[pid].entry(k).or_default().push(base + i);
        }
        Ok(())
    }

    /// Probes with `left` (in row order) and materialises the joined output:
    /// left columns then right columns, names preserved, matches ordered by
    /// probe row first and build row second.  Read-only: probe batches may
    /// run concurrently against one side.
    pub fn probe(&self, left: &Table, column: &str) -> Result<Table> {
        let keys = key_column(left, column)?;
        let mut left_indices = Vec::new();
        let mut right_indices = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(matches) = self.partition(key).get(key) {
                for &j in matches {
                    left_indices.push(i);
                    right_indices.push(j);
                }
            }
        }
        let left_taken = left.take(&left_indices).map_err(CoreError::from)?;
        let right_taken = self.table.take(&right_indices).map_err(CoreError::from)?;
        concat_sides(&left_taken, &right_taken)
    }
}

/// Concatenates two equally-long tables side by side, preserving names.
/// The planner already rejected shared names ([`cej_relational::RelationalError::AmbiguousColumn`]).
pub(crate) fn concat_sides(left: &Table, right: &Table) -> Result<Table> {
    let mut fields = left.schema().fields().to_vec();
    fields.extend(right.schema().fields().iter().cloned());
    let mut columns: Vec<Column> = left.columns().to_vec();
    columns.extend(right.columns().iter().cloned());
    let schema = Schema::new(fields).map_err(CoreError::from)?;
    Table::new(schema, columns).map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_storage::TableBuilder;

    fn fact() -> Table {
        TableBuilder::new()
            .int64("fk", vec![1, 2, 1, 3])
            .utf8(
                "caption",
                vec!["a".into(), "b".into(), "c".into(), "d".into()],
            )
            .build()
            .unwrap()
    }

    fn dim() -> Table {
        TableBuilder::new()
            .int64("id", vec![1, 1, 2])
            .utf8("tag", vec!["x".into(), "y".into(), "z".into()])
            .build()
            .unwrap()
    }

    #[test]
    fn probe_order_is_probe_row_then_build_row() {
        let side = HashSide::build(dim(), "id").unwrap();
        assert_eq!(side.table.num_rows(), 3);
        let out = side.probe(&fact(), "fk").unwrap();
        // fk=1 matches build rows 0,1; fk=2 matches 2; fk=1 again; fk=3 none
        assert_eq!(out.num_rows(), 5);
        let fks = out.column_by_name("fk").unwrap().as_int64().unwrap();
        assert_eq!(fks, &[1, 1, 2, 1, 1]);
        let tags = out.column_by_name("tag").unwrap().as_utf8().unwrap();
        assert_eq!(tags, &["x", "y", "z", "x", "y"]);
        // names preserved from both sides, left first
        let names: Vec<&str> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["fk", "caption", "id", "tag"]);
    }

    #[test]
    fn extend_build_matches_a_fresh_build() {
        let mut grown = HashSide::build(dim(), "id").unwrap();
        let added = TableBuilder::new()
            .int64("id", vec![3, 1])
            .utf8("tag", vec!["w".into(), "v".into()])
            .build()
            .unwrap();
        grown.extend_build(&added, "id").unwrap();
        assert_eq!(grown.table.num_rows(), 5);
        let fresh = HashSide::build(Table::concat(&[&dim(), &added]).unwrap(), "id").unwrap();
        let via_grown = grown.probe(&fact(), "fk").unwrap();
        let via_fresh = fresh.probe(&fact(), "fk").unwrap();
        assert_eq!(via_grown.num_rows(), via_fresh.num_rows());
        assert_eq!(
            via_grown.column_by_name("tag").unwrap().as_utf8().unwrap(),
            via_fresh.column_by_name("tag").unwrap().as_utf8().unwrap()
        );
        assert_eq!(grown.table().num_rows(), 5);
    }

    #[test]
    fn partitioned_build_is_identical_to_the_serial_build() {
        let serial = HashSide::build(dim(), "id").unwrap();
        let parallel = HashSide::build_with_pool(dim(), "id", &ExecPool::new(4)).unwrap();
        assert_eq!(serial.partitions.len(), 1);
        assert!(parallel.partitions.len() > 1);
        let via_serial = serial.probe(&fact(), "fk").unwrap();
        let via_parallel = parallel.probe(&fact(), "fk").unwrap();
        assert_eq!(via_serial, via_parallel);
    }

    #[test]
    fn skewed_keys_land_in_one_partition_and_still_probe_correctly() {
        // every build key identical: the entire build side hashes into a
        // single radix partition, the worst-case skew for the parallel build
        let skewed = TableBuilder::new()
            .int64("id", vec![7, 7, 7, 7, 7, 7])
            .utf8(
                "tag",
                (0..6).map(|i| format!("t{i}")).collect::<Vec<String>>(),
            )
            .build()
            .unwrap();
        let side = HashSide::build_with_pool(skewed.clone(), "id", &ExecPool::new(4)).unwrap();
        assert!(side.partitions.len() > 1);
        let non_empty = side.partitions.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(non_empty, 1);
        let probe = TableBuilder::new()
            .int64("fk", vec![7, 3])
            .utf8("caption", vec!["hit".into(), "miss".into()])
            .build()
            .unwrap();
        let out = side.probe(&probe, "fk").unwrap();
        // fk=7 matches all six build rows in build-row order; fk=3 none
        assert_eq!(out.num_rows(), 6);
        let tags = out.column_by_name("tag").unwrap().as_utf8().unwrap();
        assert_eq!(tags, &["t0", "t1", "t2", "t3", "t4", "t5"]);
        let serial = HashSide::build(skewed, "id").unwrap();
        assert_eq!(out, serial.probe(&probe, "fk").unwrap());
    }

    #[test]
    fn extend_build_on_a_partitioned_side_matches_a_fresh_partitioned_build() {
        let pool = ExecPool::new(4);
        let mut grown = HashSide::build_with_pool(dim(), "id", &pool).unwrap();
        let added = TableBuilder::new()
            .int64("id", vec![3, 1])
            .utf8("tag", vec!["w".into(), "v".into()])
            .build()
            .unwrap();
        grown.extend_build(&added, "id").unwrap();
        let fresh =
            HashSide::build_with_pool(Table::concat(&[&dim(), &added]).unwrap(), "id", &pool)
                .unwrap();
        assert_eq!(
            grown.probe(&fact(), "fk").unwrap(),
            fresh.probe(&fact(), "fk").unwrap()
        );
    }

    #[test]
    fn stable_hash_distinguishes_variants() {
        // Int(1) vs Date(1) vs Bool(true) must not collide via shared bytes
        let h = [
            stable_hash(&Key::Int(1)),
            stable_hash(&Key::Date(1)),
            stable_hash(&Key::Bool(true)),
            stable_hash(&Key::Str("1".into())),
        ];
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i], h[j]);
            }
        }
        // and it is a pure function of the value (stable across calls)
        assert_eq!(
            stable_hash(&Key::Str("abc".into())),
            stable_hash(&Key::Str("abc".into()))
        );
    }

    #[test]
    fn stable_hash_values_are_pinned() {
        // the radix partition of a key is part of a build's reproducibility
        let pinned = [
            (Key::Int(-42), 0x1e75_2773_9936_272e),
            (Key::Date(19_000), 0x7a35_a9e5_3b63_2e92),
            (Key::Bool(true), 0x0839_5307_b4f1_348c),
            (Key::Str("barbecue".into()), 0xd6f6_632b_9d33_e935),
        ];
        for (key, hash) in pinned {
            assert_eq!(stable_hash(&key), hash, "{key:?}");
        }
    }

    #[test]
    fn unhashable_key_is_rejected() {
        let t = TableBuilder::new()
            .float64("score", vec![1.0, 2.0])
            .build()
            .unwrap();
        assert!(HashSide::build(t, "score").is_err());
    }
}
