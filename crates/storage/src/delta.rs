//! Table deltas and the segmented table versions they produce.
//!
//! A [`Delta`] describes a batch change to a registered table — appended
//! rows, rows deleted by key, or an upsert batch (delete-matching-keys then
//! append).  Applying a delta never mutates a published snapshot: it yields
//! a *new* [`TableVersion`] plus the exact multiset of
//! [`AppliedDelta::added`] and [`AppliedDelta::removed`] rows, which is what
//! the delta-propagation engine in `cej-core` pushes through standing query
//! plans.
//!
//! A version is a list of immutable [`Segment`]s — an `Arc<Table>` of rows
//! plus an optional copy-on-write live mask — in the MonetDB/X100 manner:
//! column chunks never change, updates arrive as deltas beside them.  An
//! append pushes the delta's rows as a new segment, a delete clears mask
//! bits and copies only the rows it removed, an upsert does both; every
//! untouched segment is shared with the previous version, so a delta costs
//! the delta (plus one typed pass over the key column), not the table.
//! Two structural rules keep the list short and the dead rows few: the last
//! two segments merge while the last holds at least half as many live rows
//! as its predecessor (so a row is re-copied O(log n) times over n appends),
//! and a segment whose rows are more than half dead is rewritten without
//! them.  Live plans keep whatever `Arc`s they resolved — the storage-level
//! contract that lets mutation and query execution overlap without locks on
//! the data itself; no version remembers its predecessors.
//!
//! [`Delta::apply`] is the same change over one contiguous [`Table`]: the
//! reference the segmented path is tested against, byte for byte.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::bitmap::SelectionBitmap;
use crate::column::Column;
use crate::datatype::DataType;
use crate::error::StorageError;
use crate::scalar::ScalarValue;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;

/// The last two segments merge while the last holds at least
/// `1 / TAIL_MERGE_RATIO` of its predecessor's live rows.
const TAIL_MERGE_RATIO: usize = 2;

/// A segment is rewritten once fewer than `1 / REWRITE_RATIO` of its rows
/// are live.
const REWRITE_RATIO: usize = 2;

/// A batch mutation against a registered table.
#[derive(Debug, Clone)]
pub enum Delta {
    /// Append these rows (schema must match the table exactly).
    Append(Table),
    /// Delete every row whose `key_column` value is in `keys` (multiset
    /// semantics: all matching rows go).
    DeleteByKey {
        /// The column the keys are matched against.
        key_column: String,
        /// The key values to delete.
        keys: Vec<ScalarValue>,
    },
    /// Delete every row matching a key of `rows`' `key_column`, then append
    /// all of `rows` — insert-or-replace in one batch.
    Upsert {
        /// The column upsert keys are matched against.
        key_column: String,
        /// The replacement rows (schema must match the table exactly).
        rows: Table,
    },
}

/// The exact row change a [`Delta`] made: the added and the removed row
/// multisets, both in the table's schema.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// Rows present after but not before (appended / upserted rows).
    pub added: Table,
    /// Rows present before but not after (deleted / replaced rows), in table
    /// order.
    pub removed: Table,
}

impl AppliedDelta {
    /// Total changed rows (|added| + |removed|) — the "delta size" cost
    /// thresholds compare against table size.
    pub fn changed_rows(&self) -> usize {
        self.added.num_rows() + self.removed.num_rows()
    }
}

/// The keys of a delete or upsert, typed like the column they are matched
/// against, sorted and deduplicated.  `Float64` and `Vector` key columns are
/// rejected, mirroring the equi-join key rule.  Strings are borrowed from
/// the delta.
enum KeySet<'d> {
    Int(Vec<i64>),
    Date(Vec<i32>),
    Bool(Vec<bool>),
    Str(Vec<&'d str>),
}

fn sorted<T: Ord>(mut keys: Vec<T>) -> Vec<T> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn unhashable(data_type: DataType) -> StorageError {
    StorageError::TypeMismatch {
        expected: "hashable key column (int64/date/bool/utf8)".into(),
        actual: format!("{data_type:?}"),
    }
}

impl<'d> KeySet<'d> {
    /// The distinct values of an upsert batch's key column.
    fn of_column(column: &'d Column) -> Result<Self> {
        Ok(match column {
            Column::Int64(v) => KeySet::Int(sorted(v.clone())),
            Column::Date(v) => KeySet::Date(sorted(v.clone())),
            Column::Bool(v) => KeySet::Bool(sorted(v.clone())),
            Column::Utf8(v) => KeySet::Str(sorted(v.iter().map(String::as_str).collect())),
            other => return Err(unhashable(other.data_type())),
        })
    }

    /// Delete keys, each of which must carry the key column's type.
    fn of_scalars(keys: &'d [ScalarValue], column: &str, data_type: DataType) -> Result<Self> {
        if let Some(stray) = keys.iter().find(|key| key.data_type() != data_type) {
            return Err(StorageError::TypeMismatch {
                expected: format!("{data_type:?} key for column {column}"),
                actual: format!("{:?}", stray.data_type()),
            });
        }
        let keys = keys.iter();
        Ok(match data_type {
            DataType::Int64 => KeySet::Int(sorted(keys.filter_map(ScalarValue::as_i64).collect())),
            DataType::Utf8 => KeySet::Str(sorted(keys.filter_map(ScalarValue::as_str).collect())),
            DataType::Date => KeySet::Date(sorted(
                keys.filter_map(|key| match key {
                    ScalarValue::Date(day) => Some(*day),
                    _ => None,
                })
                .collect(),
            )),
            DataType::Bool => KeySet::Bool(sorted(
                keys.filter_map(|key| match key {
                    ScalarValue::Bool(flag) => Some(*flag),
                    _ => None,
                })
                .collect(),
            )),
            other => return Err(unhashable(other)),
        })
    }

    /// The rows of `column` — of the live ones, under a mask — whose value
    /// is one of the keys, ascending: one typed pass, each value rejected by
    /// the key range before it is searched for.
    fn matching_rows(&self, column: &Column, live: Option<&SelectionBitmap>) -> Result<Vec<u32>> {
        fn scan<T: Ord>(
            keys: &[T],
            values: impl Iterator<Item = T>,
            live: Option<&SelectionBitmap>,
        ) -> Vec<u32> {
            let (Some(lo), Some(hi)) = (keys.first(), keys.last()) else {
                return Vec::new();
            };
            values
                .enumerate()
                .filter(|(row, value)| {
                    lo <= value
                        && value <= hi
                        && keys.binary_search(value).is_ok()
                        && live.is_none_or(|live| live.is_selected(*row))
                })
                .map(|(row, _)| row as u32)
                .collect()
        }
        Ok(match (self, column) {
            (KeySet::Int(keys), Column::Int64(v)) => scan(keys, v.iter().copied(), live),
            (KeySet::Date(keys), Column::Date(v)) => scan(keys, v.iter().copied(), live),
            (KeySet::Bool(keys), Column::Bool(v)) => scan(keys, v.iter().copied(), live),
            (KeySet::Str(keys), Column::Utf8(v)) => scan(keys, v.iter().map(String::as_str), live),
            (_, other) => return Err(unhashable(other.data_type())),
        })
    }
}

fn check_same_schema(expected: &Schema, actual: &Schema) -> Result<()> {
    let render = |schema: &Schema| {
        let fields = schema.fields().iter();
        fields
            .map(|f| format!("{}: {:?}", f.name, f.data_type))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if expected.fields() != actual.fields() {
        return Err(StorageError::TypeMismatch {
            expected: format!("delta schema [{}]", render(expected)),
            actual: format!("[{}]", render(actual)),
        });
    }
    Ok(())
}

/// What a checked delta does to a table: the key column and keys whose rows
/// go, and the rows that come.
type DeltaParts<'d> = (Option<(&'d str, KeySet<'d>)>, Option<&'d Table>);

impl Delta {
    /// The verb name (`APPEND` / `DELETE` / `UPSERT`).
    pub fn verb(&self) -> &'static str {
        match self {
            Delta::Append(_) => "APPEND",
            Delta::DeleteByKey { .. } => "DELETE",
            Delta::Upsert { .. } => "UPSERT",
        }
    }

    /// Size of the delta payload: appended/upserted rows or delete keys.
    pub fn payload_rows(&self) -> usize {
        match self {
            Delta::Append(rows) | Delta::Upsert { rows, .. } => rows.num_rows(),
            Delta::DeleteByKey { keys, .. } => keys.len(),
        }
    }

    /// Whether this delta only adds rows (never removes any) — the fast
    /// path that lets persistent HNSW indexes be extended in place instead
    /// of invalidated.
    pub fn is_append_only(&self) -> bool {
        matches!(self, Delta::Append(_))
    }

    /// Validates this delta against a table schema and takes it apart.
    fn parts(&self, schema: &Schema) -> Result<DeltaParts<'_>> {
        Ok(match self {
            Delta::Append(rows) => {
                check_same_schema(schema, rows.schema())?;
                (None, Some(rows))
            }
            Delta::DeleteByKey { key_column, keys } => {
                let data_type = schema.field(key_column)?.data_type;
                let keys = KeySet::of_scalars(keys, key_column, data_type)?;
                (Some((key_column, keys)), None)
            }
            Delta::Upsert { key_column, rows } => {
                check_same_schema(schema, rows.schema())?;
                let keys = KeySet::of_column(rows.column_by_name(key_column)?)?;
                (Some((key_column, keys)), Some(rows))
            }
        })
    }

    /// Validates this delta against a table schema: appended/upserted rows
    /// must carry the identical schema, and key columns must exist with a
    /// hashable type.
    ///
    /// # Errors
    /// [`StorageError::TypeMismatch`] on schema or key-type mismatch,
    /// [`StorageError::ColumnNotFound`] for an unknown key column.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        self.parts(schema).map(|_| ())
    }

    /// Applies this delta to one contiguous table, producing the new table
    /// and the exact added/removed row multisets.  `current` is untouched.
    /// This is the reference for [`TableVersion::apply`], which makes the
    /// same change without copying the table.
    ///
    /// Row order is deterministic: surviving rows keep their relative order
    /// and appended rows land at the end — so repeated replays of the same
    /// delta stream produce byte-identical tables.
    ///
    /// # Errors
    /// Schema/key validation errors (see [`Delta::check`]) and propagated
    /// storage errors.
    pub fn apply(&self, current: &Table) -> Result<(Table, AppliedDelta)> {
        let (keys, rows) = self.parts(current.schema())?;
        let (kept, removed) = match &keys {
            None => (Cow::Borrowed(current), current.gather(&[])?),
            Some((column, keys)) => {
                let hit = keys.matching_rows(current.column_by_name(column)?, None)?;
                let mut kept = SelectionBitmap::all(current.num_rows());
                for &row in &hit {
                    kept.set(row as usize, false)?;
                }
                (Cow::Owned(current.filter(&kept)?), current.gather(&hit)?)
            }
        };
        Ok(match rows {
            None => {
                let added = current.gather(&[])?;
                (kept.into_owned(), AppliedDelta { added, removed })
            }
            Some(rows) => {
                let added = rows.clone();
                (
                    Table::concat(&[&kept, rows])?,
                    AppliedDelta { added, removed },
                )
            }
        })
    }
}

/// One immutable run of a table version's rows: shared rows plus, once a
/// delete or upsert has reached into them, the mask of those still live.
#[derive(Debug, Clone)]
pub struct Segment {
    rows: Arc<Table>,
    /// `None` = every row is live.  Never mutated once published: a delete
    /// copies the mask, not the rows.
    live: Option<Arc<SelectionBitmap>>,
    live_rows: usize,
}

impl Segment {
    /// A segment in which every row of `rows` is live.
    pub fn whole(rows: Arc<Table>) -> Self {
        Self {
            live_rows: rows.num_rows(),
            rows,
            live: None,
        }
    }

    /// The segment's rows, dead ones included — the allocation that
    /// row-keyed side structures (embedding slot maps) hang off, which
    /// outlives every delete against it.
    pub fn rows(&self) -> &Arc<Table> {
        &self.rows
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.live_rows
    }

    /// Whether every row of `range` is a live row of [`Segment::rows`] —
    /// whether [`Segment::live_in`] would return all of it — answered
    /// without listing one.
    pub fn all_live_in(&self, range: Range<u32>) -> bool {
        let rows = range.start as usize..range.end as usize;
        match &self.live {
            None => rows.end <= self.rows.num_rows(),
            Some(live) => live
                .as_bools()
                .get(rows)
                .is_some_and(|bits| !bits.contains(&false)),
        }
    }

    /// The live rows among `range` of [`Segment::rows`], ascending — a
    /// scan's initial selection over that window.
    pub fn live_in(&self, range: Range<u32>) -> Vec<u32> {
        match &self.live {
            None => range.collect(),
            Some(live) => {
                let bits = live.as_bools();
                let end = (range.end as usize).min(bits.len());
                let start = (range.start as usize).min(end);
                let (window, rows) = (&bits[start..end], start as u32..end as u32);
                if !window.contains(&false) {
                    // deletes cluster (the oldest rows, one key range), so
                    // most windows of a deleted-from segment are still whole
                    return rows.collect();
                }
                let lanes = rows.zip(window);
                lanes
                    .filter(|(_, &live)| live)
                    .map(|(row, _)| row)
                    .collect()
            }
        }
    }

    /// The live rows as a table: the shared one, or a copy without the dead.
    fn live_table(&self) -> Result<Cow<'_, Table>> {
        Ok(match &self.live {
            None => Cow::Borrowed(self.rows.as_ref()),
            Some(live) => Cow::Owned(self.rows.filter(live)?),
        })
    }

    /// This segment with the live rows `gone` dead: a new mask over the
    /// same rows, or — once more than half of them are dead — new rows.
    fn without(&self, gone: &[u32]) -> Result<Segment> {
        let rows = self.rows.num_rows();
        let mut live = match &self.live {
            Some(live) => live.as_ref().clone(),
            None => SelectionBitmap::all(rows),
        };
        for &row in gone {
            live.set(row as usize, false)?;
        }
        let marked = Segment {
            rows: self.rows.clone(),
            live: Some(Arc::new(live)),
            live_rows: self.live_rows - gone.len(),
        };
        if marked.live_rows * REWRITE_RATIO < rows {
            return Ok(Segment::whole(Arc::new(marked.live_table()?.into_owned())));
        }
        Ok(marked)
    }
}

/// The live rows of `segments`, in order, as one table.
fn compact(segments: &[Segment]) -> Result<Table> {
    let mut parts = segments
        .iter()
        .map(Segment::live_table)
        .collect::<Result<Vec<_>>>()?;
    if parts.len() == 1 {
        return Ok(parts.remove(0).into_owned());
    }
    let parts: Vec<&Table> = parts.iter().map(Cow::as_ref).collect();
    Table::concat(&parts)
}

/// One immutable published state of a table: its live rows are the live
/// rows of its segments, in segment order.
///
/// The head version is what the catalog publishes; applying a delta yields a
/// new head that shares every segment the delta did not touch.  Live plans
/// that resolved a version (or one of its tables) keep their `Arc`s
/// regardless of how far the head advances.
#[derive(Debug)]
pub struct TableVersion {
    version: u64,
    schema: Schema,
    /// Never empty: a table without rows keeps one empty segment, so scans
    /// always have a base to take the schema from.
    segments: Vec<Segment>,
    live_rows: usize,
    /// The contiguous table, built the first time someone asks for it.
    compacted: OnceLock<Arc<Table>>,
}

impl TableVersion {
    fn new(version: u64, schema: Schema, segments: Vec<Segment>) -> Arc<Self> {
        Arc::new(Self {
            version,
            schema,
            live_rows: segments.iter().map(Segment::live_rows).sum(),
            segments,
            compacted: OnceLock::new(),
        })
    }

    /// Wraps a freshly registered table as version 0: one whole segment.
    pub fn initial(table: Arc<Table>) -> Arc<Self> {
        Self::new(0, table.schema().clone(), vec![Segment::whole(table)])
    }

    /// The monotonically increasing version number (0 at registration).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn num_rows(&self) -> usize {
        self.live_rows
    }

    /// The segments, in row order; at least one.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The version's rows as one contiguous table: the registered `Arc`
    /// itself while the version is a single untouched segment, otherwise a
    /// compaction built on first request and kept with this version.
    pub fn table(&self) -> Arc<Table> {
        if let [Segment {
            rows, live: None, ..
        }] = self.segments.as_slice()
        {
            return rows.clone();
        }
        let compacted = self.compacted.get_or_init(|| {
            Arc::new(compact(&self.segments).expect("segments carry the version's schema"))
        });
        compacted.clone()
    }

    /// Applies a delta to this version, returning the new head version and
    /// the applied row sets.  `self` (and every snapshot it shares) is
    /// untouched; the new version shares every segment the delta left alone.
    /// Its rows, in order, are exactly those [`Delta::apply`] produces from
    /// [`TableVersion::table`].
    ///
    /// # Errors
    /// Schema/key validation errors (see [`Delta::check`]) and propagated
    /// storage errors.
    pub fn apply(&self, delta: &Delta) -> Result<(Arc<TableVersion>, AppliedDelta)> {
        let (keys, rows) = delta.parts(&self.schema)?;
        let empty = self.segments[0].rows.gather(&[])?;
        // a compaction someone already paid for replaces the segments it
        // was built from
        let mut segments = match self.compacted.get() {
            Some(table) => vec![Segment::whole(table.clone())],
            None => self.segments.clone(),
        };
        let mut removed = Vec::new();
        if let Some((column, keys)) = &keys {
            let column = self.schema.index_of(column)?;
            for segment in &mut segments {
                let gone =
                    keys.matching_rows(&segment.rows.columns()[column], segment.live.as_deref())?;
                if !gone.is_empty() {
                    removed.push(segment.rows.gather(&gone)?);
                    *segment = segment.without(&gone)?;
                }
            }
            segments.retain(|segment| segment.live_rows > 0);
        }
        if let Some(rows) = rows.filter(|rows| rows.num_rows() > 0) {
            segments.push(Segment::whole(Arc::new(rows.clone())));
        }
        while let [.., before, last] = segments.as_slice() {
            if last.live_rows * TAIL_MERGE_RATIO < before.live_rows {
                break;
            }
            let merged = compact(&segments[segments.len() - 2..])?;
            segments.truncate(segments.len() - 2);
            segments.push(Segment::whole(Arc::new(merged)));
        }
        if segments.is_empty() {
            segments.push(Segment::whole(Arc::new(empty.clone())));
        }
        let removed = match removed.len() {
            0 => empty.clone(),
            _ => Table::concat(&removed.iter().collect::<Vec<_>>())?,
        };
        let applied = AppliedDelta {
            added: rows.cloned().unwrap_or(empty),
            removed,
        };
        let head = Self::new(self.version + 1, self.schema.clone(), segments);
        Ok((head, applied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    fn base() -> Table {
        TableBuilder::new()
            .int64("id", vec![1, 2, 3])
            .utf8("name", vec!["a".into(), "b".into(), "c".into()])
            .build()
            .unwrap()
    }

    fn rows(ids: Vec<i64>, names: Vec<&str>) -> Table {
        TableBuilder::new()
            .int64("id", ids)
            .utf8("name", names.into_iter().map(String::from).collect())
            .build()
            .unwrap()
    }

    fn ids(table: &Table) -> &[i64] {
        table.column_by_name("id").unwrap().as_int64().unwrap()
    }

    fn delete(keys: &[i64]) -> Delta {
        Delta::DeleteByKey {
            key_column: "id".into(),
            keys: keys.iter().copied().map(ScalarValue::Int64).collect(),
        }
    }

    #[test]
    fn append_extends_and_reports_added() {
        let delta = Delta::Append(rows(vec![4], vec!["d"]));
        assert!(delta.is_append_only());
        assert_eq!(delta.verb(), "APPEND");
        assert_eq!(delta.payload_rows(), 1);
        let (table, applied) = delta.apply(&base()).unwrap();
        assert_eq!(table.num_rows(), 4);
        assert_eq!(applied.added.num_rows(), 1);
        assert_eq!(applied.removed.num_rows(), 0);
        assert_eq!(applied.changed_rows(), 1);
        assert_eq!(ids(&table), &[1, 2, 3, 4]);
    }

    #[test]
    fn delete_by_key_removes_all_matches() {
        let t = Table::concat(&[&base(), &rows(vec![2], vec!["dup"])]).unwrap();
        let delta = delete(&[2, 99]);
        assert!(!delta.is_append_only());
        let (table, applied) = delta.apply(&t).unwrap();
        assert_eq!(applied.removed.num_rows(), 2, "both id=2 rows go");
        assert_eq!(applied.added.num_rows(), 0);
        assert_eq!(ids(&table), &[1, 3], "survivors keep their order");
    }

    #[test]
    fn upsert_replaces_matching_keys_and_appends() {
        let delta = Delta::Upsert {
            key_column: "id".into(),
            rows: rows(vec![2, 4], vec!["B", "d"]),
        };
        let (table, applied) = delta.apply(&base()).unwrap();
        assert_eq!(applied.removed.num_rows(), 1, "old id=2 replaced");
        assert_eq!(applied.added.num_rows(), 2);
        assert_eq!(ids(&table), &[1, 3, 2, 4]);
        let names = table.column_by_name("name").unwrap().as_utf8().unwrap();
        assert_eq!(names, &["a", "c", "B", "d"]);
    }

    #[test]
    fn schema_and_key_checking() {
        let wrong = TableBuilder::new().int64("id", vec![9]).build().unwrap();
        assert!(Delta::Append(wrong).apply(&base()).is_err());
        let bad_key = Delta::DeleteByKey {
            key_column: "name".into(),
            keys: vec![ScalarValue::Int64(1)],
        };
        assert!(
            bad_key.apply(&base()).is_err(),
            "key type must match column"
        );
        let missing = Delta::DeleteByKey {
            key_column: "ghost".into(),
            keys: vec![ScalarValue::Int64(1)],
        };
        assert!(missing.apply(&base()).is_err());
        let float_key = TableBuilder::new()
            .float64("score", vec![1.0])
            .build()
            .unwrap();
        let delta = Delta::Upsert {
            key_column: "score".into(),
            rows: float_key.clone(),
        };
        assert!(delta.apply(&float_key).is_err(), "float keys rejected");
        // the segmented path rejects what the reference rejects
        let version = TableVersion::initial(Arc::new(float_key));
        assert!(version.apply(&delta).is_err());
        assert!(TableVersion::initial(Arc::new(base()))
            .apply(&bad_key)
            .is_err());
    }

    #[test]
    fn version_chain_advances_and_caps() {
        let registered = Arc::new(base());
        let mut head = TableVersion::initial(registered.clone());
        assert_eq!(head.version(), 0);
        assert!(
            Arc::ptr_eq(&head.table(), &registered),
            "an untouched version hands out the registered table itself"
        );
        let first = head.clone();
        for i in 0..20 {
            let delta = Delta::Append(rows(vec![100 + i], vec!["x"]));
            let (next, applied) = head.apply(&delta).unwrap();
            assert_eq!(applied.added.num_rows(), 1);
            head = next;
        }
        assert_eq!(head.version(), 20);
        assert_eq!(head.num_rows(), 23);
        assert_eq!(head.table().num_rows(), 23);
        // geometric tail merges: 20 one-row appends leave a handful of
        // segments, not 21
        assert!(head.segments().len() <= 5, "{}", head.segments().len());
        // an earlier snapshot is untouched by everything applied since
        assert_eq!(first.num_rows(), 3);
        assert!(Arc::ptr_eq(&first.table(), &registered));
    }

    #[test]
    fn deletes_mark_rows_dead_and_share_the_segment() {
        let big = rows((0..10).collect(), vec!["r"; 10]);
        let v0 = TableVersion::initial(Arc::new(big));
        let (v1, applied) = v0.apply(&delete(&[3, 4, 99])).unwrap();
        assert_eq!(ids(&applied.removed), &[3, 4]);
        assert_eq!(v1.num_rows(), 8);
        let [segment] = v1.segments() else {
            panic!("a delete adds no segment");
        };
        assert!(
            Arc::ptr_eq(segment.rows(), v0.segments()[0].rows()),
            "rows are shared, only the mask is new"
        );
        assert_eq!(segment.live_in(2..6), vec![2, 5]);
        assert_eq!(segment.live_in(5..8), vec![5, 6, 7], "a whole window");
        assert_eq!(segment.live_in(3..5), Vec::<u32>::new(), "a dead one");
        assert_eq!(segment.live_in(8..99), vec![8, 9], "clamped to the rows");
        assert!(segment.all_live_in(5..8) && segment.all_live_in(0..3));
        assert!(!segment.all_live_in(2..6) && !segment.all_live_in(3..5));
        assert!(
            !segment.all_live_in(8..99),
            "rows past the end are not live"
        );
        assert!(v0.segments()[0].all_live_in(0..10) && !v0.segments()[0].all_live_in(8..11));
        assert_eq!(ids(&v1.table()), &[0, 1, 2, 5, 6, 7, 8, 9]);
        assert!(
            Arc::ptr_eq(&v1.table(), &v1.table()),
            "compacted once, kept with the version"
        );
        // a dead row is not there to be deleted again
        let (v2, applied) = v1.apply(&delete(&[3])).unwrap();
        assert_eq!(applied.removed.num_rows(), 0);
        assert_eq!(v2.version(), 2);
        // v1 was compacted above: its successor starts from that table
        assert!(Arc::ptr_eq(v2.segments()[0].rows(), &v1.table()));
        assert_eq!(v0.num_rows(), 10, "the first snapshot never moved");
    }

    #[test]
    fn a_segment_more_than_half_dead_is_rewritten_and_an_empty_table_keeps_its_schema() {
        let v0 = TableVersion::initial(Arc::new(rows((0..10).collect(), vec!["r"; 10])));
        let (v1, _) = v0.apply(&delete(&[0, 1, 2, 3, 4])).unwrap();
        assert_eq!(v1.segments()[0].rows().num_rows(), 10, "half dead: kept");
        let (v2, _) = v1.apply(&delete(&[5])).unwrap();
        let [segment] = v2.segments() else {
            panic!("still one segment");
        };
        assert_eq!(segment.rows().num_rows(), 4, "past half: rewritten");
        assert_eq!(segment.live_rows(), 4);
        assert_eq!(ids(&v2.table()), &[6, 7, 8, 9]);
        let (v3, applied) = v2.apply(&delete(&[6, 7, 8, 9])).unwrap();
        assert_eq!(applied.removed.num_rows(), 4);
        assert_eq!(v3.num_rows(), 0);
        assert_eq!(v3.segments().len(), 1);
        assert_eq!(v3.table().schema(), v0.schema());
        let (v4, _) = v3
            .apply(&Delta::Append(rows(vec![7], vec!["back"])))
            .unwrap();
        assert_eq!(ids(&v4.table()), &[7]);
        assert_eq!(v4.segments().len(), 1, "the empty segment merged away");
    }
}
