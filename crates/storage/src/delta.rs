//! Table deltas: the mutation primitive of incremental view maintenance.
//!
//! A [`Delta`] describes a batch change to a registered table — appended
//! rows, rows deleted by key, or an upsert batch (delete-matching-keys then
//! append).  Applying a delta never mutates the current snapshot: it
//! produces a *new* [`Table`] plus the exact multiset of [`AppliedDelta::added`]
//! and [`AppliedDelta::removed`] rows, which is what the delta-propagation
//! engine in `cej-core` pushes through standing query plans.
//!
//! [`TableVersion`] threads the snapshots into a chain: every applied delta
//! yields a new head version while live plans keep the `Arc` snapshot they
//! resolved — the storage-level contract that lets mutation and query
//! execution overlap without locks on the data itself.  The chain is capped
//! ([`MAX_VERSION_CHAIN`]) so a hot table does not retain its whole history.

use std::collections::HashSet;
use std::sync::Arc;

use crate::column::Column;
use crate::error::StorageError;
use crate::scalar::ScalarValue;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;

/// How many predecessor snapshots a [`TableVersion`] chain retains.
pub const MAX_VERSION_CHAIN: usize = 8;

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

/// The outcome of applying a [`Delta`] to a snapshot: the new snapshot plus
/// the exact added/removed row multisets (both in the table's schema).
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The post-delta table, shared with the [`TableVersion`] (and the
    /// catalog entry) that publishes it — built once, never copied.
    pub table: Arc<Table>,
    /// Rows present after but not before (appended / upserted rows).
    pub added: Table,
    /// Rows present before but not after (deleted / replaced rows).
    pub removed: Table,
}

impl AppliedDelta {
    /// Total changed rows (|added| + |removed|) — the "delta size" cost
    /// thresholds compare against table size.
    pub fn changed_rows(&self) -> usize {
        self.added.num_rows() + self.removed.num_rows()
    }
}

/// A hashable join/delete key value.  `Float64` and `Vector` key columns are
/// rejected up front ([`Delta::check`]), mirroring the equi-join key rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DeltaKey {
    Int(i64),
    Date(i32),
    Bool(bool),
    Str(String),
}

fn scalar_key(value: &ScalarValue) -> Result<DeltaKey> {
    Ok(match value {
        ScalarValue::Int64(v) => DeltaKey::Int(*v),
        ScalarValue::Date(v) => DeltaKey::Date(*v),
        ScalarValue::Bool(v) => DeltaKey::Bool(*v),
        ScalarValue::Utf8(s) => DeltaKey::Str(s.clone()),
        other => {
            return Err(StorageError::TypeMismatch {
                expected: "hashable key (int64/date/bool/utf8)".into(),
                actual: format!("{:?}", other.data_type()),
            })
        }
    })
}

fn column_keys(column: &Column) -> Result<Vec<DeltaKey>> {
    Ok(match column {
        Column::Int64(v) => v.iter().map(|&x| DeltaKey::Int(x)).collect(),
        Column::Date(v) => v.iter().map(|&x| DeltaKey::Date(x)).collect(),
        Column::Bool(v) => v.iter().map(|&x| DeltaKey::Bool(x)).collect(),
        Column::Utf8(v) => v.iter().map(|s| DeltaKey::Str(s.clone())).collect(),
        other => {
            return Err(StorageError::TypeMismatch {
                expected: "hashable key column (int64/date/bool/utf8)".into(),
                actual: format!("{:?}", other.data_type()),
            })
        }
    })
}

fn check_same_schema(expected: &Schema, actual: &Schema) -> Result<()> {
    if expected.fields() != actual.fields() {
        return Err(StorageError::TypeMismatch {
            expected: format!(
                "delta schema [{}]",
                expected
                    .fields()
                    .iter()
                    .map(|f| format!("{}: {:?}", f.name, f.data_type))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            actual: format!(
                "[{}]",
                actual
                    .fields()
                    .iter()
                    .map(|f| format!("{}: {:?}", f.name, f.data_type))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        });
    }
    Ok(())
}

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

    /// Validates this delta against a table schema: appended/upserted rows
    /// must carry the identical schema, and key columns must exist with a
    /// hashable type.
    ///
    /// # Errors
    /// [`StorageError::TypeMismatch`] on schema or key-type mismatch,
    /// [`StorageError::ColumnNotFound`] for an unknown key column.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        match self {
            Delta::Append(rows) => check_same_schema(schema, rows.schema()),
            Delta::DeleteByKey { key_column, keys } => {
                let field = schema.field(key_column)?;
                for key in keys {
                    let k = scalar_key(key)?;
                    let matches = matches!(
                        (&k, field.data_type),
                        (DeltaKey::Int(_), crate::DataType::Int64)
                            | (DeltaKey::Date(_), crate::DataType::Date)
                            | (DeltaKey::Bool(_), crate::DataType::Bool)
                            | (DeltaKey::Str(_), crate::DataType::Utf8)
                    );
                    if !matches {
                        return Err(StorageError::TypeMismatch {
                            expected: format!("{:?} key for column {key_column}", field.data_type),
                            actual: format!("{:?}", key.data_type()),
                        });
                    }
                }
                Ok(())
            }
            Delta::Upsert { key_column, rows } => {
                check_same_schema(schema, rows.schema())?;
                // key column must exist and be hashable
                let column = rows.column_by_name(key_column)?;
                column_keys(column).map(|_| ())
            }
        }
    }

    /// Applies this delta to a snapshot, producing the new table and the
    /// exact added/removed row multisets.  The snapshot itself is untouched.
    ///
    /// Row order is deterministic: surviving rows keep their relative order
    /// and appended rows land at the end — so repeated replays of the same
    /// delta stream produce byte-identical tables.
    ///
    /// # Errors
    /// Schema/key validation errors (see [`Delta::check`]) and propagated
    /// storage errors.
    pub fn apply(&self, current: &Table) -> Result<AppliedDelta> {
        self.check(current.schema())?;
        let empty = current.take(&[])?;
        match self {
            Delta::Append(rows) => Ok(AppliedDelta {
                table: Arc::new(Table::concat(&[current, rows])?),
                added: rows.clone(),
                removed: empty,
            }),
            Delta::DeleteByKey { key_column, keys } => {
                let key_set: HashSet<DeltaKey> =
                    keys.iter().map(scalar_key).collect::<Result<_>>()?;
                let (kept, removed) = split_by_keys(current, key_column, &key_set)?;
                Ok(AppliedDelta {
                    table: Arc::new(kept),
                    added: empty,
                    removed,
                })
            }
            Delta::Upsert { key_column, rows } => {
                let key_set: HashSet<DeltaKey> = column_keys(rows.column_by_name(key_column)?)?
                    .into_iter()
                    .collect();
                let (kept, removed) = split_by_keys(current, key_column, &key_set)?;
                Ok(AppliedDelta {
                    table: Arc::new(Table::concat(&[&kept, rows])?),
                    added: rows.clone(),
                    removed,
                })
            }
        }
    }
}

/// Splits `table` into (rows whose key is NOT in `keys`, rows whose key is).
fn split_by_keys(
    table: &Table,
    key_column: &str,
    keys: &HashSet<DeltaKey>,
) -> Result<(Table, Table)> {
    let column_values = column_keys(table.column_by_name(key_column)?)?;
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    for (i, k) in column_values.iter().enumerate() {
        if keys.contains(k) {
            removed.push(i);
        } else {
            kept.push(i);
        }
    }
    Ok((table.take(&kept)?, table.take(&removed)?))
}

/// One immutable snapshot in a table's mutation history.
///
/// The head version is what the catalog publishes; applying a delta yields a
/// new head whose `parent` points at this one.  Live plans that resolved the
/// table keep their `Arc<Table>` snapshot regardless of how far the head
/// advances.  The parent chain is capped at [`MAX_VERSION_CHAIN`] links so a
/// hot table does not pin its whole history in memory.
#[derive(Debug, Clone)]
pub struct TableVersion {
    version: u64,
    table: Arc<Table>,
    parent: Option<Arc<TableVersion>>,
}

impl TableVersion {
    /// Wraps a freshly registered table as version 0 with no history.
    pub fn initial(table: Arc<Table>) -> Arc<Self> {
        Arc::new(Self {
            version: 0,
            table,
            parent: None,
        })
    }

    /// The monotonically increasing version number (0 at registration).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The immutable snapshot of this version.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The predecessor version, if still retained.
    pub fn parent(&self) -> Option<&Arc<TableVersion>> {
        self.parent.as_ref()
    }

    /// Number of versions reachable from this one (including itself);
    /// bounded by [`MAX_VERSION_CHAIN`].
    pub fn chain_len(&self) -> usize {
        let mut len = 1;
        let mut cursor = self.parent.as_ref();
        while let Some(v) = cursor {
            len += 1;
            cursor = v.parent.as_ref();
        }
        len
    }

    /// Applies a delta to this version, returning the new head version and
    /// the applied row sets.  `self` (and every snapshot it shares) is
    /// untouched.
    ///
    /// # Errors
    /// Propagates [`Delta::apply`] errors.
    pub fn apply(self: &Arc<Self>, delta: &Delta) -> Result<(Arc<TableVersion>, AppliedDelta)> {
        let applied = delta.apply(self.table.as_ref())?;
        let head = Arc::new(TableVersion {
            version: self.version + 1,
            table: applied.table.clone(),
            parent: Some(truncate_chain(
                self,
                MAX_VERSION_CHAIN.saturating_sub(1).max(1),
            )),
        });
        Ok((head, applied))
    }
}

/// Returns a version equal to `head` with `chain_len() <= max_len`
/// (rebuilding the tail nodes; snapshots stay shared).
fn truncate_chain(head: &Arc<TableVersion>, max_len: usize) -> Arc<TableVersion> {
    match &head.parent {
        None => head.clone(),
        Some(_) if max_len <= 1 => Arc::new(TableVersion {
            version: head.version,
            table: head.table.clone(),
            parent: None,
        }),
        Some(parent) => {
            if head.chain_len() <= max_len {
                head.clone()
            } else {
                Arc::new(TableVersion {
                    version: head.version,
                    table: head.table.clone(),
                    parent: Some(truncate_chain(parent, max_len - 1)),
                })
            }
        }
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

    #[test]
    fn append_extends_and_reports_added() {
        let delta = Delta::Append(rows(vec![4], vec!["d"]));
        assert!(delta.is_append_only());
        assert_eq!(delta.verb(), "APPEND");
        assert_eq!(delta.payload_rows(), 1);
        let applied = delta.apply(&base()).unwrap();
        assert_eq!(applied.table.num_rows(), 4);
        assert_eq!(applied.added.num_rows(), 1);
        assert_eq!(applied.removed.num_rows(), 0);
        assert_eq!(applied.changed_rows(), 1);
        let ids = applied
            .table
            .column_by_name("id")
            .unwrap()
            .as_int64()
            .unwrap();
        assert_eq!(ids, &[1, 2, 3, 4]);
    }

    #[test]
    fn delete_by_key_removes_all_matches() {
        let t = Table::concat(&[&base(), &rows(vec![2], vec!["dup"])]).unwrap();
        let delta = Delta::DeleteByKey {
            key_column: "id".into(),
            keys: vec![ScalarValue::Int64(2), ScalarValue::Int64(99)],
        };
        assert!(!delta.is_append_only());
        let applied = delta.apply(&t).unwrap();
        assert_eq!(applied.removed.num_rows(), 2, "both id=2 rows go");
        assert_eq!(applied.added.num_rows(), 0);
        let ids = applied
            .table
            .column_by_name("id")
            .unwrap()
            .as_int64()
            .unwrap();
        assert_eq!(ids, &[1, 3], "survivors keep their order");
    }

    #[test]
    fn upsert_replaces_matching_keys_and_appends() {
        let delta = Delta::Upsert {
            key_column: "id".into(),
            rows: rows(vec![2, 4], vec!["B", "d"]),
        };
        let applied = delta.apply(&base()).unwrap();
        assert_eq!(applied.removed.num_rows(), 1, "old id=2 replaced");
        assert_eq!(applied.added.num_rows(), 2);
        let ids = applied
            .table
            .column_by_name("id")
            .unwrap()
            .as_int64()
            .unwrap();
        assert_eq!(ids, &[1, 3, 2, 4]);
        let names = applied
            .table
            .column_by_name("name")
            .unwrap()
            .as_utf8()
            .unwrap();
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
    }

    #[test]
    fn version_chain_advances_and_caps() {
        let mut head = TableVersion::initial(Arc::new(base()));
        assert_eq!(head.version(), 0);
        assert_eq!(head.chain_len(), 1);
        for i in 0..20 {
            let delta = Delta::Append(rows(vec![100 + i], vec!["x"]));
            let (next, applied) = head.apply(&delta).unwrap();
            assert_eq!(applied.added.num_rows(), 1);
            assert!(
                Arc::ptr_eq(&applied.table, next.table()),
                "the new head shares the applied table instead of copying it"
            );
            head = next;
        }
        assert_eq!(head.version(), 20);
        assert_eq!(head.table().num_rows(), 23);
        assert!(head.chain_len() <= MAX_VERSION_CHAIN);
        // parents retain their immutable snapshots
        let parent = head.parent().unwrap();
        assert_eq!(parent.table().num_rows(), 22);
    }
}
