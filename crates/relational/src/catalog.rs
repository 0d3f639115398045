//! In-memory table catalog with per-table statistics.
//!
//! Registration doubles as the `ANALYZE` pipeline: every `register` (and
//! re-register) recomputes the table's [`TableStats`], so planners always see
//! statistics consistent with the resident data — the stats analogue of how
//! the session's `IndexManager` invalidates indexes on re-registration.
//! Plans snapshot these statistics at plan time (the `Arc` is cloned into
//! the planner's estimates), so a prepared query keeps the cardinalities it
//! was costed with even while new registrations refresh the catalog.
//!
//! What the catalog publishes per table is a [`TableVersion`]: a list of
//! immutable row segments that a [`Delta`] extends or masks instead of
//! copying.  Scans read the segments ([`Catalog::table_version`]); consumers
//! that need one contiguous table ask [`Catalog::table`], which compacts on
//! first request and is the registered `Arc` itself for a table no delta has
//! touched; consumers that only ask *about* a table ([`Catalog::schema`],
//! [`Catalog::row_count`]) never make it compact.
//!
//! ## Concurrency
//!
//! The catalog is internally synchronised (a `parking_lot` RwLock over the
//! name → version map), so a server can share one catalog between many
//! connection threads: registrations take `&self`, lookups return
//! `Arc`-shared snapshots, and a query that resolved its tables keeps them
//! alive regardless of concurrent re-registrations.  Each lookup is
//! individually atomic; a multi-table query observes tables registered at
//! possibly different instants, which matches the engine's
//! registration-replaces-table semantics.

use std::collections::HashMap;
use std::sync::Arc;

use cej_storage::{AppliedDelta, Delta, Schema, Table, TableStats, TableVersion};
use parking_lot::RwLock;

use crate::error::RelationalError;
use crate::Result;

/// The catalog's maps, updated together under one lock so a reader can
/// never observe a table paired with another registration's statistics.
#[derive(Debug, Default, Clone)]
struct CatalogMaps {
    stats: HashMap<String, Arc<TableStats>>,
    versions: HashMap<String, Arc<TableVersion>>,
}

/// A named collection of in-memory tables that plans can scan, plus the
/// per-table statistics the planner estimates cardinalities from.  Shareable
/// across threads (`&self` registration, internally locked).
#[derive(Debug, Default)]
pub struct Catalog {
    maps: RwLock<CatalogMaps>,
}

impl Clone for Catalog {
    /// Clones the catalog *contents* (cheap: tables and stats are
    /// `Arc`-shared).  The clone is an independent catalog; use an
    /// `Arc<Catalog>` (as the session does) to share one catalog instead.
    fn clone(&self) -> Self {
        Catalog {
            maps: RwLock::new(self.maps.read().clone()),
        }
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table under `name`, running the `ANALYZE`
    /// pass over its columns.
    pub fn register(&self, name: &str, table: Table) {
        self.register_shared(name, Arc::new(table));
    }

    /// Registers a shared table under `name`, running the `ANALYZE` pass
    /// over its columns.
    pub fn register_shared(&self, name: &str, table: Arc<Table>) {
        // Analyze outside the lock (it walks every column), then publish
        // table and stats atomically.
        let stats = Arc::new(table.analyze());
        let mut maps = self.maps.write();
        maps.stats.insert(name.to_string(), stats);
        maps.versions
            .insert(name.to_string(), TableVersion::initial(table));
    }

    /// Applies a [`Delta`] to a registered table, atomically publishing the
    /// advanced [`TableVersion`] head and an incrementally maintained
    /// statistics view.  Returns the new head and the exact added/removed
    /// row multisets for delta propagation.  The new head shares every
    /// segment the delta left alone, so this costs the delta plus one pass
    /// over the key column — not a copy of the table.
    ///
    /// The delta is computed outside the lock against a version snapshot and
    /// published only if the head has not moved (compare-and-swap with
    /// retry), so concurrent appliers serialise without holding the write
    /// lock during row movement.  Statistics are maintained in O(delta):
    /// appends merge the analyzed delta batch into the existing view
    /// ([`TableStats::merged_append`]), deletes scale the view down
    /// ([`TableStats::scaled`]), upserts do both; an explicit
    /// [`Catalog::analyze`] resets the accumulated approximation.
    ///
    /// # Errors
    /// [`RelationalError::UnknownTable`] when absent; storage errors on
    /// schema/key mismatch.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &Delta,
    ) -> Result<(Arc<TableVersion>, AppliedDelta)> {
        loop {
            let (head, stats) = {
                let maps = self.maps.read();
                let head = maps
                    .versions
                    .get(name)
                    .cloned()
                    .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))?;
                let stats = maps.stats.get(name).cloned();
                (head, stats)
            };
            let (new_head, applied) = head.apply(delta).map_err(RelationalError::from)?;
            let new_stats = stats.map(|s| Arc::new(incremental_stats(&s, &applied)));
            let mut maps = self.maps.write();
            let current = maps
                .versions
                .get(name)
                .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))?;
            if !Arc::ptr_eq(current, &head) {
                // another applier (or a re-registration) advanced the table
                // while we were computing — redo against the new head
                continue;
            }
            if let Some(s) = new_stats {
                maps.stats.insert(name.to_string(), s);
            }
            maps.versions.insert(name.to_string(), new_head.clone());
            return Ok((new_head, applied));
        }
    }

    /// The current version number of a table (0 at registration, +1 per
    /// applied delta).
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn version(&self, name: &str) -> Result<u64> {
        Ok(self.table_version(name)?.version())
    }

    /// The published [`TableVersion`] of a table: what a scan reads, segment
    /// by segment.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn table_version(&self, name: &str) -> Result<Arc<TableVersion>> {
        self.maps
            .read()
            .versions
            .get(name)
            .cloned()
            .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))
    }

    /// The statistics view of a table — what plan-time consumers of row
    /// counts read instead of the raw table.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn stats(&self, name: &str) -> Result<Arc<TableStats>> {
        self.maps
            .read()
            .stats
            .get(name)
            .cloned()
            .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))
    }

    /// Recomputes (and returns) the statistics of one table — the explicit
    /// `ANALYZE <table>` entry point.  Registration already analyzes, so this
    /// is only needed to refresh a snapshot taken by `register_shared` when
    /// the shared table was mutated elsewhere.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn analyze(&self, name: &str) -> Result<Arc<TableStats>> {
        let head = self.table_version(name)?;
        let stats = Arc::new(head.table().analyze());
        let mut maps = self.maps.write();
        // only publish if the analyzed snapshot is still the published
        // version — a concurrent re-registration's fresh stats must win
        if maps
            .versions
            .get(name)
            .is_some_and(|current| Arc::ptr_eq(current, &head))
        {
            maps.stats.insert(name.to_string(), stats.clone());
        }
        Ok(stats)
    }

    /// Removes a table (and its statistics).  Returns whether it existed.
    /// Used by the serving layer to reap per-connection scratch tables;
    /// queries that already resolved the table keep their `Arc` snapshots.
    pub fn unregister(&self, name: &str) -> bool {
        let mut maps = self.maps.write();
        maps.stats.remove(name);
        maps.versions.remove(name).is_some()
    }

    /// Looks up a table as one contiguous [`Table`]
    /// ([`TableVersion::table`]): the registered `Arc` itself until a delta
    /// touches the table, a compaction of the published version afterwards —
    /// built by the first caller, outside the catalog lock, and kept until
    /// the next delta.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.table_version(name)?.table())
    }

    /// The schema of a table.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn schema(&self, name: &str) -> Result<Schema> {
        Ok(self.table_version(name)?.schema().clone())
    }

    /// The number of (live) rows of a table as published right now — exact,
    /// where [`Catalog::stats`] carries the incrementally maintained view.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownTable`] when absent.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        Ok(self.table_version(name)?.num_rows())
    }

    /// Whether a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.maps.read().versions.contains_key(name)
    }

    /// Names of all registered tables (unsorted).
    pub fn table_names(&self) -> Vec<String> {
        self.maps.read().versions.keys().cloned().collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.maps.read().versions.len()
    }

    /// `true` when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.maps.read().versions.is_empty()
    }
}

/// Maintains a table's statistics view across an applied delta in O(delta):
/// removals scale the view down, additions merge the analyzed delta batch.
fn incremental_stats(old: &TableStats, applied: &AppliedDelta) -> TableStats {
    let after_delete = old.row_count.saturating_sub(applied.removed.num_rows());
    let mut stats = if applied.removed.num_rows() > 0 {
        old.scaled(after_delete)
    } else {
        old.clone()
    };
    if applied.added.num_rows() > 0 {
        stats = stats.merged_append(&applied.added.analyze());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_storage::TableBuilder;

    fn table() -> Table {
        TableBuilder::new().int64("id", vec![1, 2]).build().unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let c = Catalog::new();
        assert!(c.is_empty());
        c.register("photos", table());
        assert!(c.contains("photos"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("photos").unwrap().num_rows(), 2);
        assert!(matches!(
            c.table("nope"),
            Err(RelationalError::UnknownTable(_))
        ));
    }

    #[test]
    fn register_shared_and_replace() {
        let c = Catalog::new();
        let shared = Arc::new(table());
        c.register_shared("t", shared.clone());
        assert_eq!(c.table("t").unwrap().num_rows(), 2);
        // replacing works
        c.register(
            "t",
            TableBuilder::new().int64("id", vec![1]).build().unwrap(),
        );
        assert_eq!(c.table("t").unwrap().num_rows(), 1);
        assert_eq!(c.table_names(), vec!["t".to_string()]);
    }

    #[test]
    fn registration_analyzes_and_reregistration_refreshes() {
        let c = Catalog::new();
        c.register("t", table());
        let stats = c.stats("t").unwrap();
        assert_eq!(stats.row_count, 2);
        assert_eq!(stats.column("id").unwrap().distinct_count, 2);
        assert!(c.stats("missing").is_err());
        // re-registration recomputes the statistics
        c.register(
            "t",
            TableBuilder::new()
                .int64("id", vec![5, 5, 5])
                .build()
                .unwrap(),
        );
        let refreshed = c.stats("t").unwrap();
        assert_eq!(refreshed.row_count, 3);
        assert_eq!(refreshed.column("id").unwrap().distinct_count, 1);
        // the old snapshot is unaffected (plans keep what they were costed with)
        assert_eq!(stats.row_count, 2);
        // explicit ANALYZE returns a fresh snapshot
        let explicit = c.analyze("t").unwrap();
        assert_eq!(explicit.row_count, 3);
        assert!(c.analyze("missing").is_err());
    }

    #[test]
    fn concurrent_registration_and_lookup() {
        let c = Arc::new(Catalog::new());
        c.register("base", table());
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    c.register(
                        &format!("t{t}"),
                        TableBuilder::new()
                            .int64("id", (0..=i).collect())
                            .build()
                            .unwrap(),
                    );
                    let snapshot = c.table("base").expect("base stays resident");
                    assert_eq!(snapshot.num_rows(), 2);
                    let stats = c.stats(&format!("t{t}")).expect("own stats resident");
                    assert!(stats.row_count >= 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn apply_delta_advances_version_and_maintains_stats() {
        use cej_storage::{Delta, ScalarValue};
        let c = Catalog::new();
        c.register(
            "t",
            TableBuilder::new()
                .int64("id", (0..100).collect())
                .build()
                .unwrap(),
        );
        assert_eq!(c.version("t").unwrap(), 0);
        let snapshot = c.table("t").unwrap();

        let add = TableBuilder::new()
            .int64("id", (100..110).collect())
            .build()
            .unwrap();
        let (head, applied) = c.apply_delta("t", &Delta::Append(add)).unwrap();
        assert_eq!(head.version(), 1);
        assert_eq!(applied.added.num_rows(), 10);
        assert_eq!(c.version("t").unwrap(), 1);
        // asking about the table does not make it compact: the published
        // version still is the registered rows plus the appended segment
        assert_eq!(c.row_count("t").unwrap(), 110);
        assert_eq!(c.schema("t").unwrap(), *snapshot.schema());
        assert!(c.schema("missing").is_err() && c.row_count("missing").is_err());
        let (again, _) = c
            .apply_delta("t", &Delta::Append(snapshot.gather(&[]).unwrap()))
            .unwrap();
        assert_eq!(again.segments().len(), 2);
        assert!(Arc::ptr_eq(again.segments()[0].rows(), &snapshot));
        assert_eq!(c.table("t").unwrap().num_rows(), 110);
        // stats were maintained incrementally, not re-analyzed
        let stats = c.stats("t").unwrap();
        assert_eq!(stats.row_count, 110);
        assert_eq!(stats.column("id").unwrap().distinct_count, 110);
        // live plans keep their snapshot
        assert_eq!(snapshot.num_rows(), 100);

        let (_, applied) = c
            .apply_delta(
                "t",
                &Delta::DeleteByKey {
                    key_column: "id".into(),
                    keys: (0..55).map(ScalarValue::Int64).collect(),
                },
            )
            .unwrap();
        assert_eq!(applied.removed.num_rows(), 55);
        assert_eq!(c.table("t").unwrap().num_rows(), 55);
        assert_eq!(c.stats("t").unwrap().row_count, 55);
        assert_eq!(c.version("t").unwrap(), 3);

        assert!(c.apply_delta("missing", &Delta::Append(table())).is_err());
        // re-registration starts over at version 0
        c.register("t", table());
        assert_eq!(c.version("t").unwrap(), 0);
        assert!(!c.unregister("gone"));
        assert!(c.unregister("t"));
        assert!(c.version("t").is_err());
    }

    #[test]
    fn concurrent_appliers_serialise() {
        use cej_storage::Delta;
        let c = Arc::new(Catalog::new());
        c.register(
            "t",
            TableBuilder::new().int64("id", vec![]).build().unwrap(),
        );
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let rows = TableBuilder::new()
                        .int64("id", vec![t * 1000 + i])
                        .build()
                        .unwrap();
                    c.apply_delta("t", &Delta::Append(rows)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            c.version("t").unwrap(),
            100,
            "every delta landed exactly once"
        );
        assert_eq!(c.table("t").unwrap().num_rows(), 100);
        assert_eq!(c.stats("t").unwrap().row_count, 100);
    }

    #[test]
    fn clone_snapshots_contents() {
        let c = Catalog::new();
        c.register("t", table());
        let snap = c.clone();
        c.register("u", table());
        assert!(c.contains("u"));
        assert!(!snap.contains("u"), "clone is independent");
        assert!(snap.contains("t"));
    }
}
