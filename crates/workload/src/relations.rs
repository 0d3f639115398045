//! Relational join workloads: table pairs with a string join column and a
//! selectivity-controllable filter column.
//!
//! This mirrors the paper's evaluation setup for Figures 15-17: an outer
//! relation of probe strings, an inner relation of 1 M strings with "one
//! relational attribute column based on which we control the selectivity".
//! The filter column here is an integer in `[0, 100)` drawn uniformly, so a
//! predicate `filter < s` selects approximately `s` percent of the rows.

use cej_storage::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::words::{WordCluster, WordGenerator};

/// Shape of one generated relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationSpec {
    /// Number of rows.
    pub rows: usize,
    /// Number of word clusters the string column draws from.
    pub clusters: usize,
    /// Variants per cluster.
    pub variants_per_cluster: usize,
}

impl RelationSpec {
    /// A spec with the given row count and a default vocabulary shape.
    pub fn with_rows(rows: usize) -> Self {
        Self {
            rows,
            clusters: 32,
            variants_per_cluster: 8,
        }
    }
}

/// A generated pair of relations plus ground-truth cluster labels.
#[derive(Debug, Clone)]
pub struct JoinWorkload {
    /// The outer relation `R` (columns: `id`, `word`, `filter`, `date`).
    pub outer: Table,
    /// The inner relation `S` (same schema).
    pub inner: Table,
    /// Cluster label of each outer row (ground truth for semantic matches).
    pub outer_labels: Vec<usize>,
    /// Cluster label of each inner row.
    pub inner_labels: Vec<usize>,
    /// The shared vocabulary clusters.
    pub clusters: Vec<WordCluster>,
}

impl JoinWorkload {
    /// Generates a join workload: both relations draw strings from the same
    /// cluster vocabulary, so semantically matching pairs exist by
    /// construction.
    ///
    /// # Panics
    /// Panics when either spec requests zero rows or zero clusters.
    pub fn generate(outer: RelationSpec, inner: RelationSpec, seed: u64) -> Self {
        assert!(
            outer.rows > 0 && inner.rows > 0,
            "relations must be non-empty"
        );
        assert!(outer.clusters > 0, "need at least one cluster");
        let mut words = WordGenerator::new(seed);
        let clusters = words.clusters(outer.clusters, outer.variants_per_cluster.max(1));
        let (outer_strings, outer_labels) = words.sample_strings(&clusters, outer.rows);
        let (inner_strings, inner_labels) = words.sample_strings(&clusters, inner.rows);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let outer_table = Self::build_table(outer_strings, &mut rng);
        let inner_table = Self::build_table(inner_strings, &mut rng);
        Self {
            outer: outer_table,
            inner: inner_table,
            outer_labels,
            inner_labels,
            clusters,
        }
    }

    fn build_table(strings: Vec<String>, rng: &mut StdRng) -> Table {
        let rows = strings.len();
        let ids: Vec<i64> = (0..rows as i64).collect();
        // Uniform [0, 100) integer: `filter < s` selects ~s% of rows.
        let filter: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..100)).collect();
        // Dates uniform over 2023 (days 19358..19723 since the epoch).
        let date: Vec<i32> = (0..rows).map(|_| rng.gen_range(19_358..19_723)).collect();
        TableBuilder::new()
            .int64("id", ids)
            .utf8("word", strings)
            .int64("filter", filter)
            .date("date", date)
            .build()
            .expect("workload table construction cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shapes() {
        let w = JoinWorkload::generate(
            RelationSpec {
                rows: 50,
                clusters: 8,
                variants_per_cluster: 4,
            },
            RelationSpec {
                rows: 120,
                clusters: 8,
                variants_per_cluster: 4,
            },
            42,
        );
        assert_eq!(w.outer.num_rows(), 50);
        assert_eq!(w.inner.num_rows(), 120);
        assert_eq!(w.outer_labels.len(), 50);
        assert_eq!(w.inner_labels.len(), 120);
        assert_eq!(w.clusters.len(), 8);
        assert_eq!(w.outer.num_columns(), 4);
        assert!(w.outer.column_by_name("word").is_ok());
        assert!(w.outer.column_by_name("filter").is_ok());
        assert!(w.outer.column_by_name("date").is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = RelationSpec::with_rows(30);
        let a = JoinWorkload::generate(spec, spec, 7);
        let b = JoinWorkload::generate(spec, spec, 7);
        assert_eq!(a.outer, b.outer);
        assert_eq!(a.inner, b.inner);
        let c = JoinWorkload::generate(spec, spec, 8);
        assert_ne!(a.outer, c.outer);
    }

    #[test]
    fn labels_match_cluster_membership() {
        let w = JoinWorkload::generate(
            RelationSpec {
                rows: 40,
                clusters: 5,
                variants_per_cluster: 4,
            },
            RelationSpec {
                rows: 40,
                clusters: 5,
                variants_per_cluster: 4,
            },
            3,
        );
        let words = w.outer.column_by_name("word").unwrap().as_utf8().unwrap();
        for (word, &label) in words.iter().zip(w.outer_labels.iter()) {
            assert!(w.clusters[label].contains(word));
        }
    }

    #[test]
    fn filter_column_gives_controllable_selectivity() {
        let w = JoinWorkload::generate(
            RelationSpec::with_rows(5000),
            RelationSpec::with_rows(10),
            11,
        );
        let filter = w
            .outer
            .column_by_name("filter")
            .unwrap()
            .as_int64()
            .unwrap();
        let frac_below_20 = filter.iter().filter(|&&v| v < 20).count() as f64 / filter.len() as f64;
        assert!(
            (frac_below_20 - 0.2).abs() < 0.05,
            "selectivity {frac_below_20} should be ~0.2"
        );
        let frac_below_80 = filter.iter().filter(|&&v| v < 80).count() as f64 / filter.len() as f64;
        assert!((frac_below_80 - 0.8).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_rows_panics() {
        JoinWorkload::generate(RelationSpec::with_rows(0), RelationSpec::with_rows(1), 1);
    }
}
