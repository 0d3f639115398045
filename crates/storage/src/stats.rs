//! Column- and table-level statistics: the input of cost-based planning.
//!
//! An `ANALYZE` pass ([`TableStats::analyze`]) computes, per column: row and
//! null counts, a hash-based distinct count, min/max, an equi-depth histogram
//! for orderable types, and the average string length for `Utf8` columns.
//! The planner turns these into selectivity estimates (see
//! `cej-relational`'s estimator), replacing the classic "every filter keeps
//! half the rows" constant that made the plan-time scan-vs-probe choice blind
//! to the true inner selectivity of the paper's Figures 15-17.
//!
//! Equi-depth (equal-mass) histograms are used instead of equi-width ones
//! because the workloads here are exactly the hard case for equi-width:
//! Zipf-distributed attributes concentrate most of the mass in a few values,
//! and equi-depth buckets degenerate into single-value buckets around heavy
//! hitters — making both range and equality estimates exact where the data
//! is skewed.

use std::collections::HashMap;
use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::scalar::ScalarValue;
use crate::table::Table;

/// Default number of equi-depth buckets (capped by the row count).
pub const DEFAULT_HISTOGRAM_BUCKETS: usize = 64;

/// An equi-depth histogram over the `f64`-mapped domain of an orderable
/// column (`Int64`, `Float64`, `Date`, `Bool`).
///
/// Each bucket holds (approximately) the same number of rows; buckets around
/// heavy hitters degenerate to `low == high`, which makes their mass exactly
/// attributable — the property the skew-convergence tests rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lows: Vec<f64>,
    highs: Vec<f64>,
    counts: Vec<usize>,
    total: usize,
}

impl Histogram {
    /// Builds an equi-depth histogram from (unsorted) values.  Returns `None`
    /// for empty input.
    pub fn equi_depth(mut values: Vec<f64>, buckets: usize) -> Option<Self> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = values.len();
        let b = buckets.min(n);
        let mut lows = Vec::with_capacity(b);
        let mut highs = Vec::with_capacity(b);
        let mut counts = Vec::with_capacity(b);
        for i in 0..b {
            let start = i * n / b;
            let end = ((i + 1) * n / b).max(start + 1).min(n);
            if start >= n {
                break;
            }
            lows.push(values[start]);
            highs.push(values[end - 1]);
            counts.push(end - start);
        }
        Some(Self {
            lows,
            highs,
            counts,
            total: n,
        })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total rows summarised.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Estimated fraction of rows with value `< x`.
    pub fn fraction_lt(&self, x: f64) -> f64 {
        self.fraction(x, false)
    }

    /// Estimated fraction of rows with value `<= x`.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        self.fraction(x, true)
    }

    fn fraction(&self, x: f64, inclusive: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut rows = 0.0;
        for i in 0..self.counts.len() {
            let (low, high, count) = (self.lows[i], self.highs[i], self.counts[i] as f64);
            let full = if inclusive { high <= x } else { high < x };
            if full {
                rows += count;
            } else if (low < x || (inclusive && low <= x)) && high > low {
                // linear interpolation inside a mixed bucket; error is
                // bounded by the bucket mass (1/buckets of the rows).
                // A degenerate bucket (low == high) holds only `low`, which
                // already failed the strict/inclusive test above.
                rows += count * ((x - low) / (high - low)).clamp(0.0, 1.0);
            }
        }
        (rows / self.total as f64).clamp(0.0, 1.0)
    }

    /// Re-scales the histogram to summarise `new_total` rows, preserving the
    /// bucket boundaries and the relative mass distribution.
    ///
    /// This is the cross-join-boundary propagation primitive: an equi-join
    /// neither reorders a column's value distribution nor (under the
    /// uniform-matching assumption) skews it, it only multiplies the row
    /// count — so the shape survives and only the per-bucket masses scale.
    /// Returns `None` when `new_total` is zero (no rows, no histogram).
    pub fn scaled(&self, new_total: usize) -> Option<Self> {
        if new_total == 0 || self.total == 0 {
            return None;
        }
        let factor = new_total as f64 / self.total as f64;
        // Cumulative rounding keeps the scaled counts summing to exactly
        // `new_total` (bucket-local rounding would drift by up to b/2 rows).
        let mut counts = Vec::with_capacity(self.counts.len());
        let mut acc = 0.0f64;
        let mut emitted = 0usize;
        for &c in &self.counts {
            acc += c as f64 * factor;
            let upto = acc.round() as usize;
            counts.push(upto.saturating_sub(emitted));
            emitted = upto;
        }
        Some(Self {
            lows: self.lows.clone(),
            highs: self.highs.clone(),
            counts,
            total: new_total,
        })
    }

    /// Merges two histograms summarising disjoint row sets into one
    /// summarising their union.
    ///
    /// Because [`Histogram::fraction_lt`]/[`eq_mass`](Histogram::eq_mass) sum
    /// per-bucket contributions independently, a histogram whose buckets
    /// overlap is still a valid *mixture* model — so the merge is simply the
    /// concatenation of both bucket lists (sorted by lower bound) with the
    /// totals added.  When the combined list exceeds
    /// `2 × DEFAULT_HISTOGRAM_BUCKETS`, adjacent bucket pairs are fused
    /// (union of bounds, sum of counts) so repeated delta merges cannot grow
    /// the summary without bound; fusion loses per-pair resolution but keeps
    /// every estimate within the usual one-bucket error bound.
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let mut buckets: Vec<(f64, f64, usize)> =
            Vec::with_capacity(self.buckets() + other.buckets());
        for h in [self, other] {
            for i in 0..h.counts.len() {
                buckets.push((h.lows[i], h.highs[i], h.counts[i]));
            }
        }
        buckets.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        while buckets.len() > 2 * DEFAULT_HISTOGRAM_BUCKETS {
            let mut fused = Vec::with_capacity(buckets.len() / 2 + 1);
            let mut iter = buckets.chunks(2);
            for chunk in &mut iter {
                match chunk {
                    [a, b] => {
                        // Never fuse a degenerate (single-value) bucket into a
                        // wider one — that would destroy exact heavy-hitter
                        // masses, the property the skew tests rely on.
                        if (a.0 == a.1 || b.0 == b.1) && !(a.0 == a.1 && a.1 == b.0 && b.0 == b.1) {
                            fused.push(*a);
                            fused.push(*b);
                        } else {
                            fused.push((a.0, b.1.max(a.1), a.2 + b.2));
                        }
                    }
                    [a] => fused.push(*a),
                    _ => unreachable!(),
                }
            }
            if fused.len() == buckets.len() {
                break; // nothing fusible (all degenerate) — stop growing-proofing
            }
            buckets = fused;
        }
        Histogram {
            lows: buckets.iter().map(|b| b.0).collect(),
            highs: buckets.iter().map(|b| b.1).collect(),
            counts: buckets.iter().map(|b| b.2).collect(),
            total: self.total + other.total,
        }
    }

    /// Estimates equi-join output rows by bucket-wise intersection of the
    /// two key-domain histograms — the refinement over the classic
    /// `|L|·|R| / max(ndv)` formula, which silently assumes the key domains
    /// coincide and over-counts whenever one side references only part of
    /// the other's domain (e.g. a fact table that only points at old
    /// dimension keys).
    ///
    /// `self` summarises the left key column (`self_rows` rows, `self_ndv`
    /// distinct keys), `other` the right.  For each right bucket, the left
    /// mass falling inside its bounds is read off this histogram's CDF and
    /// the classic per-key matching formula is applied *locally*, with
    /// per-bucket ndvs apportioned by mass (degenerate single-value buckets
    /// pin ndv to 1, keeping heavy-hitter joins exact).  Buckets outside the
    /// left domain contribute nothing.
    pub fn join_rows(
        &self,
        other: &Histogram,
        self_rows: f64,
        self_ndv: f64,
        other_rows: f64,
        other_ndv: f64,
    ) -> f64 {
        // Each directed pass handles the *other* side's heavy hitters
        // exactly (degenerate buckets carry their true key mass) but
        // apportions its own skewed mass uniformly — so run both directions
        // and keep the larger estimate, which is the one whose hitters were
        // resolved exactly.
        let a = self.join_rows_directed(other, self_rows, self_ndv, other_rows, other_ndv);
        let b = other.join_rows_directed(self, other_rows, other_ndv, self_rows, self_ndv);
        a.max(b)
    }

    /// One direction of [`Histogram::join_rows`]: walk `other`'s buckets,
    /// reading the matching `self` mass off this histogram's CDF.
    fn join_rows_directed(
        &self,
        other: &Histogram,
        self_rows: f64,
        self_ndv: f64,
        other_rows: f64,
        other_ndv: f64,
    ) -> f64 {
        if other.total == 0 || self.total == 0 {
            return 0.0;
        }
        let mut est = 0.0;
        for i in 0..other.counts.len() {
            let (lo, hi) = (other.lows[i], other.highs[i]);
            let frac_other = other.counts[i] as f64 / other.total as f64;
            if frac_other <= 0.0 {
                continue;
            }
            if lo == hi {
                // Single-value bucket: every self row with this exact key
                // matches every row of the bucket — no ndv division.
                est += self_rows * self.eq_frac(lo, self_ndv) * other_rows * frac_other;
                continue;
            }
            let frac_self = (self.fraction_leq(hi) - self.fraction_lt(lo)).max(0.0);
            if frac_self <= 0.0 {
                continue;
            }
            // Apportion each side's keys to the bucket by mass (uniform
            // mass-per-key within the range), then match per key.
            let ndv_self = (self_ndv * frac_self).max(1.0);
            let ndv_other = (other_ndv * frac_other).max(1.0);
            est += (self_rows * frac_self) * (other_rows * frac_other) / ndv_self.max(ndv_other);
        }
        est.max(0.0)
    }

    /// Fraction of rows exactly equal to `x`: the degenerate-bucket mass
    /// when present, `1/ndv` when `x` falls inside a bucket, `0` outside
    /// the domain.
    fn eq_frac(&self, x: f64, ndv: f64) -> f64 {
        if let Some(mass) = self.eq_mass(x) {
            return mass;
        }
        let in_domain = (0..self.counts.len()).any(|i| self.lows[i] <= x && x <= self.highs[i]);
        if in_domain {
            1.0 / ndv.max(1.0)
        } else {
            0.0
        }
    }

    /// Exact mass of `x` when it occupies degenerate (single-value) buckets —
    /// the heavy-hitter refinement over the `1/ndv` equality estimate.
    /// `None` when no degenerate bucket holds `x`.
    pub fn eq_mass(&self, x: f64) -> Option<f64> {
        let mut rows = 0usize;
        let mut found = false;
        for i in 0..self.counts.len() {
            if self.lows[i] == x && self.highs[i] == x {
                rows += self.counts[i];
                found = true;
            }
        }
        if found && self.total > 0 {
            Some(rows as f64 / self.total as f64)
        } else {
            None
        }
    }
}

/// Statistics of one column, computed by an `ANALYZE` pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of rows.
    pub row_count: usize,
    /// Number of null rows (the storage layer has no nulls today; kept so
    /// downstream estimators do not change shape when nulls arrive).
    pub null_count: usize,
    /// Hash-based exact distinct count.
    pub distinct_count: usize,
    /// Minimum value (orderable types only).
    pub min: Option<ScalarValue>,
    /// Maximum value (orderable types only).
    pub max: Option<ScalarValue>,
    /// Equi-depth histogram over the numeric-mapped domain (orderable types
    /// only).
    pub histogram: Option<Histogram>,
    /// Average string length (`Utf8` columns only) — the estimator's proxy
    /// for per-tuple embedding cost.
    pub avg_utf8_len: Option<f64>,
}

/// Maps an orderable scalar into the histogram's `f64` domain.
pub fn numeric_domain(value: &ScalarValue) -> Option<f64> {
    match value {
        ScalarValue::Int64(v) => Some(*v as f64),
        ScalarValue::Float64(v) => Some(*v),
        ScalarValue::Date(v) => Some(*v as f64),
        ScalarValue::Bool(v) => Some(if *v { 1.0 } else { 0.0 }),
        ScalarValue::Utf8(_) | ScalarValue::Vector(_) => None,
    }
}

impl ColumnStats {
    /// Analyzes one column.
    pub fn analyze(column: &Column) -> Self {
        let row_count = column.len();
        let (distinct_count, numeric, min, max, avg_utf8_len) = match column {
            Column::Int64(v) => {
                let distinct = v.iter().collect::<HashSet<_>>().len();
                let numeric: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                let min = v.iter().min().map(|&x| ScalarValue::Int64(x));
                let max = v.iter().max().map(|&x| ScalarValue::Int64(x));
                (distinct, Some(numeric), min, max, None)
            }
            Column::Float64(v) => {
                let distinct = v.iter().map(|x| x.to_bits()).collect::<HashSet<_>>().len();
                let min = v
                    .iter()
                    .cloned()
                    .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))))
                    .map(ScalarValue::Float64);
                let max = v
                    .iter()
                    .cloned()
                    .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))))
                    .map(ScalarValue::Float64);
                (distinct, Some(v.clone()), min, max, None)
            }
            Column::Date(v) => {
                let distinct = v.iter().collect::<HashSet<_>>().len();
                let numeric: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                let min = v.iter().min().map(|&x| ScalarValue::Date(x));
                let max = v.iter().max().map(|&x| ScalarValue::Date(x));
                (distinct, Some(numeric), min, max, None)
            }
            Column::Bool(v) => {
                let distinct = v.iter().collect::<HashSet<_>>().len();
                let numeric: Vec<f64> = v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect();
                let min = v.iter().min().map(|&x| ScalarValue::Bool(x));
                let max = v.iter().max().map(|&x| ScalarValue::Bool(x));
                (distinct, Some(numeric), min, max, None)
            }
            Column::Utf8(v) => {
                let distinct = v.iter().collect::<HashSet<_>>().len();
                let min = v.iter().min().map(|s| ScalarValue::Utf8(s.clone()));
                let max = v.iter().max().map(|s| ScalarValue::Utf8(s.clone()));
                let avg = if v.is_empty() {
                    None
                } else {
                    Some(v.iter().map(|s| s.len()).sum::<usize>() as f64 / v.len() as f64)
                };
                (distinct, None, min, max, avg)
            }
            // Embeddings are opaque to the relational estimator.
            Column::Vector(_) => (row_count, None, None, None, None),
        };
        let histogram =
            numeric.and_then(|values| Histogram::equi_depth(values, DEFAULT_HISTOGRAM_BUCKETS));
        Self {
            row_count,
            null_count: 0,
            distinct_count,
            min,
            max,
            histogram,
            avg_utf8_len,
        }
    }

    /// Derives the statistics this column would have after an operator that
    /// keeps the value distribution but changes the row count to `new_rows`
    /// (equi-join fan-out / fan-in, uniform filters).
    ///
    /// Min/max and the histogram *shape* are preserved; per-bucket masses,
    /// null count, and the distinct count (capped at the new row count) scale.
    pub fn scaled(&self, new_rows: usize) -> Self {
        let factor = if self.row_count == 0 {
            0.0
        } else {
            new_rows as f64 / self.row_count as f64
        };
        Self {
            row_count: new_rows,
            null_count: ((self.null_count as f64 * factor).round() as usize).min(new_rows),
            // A join never invents values: ndv is bounded by both the old ndv
            // and the new cardinality.
            distinct_count: self.distinct_count.min(new_rows.max(1)),
            min: self.min.clone(),
            max: self.max.clone(),
            histogram: self.histogram.as_ref().and_then(|h| h.scaled(new_rows)),
            avg_utf8_len: self.avg_utf8_len,
        }
    }

    /// Merges statistics of two disjoint row sets of the same column — the
    /// incremental-maintenance path for appended delta batches.
    ///
    /// Counts and string-length averages merge exactly; histograms merge as
    /// mixtures ([`Histogram::merge`]); the distinct count is approximate:
    /// when the two value ranges are disjoint the ndvs add, otherwise the
    /// merge takes the larger one (a lower bound, since overlap may still
    /// contribute new values), always capped by the merged row count.  An
    /// explicit `ANALYZE` stays exact and resets the approximation.
    pub fn merged(&self, other: &ColumnStats) -> ColumnStats {
        let row_count = self.row_count + other.row_count;
        let disjoint = match (&self.min, &self.max, &other.min, &other.max) {
            (Some(_), Some(a_max), Some(b_min), Some(_)) => {
                matches!(
                    a_max.partial_cmp_same_type(b_min),
                    Ok(std::cmp::Ordering::Less)
                ) || matches!(
                    other
                        .max
                        .as_ref()
                        .unwrap()
                        .partial_cmp_same_type(self.min.as_ref().unwrap()),
                    Ok(std::cmp::Ordering::Less)
                )
            }
            _ => false,
        };
        let distinct_count = if disjoint {
            self.distinct_count + other.distinct_count
        } else {
            self.distinct_count.max(other.distinct_count)
        }
        .min(row_count.max(1));
        let pick =
            |a: &Option<ScalarValue>, b: &Option<ScalarValue>, want: std::cmp::Ordering| match (
                a, b,
            ) {
                (Some(x), Some(y)) => match x.partial_cmp_same_type(y) {
                    Ok(o) if o == want => Some(x.clone()),
                    Ok(_) => Some(y.clone()),
                    Err(_) => Some(x.clone()),
                },
                (Some(x), None) => Some(x.clone()),
                (None, Some(y)) => Some(y.clone()),
                (None, None) => None,
            };
        let histogram = match (&self.histogram, &other.histogram) {
            (Some(a), Some(b)) => Some(a.merge(b)),
            (Some(a), None) if other.row_count == 0 => Some(a.clone()),
            (None, Some(b)) if self.row_count == 0 => Some(b.clone()),
            _ => None,
        };
        let avg_utf8_len = match (self.avg_utf8_len, other.avg_utf8_len) {
            (Some(a), Some(b)) if row_count > 0 => {
                Some((a * self.row_count as f64 + b * other.row_count as f64) / row_count as f64)
            }
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            _ => None,
        };
        ColumnStats {
            row_count,
            null_count: self.null_count + other.null_count,
            distinct_count,
            min: pick(&self.min, &other.min, std::cmp::Ordering::Less),
            max: pick(&self.max, &other.max, std::cmp::Ordering::Greater),
            histogram,
            avg_utf8_len,
        }
    }

    /// Estimated fraction of rows with value `< v` (`None` when the column
    /// has no histogram or `v` is not in its domain).
    pub fn fraction_lt(&self, v: &ScalarValue) -> Option<f64> {
        let x = numeric_domain(v)?;
        Some(self.histogram.as_ref()?.fraction_lt(x))
    }

    /// Estimated fraction of rows with value `<= v`.
    pub fn fraction_leq(&self, v: &ScalarValue) -> Option<f64> {
        let x = numeric_domain(v)?;
        Some(self.histogram.as_ref()?.fraction_leq(x))
    }

    /// Estimated fraction of rows equal to `v`: exact for heavy hitters
    /// (degenerate histogram buckets), `1/ndv` otherwise, `0` outside the
    /// observed [min, max] range.
    pub fn eq_fraction(&self, v: &ScalarValue) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        if let (Some(min), Some(max)) = (&self.min, &self.max) {
            let below = v
                .partial_cmp_same_type(min)
                .map(|o| o == std::cmp::Ordering::Less);
            let above = v
                .partial_cmp_same_type(max)
                .map(|o| o == std::cmp::Ordering::Greater);
            if below == Ok(true) || above == Ok(true) {
                return 0.0;
            }
        }
        if let Some(x) = numeric_domain(v) {
            if let Some(mass) = self.histogram.as_ref().and_then(|h| h.eq_mass(x)) {
                return mass;
            }
        }
        1.0 / self.distinct_count.max(1) as f64
    }
}

/// Statistics of a whole table: the "statistics view" the planner consumes
/// in place of raw catalog row counts.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of rows at analyze time.
    pub row_count: usize,
    columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Runs the `ANALYZE` pass over every column of `table`.
    pub fn analyze(table: &Table) -> Self {
        let mut columns = HashMap::new();
        for (field, column) in table.schema().fields().iter().zip(table.columns()) {
            columns.insert(field.name.clone(), ColumnStats::analyze(column));
        }
        Self {
            row_count: table.num_rows(),
            columns,
        }
    }

    /// Builds a statistics view from already-derived column stats — how the
    /// planner synthesises statistics for join *outputs* (where no base table
    /// exists to `ANALYZE`).
    pub fn from_columns(row_count: usize, columns: HashMap<String, ColumnStats>) -> Self {
        Self { row_count, columns }
    }

    /// The statistics of one column, if analyzed.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Names of analyzed columns (unsorted).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(|s| s.as_str()).collect()
    }

    /// Merges in the statistics of an appended row batch (computed by
    /// analyzing just the delta) — the incremental alternative to a full
    /// re-`ANALYZE` after an append.  Columns present in only one side keep
    /// that side's stats.
    pub fn merged_append(&self, added: &TableStats) -> TableStats {
        let mut columns = self.columns.clone();
        for (name, stats) in &added.columns {
            columns
                .entry(name.clone())
                .and_modify(|existing| *existing = existing.merged(stats))
                .or_insert_with(|| stats.clone());
        }
        TableStats {
            row_count: self.row_count + added.row_count,
            columns,
        }
    }

    /// Derives the statistics view after uniformly removing rows down to
    /// `new_rows` — the incremental path for deletes, where re-scanning the
    /// table would defeat O(delta) maintenance.  Distribution shape is
    /// assumed preserved ([`ColumnStats::scaled`]); skewed deletes drift
    /// until the next explicit `ANALYZE`.
    pub fn scaled(&self, new_rows: usize) -> TableStats {
        TableStats {
            row_count: new_rows,
            columns: self
                .columns
                .iter()
                .map(|(name, stats)| (name.clone(), stats.scaled(new_rows)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    #[test]
    fn equi_depth_uniform_fractions() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::equi_depth(values, 64).unwrap();
        assert_eq!(h.total(), 1000);
        assert!(h.buckets() <= 64);
        assert!((h.fraction_lt(500.0) - 0.5).abs() < 0.05);
        assert!((h.fraction_leq(250.0) - 0.25).abs() < 0.05);
        assert_eq!(h.fraction_lt(-1.0), 0.0);
        assert_eq!(h.fraction_leq(1e9), 1.0);
    }

    #[test]
    fn equi_depth_heavy_hitter_is_exact() {
        // 70% of rows are the value 5 — equi-depth buckets degenerate there.
        let mut values = vec![5.0; 700];
        values.extend((0..300).map(|i| 100.0 + i as f64));
        let h = Histogram::equi_depth(values, 32).unwrap();
        let mass = h.eq_mass(5.0).unwrap();
        assert!((mass - 0.7).abs() < 0.04, "heavy hitter mass {mass}");
        // strictly-less-than excludes the hitter, leq includes it
        assert!(h.fraction_lt(5.0) < 0.01);
        assert!((h.fraction_leq(5.0) - 0.7).abs() < 0.04);
        assert!(h.eq_mass(100.0).is_none() || h.eq_mass(100.0).unwrap() < 0.1);
    }

    #[test]
    fn empty_and_degenerate_input() {
        assert!(Histogram::equi_depth(vec![], 8).is_none());
        assert!(Histogram::equi_depth(vec![1.0], 0).is_none());
        let h = Histogram::equi_depth(vec![7.0], 8).unwrap();
        assert_eq!(h.buckets(), 1);
        assert_eq!(h.eq_mass(7.0), Some(1.0));
    }

    #[test]
    fn column_stats_int64() {
        let c = Column::Int64((0..100).map(|i| i % 10).collect());
        let s = ColumnStats::analyze(&c);
        assert_eq!(s.row_count, 100);
        assert_eq!(s.null_count, 0);
        assert_eq!(s.distinct_count, 10);
        assert_eq!(s.min, Some(ScalarValue::Int64(0)));
        assert_eq!(s.max, Some(ScalarValue::Int64(9)));
        assert!(s.histogram.is_some());
        // eq inside the range: 1/ndv or exact hitter mass — both 0.1 here
        assert!((s.eq_fraction(&ScalarValue::Int64(3)) - 0.1).abs() < 0.02);
        // eq outside the range is impossible
        assert_eq!(s.eq_fraction(&ScalarValue::Int64(50)), 0.0);
        let lt5 = s.fraction_lt(&ScalarValue::Int64(5)).unwrap();
        assert!((lt5 - 0.5).abs() < 0.1, "lt5 = {lt5}");
    }

    #[test]
    fn column_stats_utf8() {
        let c = Column::Utf8(vec!["aa".into(), "bb".into(), "aa".into(), "cccc".into()]);
        let s = ColumnStats::analyze(&c);
        assert_eq!(s.distinct_count, 3);
        assert_eq!(s.min, Some(ScalarValue::Utf8("aa".into())));
        assert_eq!(s.max, Some(ScalarValue::Utf8("cccc".into())));
        assert!(s.histogram.is_none());
        assert!((s.avg_utf8_len.unwrap() - 2.5).abs() < 1e-9);
        assert!((s.eq_fraction(&ScalarValue::Utf8("bb".into())) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.eq_fraction(&ScalarValue::Utf8("zz".into())), 0.0);
    }

    #[test]
    fn column_stats_float_date_bool_vector() {
        let f = ColumnStats::analyze(&Column::Float64(vec![2.5, 1.5, 2.5]));
        assert_eq!(f.distinct_count, 2);
        assert_eq!(f.min, Some(ScalarValue::Float64(1.5)));
        assert_eq!(f.max, Some(ScalarValue::Float64(2.5)));

        let d = ColumnStats::analyze(&Column::Date(vec![10, 20]));
        assert_eq!(d.min, Some(ScalarValue::Date(10)));
        assert!(d.histogram.is_some());

        let b = ColumnStats::analyze(&Column::Bool(vec![true, false, true, true]));
        assert_eq!(b.distinct_count, 2);
        let true_mass = b.eq_fraction(&ScalarValue::Bool(true));
        assert!((true_mass - 0.75).abs() < 0.01, "true mass {true_mass}");

        let v = ColumnStats::analyze(&Column::Vector(cej_vector::Matrix::zeros(3, 4)));
        assert_eq!(v.row_count, 3);
        assert!(v.histogram.is_none() && v.min.is_none());
    }

    #[test]
    fn histogram_merge_is_a_mixture() {
        let a = Histogram::equi_depth((0..500).map(|i| i as f64).collect(), 32).unwrap();
        let b = Histogram::equi_depth((500..1000).map(|i| i as f64).collect(), 32).unwrap();
        let m = a.merge(&b);
        assert_eq!(m.total(), 1000);
        assert!((m.fraction_lt(500.0) - 0.5).abs() < 0.05);
        assert!((m.fraction_lt(250.0) - 0.25).abs() < 0.05);
        // repeated merges stay bounded
        let mut acc = a.clone();
        for _ in 0..20 {
            acc = acc.merge(&b);
        }
        assert!(acc.buckets() <= 2 * DEFAULT_HISTOGRAM_BUCKETS + 1);
    }

    #[test]
    fn histogram_merge_keeps_heavy_hitters_exact() {
        let a = Histogram::equi_depth(vec![5.0; 700], 32).unwrap();
        let b = Histogram::equi_depth((0..300).map(|i| 100.0 + i as f64).collect(), 32).unwrap();
        let m = a.merge(&b);
        let mass = m.eq_mass(5.0).unwrap();
        assert!((mass - 0.7).abs() < 0.05, "hitter mass {mass}");
    }

    #[test]
    fn join_rows_partial_domain_overlap() {
        // fact keys uniform over 0..100, dim unique over 50..150: only half
        // the fact rows find a partner.  The classic |L|·|R|/max(ndv)
        // formula says 1000; the intersection must say ~500.
        let fact =
            Histogram::equi_depth((0..1000).map(|i| (i % 100) as f64).collect(), 64).unwrap();
        let dim = Histogram::equi_depth((50..150).map(|i| i as f64).collect(), 64).unwrap();
        let est = fact.join_rows(&dim, 1000.0, 100.0, 100.0, 100.0);
        assert!((400.0..=620.0).contains(&est), "partial overlap est {est}");
        // fully disjoint domains join to nothing
        let far = Histogram::equi_depth((500..600).map(|i| i as f64).collect(), 64).unwrap();
        assert!(fact.join_rows(&far, 1000.0, 100.0, 100.0, 100.0) < 1.0);
    }

    #[test]
    fn join_rows_heavy_hitter_is_exact() {
        // 500 fact rows share key 75 (inside the dim domain): those alone
        // contribute 500 output rows, which mass-uniform ndv apportionment
        // would miss — the degenerate-bucket direction must recover it.
        let mut keys: Vec<f64> = vec![75.0; 500];
        keys.extend((0..500).map(|i| (i % 100) as f64));
        let fact = Histogram::equi_depth(keys, 64).unwrap();
        let dim = Histogram::equi_depth((50..150).map(|i| i as f64).collect(), 64).unwrap();
        let est = fact.join_rows(&dim, 1000.0, 100.0, 100.0, 100.0);
        // true output: 500 (hitter) + 250 (uniform half in overlap) = 750
        assert!((600.0..=900.0).contains(&est), "hitter est {est}");
    }

    #[test]
    fn column_stats_merged_append() {
        let a = ColumnStats::analyze(&Column::Int64((0..100).collect()));
        let b = ColumnStats::analyze(&Column::Int64((100..150).collect()));
        let m = a.merged(&b);
        assert_eq!(m.row_count, 150);
        assert_eq!(m.distinct_count, 150, "disjoint ranges: ndvs add");
        assert_eq!(m.min, Some(ScalarValue::Int64(0)));
        assert_eq!(m.max, Some(ScalarValue::Int64(149)));
        let lt75 = m.fraction_lt(&ScalarValue::Int64(75)).unwrap();
        assert!((lt75 - 0.5).abs() < 0.05, "lt75 = {lt75}");

        // overlapping ranges: ndv is max of the two (lower bound)
        let c = ColumnStats::analyze(&Column::Int64((50..120).collect()));
        let o = a.merged(&c);
        assert_eq!(o.distinct_count, 100);

        let u1 = ColumnStats::analyze(&Column::Utf8(vec!["aa".into(), "bb".into()]));
        let u2 = ColumnStats::analyze(&Column::Utf8(vec!["cccc".into(), "dddd".into()]));
        let um = u1.merged(&u2);
        assert_eq!(um.row_count, 4);
        assert!((um.avg_utf8_len.unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(um.max, Some(ScalarValue::Utf8("dddd".into())));
    }

    #[test]
    fn table_stats_incremental_paths() {
        let base = TableBuilder::new()
            .int64("id", (0..100).collect())
            .utf8("word", (0..100).map(|i| format!("w{}", i % 5)).collect())
            .build()
            .unwrap();
        let delta = TableBuilder::new()
            .int64("id", (100..110).collect())
            .utf8("word", (0..10).map(|i| format!("w{i}")).collect())
            .build()
            .unwrap();
        let merged = TableStats::analyze(&base).merged_append(&TableStats::analyze(&delta));
        assert_eq!(merged.row_count, 110);
        assert_eq!(merged.column("id").unwrap().distinct_count, 110);
        assert_eq!(
            merged.column("id").unwrap().max,
            Some(ScalarValue::Int64(109))
        );

        let shrunk = merged.scaled(55);
        assert_eq!(shrunk.row_count, 55);
        assert_eq!(shrunk.column("id").unwrap().row_count, 55);
        assert!(shrunk.column("id").unwrap().distinct_count <= 55);
    }

    #[test]
    fn table_stats_analyze() {
        let t = TableBuilder::new()
            .int64("id", (0..50).collect())
            .utf8("word", (0..50).map(|i| format!("w{}", i % 5)).collect())
            .build()
            .unwrap();
        let stats = TableStats::analyze(&t);
        assert_eq!(stats.row_count, 50);
        assert_eq!(stats.column("id").unwrap().distinct_count, 50);
        assert_eq!(stats.column("word").unwrap().distinct_count, 5);
        assert!(stats.column("missing").is_none());
        assert_eq!(stats.column_names().len(), 2);
        // Table::analyze is the convenience entry point
        assert_eq!(t.analyze(), stats);
    }
}
