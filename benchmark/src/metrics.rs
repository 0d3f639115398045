//! The metric vocabulary — names, units, direction — shared by the result
//! line, the human-readable report and `BENCHMARK.json` (a unit test keeps
//! the file and these tables in step), plus the ratio-of-sums accumulator
//! the traced pass fills.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The workloads, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 4] = ["scan_join_warm", "adhoc_cold", "index_probe", "serve_live"];

/// What a user of the system sees; the same six on every workload,
/// measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("throughput_ops_s", "1/s"),
    lower("op_p50_ms", "ms"),
    lower("op_p95_ms", "ms"),
    lower("peak_rss_mb", "MB"),
    higher("recall_at_k", "ratio"),
];

/// Single-layer metrics, measured by the traced pass from outside the
/// program.  A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 53] = [
    lower("vector.gemm_ns_per_mac", "ns"),
    lower("vector.topk_ns_per_score", "ns"),
    lower("vector.filter_cmp_ns_per_row", "ns"),
    lower("vector.bytes_scored_per_op", "B"),
    lower("vector.dot_ns_per_elem", "ns"),
    lower("embedding.model_us_per_string", "us"),
    lower("embedding.model_calls_per_op", "count"),
    higher("embedding.cache_hit_ratio", "ratio"),
    lower("embedding.cache_mb", "MB"),
    lower("embedding.lookup_ns_per_string", "ns"),
    lower("index.build_s", "s"),
    lower("index.search_us_per_probe", "us"),
    lower("index.distance_computations_per_probe", "count"),
    higher("index.filter_pass_ratio", "ratio"),
    lower("index.memory_mb", "MB"),
    lower("storage.analyze_ms", "ms"),
    lower("storage.delta_apply_ms", "ms"),
    lower("storage.gather_ns_per_row", "ns"),
    lower("relational.optimize_us", "us"),
    lower("core.prepare_us", "us"),
    lower("core.run_ms", "ms"),
    lower("core.op_ms.tensor_join", "ms"),
    lower("core.op_ms.index_join", "ms"),
    lower("core.op_ms.hash_join", "ms"),
    lower("core.op_ms.filter_scan", "ms"),
    lower("core.exec_self_ms", "ms"),
    lower("core.morsels_per_op", "count"),
    lower("ivm.apply_delta_ms", "ms"),
    lower("ivm.propagate_self_ms", "ms"),
    lower("ivm.refresh_ratio", "ratio"),
    lower("ivm.frame_rows_per_delta", "count"),
    lower("exec.cpu_s_per_op", "s"),
    lower("server.run_p50_ms", "ms"),
    lower("server.probe_p50_ms", "ms"),
    lower("server.apply_visible_p50_ms", "ms"),
    lower("server.overhead_us", "us"),
    lower("server.frame_lag_ms", "ms"),
    lower("server.bytes_per_response", "B"),
    lower("server.rejected_share", "ratio"),
    higher("obs.trace_overhead_ratio", "ratio"),
    // The ISSUE's literal end-to-end definitions over *all* ops of the
    // traced pass's untraced stretch, and two readings of what the bounded
    // per-position bests cannot see: stalls and growth.  Too dependent on
    // what else the machine is doing to carry a bound.
    lower("tail.op_p50_ms", "ms"),
    lower("tail.op_p95_ms", "ms"),
    higher("tail.throughput_ops_s", "1/s"),
    lower("tail.slow_op_share", "ratio"),
    lower("tail.growth_ratio", "ratio"),
    // Share of traced op time spent in each layer's public calls — what
    // `--check-shares` asserts, so two workloads cannot quietly collapse
    // into one.  No direction is "better"; `lower` is a placeholder.
    lower("share.vector", "ratio"),
    lower("share.embedding", "ratio"),
    lower("share.index", "ratio"),
    lower("share.storage", "ratio"),
    lower("share.relational", "ratio"),
    lower("share.delta", "ratio"),
    lower("share.server", "ratio"),
    lower("share.core_self", "ratio"),
];

/// Ratio-of-sums accumulator: every per-layer metric is Σ numerator ÷
/// Σ denominator over the traced ops (so long ops weigh more than short
/// ones, as they do in the end-to-end numbers).
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, numerator: f64, denominator: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        let entry = self.sums.entry(name).or_insert((0.0, 0.0));
        entry.0 += numerator;
        entry.1 += denominator;
    }

    /// Records a metric that is a single reading, not a ratio.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.sums.insert(name, (value, 1.0));
    }

    /// The metric's value; 0 when nothing was recorded.
    pub fn value(&self, name: &str) -> f64 {
        match self.sums.get(name) {
            Some(&(num, den)) if den != 0.0 => num / den,
            _ => 0.0,
        }
    }

    /// Every per-layer metric, in table order.
    pub fn report(&self) -> Vec<(String, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), self.value(m.name), m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_ratios_of_sums_and_default_to_zero() {
        let mut layers = Layers::default();
        layers.add("vector.gemm_ns_per_mac", 100.0, 1000.0);
        layers.add("vector.gemm_ns_per_mac", 300.0, 1000.0);
        layers.set("index.build_s", 2.5);
        assert_eq!(layers.value("vector.gemm_ns_per_mac"), 0.2);
        assert_eq!(layers.value("index.build_s"), 2.5);
        assert_eq!(layers.value("server.overhead_us"), 0.0);
        assert_eq!(layers.report().len(), PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS)
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// Every value `BENCHMARK.json` gives for `key`, in file order.  The
    /// file is this package's own and holds one `"key": value` per line.
    fn listed<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let tag = format!("\"{key}\": ");
        text.lines()
            .filter_map(|line| line.trim().strip_prefix(tag.as_str()))
            .map(|value| value.trim_end_matches(',').trim_matches('"'))
            .collect()
    }

    /// `BENCHMARK.json` is what the acceptance harness reads; these tables
    /// are what the program prints.  They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let defs: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        let names: Vec<&str> = WORKLOADS
            .into_iter()
            .chain(defs.iter().map(|d| d.name))
            .collect();
        assert_eq!(listed(&text, "name"), names);
        let units: Vec<&str> = defs.iter().map(|d| d.unit).collect();
        assert_eq!(listed(&text, "unit"), units);
        let better: Vec<&str> = defs
            .iter()
            .map(|d| {
                if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            })
            .collect();
        assert_eq!(listed(&text, "better"), better);
        let bounds = listed(&text, "bound");
        assert_eq!(bounds.len(), END_TO_END.len());
        for bound in &bounds {
            let bound: f64 = bound.parse().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        // set-up time carries the largest bound
        let largest = bounds.iter().map(|b| b.parse::<f64>().unwrap());
        assert_eq!(
            bounds[0].parse::<f64>().unwrap(),
            largest.fold(0.0, f64::max)
        );
        assert_eq!(
            listed(&text, "run_seconds"),
            [format!("{}", crate::DEFAULT_SECONDS)]
        );
    }
}
