//! Regenerates the tables and figures of the paper's evaluation
//! (Section VI): Figures 8-17, Table II and the Section IV cost-model
//! validation.
//!
//! ```sh
//! paper_figs                 # all twelve, in table order
//! paper_figs fig15 table02   # only those
//! ```
//!
//! An unknown name lists the table and exits 2.  `CEJ_SCALE` is the only
//! size input.  Every entry prints rows and asserts nothing — whether a
//! change made the system faster is decided by `benchmark/`, not here.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use cej_bench::experiments::{self, PerElementRow, DIM};
use cej_bench::harness::{fmt_ms, header, print_table, scaled};
use cej_relational::SimilarityPredicate;

/// `(name on the command line, header id, header description, body)`.
type Figure = (&'static str, &'static str, &'static str, fn());

const FIGURES: &[Figure] = &[
    (
        "fig08",
        "Figure 8",
        "logical (prefetch) x physical (SIMD) optimisation of the E-NLJ",
        fig08,
    ),
    (
        "fig09",
        "Figure 9",
        "optimised NLJ scalability with threads (10k x 10k in the paper)",
        fig09,
    ),
    (
        "fig10",
        "Figure 10",
        "optimised NLJ across |R| x |S| combinations, 100-D",
        fig10,
    ),
    (
        "fig11",
        "Figure 11",
        "per-FP32-element time: vectorised NLJ vs tensor join",
        fig11,
    ),
    (
        "fig12",
        "Figure 12",
        "tensor join: fully batched vs one-vector-at-a-time inner relation",
        fig12,
    ),
    (
        "fig13",
        "Figure 13",
        "mini-batch size: relative slowdown vs relative RAM reduction",
        fig13,
    ),
    (
        "fig14",
        "Figure 14",
        "tensor join vs optimised NLJ across input sizes, 100-D",
        fig14,
    ),
    (
        "fig15",
        "Figure 15",
        "top-1 join: tensor scan vs HNSW index probe (10k x 1M in the paper)",
        fig15,
    ),
    (
        "fig16",
        "Figure 16",
        "top-32 join: tensor scan vs HNSW index probe (10k x 1M in the paper)",
        fig16,
    ),
    (
        "fig17",
        "Figure 17",
        "range join (sim > 0.9): tensor scan vs HNSW index probe (10k x 1M in the paper)",
        fig17,
    ),
    (
        "table02",
        "Table II",
        "semantic matches of the trained FastText-style model (top-15)",
        table02,
    ),
    (
        "costmodel",
        "Cost model",
        "measured model calls vs the Section IV formulas",
        costmodel,
    ),
];

fn lookup(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|figure| figure.0 == name)
}

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for name in std::env::args().skip(1) {
        match lookup(&name) {
            Some(figure) => selected.push(figure),
            None => {
                eprintln!("paper_figs: unknown figure `{name}`; the table is:");
                for (name, id, description, _) in FIGURES {
                    eprintln!("  {name:<10} {id}: {description}");
                }
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(FIGURES);
    }
    for (_, id, description, body) in selected {
        header(id, description);
        body();
    }
    ExitCode::SUCCESS
}

/// Figure 8: impact of logical (prefetch) and physical (SIMD) optimisation
/// on the E-NLJ formulation.
fn fig08() {
    // Paper sizes: 1k x 1k, 10k x 1k, 10k x 10k.  Scaled down because the
    // naive variant embeds |R|*|S| pairs.
    let sizes = [
        (scaled(200), scaled(200)),
        (scaled(400), scaled(200)),
        (scaled(400), scaled(400)),
    ];
    let rows = experiments::fig08_nlj_logical_physical(&sizes, DIM);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sizes.clone(),
                fmt_ms(r.naive_no_simd),
                fmt_ms(r.naive_simd),
                fmt_ms(r.prefetch_no_simd),
                fmt_ms(r.prefetch_simd),
                r.naive_model_calls.to_string(),
                r.prefetch_model_calls.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "|R| x |S|",
            "NO-SIMD [ms]",
            "SIMD [ms]",
            "Prefetch NO-SIMD [ms]",
            "Prefetch SIMD [ms]",
            "naive model calls",
            "prefetch model calls",
        ],
        &printable,
    );
}

/// Figure 9: thread scalability of the optimised NLJ (SIMD vs NO-SIMD).
fn fig09() {
    let rows = experiments::fig09_thread_scalability(scaled(1_500), DIM, &[1, 2, 4, 8]);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|(t, simd, no_simd)| vec![t.to_string(), fmt_ms(*simd), fmt_ms(*no_simd)])
        .collect();
    print_table(&["threads", "SIMD [ms]", "NO-SIMD [ms]"], &printable);
}

/// Figure 10: optimised NLJ across input-size combinations, including the
/// effect of the inner/outer loop ordering heuristic.
fn fig10() {
    let sizes = [
        (scaled(1_000), scaled(1_000)),
        (scaled(2_000), scaled(500)),
        (scaled(500), scaled(2_000)),
        (scaled(4_000), scaled(500)),
        (scaled(500), scaled(4_000)),
        (scaled(2_000), scaled(2_000)),
    ];
    let rows = experiments::fig10_input_sizes(&sizes, DIM);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, ops, ordered, unordered)| {
            vec![
                label.clone(),
                ops.to_string(),
                fmt_ms(*ordered),
                fmt_ms(*unordered),
            ]
        })
        .collect();
    print_table(
        &[
            "|R| x |S|",
            "pair comparisons",
            "heuristic order [ms]",
            "as-given order [ms]",
        ],
        &printable,
    );
}

/// The sweep shared by Figures 11 and 12: total FP32 work x vector width,
/// two strategies compared per element.
fn per_element_figure(
    experiment: fn(&[usize], &[usize]) -> Vec<PerElementRow>,
    first: &str,
    second: &str,
) {
    let ops = [scaled(25_600), scaled(2_560_000), scaled(25_600_000)];
    let dims = [1usize, 4, 16, 64, 256];
    let printable: Vec<Vec<String>> = experiment(&ops, &dims)
        .iter()
        .map(|r| {
            vec![
                r.fp32_ops.to_string(),
                r.dim.to_string(),
                r.tuples.to_string(),
                r.first_ns.clone(),
                r.second_ns.clone(),
            ]
        })
        .collect();
    print_table(
        &["#FP32 ops", "vector #FP32", "tuples/side", first, second],
        &printable,
    );
}

/// Figure 11: per-element processing time of the vectorised NLJ vs the
/// tensor formulation across total work and vector dimensionality.
fn fig11() {
    per_element_figure(
        experiments::fig11_nlj_vs_tensor,
        "Vectorize-NLJ [ns/elem]",
        "Tensor [ns/elem]",
    );
}

/// Figure 12: impact of vector batching — fully-batched vs non-batched
/// tensor formulation.
fn fig12() {
    per_element_figure(
        experiments::fig12_batched_vs_non_batched,
        "Tensor-Fully-Batched [ns/elem]",
        "Tensor-Non-Batched [ns/elem]",
    );
}

/// Figure 13: mini-batch size impact on memory requirements and execution
/// time.
fn fig13() {
    // Paper: 100k x 100k (40 GB intermediate).  Scaled to 4k x 4k by default.
    let n = scaled(4_000);
    let batches = [
        (n, n / 2),
        (n / 2, n / 2),
        (n, n / 10),
        (n / 10, n / 2),
        (n / 20, n / 2),
        (n / 10, n / 10),
        (n / 10, n / 20),
        (n / 20, n / 20),
    ];
    let rows = experiments::fig13_batch_size_impact(n, DIM, &batches);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.clone(),
                format!("{:.2}x", r.relative_slowdown),
                format!("{:.1}x", r.ram_reduction),
            ]
        })
        .collect();
    print_table(
        &["mini-batch", "relative slowdown", "RAM reduction"],
        &printable,
    );
}

/// Figure 14: tensor join vs optimised NLJ end-to-end execution time.
fn fig14() {
    let sizes = [
        (scaled(1_000), scaled(1_000)),
        (scaled(2_000), scaled(1_000)),
        (scaled(2_000), scaled(2_000)),
        (scaled(4_000), scaled(2_000)),
        (scaled(4_000), scaled(4_000)),
    ];
    let rows = experiments::fig14_tensor_vs_nlj(&sizes, DIM, 1);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, tensor, nlj)| {
            let speedup = nlj.as_secs_f64() / tensor.as_secs_f64().max(1e-12);
            vec![
                label.clone(),
                fmt_ms(*tensor),
                fmt_ms(*nlj),
                format!("{speedup:.1}x"),
            ]
        })
        .collect();
    print_table(
        &["|R| x |S|", "Tensor [ms]", "NLJ [ms]", "tensor speedup"],
        &printable,
    );
}

/// The sweep shared by Figures 15-17: scan vs probe under relational
/// selectivity on the inner relation, one similarity predicate per figure.
fn scan_vs_probe_figure(predicate: SimilarityPredicate) {
    let rows = experiments::scan_vs_probe(
        scaled(500),
        scaled(50_000),
        DIM,
        predicate,
        &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        true,
    );
    print_table(
        &[
            "selectivity",
            "Tensor [ms]",
            "Tensor -filter [ms]",
            "Index Lo [ms]",
            "Index Hi [ms]",
        ],
        &experiments::scan_vs_probe_rows(&rows),
    );
}

/// Figure 15: top-k = 1 vector join condition.
fn fig15() {
    scan_vs_probe_figure(SimilarityPredicate::TopK(1));
}

/// Figure 16: top-k = 32 vector join condition.
fn fig16() {
    scan_vs_probe_figure(SimilarityPredicate::TopK(32));
}

/// Figure 17: range predicate (`similarity > 0.9`) join condition.
fn fig17() {
    scan_vs_probe_figure(SimilarityPredicate::Threshold(0.9));
}

/// Table II: semantic matching using the trained embedding model.
fn table02() {
    for (query, matches) in experiments::table02_semantic_matches(15) {
        println!("{query:<12} {}", matches.join(", "));
    }
}

/// Cost-model validation (Section IV): measured model-invocation counts of
/// the naive and prefetch-optimised joins against the closed-form formulas.
fn costmodel() {
    let sizes = [
        (scaled(20), scaled(20)),
        (scaled(50), scaled(20)),
        (scaled(50), scaled(50)),
    ];
    let rows = experiments::costmodel_validation(&sizes);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(
            |(label, naive_calls, prefetch_calls, naive_cost, prefetch_cost)| {
                vec![
                    label.clone(),
                    naive_calls.to_string(),
                    prefetch_calls.to_string(),
                    format!("{naive_cost:.2e}"),
                    format!("{prefetch_cost:.2e}"),
                    format!("{:.1}x", naive_cost / prefetch_cost),
                ]
            },
        )
        .collect();
    print_table(
        &[
            "|R| x |S|",
            "naive model calls (measured)",
            "prefetch model calls (measured)",
            "naive cost (predicted)",
            "prefetch cost (predicted)",
            "predicted speedup",
        ],
        &printable,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique_and_lookup_rejects_unknown_ones() {
        assert_eq!(FIGURES.len(), 12);
        for (i, figure) in FIGURES.iter().enumerate() {
            let first = FIGURES.iter().position(|other| other.0 == figure.0);
            assert_eq!(first, Some(i), "`{}` appears twice", figure.0);
            assert_eq!(lookup(figure.0).map(|found| found.1), Some(figure.1));
        }
        assert!(lookup("fig18").is_none());
        assert!(lookup("").is_none());
        assert!(lookup("Figure 8").is_none(), "lookup is by name, not by id");
    }
}
