//! Online data cleaning and integration (paper Section II-A-2).
//!
//! A "dirty" feed of product mentions — misspellings, plural forms, synonyms
//! — is integrated against a clean reference catalogue *without any manual
//! rule writing*: a FastText-style model trained on a small synthetic corpus
//! provides the notion of similarity, and the context-enhanced join does the
//! matching on the fly.
//!
//! Run with:
//! ```sh
//! cargo run --release --example data_cleaning
//! ```

use cej_core::{top_k, ContextJoinSession, JoinStrategy, NljConfig};
use cej_embedding::{train_on_corpus, FastTextConfig, FastTextModel, TrainingConfig};
use cej_relational::LogicalPlan;
use cej_storage::TableBuilder;
use cej_workload::{CorpusGenerator, WordGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the model on a synthetic synonym-cluster corpus so that
    //    cluster members (e.g. "barbecue", "bbq", "grilling") embed nearby.
    let mut words = WordGenerator::new(42);
    let clusters = words.clusters(10, 6);
    let corpus = CorpusGenerator::new(7)
        .with_noise(0.05)
        .generate(&clusters, 400);
    let mut model = FastTextModel::new(FastTextConfig {
        dim: 64,
        buckets: 50_000,
        ..FastTextConfig::default()
    })?;
    let trained_words = train_on_corpus(&mut model, &corpus, &TrainingConfig::default())?;
    println!("trained vectors for {trained_words} vocabulary words");

    // 2. The clean reference catalogue: one canonical name per concept.
    let catalogue: Vec<String> = clusters.iter().map(|c| c.base.clone()).collect();

    // 3. A dirty feed sampled from the same clusters (misspellings, plurals,
    //    synonyms) — the ground-truth cluster of each entry is known, so we
    //    can measure how well the join cleans the data.
    let (dirty_feed, truth) = words.sample_strings(&clusters, 60);

    // 4. Context-enhanced join: dirty feed ⋈ catalogue, top-1 per entry,
    //    as a query with the prefetch NLJ forced (each distinct string is
    //    embedded once, then the pair loop runs over the vectors).
    let cluster_ids = |ids: Vec<usize>| ids.into_iter().map(|c| c as i64).collect();
    let mut session = ContextJoinSession::new();
    session.register_table(
        "feed",
        TableBuilder::new()
            .utf8("entry", dirty_feed)
            .int64("cluster", cluster_ids(truth))
            .build()?,
    );
    session.register_table(
        "catalogue",
        TableBuilder::new()
            .utf8("name", catalogue)
            .int64("cluster", cluster_ids((0..clusters.len()).collect()))
            .build()?,
    );
    session.register_model("ft", model);
    session.with_strategy(JoinStrategy::PrefetchNlj(
        NljConfig::default().with_threads(2),
    ));
    let report = session.execute(&LogicalPlan::e_join(
        LogicalPlan::scan("feed"),
        LogicalPlan::scan("catalogue"),
        "entry",
        "name",
        "ft",
        top_k(1),
    ))?;

    // 5. Report the cleaned assignments and the accuracy against ground truth.
    let table = &report.table;
    let entries = table.column_by_name("l_entry")?.as_utf8()?;
    let names = table.column_by_name("r_name")?.as_utf8()?;
    let truth = table.column_by_name("l_cluster")?.as_int64()?;
    let assigned = table.column_by_name("r_cluster")?.as_int64()?;
    let scores = table.column_by_name("similarity")?.as_float64()?;
    let mut correct = 0usize;
    println!(
        "\n{:<18} -> {:<14} {:>6}",
        "dirty entry", "canonical", "sim"
    );
    println!("{}", "-".repeat(44));
    for row in 0..table.num_rows() {
        let ok = assigned[row] == truth[row];
        correct += usize::from(ok);
        if row < 15 {
            println!(
                "{:<18} -> {:<14} {:>6.3} {}",
                entries[row],
                names[row],
                scores[row],
                if ok { "" } else { "  (MISMATCH)" }
            );
        }
    }
    println!("{}", "-".repeat(44));
    println!(
        "cleaned {} entries, {} correct ({:.1}%), {} model calls",
        table.num_rows(),
        correct,
        100.0 * correct as f64 / table.num_rows() as f64,
        report.embedding_stats.model_calls,
    );
    Ok(())
}
