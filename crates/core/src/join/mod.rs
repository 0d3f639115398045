//! Physical implementations of the context-enhanced join.
//!
//! All operators implement the same logical operation — find pairs of tuples
//! whose embeddings satisfy a similarity predicate — but with very different
//! cost profiles, mirroring the paper's step-by-step optimisation narrative.
//! Each exposes exactly one way to run it, the call the morsel interpreter
//! ([`crate::batch_exec`]) makes:
//!
//! 1. [`naive_nlj::NaiveNlJoin::join`]`(model, left, right, predicate)` —
//!    the straightforward extension of a nested-loop join: it takes strings
//!    and embeds *inside* the pair loop (quadratic model cost).
//! 2. [`prefetch_nlj::PrefetchNlJoin::join`]`(left_norm, right_norm,
//!    predicate)` — the logical optimisation: every tuple is embedded once
//!    before the join, which runs a (parallel, optionally SIMD) pair-wise
//!    NLJ over the row-normalised vectors.
//! 3. [`tensor_join::TensorJoin::join`]`(left_norm, right_norm, predicate)`
//!    — the physical optimisation: the pair-wise comparison as blocked
//!    matrix multiplication with mini-batching under an explicit memory
//!    budget.
//! 4. [`index_join::IndexJoin::probe`]`(outer, &index, predicate,
//!    inner_filter)` over an index from [`index_join::IndexJoin::build_index`]
//!    — the vector-database alternative: top-k HNSW probes under relational
//!    pre-filtering of the inner side.
//!
//! The matrix-level operators take *row-normalised* embeddings (cosine =
//! dot product), so the interpreter normalises an inner side once and every
//! outer morsel reuses it.  Relational pre-filters reach an operator as the
//! selected rows only (the index's inner side excepted, whose graph spans
//! the whole table).  The paper's figure-only variants — Figure 10's fixed
//! loop order, Figure 12's one-vector-at-a-time inner — are the experiments'
//! own loops in `cej-bench`.
//!
//! [`hash_join`] is deliberately *not* on that list: it is the ordinary
//! relational hash equi-join that glues N-table queries together around the
//! context-enhanced joins (no model in its loop).

pub mod hash_join;
pub mod index_join;
pub mod naive_nlj;
pub mod prefetch_nlj;
pub mod tensor_join;

use cej_embedding::Embedder;
use cej_relational::SimilarityPredicate;
use cej_vector::Matrix;

use crate::error::CoreError;
use crate::Result;

/// Embeds a slice of strings into a row-per-string matrix, validating that
/// the model produced one row per string (the index build's input).
pub(crate) fn embed_all(model: &dyn Embedder, strings: &[String]) -> Result<Matrix> {
    let matrix = model.embed_batch(strings);
    if matrix.rows() != strings.len() {
        return Err(CoreError::InvalidInput(format!(
            "model produced {} embeddings for {} inputs",
            matrix.rows(),
            strings.len()
        )));
    }
    Ok(matrix)
}

/// Validates that two embedded inputs are joinable (same dimensionality).
pub(crate) fn check_joinable(left: &Matrix, right: &Matrix) -> Result<()> {
    if left.cols() != right.cols() {
        return Err(CoreError::InvalidInput(format!(
            "embedding dimensionality mismatch: left {} vs right {}",
            left.cols(),
            right.cols()
        )));
    }
    Ok(())
}

/// Validates a similarity predicate.
pub(crate) fn check_predicate(predicate: &SimilarityPredicate) -> Result<()> {
    match predicate {
        SimilarityPredicate::Threshold(t) => {
            if !t.is_finite() {
                return Err(CoreError::InvalidInput(
                    "similarity threshold must be finite".into(),
                ));
            }
            Ok(())
        }
        SimilarityPredicate::TopK(k) => {
            if *k == 0 {
                return Err(CoreError::InvalidInput("top-k must be at least 1".into()));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cej_embedding::{FastTextConfig, FastTextModel};

    use crate::session::{ContextJoinSession, ExecutionReport, JoinStrategy};
    use cej_relational::LogicalPlan;
    use cej_storage::{Table, TableBuilder};

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 8,
            buckets: 500,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    /// Joins two string lists through a session under a forced strategy:
    /// tables `l` and `r` with one `word` column each, a 16-D model.
    pub(crate) fn run_string_join(
        strategy: JoinStrategy,
        left: &[&str],
        right: &[&str],
        predicate: SimilarityPredicate,
    ) -> ExecutionReport {
        let table = |words: &[&str]| {
            TableBuilder::new()
                .utf8("word", words.iter().map(|w| w.to_string()).collect())
                .build()
                .unwrap()
        };
        let mut s = ContextJoinSession::new();
        s.register_table("l", table(left));
        s.register_table("r", table(right));
        let model = FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap();
        s.register_model("m", model);
        s.with_strategy(strategy);
        let plan = LogicalPlan::e_join(
            LogicalPlan::scan("l"),
            LogicalPlan::scan("r"),
            "word",
            "word",
            "m",
            predicate,
        );
        s.execute(&plan).unwrap()
    }

    /// The `(l_word, r_word)` pairs of a string join's output, sorted.
    pub(crate) fn string_pairs(table: &Table) -> Vec<(String, String)> {
        let column = |name| table.column_by_name(name).unwrap().as_utf8().unwrap();
        let mut pairs: Vec<(String, String)> = column("l_word")
            .iter()
            .cloned()
            .zip(column("r_word").iter().cloned())
            .collect();
        pairs.sort();
        pairs
    }

    #[test]
    fn embed_all_produces_one_row_per_string() {
        let m = model();
        let out = embed_all(&m, &["a".into(), "b".into(), "c".into()]).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), 8);
        let empty = embed_all(&m, &[]).unwrap();
        assert_eq!(empty.rows(), 0);
    }

    #[test]
    fn check_joinable_rejects_dim_mismatch() {
        assert!(check_joinable(&Matrix::zeros(2, 4), &Matrix::zeros(3, 4)).is_ok());
        assert!(check_joinable(&Matrix::zeros(2, 4), &Matrix::zeros(3, 5)).is_err());
    }

    #[test]
    fn check_predicate_validation() {
        assert!(check_predicate(&SimilarityPredicate::Threshold(0.9)).is_ok());
        assert!(check_predicate(&SimilarityPredicate::Threshold(f32::NAN)).is_err());
        assert!(check_predicate(&SimilarityPredicate::TopK(5)).is_ok());
        assert!(check_predicate(&SimilarityPredicate::TopK(0)).is_err());
    }
}
