//! # cej-relational
//!
//! Relational expressions, the extended logical algebra with the embedding
//! operator `E_µ`, the rule-based optimizer, and physical execution of the
//! purely relational operators.
//!
//! The paper (Section III) extends relational algebra with an embedding
//! operator that is composable with selections and θ-joins:
//!
//! * `E_µ(R)` maps a context-rich column of `R` into vector space,
//! * `σ_{E,µ,θ}(R) ⇔ σ_θE(E_µ(σ_θR(R)))` — relational predicates can be
//!   pushed below the embedding (E-Selection), and
//! * `R ⋈_{E,µ,θ} S ⇔ E_µ(R) ⋈_θ E_µ(S)` — the context-enhanced join
//!   (E-θ-Join).
//!
//! This crate implements that algebra as a [`LogicalPlan`] tree
//! ([`algebra`]), the algebraic rewrites as optimizer rules ([`optimizer`]) —
//! most importantly *relational predicate pushdown below the embedding
//! operator*, which is what keeps the expensive model invocations off the
//! unfiltered inputs — and a small physical executor ([`physical`]) for the
//! relational and embedding operators.  The join operators themselves (the
//! paper's core contribution) live in `cej-core`, which consumes the plans
//! produced here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod algebra;
pub mod catalog;
pub mod error;
pub mod eval;
pub mod expr;
pub mod optimizer;
pub mod physical;
pub mod selectivity;

pub use algebra::{EmbedSpec, JoinSide, LogicalPlan, SimilarityPredicate};
pub use catalog::Catalog;
pub use error::RelationalError;
pub use expr::{col, lit, lit_date, lit_f64, lit_i64, lit_str, CompareOp, Expr};
pub use optimizer::{physical_output_columns, reorder_joins, Optimizer, OptimizerRule};
pub use physical::ModelRegistry;
pub use selectivity::{check_predicate, estimate_selectivity};

/// Result alias for the relational layer.
pub type Result<T> = std::result::Result<T, RelationalError>;
