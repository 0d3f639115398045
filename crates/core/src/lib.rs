//! # cej-core
//!
//! The paper's primary contribution: **context-enhanced relational join
//! operators** over vector embeddings, their cost model, and access-path
//! selection — plus an end-to-end session API that ties the substrates
//! (storage, relational algebra, embedding model, vector index) together.
//!
//! ## Operator inventory
//!
//! | Operator | Paper section | Model cost | Compute pattern |
//! |---|---|---|---|
//! | [`NaiveNlJoin`] | IV-A (E-NL Join Cost) | `|R|·|S|·M` | per-pair embed + compare |
//! | [`PrefetchNlJoin`] | IV-A (Prefetch Optimization), V-A | `(|R|+|S|)·M` | embed once, parallel pair-wise NLJ, SIMD / scalar kernels |
//! | [`TensorJoin`] | IV-C, V-B | `(|R|+|S|)·M` | blocked matrix multiplication with mini-batching under a buffer budget |
//! | [`IndexJoin`] | IV-B, VI-E | `(|R|+|S|)·M` + build | HNSW top-k probes with relational pre-filtering |
//!
//! ## Cost model and access-path selection
//!
//! [`cost::CostModel`] implements the closed-form E-NL Join costs of
//! Section IV (naive and prefetch) and their model-call counts, which the
//! operators' measured counts are held to.  The scan-vs-probe choice is
//! one function priced in nanoseconds, [`IndexJoin::route`]: a scan of the
//! inner rows a probe filter passes against a walk for them, per outer
//! row.  The planner asks it with the statistics-estimated survivors, a
//! run of the index join with the counted ones ([`access_path`]).
//!
//! ## The physical layer: plan once, execute many
//!
//! Planning and execution are separate stages:
//!
//! * [`planner::Planner`] lowers an optimised
//!   [`cej_relational::LogicalPlan`] to a [`physical_plan::PhysicalPlan`],
//!   pricing the route *at plan time*; the decision (operator, access
//!   path, estimated route) is rendered by
//!   [`physical_plan::PhysicalPlan::explain`] before execution.
//! * [`prepared::PreparedQuery`] executes one physical plan many times
//!   against session-shared state: the `Arc`-shared model registry, the
//!   per-model embedding caches ([`executor::EmbeddingCachePool`]), and the
//!   persistent HNSW indexes of [`index_manager::IndexManager`] — so warm
//!   index-join runs perform zero model calls and zero HNSW construction.
//! * [`session::ContextJoinSession::execute`] is a thin `prepare().run()`
//!   wrapper and [`session::ContextJoinSession::query`] offers a fluent
//!   [`builder::QueryBuilder`] so plans need not be hand-assembled.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod access_path;
pub mod batch_exec;
pub mod builder;
pub mod cost;
pub mod error;
pub mod executor;
pub mod index_manager;
pub mod ivm;
pub mod join;
#[cfg(test)]
mod multi_join_tests;
pub mod physical_plan;
pub mod planner;
pub mod prepared;
pub mod result;
pub mod session;

pub use access_path::AccessPath;
pub use builder::{sim_gte, top_k, QueryBuilder};
pub use cost::{CostModel, CostParameters};
pub use error::CoreError;
pub use executor::{EmbeddingCachePool, ExecContext, ExecOutcome, RunStats};
pub use index_manager::{IndexKey, IndexManager, IndexManagerStats};
pub use ivm::{
    DeltaBatch, DeltaEngine, IvmPolicy, IvmStats, MaintainedResult, Propagation, ResultDelta,
    StandingQuery, StandingStats, TableChange,
};
pub use join::index_join::{IndexJoin, IndexJoinConfig};
pub use join::naive_nlj::NaiveNlJoin;
pub use join::prefetch_nlj::{NljConfig, PrefetchNlJoin};
pub use join::tensor_join::{PreparedInner, TensorJoin, TensorJoinConfig};
pub use physical_plan::{
    q_error, IndexedInner, InnerInput, JoinNode, PhysicalJoinOp, PhysicalPlan, PlanEstimate,
};
pub use planner::Planner;
pub use prepared::{ExplainAnalyze, PreparedQuery};
pub use result::{IndexPath, IndexRoute, JoinPair, JoinResult, JoinStats, TensorPath};
pub use session::{ContextJoinSession, DeltaReport, ExecutionReport, JoinStrategy};

// The delta vocabulary of [`ContextJoinSession::apply_delta`], re-exported so
// API users need not depend on `cej-storage` directly.
pub use cej_storage::{Delta, ScalarValue};

/// Result alias for the core layer.
pub type Result<T> = std::result::Result<T, CoreError>;
