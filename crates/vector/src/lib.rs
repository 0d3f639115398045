//! # cej-vector
//!
//! Dense vector / tensor substrate for the context-enhanced relational join
//! (CEJ) reproduction of *"Optimizing Context-Enhanced Relational Joins"*
//! (ICDE 2024).
//!
//! This crate provides everything the join operators need to work on
//! high-dimensional embeddings while remaining completely model-agnostic:
//!
//! * [`Vector`] — an owned, fixed-dimension dense `f32` vector.
//! * [`Matrix`] — a row-major matrix used to hold batches of embeddings
//!   (one embedding per row), the representation used by the *tensor join*
//!   formulation of the paper (Section IV-C).
//! * [`kernels`] — scalar and lane-unrolled ("vectorised") inner-product and
//!   norm kernels, reproducing the paper's SIMD / NO-SIMD axis.  The
//!   unrolled variants define one floating-point operation order (the
//!   8-lane class); the CPU decides whether the hot primitives run it as
//!   portable loops or as AVX2 `std::arch` code, with identical bits.
//! * [`gemm`] — a blocked (tiled) similarity-matrix kernel `A · Bᵀ` with
//!   configurable tile sizes, an AVX2 register-blocked micro-kernel and
//!   optional multi-threading, the physical backbone of the tensor join
//!   (Figure 6 of the paper).
//! * [`distance`] — cosine similarity / distance, dot product and L2 metrics.
//! * [`topk`] — top-k selection used by index probes and top-k join
//!   predicates, and the 8-at-a-time score-row harvest under it.
//! * [`partition`] — block partitioning helpers that derive mini-batch sizes
//!   from a buffer budget (Section V-B, Figure 7).
//!
//! The types here deliberately avoid any dependency on the embedding model or
//! the relational layer: the paper's core claim is a *separation of concerns*
//! where operators only ever see context-free tensors.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(clippy::all)]

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod distance;
pub mod error;
pub mod gemm;
pub mod kernels;
pub mod matrix;
pub mod norm;
pub mod partition;
pub mod stats;
pub mod topk;
pub mod vector;

pub use distance::{cosine_distance, cosine_similarity, dot, euclidean_distance, Metric};
pub use error::VectorError;
pub use gemm::{GemmConfig, SimilarityMatrix};
pub use kernels::{dot_lanes, dot_select, filter_cmp, filter_cmp_window, CmpOp, Kernel, SimdIsa};
pub use matrix::Matrix;
pub use norm::{l2_norm, normalize, normalize_matrix_rows};
pub use partition::{BlockPartition, BufferBudget};
pub use topk::{TopK, TopKEntry};
pub use vector::Vector;

/// Result alias used throughout the vector substrate.
pub type Result<T> = std::result::Result<T, VectorError>;
