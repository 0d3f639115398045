//! # cej-index
//!
//! From-scratch HNSW (Hierarchical Navigable Small World) approximate
//! nearest-neighbour index — the substrate standing in for the vector
//! database (Milvus + HNSW) that the paper benchmarks its scan-based tensor
//! join against (Section VI-E).
//!
//! Key properties mirrored from the paper's setup:
//!
//! * cosine-similarity graphs built with the paper's two configurations,
//!   [`HnswParams::high_recall`] (`M = 64`, `efConstruction = 512`) and
//!   [`HnswParams::low_recall`] (`M = 32`, `efConstruction = 256`);
//! * **top-k probe semantics**: an index probe must specify `k`, which is
//!   exactly the flexibility limitation Table I attributes to index joins;
//! * **relational pre-filtering**: a probe can carry a
//!   [`cej_storage::SelectionBitmap`]; filtered nodes are excluded from the
//!   *result* but still traversed, reproducing the cost behaviour the paper
//!   describes for vector databases ("the result set excludes tuples based on
//!   the relational condition on the fly while still incurring the traversal
//!   cost");
//! * **probe statistics**: every search reports how many distance
//!   computations and node visits it performed, so benches can relate probe
//!   cost to scan cost analytically as well as by wall-clock.
//!
//! [`BruteForce`] provides the exact baseline used to measure recall.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod brute_force;
pub mod error;
pub mod hnsw;
pub mod params;
pub mod recall;

pub use brute_force::BruteForce;
pub use error::IndexError;
pub use hnsw::{HnswIndex, ProbeStats, SearchResult};
pub use params::HnswParams;
pub use recall::{probe_recall, self_probe_recall};

/// Result alias for the index substrate.
pub type Result<T> = std::result::Result<T, IndexError>;
