//! # cej-storage
//!
//! Columnar relational storage substrate for the context-enhanced join
//! reproduction.
//!
//! The paper's motivating queries join two tables over a *context-rich*
//! column (strings / image blobs) while also filtering on ordinary relational
//! attributes (dates), so the engine needs a small but real relational
//! substrate:
//!
//! * [`DataType`] / [`ScalarValue`] — the type system, including a
//!   first-class fixed-dimension `Vector` type, mirroring the paper's view of
//!   embeddings as *atomic* values (Section IV).
//! * [`Schema`] / [`Field`] — named, typed columns.
//! * [`Column`] — typed columnar storage (`i64`, `f64`, strings, dates,
//!   booleans, embeddings).
//! * [`Table`] — a bundle of equal-length columns with filter / project /
//!   slice operations.
//! * [`SelectionBitmap`] — selection vectors used to push relational
//!   predicates below the embedding operator (the paper's pre-filtering).
//! * [`DEFAULT_BATCH_ROWS`] — the morsel size of the vectorised executor
//!   (MonetDB/X100 style).
//! * [`Delta`] / [`TableVersion`] / [`Segment`] — batch mutations, and the
//!   immutable, segment-sharing table versions they produce.
//! * [`builder`] — convenient typed table construction.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod bitmap;
pub mod builder;
pub mod column;
pub mod datatype;
pub mod delta;
pub mod error;
pub mod scalar;
pub mod schema;
pub mod stats;
pub mod table;

pub use batch::DEFAULT_BATCH_ROWS;
pub use bitmap::SelectionBitmap;
pub use builder::TableBuilder;
pub use column::Column;
pub use datatype::DataType;
pub use delta::{AppliedDelta, Delta, Segment, TableVersion};
pub use error::StorageError;
pub use scalar::ScalarValue;
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::Table;

/// Result alias for the storage substrate.
pub type Result<T> = std::result::Result<T, StorageError>;
