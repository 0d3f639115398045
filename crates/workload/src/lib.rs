//! # cej-workload
//!
//! Synthetic workload and data generators for the context-enhanced join
//! experiments.
//!
//! The paper evaluates on (a) a FastText model trained on a Wikipedia subset
//! and (b) synthetic vector/relational data with a fixed RNG seed.  Neither
//! dataset is redistributable here, so this crate generates equivalents with
//! the knobs the experiments actually vary:
//!
//! * [`words`] — synonym-cluster string vocabularies with misspellings and
//!   inflections (drives Table II and the string-join examples),
//! * [`corpus`] — training sentences built from those clusters,
//! * [`relations`] — pairs of relational tables with a string join column and
//!   a selectivity-controllable date / integer filter column (drives the
//!   scan-vs-index experiments, Figures 15-17),
//! * [`vectors`] — clustered or uniform random embedding matrices for
//!   benchmarks that bypass the model (Figures 8-14),
//! * [`zipf`] — Zipfian frequency skew,
//! * [`mod@scale`] — the global `CEJ_SCALE` size knob shared by the benchmark
//!   binaries and the runnable examples.
//!
//! Every generator is deterministic given a seed, mirroring the paper's
//! "same random number generator seed for reproducibility".

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod corpus;
pub mod relations;
pub mod scale;
pub mod vectors;
pub mod words;
pub mod zipf;

pub use corpus::CorpusGenerator;
pub use relations::{JoinWorkload, RelationSpec};
pub use scale::{scale, scaled};
pub use vectors::{clustered_matrix, uniform_matrix};
pub use words::{WordCluster, WordGenerator};
pub use zipf::Zipf;
