//! # cej-embedding
//!
//! FastText-style word/sentence embedding model substrate for the
//! context-enhanced relational join (CEJ) reproduction.
//!
//! The paper uses a FastText model (100-D, trained on Wikipedia) as the
//! context provider `E_mu`: it turns strings — possibly misspelled, inflected
//! or synonymous — into dense vectors that the relational engine can compare
//! with cosine similarity.  The engine itself never interprets the vectors;
//! this *separation of concerns* is the paper's central design principle.
//!
//! This crate rebuilds that substrate from scratch:
//!
//! * [`tokenizer`] — lower-casing, punctuation stripping, stop-word removal.
//! * [`ngram`] — character n-gram extraction with `<` / `>` boundary markers,
//!   exactly like FastText's subword features, which is what makes the model
//!   robust to misspellings and out-of-vocabulary words.
//! * [`hasher`] — FNV-1a hashing of n-grams into a fixed bucket space.
//! * [`model`] — [`FastTextModel`]: composes a word embedding as the mean of
//!   its n-gram bucket vectors; bucket vectors come from a deterministic
//!   seeded projection, optionally refined by corpus training.  Each distinct
//!   token is composed once and remembered in a bounded memo.
//! * [`train`] — a lightweight co-occurrence "retrofit" trainer that pulls
//!   words appearing in similar contexts towards each other, enough to
//!   reproduce the semantic-clustering behaviour of Table II on a synthetic
//!   synonym corpus.
//! * [`vocab`] — the vocabulary and the id ↔ string lookup table, which also
//!   implements the paper's decode operation `E⁻¹` (Section III-C) for models
//!   without a generative decoder.
//! * [`cache`] — an embedding cache with *model access accounting*: every
//!   operator-visible embedding call is counted, so tests and benchmarks can
//!   verify the quadratic-vs-linear model cost claim of the cost model
//!   exactly (Section IV-A, Figure 8).
//! * [`cost`] — an optional simulated per-call model latency, standing in for
//!   expensive deep models or paid embedding APIs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod arena;
pub mod cache;
pub mod cost;
pub mod error;
pub mod hasher;
pub mod model;
pub mod ngram;
pub mod tokenizer;
pub mod train;
pub mod vocab;

pub use cache::{CachedEmbedder, EmbeddingStats, ResolvedSlots, UNRESOLVED_SLOT};
pub use cost::ModelCostProfile;
pub use error::EmbeddingError;
pub use model::{Embedder, FastTextConfig, FastTextModel};
pub use tokenizer::Tokenizer;
pub use train::{train_on_corpus, TrainingConfig};
pub use vocab::Vocabulary;

// What [`Embedder::embed`] returns, so an implementor need not depend on
// `cej-vector` to name it.
pub use cej_vector::Vector;

/// Result alias for the embedding substrate.
pub type Result<T> = std::result::Result<T, EmbeddingError>;
