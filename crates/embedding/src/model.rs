//! The FastText-style embedding model and the [`Embedder`] abstraction.
//!
//! [`FastTextModel`] reproduces the *inference-time* structure of FastText:
//! a word's embedding is the mean of the vectors of its hashed character
//! n-grams (plus the word itself), optionally overridden by a trained
//! per-word vector for in-vocabulary words.  Bucket vectors are generated
//! deterministically from the bucket id and the model seed, so the model
//! needs no giant parameter table and is bit-for-bit reproducible — the same
//! role the fixed RNG seed plays in the paper's experiments.
//!
//! The join operators never talk to [`FastTextModel`] directly; they use the
//! [`Embedder`] trait, which is all the separation-of-concerns contract the
//! paper requires from a model: *strings in, fixed-dimension vectors out*.

use std::collections::HashMap;

use cej_vector::{Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::error::EmbeddingError;
use crate::hasher::{bucket_of, SplitMix64};
use crate::ngram::{extract_ngrams, NgramRange};
use crate::tokenizer::Tokenizer;
use crate::vocab::Vocabulary;
use crate::Result;

/// The model abstraction used by every context-enhanced operator.
///
/// Implementors must be cheap to share across threads (`Send + Sync`) because
/// the parallel join operators embed tuples from worker threads.
pub trait Embedder: Send + Sync {
    /// Dimensionality of produced embeddings.
    fn dim(&self) -> usize;

    /// Embeds a single string into a `dim()`-dimensional vector.
    fn embed(&self, input: &str) -> Vector;

    /// Embeds a batch of strings into a row-per-input matrix.
    ///
    /// The default implementation fans the inputs out over the shared
    /// worker pool ([`cej_exec::ExecPool::global`], sized by `CEJ_THREADS`)
    /// and reassembles rows in input order, so the result is identical to
    /// the serial loop for every thread count.  Models with real batched
    /// inference can override it.
    fn embed_batch(&self, inputs: &[String]) -> Matrix {
        embed_batch_with(self.dim(), inputs, |input| self.embed(input))
    }
}

/// The shared batch-embedding fan-out: maps `embed` over `inputs` on the
/// global worker pool and reassembles one matrix row per input, in input
/// order.  Used by the [`Embedder::embed_batch`] default and by wrappers
/// (e.g. the counting cache) whose per-input closure differs.
pub(crate) fn embed_batch_with<S, F>(dim: usize, inputs: &[S], embed: F) -> Matrix
where
    S: Sync,
    F: Fn(&S) -> Vector + Sync,
{
    if inputs.is_empty() {
        return Matrix::zeros(0, dim);
    }
    let rows = cej_exec::ExecPool::global().parallel_map(inputs, embed);
    let mut m = Matrix::zeros(0, 0);
    for v in rows {
        m.push_row(v.as_slice())
            .expect("embedder produced inconsistent dimensions");
    }
    m
}

/// Configuration of [`FastTextModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FastTextConfig {
    /// Embedding dimensionality (the paper uses 100).
    pub dim: usize,
    /// Number of hash buckets shared by all n-grams.
    pub buckets: usize,
    /// Minimum n-gram length.
    pub min_n: usize,
    /// Maximum n-gram length.
    pub max_n: usize,
    /// Seed for the deterministic bucket-vector generator.
    pub seed: u64,
    /// Whether produced embeddings are L2-normalised.
    pub normalize: bool,
}

impl Default for FastTextConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            buckets: 200_000,
            min_n: 3,
            max_n: 6,
            seed: 42,
            normalize: true,
        }
    }
}

impl FastTextConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`EmbeddingError::InvalidConfig`] for zero dimension, zero
    /// buckets, or an inverted n-gram range.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(EmbeddingError::InvalidConfig("dim must be > 0".into()));
        }
        if self.buckets == 0 {
            return Err(EmbeddingError::InvalidConfig("buckets must be > 0".into()));
        }
        if self.min_n == 0 || self.max_n < self.min_n {
            return Err(EmbeddingError::InvalidConfig(format!(
                "invalid n-gram range {}..={}",
                self.min_n, self.max_n
            )));
        }
        Ok(())
    }

    /// The n-gram range as an [`NgramRange`].
    pub fn ngram_range(&self) -> NgramRange {
        NgramRange::new(self.min_n, self.max_n)
    }
}

/// FastText-style subword hashing embedding model.
#[derive(Debug, Clone)]
pub struct FastTextModel {
    config: FastTextConfig,
    tokenizer: Tokenizer,
    /// Trained per-word vectors that override the subword composition for
    /// in-vocabulary words (populated by [`crate::train::train_on_corpus`]).
    word_vectors: HashMap<String, Vector>,
    /// Vocabulary observed during training; also the `E⁻¹` lookup table.
    vocab: Vocabulary,
}

impl FastTextModel {
    /// Creates an untrained model from a configuration.
    ///
    /// # Errors
    /// Returns [`EmbeddingError::InvalidConfig`] for invalid configurations.
    pub fn new(config: FastTextConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            tokenizer: Tokenizer::new(true),
            word_vectors: HashMap::new(),
            vocab: Vocabulary::new(),
        })
    }

    /// Creates a model with the paper's default configuration (100-D).
    pub fn with_dim(dim: usize) -> Result<Self> {
        Self::new(FastTextConfig {
            dim,
            ..FastTextConfig::default()
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &FastTextConfig {
        &self.config
    }

    /// The training vocabulary (empty for untrained models).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Replaces the tokenizer (e.g. to keep stop words).
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Number of words with trained (overridden) vectors.
    pub fn trained_words(&self) -> usize {
        self.word_vectors.len()
    }

    /// Deterministically generates the vector of a hash bucket.
    fn bucket_vector(&self, bucket: usize) -> Vector {
        let mut rng = SplitMix64::new(self.config.seed ^ (bucket as u64).wrapping_mul(0x9E3779B9));
        let scale = 1.0 / self.config.dim as f32;
        let data = (0..self.config.dim)
            .map(|_| rng.next_symmetric(scale))
            .collect();
        Vector::new(data)
    }

    /// Composes the subword embedding of a single (already normalised) token.
    fn subword_embedding(&self, token: &str) -> Vector {
        let grams = extract_ngrams(token, self.config.ngram_range());
        let mut acc = Vector::zeros(self.config.dim);
        for gram in &grams {
            let bucket = bucket_of(gram, self.config.buckets);
            acc.add_assign(&self.bucket_vector(bucket))
                .expect("bucket vectors share dim");
        }
        if !grams.is_empty() {
            acc.scale(1.0 / grams.len() as f32);
        }
        acc
    }

    /// Embedding of a single token, preferring a trained vector when present.
    fn token_embedding(&self, token: &str) -> Vector {
        if let Some(v) = self.word_vectors.get(token) {
            return v.clone();
        }
        self.subword_embedding(token)
    }

    /// Installs (or overwrites) a trained vector for `word` and interns the
    /// word into the vocabulary / decode table.  Used by the trainer.
    pub(crate) fn set_word_vector(&mut self, word: &str, vector: Vector) {
        self.vocab.add(word);
        self.word_vectors.insert(word.to_string(), vector);
    }

    /// Returns the trained vector of `word`, if any.
    pub fn word_vector(&self, word: &str) -> Option<&Vector> {
        self.word_vectors.get(word)
    }

    /// Decodes an embedding back to the `k` nearest vocabulary words
    /// (the lookup-table realisation of `E⁻¹` from Section III-C).
    ///
    /// Returns `(word, cosine_similarity)` pairs, best first.  Untrained
    /// models have an empty vocabulary and therefore return an empty list.
    pub fn decode_nearest(&self, embedding: &Vector, k: usize) -> Vec<(String, f32)> {
        let mut scored: Vec<(String, f32)> = self
            .vocab
            .iter()
            .filter_map(|(_, word)| {
                let v = self.token_embedding(word);
                let sim = embedding.cosine_similarity(&v).ok()?;
                Some((word.to_string(), sim))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Convenience wrapper: nearest vocabulary words for a query string,
    /// excluding the query itself — this regenerates Table II rows.
    pub fn nearest_words(&self, query: &str, k: usize) -> Vec<(String, f32)> {
        let normalized_query = self.tokenizer.normalize_word(query);
        let emb = self.embed(query);
        self.decode_nearest(&emb, k + 1)
            .into_iter()
            .filter(|(w, _)| *w != normalized_query)
            .take(k)
            .collect()
    }
}

impl Embedder for FastTextModel {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn embed(&self, input: &str) -> Vector {
        let tokens = self.tokenizer.tokenize(input);
        let mut out = if tokens.is_empty() {
            // Degenerate inputs (empty strings, pure stop words) embed to the
            // zero vector, which never satisfies a positive similarity
            // threshold downstream.
            Vector::zeros(self.config.dim)
        } else {
            let parts: Vec<Vector> = tokens.iter().map(|t| self.token_embedding(t)).collect();
            Vector::mean(&parts).expect("token embeddings share dimensionality")
        };
        if self.config.normalize {
            out.normalize();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 32,
            buckets: 5_000,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(FastTextConfig {
            dim: 0,
            ..FastTextConfig::default()
        }
        .validate()
        .is_err());
        assert!(FastTextConfig {
            buckets: 0,
            ..FastTextConfig::default()
        }
        .validate()
        .is_err());
        assert!(FastTextConfig {
            min_n: 4,
            max_n: 3,
            ..FastTextConfig::default()
        }
        .validate()
        .is_err());
        assert!(FastTextConfig::default().validate().is_ok());
    }

    #[test]
    fn embeddings_have_configured_dim() {
        let m = model();
        assert_eq!(m.dim(), 32);
        assert_eq!(m.embed("barbecue").dim(), 32);
    }

    #[test]
    fn embedding_is_deterministic() {
        let m1 = model();
        let m2 = model();
        assert_eq!(m1.embed("database systems"), m2.embed("database systems"));
    }

    #[test]
    fn different_seeds_give_different_embeddings() {
        let a = FastTextModel::new(FastTextConfig {
            dim: 32,
            seed: 1,
            ..FastTextConfig::default()
        })
        .unwrap();
        let b = FastTextModel::new(FastTextConfig {
            dim: 32,
            seed: 2,
            ..FastTextConfig::default()
        })
        .unwrap();
        assert_ne!(a.embed("dbms"), b.embed("dbms"));
    }

    #[test]
    fn normalized_embeddings_have_unit_norm() {
        let m = model();
        let v = m.embed("postgres");
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_input_embeds_to_zero() {
        let m = model();
        let v = m.embed("");
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
        // stop words only
        let v2 = m.embed("the of and");
        assert!(v2.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn misspelling_is_closer_than_unrelated_word() {
        let m = model();
        let base = m.embed("barbecue");
        let misspelled = m.embed("barbicue");
        let unrelated = m.embed("spreadsheet");
        let sim_typo = base.cosine_similarity(&misspelled).unwrap();
        let sim_unrelated = base.cosine_similarity(&unrelated).unwrap();
        assert!(
            sim_typo > sim_unrelated,
            "typo sim {sim_typo} should exceed unrelated sim {sim_unrelated}"
        );
    }

    #[test]
    fn plural_shares_subwords_with_singular() {
        let m = model();
        let sim = m
            .embed("barbecue")
            .cosine_similarity(&m.embed("barbecues"))
            .unwrap();
        assert!(sim > 0.5);
    }

    #[test]
    fn multi_word_text_is_mean_of_tokens() {
        let m = FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            normalize: false,
            ..FastTextConfig::default()
        })
        .unwrap();
        let a = m.embed("alpha");
        let b = m.embed("beta");
        let combined = m.embed("alpha beta");
        let mean = Vector::mean(&[a, b]).unwrap();
        for (x, y) in combined.as_slice().iter().zip(mean.as_slice().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn embed_batch_matches_individual() {
        let m = model();
        let inputs = vec![
            "dbms".to_string(),
            "postgres".to_string(),
            "grill".to_string(),
        ];
        let batch = m.embed_batch(&inputs);
        assert_eq!(batch.rows(), 3);
        for (i, s) in inputs.iter().enumerate() {
            assert_eq!(batch.row(i).unwrap(), m.embed(s).as_slice());
        }
    }

    #[test]
    fn embed_batch_empty_input() {
        let m = model();
        let batch = m.embed_batch(&[]);
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.cols(), 32);
    }

    #[test]
    fn trained_vector_overrides_subword_composition() {
        let mut m = model();
        let custom = Vector::splat(32, 0.5);
        m.set_word_vector("dbms", custom.clone());
        assert_eq!(m.word_vector("dbms"), Some(&custom));
        assert_eq!(m.trained_words(), 1);
        let emb = m.embed("dbms");
        // normalised version of the custom vector
        assert!((emb.norm() - 1.0).abs() < 1e-5);
        assert!(emb.cosine_similarity(&custom).unwrap() > 0.999);
    }

    #[test]
    fn decode_nearest_finds_trained_words() {
        let mut m = model();
        m.set_word_vector("grill", Vector::splat(32, 0.3));
        m.set_word_vector("barbecue", Vector::splat(32, 0.31));
        let query = m.embed("grill");
        let nearest = m.decode_nearest(&query, 2);
        assert_eq!(nearest.len(), 2);
        assert!(nearest.iter().any(|(w, _)| w == "grill"));
    }

    #[test]
    fn nearest_words_excludes_query() {
        let mut m = model();
        m.set_word_vector("grill", Vector::splat(32, 0.3));
        m.set_word_vector("barbecue", Vector::splat(32, 0.29));
        let out = m.nearest_words("grill", 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, "barbecue");
    }

    #[test]
    fn untrained_model_decodes_to_empty() {
        let m = model();
        assert!(m.decode_nearest(&Vector::zeros(32), 5).is_empty());
    }
}
