//! The FastText-style embedding model and the [`Embedder`] abstraction.
//!
//! [`FastTextModel`] reproduces the *inference-time* structure of FastText:
//! a word's embedding is the mean of the vectors of its hashed character
//! n-grams (plus the word itself), optionally overridden by a trained
//! per-word vector for in-vocabulary words.  Bucket vectors are generated
//! deterministically from the bucket id and the model seed, not stored, so
//! the model needs no giant parameter table and is bit-for-bit reproducible
//! — the same role the fixed RNG seed plays in the paper's experiments.
//!
//! Generating is the expensive part (one pseudo-random stream of `dim`
//! floats per n-gram, some twenty n-grams per word), so the model pays it
//! **once per token**:
//!
//! * *First touch.*  The token's n-grams are enumerated in place
//!   ([`crate::ngram::ngrams`]), each is hashed to its bucket, and the
//!   bucket's stream is added straight into the token's accumulator — no
//!   string per n-gram, no vector per bucket.
//! * *Every later touch.*  The composed vector is remembered in a token memo
//!   (`token → row` over the same chunked arena the embedding cache uses), so
//!   embedding a string of known words is one pass over its characters plus
//!   one vector add per token.  Trained vectors are looked up first and
//!   always win.
//!
//! The memo is bounded by a constant (`TOKEN_MEMO_ROWS` in `arena.rs`:
//! 65 536 tokens, at most `65 536 × dim × 4` bytes of vectors): once full it
//! stops admitting and tokens it does not hold are composed afresh on every
//! call — slower, same bits.  Nothing is ever evicted, a clone starts with an
//! empty memo, and a memo hit is invisible to the model-call accounting: one
//! `embed` is one model call whatever it remembered.
//!
//! The join operators never talk to [`FastTextModel`] directly; they use the
//! [`Embedder`] trait, which is all the separation-of-concerns contract the
//! paper requires from a model: *strings in, fixed-dimension vectors out*.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use cej_vector::kernels::axpy;
use cej_vector::{Matrix, Vector};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::arena::{Arena, TOKEN_MEMO_ROWS};
use crate::error::EmbeddingError;
use crate::hasher::{bucket_of_hash, SplitMix64};
use crate::ngram::{ngrams, NgramRange};
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

/// The composed vector of every distinct token the model has embedded so
/// far, up to [`TOKEN_MEMO_ROWS`] of them.
struct TokenMemo {
    slots: HashMap<String, u32>,
    arena: Arena,
}

impl TokenMemo {
    fn new(dim: usize) -> Self {
        Self {
            slots: HashMap::new(),
            arena: Arena::new(dim),
        }
    }

    fn row(&self, token: &str) -> Option<&[f32]> {
        self.slots.get(token).map(|&slot| self.arena.row(slot))
    }

    fn is_full(&self) -> bool {
        self.arena.rows() >= TOKEN_MEMO_ROWS
    }

    /// Remembers `row` for `token` unless the memo is full or another caller
    /// got there first (it composed the same bits).
    fn admit(&mut self, token: String, row: &[f32]) {
        if self.is_full() {
            return;
        }
        if let Entry::Vacant(vacant) = self.slots.entry(token) {
            let slot = self.arena.reserve();
            self.arena.row_mut(slot).copy_from_slice(row);
            vacant.insert(slot);
        }
    }
}

/// FastText-style subword hashing embedding model.
pub struct FastTextModel {
    config: FastTextConfig,
    tokenizer: Tokenizer,
    /// Trained per-word vectors that override the subword composition for
    /// in-vocabulary words (populated by [`crate::train::train_on_corpus`]).
    word_vectors: HashMap<String, Vector>,
    /// Vocabulary observed during training; also the `E⁻¹` lookup table.
    vocab: Vocabulary,
    /// Subword compositions already paid for.  Consulted after
    /// `word_vectors`, so a word trained later still wins.
    memo: RwLock<TokenMemo>,
}

impl Clone for FastTextModel {
    /// The clone computes the same embeddings and starts with an empty memo.
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            tokenizer: self.tokenizer.clone(),
            word_vectors: self.word_vectors.clone(),
            vocab: self.vocab.clone(),
            memo: RwLock::new(TokenMemo::new(self.config.dim)),
        }
    }
}

impl std::fmt::Debug for FastTextModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastTextModel")
            .field("config", &self.config)
            .field("tokenizer", &self.tokenizer)
            .field("trained_words", &self.trained_words())
            .field("memoised_tokens", &self.memoised_tokens())
            .finish_non_exhaustive()
    }
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
            memo: RwLock::new(TokenMemo::new(config.dim)),
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

    /// Number of words with trained (overridden) vectors.
    pub fn trained_words(&self) -> usize {
        self.word_vectors.len()
    }

    /// Number of distinct tokens whose subword composition the model
    /// currently remembers (never more than the memo's fixed bound).
    pub fn memoised_tokens(&self) -> usize {
        self.memo.read().arena.rows()
    }

    /// The deterministic component stream of a hash bucket: its first `dim`
    /// draws, scaled to `±1/dim`, are the bucket's vector.
    fn bucket_stream(&self, bucket: usize) -> SplitMix64 {
        SplitMix64::new(self.config.seed ^ (bucket as u64).wrapping_mul(0x9E3779B9))
    }

    /// Composes the subword embedding of a single (already normalised) token
    /// into `acc`: the mean of its n-grams' bucket vectors, each generated
    /// straight into the accumulator.
    fn compose_subword(&self, token: &str, acc: &mut [f32]) {
        acc.fill(0.0);
        let scale = 1.0 / self.config.dim as f32;
        let mut grams = 0usize;
        ngrams(token, self.config.ngram_range()).for_each(|gram| {
            let mut stream = self.bucket_stream(bucket_of_hash(gram.fnv1a(), self.config.buckets));
            for a in acc.iter_mut() {
                *a += stream.next_symmetric(scale);
            }
            grams += 1;
        });
        // never zero: the whole wrapped word is always among them
        let factor = 1.0 / grams as f32;
        for a in acc.iter_mut() {
            *a *= factor;
        }
    }

    /// Embedding of a single token, preferring a trained vector when present.
    fn token_embedding(&self, token: &str) -> Vector {
        if let Some(v) = self.word_vectors.get(token) {
            return v.clone();
        }
        let mut acc = Vector::zeros(self.config.dim);
        self.compose_subword(token, acc.as_mut_slice());
        acc
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
        let dim = self.config.dim;
        // Degenerate inputs (empty strings, pure stop words) keep the zero
        // vector, which never satisfies a positive similarity threshold
        // downstream.
        let mut out = Vector::zeros(dim);
        let mut tokens = 0usize;
        // first touches of this call: the tokens and, back to back, their rows
        let mut fresh_tokens: Vec<String> = Vec::new();
        let mut fresh_rows: Vec<f32> = Vec::new();
        let held = self.memo.read();
        let admitting = !held.is_full();
        let mut memo = Some(held);
        self.tokenizer.for_each_token(input, |token| {
            tokens += 1;
            let acc = out.as_mut_slice();
            if let Some(trained) = self.word_vectors.get(token) {
                // `acc += 1.0 * row` is `acc += row` to the bit
                axpy(1.0, trained.as_slice(), acc);
            } else if let Some(row) = memo.as_ref().and_then(|memo| memo.row(token)) {
                axpy(1.0, row, acc);
            } else {
                // compose with the lock released: writers need not wait for it
                memo = None;
                let start = if admitting { fresh_rows.len() } else { 0 };
                fresh_rows.resize(start + dim, 0.0);
                self.compose_subword(token, &mut fresh_rows[start..]);
                axpy(1.0, &fresh_rows[start..], acc);
                if admitting {
                    fresh_tokens.push(token.to_string());
                }
                memo = Some(self.memo.read());
            }
        });
        drop(memo);
        if !fresh_tokens.is_empty() {
            // a racing first touch composed the same bits; whoever comes
            // second finds the slot taken and drops its copy
            let mut memo = self.memo.write();
            for (token, row) in fresh_tokens.into_iter().zip(fresh_rows.chunks_exact(dim)) {
                memo.admit(token, row);
            }
        }
        if tokens > 0 {
            out.scale(1.0 / tokens as f32);
        }
        if self.config.normalize {
            out.normalize();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::bucket_of;
    use crate::ngram::extract_ngrams;

    fn model() -> FastTextModel {
        FastTextModel::new(FastTextConfig {
            dim: 32,
            buckets: 5_000,
            ..FastTextConfig::default()
        })
        .unwrap()
    }

    /// The parent's composition, kept as the reference the fused path is
    /// held to: a `String` per n-gram, a `Vector` per bucket, `add_assign`,
    /// then one `scale`.
    fn reference_subword_embedding(m: &FastTextModel, token: &str) -> Vector {
        let bucket_vector = |bucket: usize| {
            let mut rng = m.bucket_stream(bucket);
            let scale = 1.0 / m.config.dim as f32;
            Vector::new(
                (0..m.config.dim)
                    .map(|_| rng.next_symmetric(scale))
                    .collect(),
            )
        };
        let grams = extract_ngrams(token, m.config.ngram_range());
        let mut acc = Vector::zeros(m.config.dim);
        for gram in &grams {
            acc.add_assign(&bucket_vector(bucket_of(gram, m.config.buckets)))
                .unwrap();
        }
        if !grams.is_empty() {
            acc.scale(1.0 / grams.len() as f32);
        }
        acc
    }

    /// The parent's `embed`: tokens into a `Vec<String>`, a `Vector` per
    /// token, `Vector::mean`.
    fn reference_embed(m: &FastTextModel, input: &str) -> Vector {
        let parts: Vec<Vector> = m
            .tokenizer
            .tokenize(input)
            .iter()
            .map(|t| match m.word_vectors.get(t) {
                Some(trained) => trained.clone(),
                None => reference_subword_embedding(m, t),
            })
            .collect();
        let mut out = Vector::mean(&parts).unwrap_or_else(|_| Vector::zeros(m.config.dim));
        if m.config.normalize {
            out.normalize();
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// FNV-1a over the little-endian bit patterns: how the parent's values
    /// are pinned below.
    fn fingerprint(v: &[f32]) -> u64 {
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
        crate::hasher::fnv1a(&bytes)
    }

    const WHOLE_STRINGS: [&str; 5] = [
        "",
        "the of and",
        "grill grill grill bbq grill",
        "context enhanced relational joins embed dirty strings using fasttext subword vectors quickly",
        "Zürich café 東京 data-base_system/engine",
    ];

    #[test]
    fn fused_composition_is_bit_identical_to_the_reference() {
        let tokens = [
            "",
            "a",
            "ab",
            "abc",
            "abcd",
            "abcde",
            "abcdef",
            "abcdefg",
            "über",
            "née",
            "東京",
            "東京都庁舎",
            "pneumonoultramicroscopicsilicovolcanocon",
        ];
        assert_eq!(tokens.last().unwrap().chars().count(), 40);
        for dim in [7, 32, 64, 100] {
            for buckets in [13, 5_000, 200_000] {
                for (min_n, max_n) in [(1, 2), (3, 6), (4, 4)] {
                    let m = FastTextModel::new(FastTextConfig {
                        dim,
                        buckets,
                        min_n,
                        max_n,
                        ..FastTextConfig::default()
                    })
                    .unwrap();
                    for token in tokens {
                        // a dirty accumulator: composing must not depend on it
                        let mut fused = vec![f32::NAN; dim];
                        m.compose_subword(token, &mut fused);
                        let expected = reference_subword_embedding(&m, token);
                        assert_eq!(
                            bits(&fused),
                            bits(expected.as_slice()),
                            "token {token:?} dim {dim} buckets {buckets} n {min_n}..={max_n}"
                        );
                        assert_eq!(bits(m.token_embedding(token).as_slice()), bits(&fused));
                    }
                }
            }
        }
    }

    #[test]
    fn whole_strings_embed_to_the_parents_bits() {
        // fingerprints of `embed` at the parent commit (PR 16), same strings
        let pinned: [(FastTextConfig, [u64; 5]); 3] = [
            (
                FastTextConfig::default(),
                [
                    0x2c1b93daafb34265,
                    0x2c1b93daafb34265,
                    0xa55e2fd9b572a205,
                    0xb578c7ef8a21cf6e,
                    0x28099941666eb911,
                ],
            ),
            (
                FastTextConfig {
                    dim: 64,
                    ..FastTextConfig::default()
                },
                [
                    0xd80ac658736bb725,
                    0xd80ac658736bb725,
                    0xe6edea08f5cdb75f,
                    0x0ff07b0ebe0c6be2,
                    0x83f881428ff032c9,
                ],
            ),
            (
                FastTextConfig {
                    dim: 7,
                    buckets: 13,
                    min_n: 1,
                    max_n: 2,
                    seed: 7,
                    normalize: false,
                },
                [
                    0x17d9c15239d081d5,
                    0x17d9c15239d081d5,
                    0x775d1ff3edc93e05,
                    0x5b0bfbfd5415578d,
                    0xcef81945abae4f30,
                ],
            ),
        ];
        let inputs: Vec<String> = WHOLE_STRINGS.iter().map(|s| s.to_string()).collect();
        for (config, fingerprints) in pinned {
            let m = FastTextModel::new(config).unwrap();
            // cold (every token composed), warm (every token remembered), batch
            let cold: Vec<Vector> = inputs.iter().map(|s| m.embed(s)).collect();
            let warm: Vec<Vector> = inputs.iter().map(|s| m.embed(s)).collect();
            let batch = m.embed_batch(&inputs);
            for (i, input) in inputs.iter().enumerate() {
                let expected = reference_embed(&m, input);
                assert_eq!(bits(cold[i].as_slice()), bits(expected.as_slice()));
                assert_eq!(bits(warm[i].as_slice()), bits(expected.as_slice()));
                assert_eq!(bits(batch.row(i).unwrap()), bits(expected.as_slice()));
                assert_eq!(
                    fingerprint(cold[i].as_slice()),
                    fingerprints[i],
                    "{input:?} at dim {}",
                    config.dim
                );
            }
        }
    }

    #[test]
    fn memo_holds_one_row_per_distinct_composed_token() {
        let m = model();
        assert_eq!(m.memoised_tokens(), 0);
        let first = m.embed("grill grill bbq the grill");
        assert_eq!(m.memoised_tokens(), 2, "stop words and repeats add nothing");
        let second = m.embed("grill grill bbq the grill");
        assert_eq!(bits(first.as_slice()), bits(second.as_slice()));
        assert_eq!(m.memoised_tokens(), 2);
        // a clone computes the same bits and starts empty
        let copy = m.clone();
        assert_eq!(copy.memoised_tokens(), 0);
        assert_eq!(
            bits(copy.embed("grill bbq").as_slice()),
            bits(m.embed("grill bbq").as_slice())
        );
        assert_eq!(copy.memoised_tokens(), 2);
    }

    #[test]
    fn words_trained_after_the_memo_is_warm_still_override() {
        let mut m = model();
        let corpus: Vec<String> = (0..6)
            .flat_map(|_| {
                [
                    "barbecue grilling bbq cookout smoker".to_string(),
                    "dbms rdbms postgresql sqlite database".to_string(),
                ]
            })
            .collect();
        let untrained = m.embed("barbecue sqlite");
        assert_eq!(m.memoised_tokens(), 2);
        // the trainer embeds every corpus word first (warming the memo), then
        // installs trained vectors for them
        let installed =
            crate::train::train_on_corpus(&mut m, &corpus, &Default::default()).unwrap();
        assert_eq!(installed, 10);
        assert_eq!(m.memoised_tokens(), 10);
        let trained = m.embed("barbecue sqlite");
        assert_ne!(bits(trained.as_slice()), bits(untrained.as_slice()));
        assert_eq!(
            bits(trained.as_slice()),
            bits(reference_embed(&m, "barbecue sqlite").as_slice())
        );
        // a fresh model given the same trained vectors agrees: the stale memo
        // rows are never read
        let mut fresh = model();
        for word in ["barbecue", "sqlite"] {
            fresh.set_word_vector(word, m.word_vector(word).unwrap().clone());
        }
        assert_eq!(
            bits(fresh.embed("barbecue sqlite").as_slice()),
            bits(trained.as_slice())
        );
    }

    #[test]
    fn a_full_memo_keeps_answering_without_growing() {
        let m = FastTextModel::new(FastTextConfig {
            dim: 7,
            buckets: 13,
            ..FastTextConfig::default()
        })
        .unwrap();
        // fill to the bound, eight new tokens per string; the last string
        // straddles it
        let mut next = 0usize;
        while m.memoised_tokens() < TOKEN_MEMO_ROWS {
            let text: Vec<String> = (next..next + 7).map(|i| format!("w{i}")).collect();
            next += 7;
            m.embed(&text.join(" "));
        }
        assert_eq!(m.memoised_tokens(), TOKEN_MEMO_ROWS);
        assert!(next > TOKEN_MEMO_ROWS, "the bound fell inside a string");
        // novel tokens, tokens that were refused, and remembered ones, mixed
        let text = format!("w0 novel{next} w{} w1 novel{next} unseen", next - 1);
        let expected = reference_embed(&m, &text);
        for _ in 0..2 {
            assert_eq!(bits(m.embed(&text).as_slice()), bits(expected.as_slice()));
            assert_eq!(m.memoised_tokens(), TOKEN_MEMO_ROWS);
        }
    }

    #[test]
    fn concurrent_first_touch_agrees_and_leaves_one_row_per_token() {
        let m = model();
        let strings: Vec<String> = (0..200)
            .map(|i| format!("tok{} tok{} shared tok{}", i % 50, (i * 7) % 50, i % 3))
            .collect();
        let start = std::sync::Barrier::new(4);
        let results: Vec<Vec<Vector>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        strings.iter().map(|s| m.embed(s)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(m.memoised_tokens(), 51, "tok0..tok49 and `shared`");
        let reference = model();
        for (i, s) in strings.iter().enumerate() {
            let expected = reference_embed(&reference, s);
            for thread in &results {
                assert_eq!(bits(thread[i].as_slice()), bits(expected.as_slice()));
            }
        }
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
