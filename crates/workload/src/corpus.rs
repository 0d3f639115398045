//! Training-corpus generation from word clusters.
//!
//! The embedding trainer (`cej_embedding::train_on_corpus`) only needs
//! sentences in which words of the same cluster co-occur; this generator
//! produces them, optionally mixing in cross-cluster "noise" words so the
//! model has to actually separate the clusters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::words::WordCluster;
use crate::zipf::Zipf;

/// Generates synthetic training sentences from word clusters.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    rng: StdRng,
    /// Words per generated sentence.
    pub sentence_len: usize,
    /// Probability that a sentence position is filled from a *different*
    /// cluster (noise).
    pub noise: f64,
    /// Zipf skew over clusters (frequent concepts appear more often).
    pub skew: f64,
}

impl CorpusGenerator {
    /// Creates a generator with the given seed and default shape
    /// (6-word sentences, 10 % noise, mild skew).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            sentence_len: 6,
            noise: 0.1,
            skew: 0.5,
        }
    }

    /// Sets the cross-cluster noise probability.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise.clamp(0.0, 1.0);
        self
    }

    /// Generates `sentences` sentences over the given clusters.
    ///
    /// # Panics
    /// Panics when `clusters` is empty.
    pub fn generate(&mut self, clusters: &[WordCluster], sentences: usize) -> Vec<String> {
        assert!(!clusters.is_empty(), "need at least one cluster");
        let zipf = Zipf::new(clusters.len(), self.skew);
        let mut out = Vec::with_capacity(sentences);
        for _ in 0..sentences {
            let cluster_idx = zipf.sample(&mut self.rng);
            let mut words = Vec::with_capacity(self.sentence_len);
            for _ in 0..self.sentence_len {
                let source = if self.rng.gen_bool(self.noise) && clusters.len() > 1 {
                    // noise word from some other cluster
                    let mut other = self.rng.gen_range(0..clusters.len());
                    if other == cluster_idx {
                        other = (other + 1) % clusters.len();
                    }
                    &clusters[other]
                } else {
                    &clusters[cluster_idx]
                };
                let v = self.rng.gen_range(0..source.variants.len());
                words.push(source.variants[v].clone());
            }
            out.push(words.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::WordGenerator;

    #[test]
    fn generates_requested_number_of_sentences() {
        let clusters = WordGenerator::new(1).clusters(6, 4);
        let corpus = CorpusGenerator::new(2).generate(&clusters, 50);
        assert_eq!(corpus.len(), 50);
        assert!(corpus.iter().all(|s| s.split_whitespace().count() == 6));
    }

    #[test]
    fn deterministic_given_seed() {
        let clusters = WordGenerator::new(1).clusters(4, 4);
        let a = CorpusGenerator::new(9).generate(&clusters, 10);
        let b = CorpusGenerator::new(9).generate(&clusters, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn sentences_are_mostly_single_cluster() {
        let clusters = WordGenerator::new(1).clusters(8, 4);
        let corpus = CorpusGenerator::new(3)
            .with_noise(0.0)
            .generate(&clusters, 20);
        for sentence in &corpus {
            let words: Vec<&str> = sentence.split_whitespace().collect();
            // with zero noise every word must come from one cluster
            let home = clusters.iter().position(|c| c.contains(words[0])).unwrap();
            assert!(
                words.iter().all(|w| clusters[home].contains(w)),
                "mixed sentence: {sentence}"
            );
        }
    }

    #[test]
    fn builders_clamp_values() {
        let g = CorpusGenerator::new(1).with_noise(5.0);
        assert_eq!(g.noise, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_clusters_panic() {
        CorpusGenerator::new(1).generate(&[], 1);
    }
}
