//! Vocabulary: the interned words a model was trained on.
//!
//! The paper's algebra defines a decode operation `E⁻¹_µ(E_µ(R)) = R`
//! (Section III-C).  FastText has no generative decoder, so the paper
//! proposes "a lookup table mechanism \[that\] can maintain the
//! object-embedding mapping via unique IDs".  [`Vocabulary`] is that table:
//! it interns strings, hands out stable ids and tracks frequencies, and
//! `FastTextModel::decode_nearest` decodes an embedding by walking it.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// An interned vocabulary with stable ids and occurrence counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    word_to_id: HashMap<String, usize>,
    id_to_word: Vec<String>,
    counts: Vec<u64>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word`, returning its id and incrementing its count.
    pub fn add(&mut self, word: &str) -> usize {
        if let Some(&id) = self.word_to_id.get(word) {
            self.counts[id] += 1;
            return id;
        }
        let id = self.id_to_word.len();
        self.word_to_id.insert(word.to_string(), id);
        self.id_to_word.push(word.to_string());
        self.counts.push(1);
        id
    }

    /// Occurrence count of an id (0 when unknown).
    pub fn count(&self, id: usize) -> u64 {
        self.counts.get(id).copied().unwrap_or(0)
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// `true` when the vocabulary holds no words.
    pub fn is_empty(&self) -> bool {
        self.id_to_word.is_empty()
    }

    /// Iterates over `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.id_to_word
            .iter()
            .enumerate()
            .map(|(i, w)| (i, w.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_returns_stable_ids() {
        let mut v = Vocabulary::new();
        assert!(v.is_empty());
        let a = v.add("dbms");
        let b = v.add("postgres");
        let a2 = v.add("dbms");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn counts_track_occurrences() {
        let mut v = Vocabulary::new();
        let x = v.add("x");
        v.add("x");
        let y = v.add("y");
        assert_eq!(v.count(x), 2);
        assert_eq!(v.count(y), 1);
        assert_eq!(v.count(99), 0);
    }

    #[test]
    fn iter_in_id_order() {
        let mut v = Vocabulary::new();
        v.add("a");
        v.add("b");
        let collected: Vec<(usize, &str)> = v.iter().collect();
        assert_eq!(collected, vec![(0, "a"), (1, "b")]);
    }
}
