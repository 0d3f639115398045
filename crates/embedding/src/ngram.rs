//! Character n-gram extraction with word boundary markers.
//!
//! FastText represents each word as the bag of its character n-grams plus the
//! whole word, where the word is wrapped in `<` and `>` boundary markers
//! (e.g. `where` with n = 3 yields `<wh`, `whe`, `her`, `ere`, `re>` and the
//! special sequence `<where>`).  Sharing n-grams is what gives the model its
//! robustness to misspellings and out-of-vocabulary words — the property the
//! paper relies on for context-aware joins over dirty strings.
//!
//! [`ngrams`] enumerates them without allocating; everything else here is
//! built on it.

use crate::hasher::{fnv1a_extend, FNV_OFFSET};

/// Inclusive n-gram length range used for subword extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NgramRange {
    /// Minimum n-gram length.
    pub min_n: usize,
    /// Maximum n-gram length (inclusive).
    pub max_n: usize,
}

impl Default for NgramRange {
    fn default() -> Self {
        // FastText's default subword range.
        Self { min_n: 3, max_n: 6 }
    }
}

impl NgramRange {
    /// Creates a new range, clamping degenerate values to at least 1.
    pub fn new(min_n: usize, max_n: usize) -> Self {
        let min_n = min_n.max(1);
        Self {
            min_n,
            max_n: max_n.max(min_n),
        }
    }
}

/// One n-gram of a wrapped word, named by the pieces it is made of instead of
/// copied out: `<` if it starts the word, a slice of the word itself, `>` if
/// it ends it.  [`Ngram::fnv1a`] hashes those pieces in place; `to_string()`
/// spells the n-gram out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ngram<'a> {
    open: bool,
    body: &'a str,
    close: bool,
}

impl Ngram<'_> {
    /// 64-bit FNV-1a of the n-gram's bytes — the hash of its `to_string()`,
    /// without building the string.
    #[inline]
    pub fn fnv1a(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        if self.open {
            hash = fnv1a_extend(hash, b"<");
        }
        hash = fnv1a_extend(hash, self.body.as_bytes());
        if self.close {
            hash = fnv1a_extend(hash, b">");
        }
        hash
    }
}

impl std::fmt::Display for Ngram<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.open {
            f.write_str("<")?;
        }
        f.write_str(self.body)?;
        if self.close {
            f.write_str(">")?;
        }
        Ok(())
    }
}

/// Enumerates the character n-grams of `word` (with boundary markers) for
/// every length in `range`, shortest first and left to right within a length,
/// then the full wrapped word itself unless its length already lies in
/// `range` (so that frequent exact words keep a dedicated feature even when
/// longer than `max_n`, and never count twice).
///
/// This is the one definition of "the n-grams of a word": the model hashes
/// the items as they come, [`extract_ngrams`] collects them.  Nothing is
/// allocated — the wrapped word is never built; the enumerator walks the
/// character boundaries it would have.  Extraction is over Unicode scalar
/// values, not bytes, so multi-byte characters never get split.
pub fn ngrams(word: &str, range: NgramRange) -> impl Iterator<Item = Ngram<'_>> {
    let len = word.len();
    let chars = word.chars().count() + 2;
    // character boundaries of `<word>`, as byte offsets into it
    let bounds = move || {
        std::iter::once(0)
            .chain(word.char_indices().map(|(at, _)| at + 1))
            .chain([len + 1, len + 2])
    };
    let whole = (!(range.min_n..=range.max_n).contains(&chars)).then_some((0, len + 2));
    (range.min_n.max(1)..=range.max_n.min(chars))
        .flat_map(move |n| bounds().zip(bounds().skip(n)))
        .chain(whole)
        .map(move |(start, end)| Ngram {
            open: start == 0,
            body: &word[start.max(1) - 1..end.min(len + 1) - 1],
            close: end == len + 2,
        })
}

/// The n-grams of `word` as owned strings, in [`ngrams`] order.
pub fn extract_ngrams(word: &str, range: NgramRange) -> Vec<String> {
    ngrams(word, range).map(|gram| gram.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent's extraction — the wrapped word as a `Vec<char>`, a
    /// `String` per n-gram, `contains` for the whole-word rule — kept as the
    /// reference the enumerator is held to.
    fn reference_ngrams(word: &str, range: NgramRange) -> Vec<String> {
        let wrapped = format!("<{word}>");
        let chars: Vec<char> = wrapped.chars().collect();
        let mut out = Vec::new();
        for n in range.min_n..=range.max_n {
            if n > chars.len() {
                break;
            }
            for start in 0..=(chars.len() - n) {
                out.push(chars[start..start + n].iter().collect());
            }
        }
        if !out.contains(&wrapped) {
            out.push(wrapped);
        }
        out
    }

    #[test]
    fn enumerator_matches_the_reference_extraction() {
        let words = [
            "",
            "a",
            "ab",
            "abc",
            "abcd",
            "abcde",
            "abcdefg",
            "aaaa",
            "über",
            "née",
            "東京",
            "東京都庁舎",
            "pneumonoultramicroscopicsilicovolcanocon",
        ];
        for (min_n, max_n) in [(1, 1), (1, 2), (2, 3), (3, 6), (4, 4), (5, 6), (1, 50)] {
            let range = NgramRange::new(min_n, max_n);
            for word in words {
                let expected = reference_ngrams(word, range);
                assert_eq!(
                    extract_ngrams(word, range),
                    expected,
                    "{word:?} {min_n}..={max_n}"
                );
                // hashing the pieces is hashing the string
                let hashes: Vec<u64> = ngrams(word, range).map(|g| g.fnv1a()).collect();
                let expected_hashes: Vec<u64> = expected
                    .iter()
                    .map(|g| crate::hasher::fnv1a(g.as_bytes()))
                    .collect();
                assert_eq!(hashes, expected_hashes, "{word:?} {min_n}..={max_n}");
            }
        }
    }

    #[test]
    fn extracts_expected_trigrams() {
        let grams = extract_ngrams("ab", NgramRange::new(3, 3));
        // "<ab>" has chars < a b > : trigrams "<ab", "ab>", plus full "<ab>"
        assert!(grams.contains(&"<ab".to_string()));
        assert!(grams.contains(&"ab>".to_string()));
        assert!(grams.contains(&"<ab>".to_string()));
        assert_eq!(grams.len(), 3);
    }

    #[test]
    fn range_of_lengths() {
        let grams = extract_ngrams("cat", NgramRange::new(2, 3));
        // wrapped "<cat>" : 2-grams: <c ca at t> ; 3-grams: <ca cat at>
        assert!(grams.contains(&"<c".to_string()));
        assert!(grams.contains(&"at>".to_string()));
        assert!(grams.contains(&"cat".to_string()));
        assert!(grams.contains(&"<cat>".to_string()));
    }

    #[test]
    fn full_word_always_included() {
        let grams = extract_ngrams("barbecue", NgramRange::new(3, 4));
        assert!(grams.contains(&"<barbecue>".to_string()));
    }

    #[test]
    fn short_word_with_large_min_n() {
        let grams = extract_ngrams("a", NgramRange::new(5, 6));
        // only the wrapped word "<a>" survives
        assert_eq!(grams, vec!["<a>".to_string()]);
    }

    #[test]
    fn unicode_not_split_mid_character() {
        let grams = extract_ngrams("über", NgramRange::new(3, 3));
        for g in &grams {
            assert!(g.chars().count() <= 6);
            assert!(!g.is_empty());
        }
    }

    #[test]
    fn misspellings_share_most_ngrams() {
        // Jaccard overlap of the two words' n-gram sets
        let ngram_overlap = |a: &str, b: &str, range: NgramRange| {
            use std::collections::HashSet;
            let sa: HashSet<String> = extract_ngrams(a, range).into_iter().collect();
            let sb: HashSet<String> = extract_ngrams(b, range).into_iter().collect();
            sa.intersection(&sb).count() as f32 / sa.union(&sb).count() as f32
        };
        let overlap_misspelling = ngram_overlap("barbecue", "barbicue", NgramRange::default());
        let overlap_unrelated = ngram_overlap("barbecue", "database", NgramRange::default());
        assert!(overlap_misspelling > 0.1, "got {overlap_misspelling}");
        assert!(overlap_unrelated < overlap_misspelling);
    }

    #[test]
    fn degenerate_range_clamped() {
        let r = NgramRange::new(0, 0);
        assert_eq!(r.min_n, 1);
        assert_eq!(r.max_n, 1);
        let r2 = NgramRange::new(5, 2);
        assert_eq!(r2.max_n, 5);
    }

    #[test]
    fn default_range_is_fasttext_default() {
        let r = NgramRange::default();
        assert_eq!((r.min_n, r.max_n), (3, 6));
    }
}
