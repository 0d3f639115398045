//! String normalisation and tokenisation.
//!
//! The paper's dataset preparation cleans the Wikipedia corpus of stop words
//! before training the FastText model (Section VI-A).  The tokenizer here
//! performs the equivalent normalisation for both training sentences and the
//! strings flowing through the join: lower-casing, punctuation stripping
//! (letters and digits are kept), splitting on whitespace and `-` `_` `/`,
//! and optional stop-word removal.
//!
//! [`Tokenizer::for_each_token`] is the one implementation: it lends each
//! token to a visitor from a reused buffer.  [`Tokenizer::tokenize`] collects
//! what it visits.

use std::collections::HashSet;

/// A small English stop-word list; enough to mirror the paper's
/// "cleaned of stopwords" preprocessing on synthetic corpora.
pub const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is", "it",
    "its", "of", "on", "or", "that", "the", "to", "was", "were", "will", "with",
];

/// Tokenizer over [`DEFAULT_STOPWORDS`].
#[derive(Debug, Clone)]
pub struct Tokenizer {
    remove_stopwords: bool,
    stopwords: HashSet<String>,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new(true)
    }
}

impl Tokenizer {
    /// Creates a tokenizer; `remove_stopwords` controls stop-word filtering.
    pub fn new(remove_stopwords: bool) -> Self {
        Self {
            remove_stopwords,
            stopwords: DEFAULT_STOPWORDS.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Normalises a single word: lower-case, keep only alphanumeric characters.
    pub fn normalize_word(&self, word: &str) -> String {
        let mut out = String::new();
        normalize_into(word, &mut out);
        out
    }

    /// Calls `visit` with each normalised token of `text`, in order — the
    /// visitor form of [`Tokenizer::tokenize`].  Tokens are lent from one
    /// buffer that is reused across the call, so nothing is allocated per
    /// token; the model embeds through this.
    pub fn for_each_token(&self, text: &str, mut visit: impl FnMut(&str)) {
        let mut token = String::new();
        for word in text.split(|c: char| c.is_whitespace() || c == '-' || c == '_' || c == '/') {
            token.clear();
            normalize_into(word, &mut token);
            let stopped = self.remove_stopwords && self.stopwords.contains(token.as_str());
            if !(token.is_empty() || stopped) {
                visit(&token);
            }
        }
    }

    /// Splits `text` into normalised tokens.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.for_each_token(text, |token| tokens.push(token.to_string()));
        tokens
    }
}

/// Appends the lower-cased alphanumeric characters of `word` to `out`.
fn normalize_into(word: &str, out: &mut String) {
    if word.is_ascii() {
        // the same characters, without decoding and re-encoding each one
        out.extend(
            word.bytes()
                .filter(u8::is_ascii_alphanumeric)
                .map(|b| char::from(b.to_ascii_lowercase())),
        );
    } else {
        out.extend(
            word.chars()
                .filter(|c| c.is_alphanumeric())
                .flat_map(char::to_lowercase),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_strips_punctuation() {
        let t = Tokenizer::new(false);
        assert_eq!(t.normalize_word("Bar-B.Q!"), "barbq");
        assert_eq!(t.tokenize("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn removes_stopwords_when_enabled() {
        let t = Tokenizer::new(true);
        assert_eq!(
            t.tokenize("the quick brown fox is fast"),
            vec!["quick", "brown", "fox", "fast"]
        );
    }

    #[test]
    fn keeps_stopwords_when_disabled() {
        let t = Tokenizer::new(false);
        assert!(t.tokenize("the fox").contains(&"the".to_string()));
    }

    #[test]
    fn splits_on_hyphen_underscore_slash() {
        let t = Tokenizer::new(false);
        assert_eq!(
            t.tokenize("data-base_system/engine"),
            vec!["data", "base", "system", "engine"]
        );
    }

    #[test]
    fn ascii_fast_path_normalises_like_the_unicode_path() {
        let t = Tokenizer::new(false);
        for c in (0u8..128).map(char::from) {
            // the `é` sends the same character down the Unicode path
            let slow = t.normalize_word(&format!("é{c}"));
            assert_eq!(format!("é{}", t.normalize_word(&c.to_string())), slow);
        }
    }

    #[test]
    fn visitor_and_tokenize_agree() {
        let t = Tokenizer::new(true);
        let text = "The Zürich-café_of/IPv6 a   x2  ";
        let mut visited = Vec::new();
        t.for_each_token(text, |token| visited.push(token.to_string()));
        assert_eq!(visited, t.tokenize(text));
        assert_eq!(visited, vec!["zürich", "café", "ipv6", "x2"]);
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        let t = Tokenizer::new(false);
        assert_eq!(t.tokenize("Zürich café"), vec!["zürich", "café"]);
    }

    #[test]
    fn digits_are_kept_as_alphanumeric() {
        let t = Tokenizer::new(false);
        assert_eq!(t.tokenize("ipv6 2024"), vec!["ipv6", "2024"]);
    }
}
