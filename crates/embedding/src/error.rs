//! Error type for the embedding substrate.

use std::fmt;

/// Errors raised while building or using an embedding model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddingError {
    /// A configuration value was invalid (zero dimension, empty n-gram range…).
    InvalidConfig(String),
    /// The training corpus was empty or otherwise unusable.
    EmptyCorpus,
    /// Serialisation / deserialisation of a persisted model failed.
    Serialization(String),
}

impl fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbeddingError::InvalidConfig(msg) => write!(f, "invalid embedding config: {msg}"),
            EmbeddingError::EmptyCorpus => write!(f, "training corpus is empty"),
            EmbeddingError::Serialization(msg) => write!(f, "model serialization error: {msg}"),
        }
    }
}

impl std::error::Error for EmbeddingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EmbeddingError::InvalidConfig("dim=0".into())
            .to_string()
            .contains("dim=0"));
        assert!(EmbeddingError::EmptyCorpus.to_string().contains("empty"));
        assert!(EmbeddingError::Serialization("bad".into())
            .to_string()
            .contains("bad"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<EmbeddingError>();
    }
}
