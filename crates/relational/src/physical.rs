//! Execution-facing piece of the relational layer: the model registry.
//!
//! Physical *lowering* does not live here.  Plans — including the purely
//! relational operators (scan, selection, projection) — are lowered to an
//! explicit physical operator tree by `cej-core`'s `Planner` and executed by
//! its interpreter, which consults the [`ModelRegistry`] defined here to
//! resolve model names and embeds `Embed` nodes' columns itself
//! (`batch_exec::embed_one_batch`, through the session's embedding cache).
//! This module keeps only what the algebra itself owes the execution layer:
//! name resolution.

use std::collections::HashMap;
use std::sync::Arc;

use cej_embedding::Embedder;

use crate::error::RelationalError;
use crate::Result;

/// A named registry of embedding models available to plans.
///
/// Plans refer to models by name (the declarative interface of the paper:
/// "the user should only specify the embedding model and a threshold"); the
/// registry resolves the name at plan and execution time.  The registry is
/// cheap to clone (models are `Arc`-shared) and is itself held in an `Arc`
/// by the session so prepared queries share one instance.
#[derive(Clone, Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<dyn Embedder>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.model_names())
            .finish()
    }
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a model under `name`.
    pub fn register(&mut self, name: &str, model: Arc<dyn Embedder>) {
        self.models.insert(name.to_string(), model);
    }

    /// Resolves a model by name.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownModel`] when absent.
    pub fn model(&self, name: &str) -> Result<Arc<dyn Embedder>> {
        self.models
            .get(name)
            .cloned()
            .ok_or_else(|| RelationalError::UnknownModel(name.to_string()))
    }

    /// Registered model names (unsorted).
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a model with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.models.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_embedding::{FastTextConfig, FastTextModel};

    #[test]
    fn registry_lookup() {
        let mut models = ModelRegistry::new();
        let model = FastTextModel::new(FastTextConfig {
            dim: 16,
            buckets: 1000,
            ..FastTextConfig::default()
        })
        .unwrap();
        models.register("fasttext", Arc::new(model));
        assert!(models.contains("fasttext"));
        assert!(models.model("fasttext").is_ok());
        assert!(matches!(
            models.model("bert"),
            Err(RelationalError::UnknownModel(_))
        ));
        assert_eq!(models.model_names(), vec!["fasttext"]);
        assert!(format!("{models:?}").contains("fasttext"));
    }
}
