//! The type system of the relational substrate.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Logical data types supported by the storage layer.
///
/// `Vector(d)` is a first-class type: the paper argues embeddings should be
/// treated as *atomic* values by the DBMS (they satisfy 1NF because the
/// engine never decomposes them), so a column of embeddings is just another
/// typed column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// UTF-8 string (the paper's context-rich column).
    Utf8,
    /// Calendar date stored as days since 1970-01-01.
    Date,
    /// Boolean.
    Bool,
    /// Dense `f32` embedding of the given dimensionality.
    Vector(usize),
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int64 => write!(f, "Int64"),
            DataType::Float64 => write!(f, "Float64"),
            DataType::Utf8 => write!(f, "Utf8"),
            DataType::Date => write!(f, "Date"),
            DataType::Bool => write!(f, "Bool"),
            DataType::Vector(d) => write!(f, "Vector({d})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(DataType::Int64.to_string(), "Int64");
        assert_eq!(DataType::Vector(100).to_string(), "Vector(100)");
    }
}
