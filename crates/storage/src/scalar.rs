//! Scalar (single-row) values.

use std::cmp::Ordering;
use std::fmt;

use cej_vector::Vector;
use serde::{Deserialize, Serialize};

use crate::datatype::DataType;
use crate::error::StorageError;
use crate::Result;

/// A single value of any supported [`DataType`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalarValue {
    /// 64-bit integer value.
    Int64(i64),
    /// 64-bit float value.
    Float64(f64),
    /// String value.
    Utf8(String),
    /// Date value as days since the Unix epoch.
    Date(i32),
    /// Boolean value.
    Bool(bool),
    /// Embedding value.
    Vector(Vector),
}

impl ScalarValue {
    /// The logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            ScalarValue::Int64(_) => DataType::Int64,
            ScalarValue::Float64(_) => DataType::Float64,
            ScalarValue::Utf8(_) => DataType::Utf8,
            ScalarValue::Date(_) => DataType::Date,
            ScalarValue::Bool(_) => DataType::Bool,
            ScalarValue::Vector(v) => DataType::Vector(v.dim()),
        }
    }

    /// Compares two values of the same orderable type.
    ///
    /// # Errors
    /// Returns [`StorageError::TypeMismatch`] for cross-type comparisons or
    /// non-orderable types (vectors).
    pub fn partial_cmp_same_type(&self, other: &ScalarValue) -> Result<Ordering> {
        let mismatch = || StorageError::TypeMismatch {
            expected: self.data_type().to_string(),
            actual: other.data_type().to_string(),
        };
        match (self, other) {
            (ScalarValue::Int64(a), ScalarValue::Int64(b)) => Ok(a.cmp(b)),
            (ScalarValue::Float64(a), ScalarValue::Float64(b)) => {
                Ok(a.partial_cmp(b).unwrap_or(Ordering::Equal))
            }
            (ScalarValue::Utf8(a), ScalarValue::Utf8(b)) => Ok(a.cmp(b)),
            (ScalarValue::Date(a), ScalarValue::Date(b)) => Ok(a.cmp(b)),
            (ScalarValue::Bool(a), ScalarValue::Bool(b)) => Ok(a.cmp(b)),
            _ => Err(mismatch()),
        }
    }

    /// Extracts a string reference, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ScalarValue::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts an `i64`, if this is an integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ScalarValue::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts the embedding, if this is a vector value.
    pub fn as_vector(&self) -> Option<&Vector> {
        match self {
            ScalarValue::Vector(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::Int64(v) => write!(f, "{v}"),
            ScalarValue::Float64(v) => write!(f, "{v}"),
            ScalarValue::Utf8(v) => write!(f, "{v}"),
            ScalarValue::Date(v) => write!(f, "{}", date::format_days(*v)),
            ScalarValue::Bool(v) => write!(f, "{v}"),
            ScalarValue::Vector(v) => write!(f, "<vector dim={}>", v.dim()),
        }
    }
}

/// Minimal proleptic-Gregorian date helpers (days since 1970-01-01).
///
/// A full calendar implementation is unnecessary for the experiments: the
/// paper only uses date columns as a selectivity knob.  These helpers are
/// exact for the years they are used with (1970-2262) and are tested against
/// known anchors.
pub mod date {
    use super::*;

    /// Days in each month of a non-leap year.
    const DAYS_IN_MONTH: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

    fn is_leap(year: i64) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    fn days_in_year(year: i64) -> i64 {
        if is_leap(year) {
            366
        } else {
            365
        }
    }

    /// Converts a calendar date to days since 1970-01-01.
    ///
    /// # Errors
    /// Returns [`StorageError::Parse`] for out-of-range months or days.
    pub fn from_ymd(year: i64, month: u32, day: u32) -> Result<i32> {
        if !(1..=12).contains(&month) {
            return Err(StorageError::Parse(format!("month {month} out of range")));
        }
        let mut dim = DAYS_IN_MONTH[(month - 1) as usize];
        if month == 2 && is_leap(year) {
            dim += 1;
        }
        if day == 0 || day as i64 > dim {
            return Err(StorageError::Parse(format!(
                "day {day} out of range for month {month}"
            )));
        }
        let mut days: i64 = 0;
        if year >= 1970 {
            for y in 1970..year {
                days += days_in_year(y);
            }
        } else {
            for y in year..1970 {
                days -= days_in_year(y);
            }
        }
        for m in 1..month {
            days += DAYS_IN_MONTH[(m - 1) as usize];
            if m == 2 && is_leap(year) {
                days += 1;
            }
        }
        days += day as i64 - 1;
        Ok(days as i32)
    }

    /// Parses an ISO `YYYY-MM-DD` literal into days since the epoch.
    ///
    /// # Errors
    /// Returns [`StorageError::Parse`] for malformed literals.
    pub fn parse_iso(s: &str) -> Result<i32> {
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 3 {
            return Err(StorageError::Parse(format!("malformed date literal: {s}")));
        }
        let year: i64 = parts[0]
            .parse()
            .map_err(|_| StorageError::Parse(format!("bad year in {s}")))?;
        let month: u32 = parts[1]
            .parse()
            .map_err(|_| StorageError::Parse(format!("bad month in {s}")))?;
        let day: u32 = parts[2]
            .parse()
            .map_err(|_| StorageError::Parse(format!("bad day in {s}")))?;
        from_ymd(year, month, day)
    }

    /// Formats days since the epoch back into `YYYY-MM-DD`.
    pub fn format_days(days: i32) -> String {
        let mut remaining = days as i64;
        let mut year = 1970i64;
        loop {
            let dy = days_in_year(year);
            if remaining >= dy {
                remaining -= dy;
                year += 1;
            } else if remaining < 0 {
                year -= 1;
                remaining += days_in_year(year);
            } else {
                break;
            }
        }
        let mut month = 1u32;
        loop {
            let mut dim = DAYS_IN_MONTH[(month - 1) as usize];
            if month == 2 && is_leap(year) {
                dim += 1;
            }
            if remaining >= dim {
                remaining -= dim;
                month += 1;
            } else {
                break;
            }
        }
        format!("{year:04}-{month:02}-{:02}", remaining + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_of_values() {
        assert_eq!(ScalarValue::Int64(1).data_type(), DataType::Int64);
        assert_eq!(
            ScalarValue::Vector(Vector::zeros(7)).data_type(),
            DataType::Vector(7)
        );
    }

    #[test]
    fn same_type_comparisons() {
        assert_eq!(
            ScalarValue::Int64(1)
                .partial_cmp_same_type(&ScalarValue::Int64(2))
                .unwrap(),
            Ordering::Less
        );
        assert_eq!(
            ScalarValue::Utf8("b".into())
                .partial_cmp_same_type(&ScalarValue::Utf8("a".into()))
                .unwrap(),
            Ordering::Greater
        );
        assert_eq!(
            ScalarValue::Date(10)
                .partial_cmp_same_type(&ScalarValue::Date(10))
                .unwrap(),
            Ordering::Equal
        );
    }

    #[test]
    fn cross_type_comparison_errors() {
        assert!(ScalarValue::Int64(1)
            .partial_cmp_same_type(&ScalarValue::Utf8("1".into()))
            .is_err());
        assert!(ScalarValue::Vector(Vector::zeros(2))
            .partial_cmp_same_type(&ScalarValue::Vector(Vector::zeros(2)))
            .is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(ScalarValue::Utf8("x".into()).as_str(), Some("x"));
        assert_eq!(ScalarValue::Int64(5).as_i64(), Some(5));
        assert!(ScalarValue::Vector(Vector::zeros(3)).as_vector().is_some());
        assert!(ScalarValue::Int64(1).as_vector().is_none());
    }

    #[test]
    fn display_values() {
        assert_eq!(ScalarValue::Int64(3).to_string(), "3");
        assert_eq!(
            ScalarValue::Vector(Vector::zeros(4)).to_string(),
            "<vector dim=4>"
        );
        assert_eq!(ScalarValue::Date(0).to_string(), "1970-01-01");
    }

    #[test]
    fn date_epoch_anchor() {
        assert_eq!(date::from_ymd(1970, 1, 1).unwrap(), 0);
        assert_eq!(date::from_ymd(1970, 1, 2).unwrap(), 1);
        assert_eq!(date::from_ymd(1971, 1, 1).unwrap(), 365);
    }

    #[test]
    fn date_known_values() {
        // 2000-01-01 is 10957 days after the epoch (known constant)
        assert_eq!(date::from_ymd(2000, 1, 1).unwrap(), 10957);
        // 2023-12-05 (a date from the paper's running example era)
        assert_eq!(
            date::format_days(date::from_ymd(2023, 12, 5).unwrap()),
            "2023-12-05"
        );
    }

    #[test]
    fn date_leap_year_handling() {
        assert_eq!(
            date::from_ymd(2024, 3, 1).unwrap() - date::from_ymd(2024, 2, 28).unwrap(),
            2
        );
        assert!(date::from_ymd(2023, 2, 29).is_err());
        assert!(date::from_ymd(2024, 2, 29).is_ok());
    }

    #[test]
    fn date_parse_and_format_roundtrip() {
        for iso in ["1970-01-01", "1999-12-31", "2024-02-29", "2031-07-15"] {
            let days = date::parse_iso(iso).unwrap();
            assert_eq!(date::format_days(days), iso);
        }
    }

    #[test]
    fn date_parse_rejects_malformed() {
        assert!(date::parse_iso("2024/01/01").is_err());
        assert!(date::parse_iso("2024-13-01").is_err());
        assert!(date::parse_iso("2024-01-32").is_err());
        assert!(date::parse_iso("not-a-date").is_err());
        assert!(date::parse_iso("2024-01").is_err());
    }

    #[test]
    fn date_before_epoch() {
        let days = date::from_ymd(1969, 12, 31).unwrap();
        assert_eq!(days, -1);
        assert_eq!(date::format_days(-1), "1969-12-31");
    }
}
