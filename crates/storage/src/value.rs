//! Cell values, including the crowd null `CNULL`.

use std::fmt;

/// A single cell value.
///
/// `CNull` is CQL's `CNULL`: the value is *unknown and crowdsourceable* —
/// a `FILL` statement targets exactly the `CNull` cells of a crowd column.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value to be filled by the crowd (CQL `CNULL`).
    CNull,
    /// Text value.
    Text(String),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
}

impl Value {
    /// True for `CNULL`.
    pub fn is_cnull(&self) -> bool {
        matches!(self, Value::CNull)
    }

    /// Borrow the text payload if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Render the value as the string shown to crowd workers. `CNULL`
    /// renders as an empty string (the worker sees a blank to fill).
    pub fn display_string(&self) -> String {
        match self {
            Value::CNull => String::new(),
            Value::Text(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => x.to_string(),
        }
    }

    /// Equality used by *traditional* (non-crowd) predicates: `CNULL`
    /// equals nothing, numbers compare numerically, text compares exactly.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::CNull, _) | (_, Value::CNull) => false,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::CNull => write!(f, "CNULL"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnull_is_detected() {
        assert!(Value::CNull.is_cnull());
        assert!(!Value::from("x").is_cnull());
    }

    #[test]
    fn cnull_never_sql_equal() {
        assert!(!Value::CNull.sql_eq(&Value::CNull));
        assert!(!Value::CNull.sql_eq(&Value::from("x")));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Float(3.5)));
    }

    #[test]
    fn text_equality_is_exact() {
        assert!(Value::from("USA").sql_eq(&Value::from("USA")));
        assert!(!Value::from("USA").sql_eq(&Value::from("US")));
        assert!(!Value::from("3").sql_eq(&Value::Int(3)));
    }

    #[test]
    fn display_string_blank_for_cnull() {
        assert_eq!(Value::CNull.display_string(), "");
        assert_eq!(Value::Int(7).display_string(), "7");
        assert_eq!(Value::from("MIT").display_string(), "MIT");
    }
}
