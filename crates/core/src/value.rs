//! Attribute values stored in relations and compared by queries.

use std::fmt;

/// A database value: a string, an integer, or NULL.
///
/// Values are deliberately simple — the paper's datasets only need
/// categorical attributes (party, sex, genre, education) and small integers
/// (age, year). Integers and numeric strings compare numerically so that
/// conditions such as `year >= 1990` behave as expected regardless of how the
/// generator stored the attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A string value.
    Str(String),
    /// An integer value.
    Int(i64),
    /// An absent value.
    Null,
}

// Hand-written instead of derived: the offline serde stand-in (see
// vendor/serde) provides the traits but no derive macro. Strings and
// integers serialize natively; NULL maps to unit.
impl serde::Serialize for Value {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Str(s) => serializer.serialize_str(s),
            Value::Int(i) => serializer.serialize_i64(*i),
            Value::Null => serializer.serialize_unit(),
        }
    }
}

impl<'de> serde::Deserialize<'de> for Value {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> serde::de::Visitor<'de> for V {
            type Value = Value;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a string, an integer, or null")
            }
            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<Value, E> {
                Ok(Value::Str(v.to_string()))
            }
            fn visit_i64<E: serde::de::Error>(self, v: i64) -> Result<Value, E> {
                Ok(Value::Int(v))
            }
            fn visit_u64<E: serde::de::Error>(self, v: u64) -> Result<Value, E> {
                i64::try_from(v)
                    .map(Value::Int)
                    .map_err(|_| E::custom("integer out of range"))
            }
            fn visit_unit<E: serde::de::Error>(self) -> Result<Value, E> {
                Ok(Value::Null)
            }
        }
        deserializer.deserialize_any(V)
    }
}

impl Value {
    /// The value as an integer, if it is an integer or a numeric string.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Null => None,
        }
    }

    /// The value rendered as a string (used to derive labels).
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Null => "NULL".to_string(),
        }
    }

    /// `true` when this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Semantic equality: integers and numeric strings representing the same
    /// number are equal, otherwise the rendered strings are compared.
    pub(crate) fn semantically_equals(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        match (self.as_int(), other.as_int()) {
            (Some(a), Some(b)) => a == b,
            _ => self.render() == other.render(),
        }
    }

    /// The ordering inequality predicates use: numeric when both sides are
    /// numeric (integers or numeric strings), lexicographic between two
    /// strings, and `None` — incomparable — for a string against an integer
    /// or anything against NULL.
    pub fn compare(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self.as_int(), other.as_int()) {
            (Some(a), Some(b)) => Some(a.cmp(&b)),
            _ => match (self, other) {
                (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                _ => None,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
    }

    #[test]
    fn numeric_semantics() {
        assert_eq!(Value::from("42").as_int(), Some(42));
        assert_eq!(Value::from("4a").as_int(), None);
        assert!(Value::from(42i64).semantically_equals(&Value::from("42")));
        assert!(!Value::from("abc").semantically_equals(&Value::from("abd")));
        assert!(!Value::Null.semantically_equals(&Value::Null));
        assert_eq!(
            Value::from(1990i64).compare(&Value::from("2001")),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(Value::from("x").compare(&Value::from(1i64)), None);
        // Numeric strings order as numbers, other strings lexicographically.
        assert_eq!(
            Value::from("9").compare(&Value::from("10")),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            Value::from("BS").compare(&Value::from("JD")),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(Value::from("x").compare(&Value::Null), None);
    }

    #[test]
    fn rendering() {
        assert_eq!(Value::from("F").render(), "F");
        assert_eq!(Value::from(7i64).to_string(), "7");
        assert_eq!(Value::Null.render(), "NULL");
        assert!(Value::Null.is_null());
    }
}
