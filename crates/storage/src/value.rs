//! Scalar values and data types shared across the storage engine, the ZQL
//! executor, and the visual exploration algebra.

use std::fmt;

/// The storage type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (years, months, counts, zip codes, ...).
    Int,
    /// 64-bit float measure (sales, profit, delays, ...).
    Float,
    /// Dictionary-encoded categorical string (product, location, ...).
    Cat,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Cat => write!(f, "cat"),
        }
    }
}

/// A dynamically-typed scalar.
///
/// `Value` implements a *total* ordering (`Null < Int/Float < Str`, with
/// numeric comparison across `Int`/`Float`), because ordered-bag semantics
/// (thesis §4.1) require deterministic sorting of heterogeneous tuples.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used for plotting / distance computation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.rank().cmp(&other.rank()).then(Ordering::Equal),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and Float hash identically when numerically equal
            // integers, matching PartialEq above.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            // `-0.0` hashes as `0.0`: both equal `Int(0)`.
            Value::Float(f) => {
                1u8.hash(state);
                (if *f == 0.0 { 0.0f64 } else { *f }).to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_ne!(Value::Int(3), Value::str("3"));
    }

    #[test]
    fn equal_values_hash_equal() {
        use std::hash::BuildHasher;
        let h = std::collections::hash_map::RandomState::new();
        for (a, b) in [
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Int(0), Value::Float(0.0)),
            (Value::Int(7), Value::Float(7.0)),
        ] {
            assert_eq!(a, b);
            assert_eq!(h.hash_one(&a), h.hash_one(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let mut vals = [
            Value::str("b"),
            Value::Float(2.5),
            Value::Null,
            Value::Int(10),
            Value::str("a"),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(10));
        assert_eq!(vals[4], Value::str("a"));
        assert_eq!(vals[5], Value::str("b"));
    }

    #[test]
    fn hash_consistent_with_eq_for_numerics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(4));
        assert!(set.contains(&Value::Float(4.0)));
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("US").to_string(), "US");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
