//! Ordinary relations (*o-relations*).

use crate::value::Value;
use crate::{PpdError, Result};
use std::collections::HashMap;

/// An ordinary relation: a named schema plus a list of tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    columns: Vec<String>,
    tuples: Vec<Vec<Value>>,
}

impl Relation {
    /// Builds a relation, validating that every tuple matches the arity of
    /// the schema and that column names are distinct.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<impl Into<String>>,
        tuples: Vec<Vec<Value>>,
    ) -> Result<Self> {
        let name = name.into();
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].contains(c) {
                return Err(PpdError::Malformed(format!(
                    "relation {name}: duplicate column {c}"
                )));
            }
        }
        for (idx, t) in tuples.iter().enumerate() {
            if t.len() != columns.len() {
                return Err(PpdError::Malformed(format!(
                    "relation {name}: tuple {idx} has arity {} but schema has {}",
                    t.len(),
                    columns.len()
                )));
            }
        }
        Ok(Relation {
            name,
            columns,
            tuples,
        })
    }

    /// An empty relation with the given schema.
    pub fn empty(name: impl Into<String>, columns: Vec<impl Into<String>>) -> Result<Self> {
        Relation::new(name, columns, Vec::new())
    }

    /// Appends a tuple (arity-checked).
    pub fn push(&mut self, tuple: Vec<Value>) -> Result<()> {
        if tuple.len() != self.columns.len() {
            return Err(PpdError::Malformed(format!(
                "relation {}: tuple arity {} does not match schema arity {}",
                self.name,
                tuple.len(),
                self.columns.len()
            )));
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column by name.
    pub(crate) fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Vec<Value>] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Distinct values appearing in a column (the column's active domain).
    pub fn active_domain(&self, column_index: usize) -> Vec<Value> {
        let mut values: Vec<Value> = self
            .tuples
            .iter()
            .map(|t| t[column_index].clone())
            .collect();
        values.sort();
        values.dedup();
        values
    }

    /// Indexes `column_index` by semantic equality, in one pass.
    pub(crate) fn index_eq(&self, column_index: usize) -> EqIndex<'_> {
        let mut first = HashMap::new();
        for (i, tuple) in self.tuples.iter().enumerate() {
            if let Some(key) = EqKey::of(&tuple[column_index]) {
                first.entry(key).or_insert(i);
            }
        }
        EqIndex {
            tuples: &self.tuples,
            first,
        }
    }

    /// The tuples whose value in `column_index` semantically equals `value`
    /// — the scan [`Relation::index_eq`] replaces, kept as its oracle.
    #[cfg(test)]
    pub(crate) fn select_eq(&self, column_index: usize, value: &Value) -> Vec<&Vec<Value>> {
        self.tuples
            .iter()
            .filter(|t| t[column_index].semantically_equals(value))
            .collect()
    }
}

/// What [`Value::semantically_equals`] compares: the integer a value reads
/// as, else its string. Two non-null values are semantically equal exactly
/// when their keys are: a value's integer reading is a function of its
/// rendered string, so equal renders never split between the two kinds.
/// NULL has no key — it equals nothing.
#[derive(Debug, PartialEq, Eq, Hash)]
enum EqKey<'v> {
    Int(i64),
    Str(&'v str),
}

impl<'v> EqKey<'v> {
    fn of(value: &'v Value) -> Option<Self> {
        match (value.as_int(), value) {
            (Some(n), _) => Some(EqKey::Int(n)),
            (None, Value::Str(s)) => Some(EqKey::Str(s)),
            (None, _) => None,
        }
    }
}

/// One column of a relation indexed by semantic equality: each key's first
/// tuple in relation order.
#[derive(Debug)]
pub(crate) struct EqIndex<'r> {
    tuples: &'r [Vec<Value>],
    first: HashMap<EqKey<'r>, usize>,
}

impl<'r> EqIndex<'r> {
    /// The first tuple whose indexed value semantically equals `value`.
    pub(crate) fn first(&self, value: &Value) -> Option<&'r [Value]> {
        let &i = self.first.get(&EqKey::of(value)?)?;
        Some(&self.tuples[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::new(
            "Voters",
            vec!["voter", "sex", "age"],
            vec![
                vec![Value::from("Ann"), Value::from("F"), Value::from(20)],
                vec![Value::from("Bob"), Value::from("M"), Value::from(30)],
                vec![Value::from("Eve"), Value::from("F"), Value::from(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Relation::new("R", vec!["a", "a"], vec![]).is_err());
        assert!(Relation::new("R", vec!["a", "b"], vec![vec![Value::from(1)]]).is_err());
        let mut r = Relation::empty("R", vec!["a"]).unwrap();
        assert!(r.push(vec![Value::from(1), Value::from(2)]).is_err());
        assert!(r.push(vec![Value::from(1)]).is_ok());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn lookups() {
        let r = sample();
        assert_eq!(r.name(), "Voters");
        assert_eq!(r.arity(), 3);
        assert_eq!(r.column_index("sex"), Some(1));
        assert_eq!(r.column_index("nope"), None);
        assert!(!r.is_empty());
        assert_eq!(r.active_domain(1), vec![Value::from("F"), Value::from("M")]);
        assert_eq!(r.select_eq(2, &Value::from(30)).len(), 2);
        assert_eq!(r.select_eq(0, &Value::from("Ann")).len(), 1);
    }

    #[test]
    fn the_equality_index_finds_the_first_tuple_the_scan_finds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let palette = |rng: &mut StdRng| match rng.gen_range(0..8) {
            0 => Value::Null,
            1 => Value::from(rng.gen_range(-3i64..8)),
            2 => Value::from(format!("0{}", rng.gen_range(0..8))),
            3 => Value::from(format!(" {}", rng.gen_range(0..8))),
            4 => Value::from(format!("{} ", rng.gen_range(-3..8))),
            5 => Value::from(["NULL", "", "x", "07x", "-"][rng.gen_range(0..5)]),
            6 => Value::from(format!("{}", rng.gen_range(0..8))),
            _ => Value::from(["a", "b", "A", "a "][rng.gen_range(0..4)]),
        };
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tuples: Vec<Vec<Value>> = (0..rng.gen_range(0..40))
                .map(|i| vec![palette(&mut rng), Value::from(i as i64)])
                .collect();
            let r = Relation::new("R", vec!["k", "row"], tuples).unwrap();
            let index = r.index_eq(0);
            let keys = r.tuples.iter().map(|t| t[0].clone());
            for key in keys.chain((0..40).map(|_| palette(&mut rng))) {
                let scanned = r.select_eq(0, &key).first().map(|t| t.as_slice());
                assert_eq!(index.first(&key), scanned, "seed {seed}, key {key:?}");
            }
        }
    }
}
