//! Ordinary relations (*o-relations*).

use crate::value::Value;
use crate::{PpdError, Result};

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

    /// The tuples whose value in `column_index` semantically equals `value`.
    pub(crate) fn select_eq(&self, column_index: usize, value: &Value) -> Vec<&Vec<Value>> {
        self.tuples
            .iter()
            .filter(|t| t[column_index].semantically_equals(value))
            .collect()
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
}
