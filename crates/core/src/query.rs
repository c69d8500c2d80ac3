//! Conjunctive queries over a RIM-PPD.
//!
//! The query language follows the paper's examples: a conjunction of
//! *preference atoms* `P(session…; a; b)` ("in this session, `a` is preferred
//! to `b`"), *relation atoms* over o-relations, and comparisons. Queries are
//! built programmatically with [`ConjunctiveQuery`]'s builder methods; e.g.
//! the query `Q2` of the paper —
//!
//! ```text
//! Q2() ← P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)
//! ```
//!
//! — is expressed as
//!
//! ```
//! use ppd_core::{ConjunctiveQuery, Term};
//! let q2 = ConjunctiveQuery::new("Q2")
//!     .prefer("Polls", vec![Term::any(), Term::any()], Term::var("c1"), Term::var("c2"))
//!     .atom("Candidates", vec![
//!         Term::var("c1"), Term::val("D"), Term::any(), Term::any(), Term::var("e"), Term::any(),
//!     ])
//!     .atom("Candidates", vec![
//!         Term::var("c2"), Term::val("R"), Term::any(), Term::any(), Term::var("e"), Term::any(),
//!     ]);
//! assert_eq!(q2.preference_atoms().len(), 1);
//! ```

use crate::value::Value;

/// A term of a query atom: a variable, a constant, or a wildcard (`_`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// A constant value.
    Const(Value),
    /// An anonymous wildcard.
    Wildcard,
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// A constant term.
    pub fn val(value: impl Into<Value>) -> Term {
        Term::Const(value.into())
    }

    /// A wildcard term.
    pub fn any() -> Term {
        Term::Wildcard
    }

    /// The variable name, if this is a variable.
    pub(crate) fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// A preference atom `P(session terms…; left; right)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceAtom {
    /// Name of the p-relation.
    pub relation: String,
    /// Terms over the p-relation's session columns.
    pub session_terms: Vec<Term>,
    /// The preferred item (variable or item-key constant).
    pub left: Term,
    /// The less-preferred item.
    pub right: Term,
}

/// A relation atom `R(t₁, …, t_k)` over an o-relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationAtom {
    /// Name of the o-relation (the item relation or another relation).
    pub relation: String,
    /// Terms aligned with the relation's columns.
    pub terms: Vec<Term>,
}

/// Comparison operators usable in [`Comparison`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than, in [`Value::compare`]'s order.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    /// Evaluates `left op right`.
    pub fn eval(&self, left: &Value, right: &Value) -> bool {
        match self {
            CompareOp::Eq => left.semantically_equals(right),
            CompareOp::Ne => !left.semantically_equals(right),
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                match left.compare(right) {
                    Some(ord) => match self {
                        CompareOp::Lt => ord.is_lt(),
                        CompareOp::Le => ord.is_le(),
                        CompareOp::Gt => ord.is_gt(),
                        CompareOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    },
                    None => false,
                }
            }
        }
    }

    /// A compact rendering used when deriving labels from predicates.
    pub fn symbol(&self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A comparison `var op constant` (e.g. `year1 >= 1990`, `date = "5/5"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The constrained variable.
    pub var: String,
    /// The operator.
    pub op: CompareOp,
    /// The constant right-hand side.
    pub value: Value,
}

/// A Boolean conjunctive query over a RIM-PPD.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConjunctiveQuery {
    name: String,
    preference_atoms: Vec<PreferenceAtom>,
    relation_atoms: Vec<RelationAtom>,
    comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// Starts a new query with a (purely informational) name.
    pub fn new(name: impl Into<String>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a preference atom `relation(session…; left; right)`.
    pub fn prefer(
        mut self,
        relation: impl Into<String>,
        session_terms: Vec<Term>,
        left: Term,
        right: Term,
    ) -> Self {
        self.preference_atoms.push(PreferenceAtom {
            relation: relation.into(),
            session_terms,
            left,
            right,
        });
        self
    }

    /// Adds a relation atom.
    pub fn atom(mut self, relation: impl Into<String>, terms: Vec<Term>) -> Self {
        self.relation_atoms.push(RelationAtom {
            relation: relation.into(),
            terms,
        });
        self
    }

    /// Adds a comparison.
    pub fn compare(
        mut self,
        var: impl Into<String>,
        op: CompareOp,
        value: impl Into<Value>,
    ) -> Self {
        self.comparisons.push(Comparison {
            var: var.into(),
            op,
            value: value.into(),
        });
        self
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The preference atoms.
    pub fn preference_atoms(&self) -> &[PreferenceAtom] {
        &self.preference_atoms
    }

    /// The relation atoms.
    pub fn relation_atoms(&self) -> &[RelationAtom] {
        &self.relation_atoms
    }

    /// The comparisons.
    pub fn comparisons(&self) -> &[Comparison] {
        &self.comparisons
    }

    /// Comparisons constraining a particular variable.
    pub(crate) fn comparisons_on(&self, var: &str) -> Vec<&Comparison> {
        self.comparisons.iter().filter(|c| c.var == var).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_atoms() {
        let q = ConjunctiveQuery::new("Q")
            .prefer("P", vec![Term::any()], Term::var("x"), Term::var("y"))
            .prefer("P", vec![Term::any()], Term::var("y"), Term::val("z-item"))
            .atom("C", vec![Term::var("x"), Term::val("F")])
            .compare("a", CompareOp::Ge, 1990);
        assert_eq!(q.name(), "Q");
        assert_eq!(q.preference_atoms().len(), 2);
        assert_eq!(q.relation_atoms().len(), 1);
        assert_eq!(q.comparisons().len(), 1);
        assert_eq!(q.comparisons_on("a").len(), 1);
        assert_eq!(q.comparisons_on("b").len(), 0);
    }

    #[test]
    fn term_helpers() {
        assert_eq!(Term::var("x").as_var(), Some("x"));
        assert_eq!(Term::any().as_var(), None);
    }

    #[test]
    fn compare_op_semantics() {
        assert!(CompareOp::Eq.eval(&Value::from(5), &Value::from("5")));
        assert!(CompareOp::Ne.eval(&Value::from("a"), &Value::from("b")));
        assert!(CompareOp::Ge.eval(&Value::from(1995), &Value::from(1990)));
        assert!(CompareOp::Lt.eval(&Value::from(1980), &Value::from(1990)));
        assert!(!CompareOp::Lt.eval(&Value::from("abc"), &Value::from(1990)));
        assert!(CompareOp::Le.eval(&Value::from(5), &Value::from(5)));
        assert!(!CompareOp::Gt.eval(&Value::from(5), &Value::from(5)));
        assert_eq!(CompareOp::Ge.symbol(), ">=");
    }
}
