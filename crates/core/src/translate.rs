//! From conjunctive queries to per-session pattern unions.
//!
//! This module implements the query-evaluation front end of the paper:
//! classification of a CQ as itemwise or non-itemwise, grounding of the join
//! variables `V⁺(Q)` over their active domains (Algorithm 2,
//! `DecomposeQuery`), and translation of each grounded itemwise CQ into a
//! label pattern over the session's items. The output is, per qualifying
//! session, a [`ppd_patterns::PatternUnion`] whose marginal probability over
//! the session's Mallows model is the probability that the query holds in
//! that session.

use crate::database::PpdDatabase;
use crate::query::{CompareOp, ConjunctiveQuery, Term};
use crate::relation::Relation;
use crate::value::Value;
use crate::{PpdError, Result};
use ppd_patterns::{
    LabelId, LabelInterner, Labeling, NodeSelector, Pattern, PatternError, PatternUnion,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Whether a query could be translated directly (itemwise) or required
/// grounding of join variables (non-itemwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryShape {
    /// The query is equivalent to a single label pattern per session.
    Itemwise,
    /// The query required grounding of the listed variables (the paper's
    /// `V⁺(Q)`); each session's union has one member per grounding that is
    /// not trivially unsatisfiable.
    NonItemwise {
        /// The grounded variables, in a deterministic order.
        grounding_variables: Vec<String>,
    },
}

/// The pattern union of one qualifying session.
#[derive(Debug, Clone)]
pub struct SessionQuery {
    /// Index of the session within its p-relation.
    pub session_index: usize,
    /// The union of label patterns equivalent to the (grounded) query on
    /// this session. Sessions with the same session-join bindings hold the
    /// same union — every session, when the query joins no session attribute.
    pub union: Arc<PatternUnion>,
}

/// The result of grounding a query against a database: an effective labeling
/// (the database labeling extended with any predicate-derived labels) plus
/// one pattern union per qualifying session.
#[derive(Debug, Clone)]
pub struct GroundedSessionQuery {
    /// Name of the p-relation the query ranges over.
    pub prelation: String,
    /// Labeling to evaluate the pattern unions under.
    pub labeling: Labeling,
    /// Shape of the query (itemwise vs. grounded).
    pub shape: QueryShape,
    /// Per-session pattern unions. Sessions that cannot satisfy the query
    /// (failed selections or joins, or no satisfiable grounding) are omitted
    /// and have probability zero.
    pub sessions: Vec<SessionQuery>,
}

/// Occurrence of an attribute variable inside an item atom, recorded by the
/// item-relation column it appears in.
#[derive(Debug, Clone, Copy)]
struct Occurrence {
    column: usize,
}

/// Grounds `query` against `db`, producing per-session pattern unions.
pub fn ground_query(db: &PpdDatabase, query: &ConjunctiveQuery) -> Result<GroundedSessionQuery> {
    let patoms = query.preference_atoms();
    if patoms.is_empty() {
        return Err(PpdError::UnsupportedQuery(
            "a query needs at least one preference atom".into(),
        ));
    }
    let prel_name = &patoms[0].relation;
    if patoms.iter().any(|a| &a.relation != prel_name) {
        return Err(PpdError::UnsupportedQuery(
            "all preference atoms must range over the same p-relation".into(),
        ));
    }
    let prel = db
        .preference_relation(prel_name)
        .ok_or_else(|| PpdError::UnknownName(prel_name.clone()))?;
    let item_rel = db.item_relation();
    let key_col = db.item_key_column();

    // ---- Session columns: constants, bound variables, filters. -------------
    let mut session_filters: Vec<(usize, CompareOp, Value)> = Vec::new();
    let mut session_vars: BTreeMap<String, usize> = BTreeMap::new();
    for atom in patoms {
        if atom.session_terms.len() != prel.session_columns().len() {
            return Err(PpdError::Malformed(format!(
                "preference atom over {prel_name} has {} session terms, expected {}",
                atom.session_terms.len(),
                prel.session_columns().len()
            )));
        }
        for (col, term) in atom.session_terms.iter().enumerate() {
            match term {
                Term::Const(v) => session_filters.push((col, CompareOp::Eq, v.clone())),
                Term::Var(name) => {
                    if let Some(&existing) = session_vars.get(name) {
                        if existing != col {
                            return Err(PpdError::UnsupportedQuery(format!(
                                "session variable {name} is used for two different session columns"
                            )));
                        }
                    } else {
                        session_vars.insert(name.clone(), col);
                    }
                }
                Term::Wildcard => {}
            }
        }
    }
    for (var, col) in &session_vars {
        for cmp in query.comparisons_on(var) {
            session_filters.push((*col, cmp.op, cmp.value.clone()));
        }
    }

    // ---- Item terms (pattern nodes). ----------------------------------------
    let mut item_terms: Vec<Term> = Vec::new();
    let mut node_of_term: HashMap<Term, usize> = HashMap::new();
    for atom in patoms {
        for term in [&atom.left, &atom.right] {
            if matches!(term, Term::Wildcard) {
                return Err(PpdError::UnsupportedQuery(
                    "item positions of preference atoms must be variables or constants".into(),
                ));
            }
            if !node_of_term.contains_key(term) {
                node_of_term.insert(term.clone(), item_terms.len());
                item_terms.push(term.clone());
            }
        }
    }
    let item_vars: BTreeSet<String> = item_terms
        .iter()
        .filter_map(|t| t.as_var().map(|s| s.to_string()))
        .collect();

    // ---- Relation atoms: item atoms vs. session-join atoms. ----------------
    struct SessionJoin<'db> {
        relation: &'db Relation,
        join_column: usize,
        session_column: usize,
        bindings: Vec<(String, usize)>, // (variable, tuple column)
    }
    let mut item_atoms: Vec<(String, Vec<Term>)> = Vec::new(); // key var, terms
    let mut session_joins: Vec<SessionJoin<'_>> = Vec::new();
    for atom in query.relation_atoms() {
        let rel = db
            .relation(&atom.relation)
            .ok_or_else(|| PpdError::UnknownName(atom.relation.clone()))?;
        if atom.terms.len() != rel.arity() {
            return Err(PpdError::Malformed(format!(
                "atom over {} has arity {}, expected {}",
                atom.relation,
                atom.terms.len(),
                rel.arity()
            )));
        }
        let is_item_atom = atom.relation == item_rel.name()
            && matches!(&atom.terms[key_col], Term::Var(v) if item_vars.contains(v));
        if is_item_atom {
            let key_var = atom.terms[key_col].as_var().expect("checked").to_string();
            item_atoms.push((key_var, atom.terms.clone()));
            continue;
        }
        // A session-join atom: one of its terms is a session variable.
        let join = atom.terms.iter().enumerate().find_map(|(col, t)| {
            t.as_var()
                .and_then(|v| session_vars.get(v).map(|&scol| (col, scol)))
        });
        match join {
            Some((join_column, session_column)) => {
                let bindings = atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|&(col, _)| col != join_column)
                    .filter_map(|(col, t)| t.as_var().map(|v| (v.to_string(), col)))
                    .collect();
                session_joins.push(SessionJoin {
                    relation: rel,
                    join_column,
                    session_column,
                    bindings,
                });
            }
            None => {
                return Err(PpdError::UnsupportedQuery(format!(
                    "relation atom over {} constrains neither an item variable nor a session \
                     variable",
                    atom.relation
                )))
            }
        }
    }

    // ---- Attribute variables: occurrences, propagation, classification. ----
    let session_bound: BTreeSet<String> = session_joins
        .iter()
        .flat_map(|j| j.bindings.iter().map(|(v, _)| v.clone()))
        .collect();
    let mut occurrences: BTreeMap<String, Vec<Occurrence>> = BTreeMap::new();
    for (_, terms) in item_atoms.iter() {
        for (col, term) in terms.iter().enumerate() {
            if col == key_col {
                continue;
            }
            if let Some(v) = term.as_var() {
                if item_vars.contains(v) || session_vars.contains_key(v) {
                    continue;
                }
                occurrences
                    .entry(v.to_string())
                    .or_default()
                    .push(Occurrence { column: col });
            }
        }
    }
    // Constant propagation: variables fixed by an equality comparison.
    let mut propagated: BTreeMap<String, Value> = BTreeMap::new();
    for var in occurrences.keys() {
        if session_bound.contains(var) {
            continue;
        }
        if let Some(cmp) = query
            .comparisons_on(var)
            .into_iter()
            .find(|c| c.op == CompareOp::Eq)
        {
            propagated.insert(var.clone(), cmp.value.clone());
        }
    }
    // Grounding variables: remaining attribute variables with 2+ occurrences.
    let mut grounding_vars: Vec<String> = occurrences
        .iter()
        .filter(|(v, occs)| {
            !session_bound.contains(*v) && !propagated.contains_key(*v) && occs.len() >= 2
        })
        .map(|(v, _)| v.clone())
        .collect();
    grounding_vars.sort();
    // Derived-predicate variables: single occurrence + inequality comparisons.
    let mut effective_interner: LabelInterner = db.interner().clone();
    let mut effective_labeling: Labeling = db.labeling().clone();
    let mut derived_label: BTreeMap<String, LabelId> = BTreeMap::new();
    for (var, occs) in &occurrences {
        if session_bound.contains(var)
            || propagated.contains_key(var)
            || grounding_vars.contains(var)
        {
            continue;
        }
        let comparisons = query.comparisons_on(var);
        if comparisons.is_empty() {
            continue;
        }
        let occ = occs[0];
        let column = &item_rel.columns()[occ.column];
        let descr: Vec<String> = comparisons
            .iter()
            .map(|c| format!("{column}{}{}", c.op.symbol(), c.value.render()))
            .collect();
        let label = effective_interner.intern(&format!("@pred:{}", descr.join("&")));
        for item in db.items() {
            if let Some(value) = db.item_attribute(item, column) {
                if comparisons.iter().all(|c| c.op.eval(value, &c.value)) {
                    effective_labeling.add(item, label);
                }
            }
        }
        derived_label.insert(var.clone(), label);
    }
    // Active domains of the grounding variables (intersection over their
    // occurrences, filtered by any comparisons).
    let mut domains: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for var in &grounding_vars {
        let occs = &occurrences[var];
        let mut domain: Option<Vec<Value>> = None;
        for occ in occs {
            let dom = item_rel.active_domain(occ.column);
            domain = Some(match domain {
                None => dom,
                Some(existing) => existing
                    .into_iter()
                    .filter(|v| dom.iter().any(|d| d.semantically_equals(v)))
                    .collect(),
            });
        }
        let mut domain = domain.unwrap_or_default();
        let comparisons = query.comparisons_on(var);
        domain.retain(|v| comparisons.iter().all(|c| c.op.eval(v, &c.value)));
        domains.insert(var.clone(), domain);
    }

    // ---- Per-session selection; grounding and translation per binding. -----
    // Everything above is the query's; what a session adds is θ, its
    // session-join bindings. The union is a function of θ alone, so it is
    // built once per distinct θ (`None`: no satisfiable grounding) and shared.
    let assignments = cartesian(&grounding_vars, &domains);
    let mut build_union = |bound: &[Value]| -> Result<Option<Arc<PatternUnion>>> {
        let mut theta: BTreeMap<String, Value> = propagated.clone();
        let vars = session_joins.iter().flat_map(|j| &j.bindings);
        for ((var, _), value) in vars.zip(bound) {
            theta.insert(var.clone(), value.clone());
        }
        let mut patterns: Vec<Pattern> = Vec::new();
        for nu in &assignments {
            match build_pattern(
                db,
                &item_terms,
                &node_of_term,
                patoms,
                &item_atoms,
                key_col,
                &theta,
                nu,
                &derived_label,
                &mut effective_interner,
            ) {
                Ok(pattern) => {
                    if !patterns.contains(&pattern) {
                        patterns.push(pattern);
                    }
                }
                // A grounding whose preference requirements contradict each
                // other (cyclic at the term level) is unsatisfiable; skip it.
                Err(PpdError::Pattern(PatternError::CyclicPattern)) => continue,
                Err(e) => return Err(e),
            }
        }
        if patterns.is_empty() {
            return Ok(None);
        }
        Ok(Some(Arc::new(PatternUnion::new(patterns)?)))
    };
    let mut union_of_bindings: HashMap<Vec<Value>, Option<Arc<PatternUnion>>> = HashMap::new();
    let join_indexes: Vec<_> = session_joins
        .iter()
        .map(|join| join.relation.index_eq(join.join_column))
        .collect();
    let mut sessions = Vec::new();
    'session: for (sidx, session) in prel.sessions().iter().enumerate() {
        // Session-level selections.
        for (col, op, value) in &session_filters {
            if !op.eval(&session.attrs()[*col], value) {
                continue 'session;
            }
        }
        // Session-join bindings: one value per entry of the joins' bindings.
        let mut bound: Vec<Value> = Vec::new();
        for (join, index) in session_joins.iter().zip(&join_indexes) {
            let key = &session.attrs()[join.session_column];
            let Some(tuple) = index.first(key) else {
                continue 'session;
            };
            bound.extend(join.bindings.iter().map(|(_, col)| tuple[*col].clone()));
        }
        let union = match union_of_bindings.get(&bound) {
            Some(known) => known.clone(),
            None => {
                let built = build_union(&bound)?;
                union_of_bindings.insert(bound, built.clone());
                built
            }
        };
        if let Some(union) = union {
            sessions.push(SessionQuery {
                session_index: sidx,
                union,
            });
        }
    }

    let shape = if grounding_vars.is_empty() {
        QueryShape::Itemwise
    } else {
        QueryShape::NonItemwise {
            grounding_variables: grounding_vars,
        }
    };
    Ok(GroundedSessionQuery {
        prelation: prel_name.clone(),
        labeling: effective_labeling,
        shape,
        sessions,
    })
}

/// All assignments of the grounding variables to values of their domains.
fn cartesian(
    vars: &[String],
    domains: &BTreeMap<String, Vec<Value>>,
) -> Vec<BTreeMap<String, Value>> {
    let mut out: Vec<BTreeMap<String, Value>> = vec![BTreeMap::new()];
    for var in vars {
        let domain = &domains[var];
        let mut next = Vec::with_capacity(out.len() * domain.len().max(1));
        for assignment in &out {
            for value in domain {
                let mut extended = assignment.clone();
                extended.insert(var.clone(), value.clone());
                next.push(extended);
            }
        }
        out = next;
    }
    out
}

/// Builds the label pattern of one grounded itemwise CQ.
#[allow(clippy::too_many_arguments)]
fn build_pattern(
    db: &PpdDatabase,
    item_terms: &[Term],
    node_of_term: &HashMap<Term, usize>,
    patoms: &[crate::query::PreferenceAtom],
    item_atoms: &[(String, Vec<Term>)],
    key_col: usize,
    theta: &BTreeMap<String, Value>,
    nu: &BTreeMap<String, Value>,
    derived_label: &BTreeMap<String, LabelId>,
    interner: &mut LabelInterner,
) -> Result<Pattern> {
    let item_rel = db.item_relation();
    let mut nodes: Vec<NodeSelector> = Vec::with_capacity(item_terms.len());
    for term in item_terms {
        let mut labels: BTreeSet<LabelId> = BTreeSet::new();
        match term {
            Term::Const(value) => {
                labels.insert(interner.intern(&format!("@item={}", value.render())));
            }
            Term::Var(item_var) => {
                for (key_var, terms) in item_atoms {
                    if key_var != item_var {
                        continue;
                    }
                    for (col, t) in terms.iter().enumerate() {
                        if col == key_col {
                            continue;
                        }
                        let column = &item_rel.columns()[col];
                        match t {
                            Term::Const(v) => {
                                labels.insert(interner.intern(&format!("{column}={}", v.render())));
                            }
                            Term::Var(a) => {
                                if let Some(v) = nu.get(a).or_else(|| theta.get(a)) {
                                    labels.insert(
                                        interner.intern(&format!("{column}={}", v.render())),
                                    );
                                } else if let Some(&label) = derived_label.get(a) {
                                    labels.insert(label);
                                }
                            }
                            Term::Wildcard => {}
                        }
                    }
                }
            }
            Term::Wildcard => unreachable!("rejected earlier"),
        }
        nodes.push(NodeSelector::all_of(labels));
    }
    let mut edges = Vec::with_capacity(patoms.len());
    for atom in patoms {
        let from = node_of_term[&atom.left];
        let to = node_of_term[&atom.right];
        if !edges.contains(&(from, to)) {
            edges.push((from, to));
        }
    }
    Pattern::new(nodes, edges).map_err(PpdError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term as T;
    use crate::testdb::polling_database;
    use ppd_patterns::UnionClass;

    /// Q0 of the paper: does Ann (5/5) prefer Trump to both Clinton and Rubio?
    #[test]
    fn constant_query_is_itemwise_and_single_session() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("Q0")
            .prefer(
                "Polls",
                vec![T::val("Ann"), T::val("5/5")],
                T::val("Trump"),
                T::val("Clinton"),
            )
            .prefer(
                "Polls",
                vec![T::val("Ann"), T::val("5/5")],
                T::val("Trump"),
                T::val("Rubio"),
            );
        let plan = ground_query(&db, &q).unwrap();
        assert_eq!(plan.shape, QueryShape::Itemwise);
        assert_eq!(plan.sessions.len(), 1);
        assert_eq!(plan.sessions[0].session_index, 0);
        let union = &plan.sessions[0].union;
        assert_eq!(union.num_patterns(), 1);
        assert_eq!(union.patterns()[0].num_nodes(), 3);
        assert_eq!(union.patterns()[0].num_edges(), 2);
        assert_eq!(union.classify(), UnionClass::Bipartite);
    }

    /// Q1 of the paper: a female candidate preferred to a male candidate.
    #[test]
    fn attribute_query_is_itemwise_over_all_sessions() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("Q1")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::var("c1"),
                T::var("c2"),
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c1"),
                    T::any(),
                    T::val("F"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c2"),
                    T::any(),
                    T::val("M"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            );
        let plan = ground_query(&db, &q).unwrap();
        assert_eq!(plan.shape, QueryShape::Itemwise);
        assert_eq!(plan.sessions.len(), 3);
        for s in &plan.sessions {
            assert_eq!(s.union.num_patterns(), 1);
            assert_eq!(s.union.classify(), UnionClass::TwoLabel);
        }
    }

    /// Q2 of the paper: a Democrat preferred to a Republican with the same
    /// education — non-itemwise, grounded over edu ∈ {BS, JD}.
    #[test]
    fn join_variable_is_grounded_over_active_domain() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("Q2")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::var("c1"),
                T::var("c2"),
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c1"),
                    T::val("D"),
                    T::any(),
                    T::any(),
                    T::var("e"),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c2"),
                    T::val("R"),
                    T::any(),
                    T::any(),
                    T::var("e"),
                    T::any(),
                ],
            );
        let plan = ground_query(&db, &q).unwrap();
        assert_eq!(
            plan.shape,
            QueryShape::NonItemwise {
                grounding_variables: vec!["e".to_string()]
            }
        );
        assert_eq!(plan.sessions.len(), 3);
        for s in &plan.sessions {
            // edu has active domain {BS, JD, MS?}: Candidates has BS and JD.
            assert_eq!(s.union.num_patterns(), 2);
            assert_eq!(s.union.classify(), UnionClass::TwoLabel);
        }
    }

    /// Session selections restrict the qualifying sessions.
    #[test]
    fn session_constants_and_comparisons_filter_sessions() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("date-filter")
            .prefer(
                "Polls",
                vec![T::any(), T::var("d")],
                T::val("Clinton"),
                T::val("Trump"),
            )
            .compare("d", CompareOp::Eq, "5/5");
        let plan = ground_query(&db, &q).unwrap();
        assert_eq!(plan.sessions.len(), 2);
        assert!(plan.sessions.iter().all(|s| s.session_index < 2));
    }

    /// "The session's voter prefers a candidate of their own sex to
    /// Clinton."
    fn own_sex_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("own-sex")
            .prefer(
                "Polls",
                vec![T::var("v"), T::any()],
                T::var("c"),
                T::val("Clinton"),
            )
            .atom(
                "Voters",
                vec![T::var("v"), T::var("sex"), T::any(), T::any()],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c"),
                    T::any(),
                    T::var("sex"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
    }

    /// Joining session attributes against an o-relation (the CrowdRank-style
    /// query shape): per-session bindings change the selectors.
    #[test]
    fn session_join_binds_attributes_per_session() {
        let db = polling_database();
        let plan = ground_query(&db, &own_sex_query()).unwrap();
        assert_eq!(plan.shape, QueryShape::Itemwise);
        assert_eq!(plan.sessions.len(), 3);
        // Ann is female, Bob and Dave are male: the selector for c differs.
        let selector_of = |i: usize| {
            plan.sessions[i].union.patterns()[0].nodes()[0]
                .labels()
                .clone()
        };
        assert_ne!(selector_of(0), selector_of(1));
        assert_eq!(selector_of(1), selector_of(2));
    }

    /// Inequality comparisons become derived predicate labels.
    #[test]
    fn derived_predicate_labels_cover_matching_items() {
        let db = polling_database();
        // A candidate older than 69 preferred to a candidate younger than 50.
        let q = ConjunctiveQuery::new("age-gap")
            .prefer("Polls", vec![T::any(), T::any()], T::var("x"), T::var("y"))
            .atom(
                "Candidates",
                vec![
                    T::var("x"),
                    T::any(),
                    T::any(),
                    T::var("ax"),
                    T::any(),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("y"),
                    T::any(),
                    T::any(),
                    T::var("ay"),
                    T::any(),
                    T::any(),
                ],
            )
            .compare("ax", CompareOp::Gt, 69)
            .compare("ay", CompareOp::Lt, 50);
        let plan = ground_query(&db, &q).unwrap();
        assert_eq!(plan.shape, QueryShape::Itemwise);
        let pattern = &plan.sessions[0].union.patterns()[0];
        let x_selector = &pattern.nodes()[0];
        let y_selector = &pattern.nodes()[1];
        // Trump (70) and Sanders (75) are older than 69; only Rubio (45) is
        // younger than 50.
        let candidates_x = x_selector.candidates(&db.items(), &plan.labeling);
        let candidates_y = y_selector.candidates(&db.items(), &plan.labeling);
        assert_eq!(candidates_x, vec![0, 2]);
        assert_eq!(candidates_y, vec![3]);
    }

    #[test]
    fn malformed_queries_are_rejected() {
        let db = polling_database();
        // No preference atom.
        assert!(ground_query(&db, &ConjunctiveQuery::new("empty")).is_err());
        // Unknown p-relation.
        let q = ConjunctiveQuery::new("bad").prefer(
            "Nope",
            vec![T::any(), T::any()],
            T::val("Trump"),
            T::val("Rubio"),
        );
        assert!(ground_query(&db, &q).is_err());
        // Wrong number of session terms.
        let q = ConjunctiveQuery::new("bad").prefer(
            "Polls",
            vec![T::any()],
            T::val("Trump"),
            T::val("Rubio"),
        );
        assert!(ground_query(&db, &q).is_err());
        // Wildcard item position.
        let q = ConjunctiveQuery::new("bad").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::any(),
            T::val("Rubio"),
        );
        assert!(ground_query(&db, &q).is_err());
        // Relation atom with wrong arity.
        let q = ConjunctiveQuery::new("bad")
            .prefer("Polls", vec![T::any(), T::any()], T::var("x"), T::var("y"))
            .atom("Candidates", vec![T::var("x")]);
        assert!(ground_query(&db, &q).is_err());
    }

    #[test]
    fn contradictory_preferences_yield_no_sessions() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("contradiction")
            .prefer("Polls", vec![T::any(), T::any()], T::var("x"), T::var("y"))
            .prefer("Polls", vec![T::any(), T::any()], T::var("y"), T::var("x"));
        let plan = ground_query(&db, &q).unwrap();
        assert!(plan.sessions.is_empty());
    }

    /// Inequalities order strings too: `edu < "J"` holds for BS and not for
    /// JD. (It used to hold for nothing — only integers were ordered — so
    /// the derived label covered no item and the query counted zero.)
    #[test]
    fn string_inequalities_derive_labels_that_cover_the_matching_items() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("edu-order")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::var("x"),
                T::val("Clinton"),
            )
            .atom(
                "Candidates",
                vec![
                    T::var("x"),
                    T::any(),
                    T::any(),
                    T::any(),
                    T::var("e"),
                    T::any(),
                ],
            )
            .compare("e", CompareOp::Lt, "J");
        let plan = ground_query(&db, &q).unwrap();
        assert_eq!(plan.sessions.len(), 3);
        let x_selector = &plan.sessions[0].union.patterns()[0].nodes()[0];
        // Trump and Sanders hold a BS; Clinton and Rubio a JD.
        assert_eq!(
            x_selector.candidates(&db.items(), &plan.labeling),
            vec![0, 2]
        );
        // A string against an integer stays incomparable.
        assert!(!CompareOp::Lt.eval(&Value::from("BS"), &Value::from(7)));
        assert!(!CompareOp::Ge.eval(&Value::from("BS"), &Value::from(7)));
    }

    /// Sessions with equal session-join bindings hold the very same union.
    #[test]
    fn sessions_with_equal_bindings_share_one_union() {
        let db = polling_database();
        let plan = ground_query(&db, &own_sex_query()).unwrap();
        // Ann is female, Bob and Dave are male.
        assert!(!Arc::ptr_eq(
            &plan.sessions[0].union,
            &plan.sessions[1].union
        ));
        assert!(Arc::ptr_eq(
            &plan.sessions[1].union,
            &plan.sessions[2].union
        ));
    }
}
