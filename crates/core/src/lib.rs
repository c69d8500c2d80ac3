//! # ppd-core
//!
//! RIM-PPD: a probabilistic preference database and the evaluation of hard
//! queries over it, as introduced in *"Supporting Hard Queries over
//! Probabilistic Preferences"* (VLDB 2020).
//!
//! A [`PpdDatabase`] combines:
//!
//! * ordinary relations (*o-relations*) such as `Candidates` or `Voters`;
//! * an **item relation** describing the items rankings are over; every
//!   attribute value of an item becomes a label of that item, which is how
//!   queries over item attributes reduce to label patterns;
//! * preference relations (*p-relations*) whose tuples are *sessions*, each
//!   carrying session attributes (voter, poll date, …) and a Mallows model
//!   describing that session's uncertain ranking.
//!
//! Queries are conjunctive queries ([`ConjunctiveQuery`]) mixing preference
//! atoms `P(session…; a; b)` with relation atoms and comparisons. Evaluation
//! proceeds per session:
//!
//! 1. session attributes are bound and session-level selections applied;
//! 2. remaining join variables (`V⁺(Q)`) are grounded over their active
//!    domains (Algorithm 2), turning a non-itemwise CQ into a union of
//!    itemwise CQs;
//! 3. the union is translated into a [`ppd_patterns::PatternUnion`] and its
//!    marginal probability over the session's model is computed with the
//!    solvers of `ppd-solvers`;
//! 4. per-session probabilities are aggregated: Boolean queries use
//!    `1 − Π(1 − pᵢ)`, [`Engine::count_sessions`] sums them, and
//!    [`Engine::most_probable_sessions`] ranks sessions (optionally with the
//!    upper-bound top-k optimization of Section 3.2).
//!
//! Evaluation runs on the [`engine::Engine`]: identical `(model, pattern
//! union)` instances across sessions — and across queries — are deduplicated
//! into content-addressed work units (Section 6.4), solved once across a
//! worker pool, and cached, which is what makes evaluation over hundreds of
//! thousands of sessions practical. Hold one [`Engine`] to amortize its caches
//! and prepared per-model state across queries.

pub mod database;
pub mod engine;
pub mod eval;
pub mod query;
pub mod relation;
pub mod session;
pub mod topk;
pub mod translate;
pub mod value;

pub use database::{DatabaseBuilder, PpdDatabase, Update};
pub use engine::{
    BatchAnswer, CacheCapacity, CacheStats, Engine, EngineObs, PreparedModel, UnitKey, WaveAnswer,
    WavePlan, WorkUnit,
};
pub use eval::{ErrorBudget, EvalConfig, SolverChoice};
pub use query::{CompareOp, Comparison, ConjunctiveQuery, PreferenceAtom, RelationAtom, Term};
pub use relation::Relation;
pub use session::{PreferenceRelation, Session};
// Sessions carry a Mallows model, so the model types are part of this
// crate's public surface (e.g. for constructing `Update`s); re-exported so
// downstream crates need no direct `ppd_rim` dependency.
pub use ppd_rim::{MallowsModel, Ranking};
pub use topk::{SessionScore, TopKStats, TopKStrategy};
pub use translate::{ground_query, GroundedSessionQuery, QueryShape, SessionQuery};
pub use value::Value;

use ppd_patterns::PatternError;
use ppd_rim::RimError;
use ppd_solvers::SolverError;

/// Errors produced by the database and query-evaluation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PpdError {
    /// A relation, column, or item referenced by a query or builder call does
    /// not exist.
    UnknownName(String),
    /// A relation tuple or schema is malformed (wrong arity, duplicate key…).
    Malformed(String),
    /// The query is outside the supported fragment (e.g. preference atoms
    /// over two different p-relations).
    UnsupportedQuery(String),
    /// Propagated pattern error.
    Pattern(PatternError),
    /// Propagated ranking-model error.
    Rim(RimError),
    /// Propagated solver error.
    Solver(SolverError),
    /// A marginal-cache snapshot could not be written, read, or understood
    /// (I/O failure, bad magic/version, or a malformed body).
    Persist(String),
    /// The caller cancelled the query before its answer was assembled (see
    /// `Engine::evaluate_batch_streamed`); any still-pending
    /// work the query depended on alone is skipped.
    Cancelled,
}

impl PpdError {
    /// The stable, wire-safe name of this error's variant. Part of the wire
    /// protocol (the flattened eval error's `error_kind` field) and the
    /// label space of the service's error counters, so renaming a variant
    /// must not change its kind string.
    pub fn kind(&self) -> &'static str {
        match self {
            PpdError::UnknownName(_) => "unknown-name",
            PpdError::Malformed(_) => "malformed",
            PpdError::UnsupportedQuery(_) => "unsupported-query",
            PpdError::Pattern(_) => "pattern",
            PpdError::Rim(_) => "rim",
            PpdError::Solver(_) => "solver",
            PpdError::Persist(_) => "persist",
            PpdError::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for PpdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PpdError::UnknownName(n) => write!(f, "unknown name: {n}"),
            PpdError::Malformed(m) => write!(f, "malformed input: {m}"),
            PpdError::UnsupportedQuery(m) => write!(f, "unsupported query: {m}"),
            PpdError::Pattern(e) => write!(f, "pattern error: {e}"),
            PpdError::Rim(e) => write!(f, "ranking-model error: {e}"),
            PpdError::Solver(e) => write!(f, "solver error: {e}"),
            PpdError::Persist(m) => write!(f, "cache persistence error: {m}"),
            PpdError::Cancelled => write!(f, "query cancelled before evaluation completed"),
        }
    }
}

impl std::error::Error for PpdError {}

impl From<PatternError> for PpdError {
    fn from(e: PatternError) -> Self {
        PpdError::Pattern(e)
    }
}

impl From<RimError> for PpdError {
    fn from(e: RimError) -> Self {
        PpdError::Rim(e)
    }
}

impl From<SolverError> for PpdError {
    fn from(e: SolverError) -> Self {
        match e {
            // A cancel probe firing mid-solve is the same caller decision
            // as cancelling before the solve started.
            SolverError::Cancelled => PpdError::Cancelled,
            other => PpdError::Solver(other),
        }
    }
}

/// Convenience result alias for the database layer.
pub type Result<T> = std::result::Result<T, PpdError>;

#[cfg(test)]
pub(crate) mod testdb {
    //! The running example of the paper (Figure 1): a small polling database.

    use crate::database::{DatabaseBuilder, PpdDatabase};
    use crate::relation::Relation;
    use crate::session::{PreferenceRelation, Session};
    use crate::value::Value;
    use ppd_rim::{MallowsModel, Ranking};

    /// Items: 0 = Trump, 1 = Clinton, 2 = Sanders, 3 = Rubio.
    pub(crate) fn polling_database() -> PpdDatabase {
        let candidates = Relation::new(
            "Candidates",
            vec!["candidate", "party", "sex", "age", "edu", "reg"],
            vec![
                vec!["Trump", "R", "M", "70", "BS", "NE"],
                vec!["Clinton", "D", "F", "69", "JD", "NE"],
                vec!["Sanders", "D", "M", "75", "BS", "NE"],
                vec!["Rubio", "R", "M", "45", "JD", "S"],
            ]
            .into_iter()
            .map(|row| row.into_iter().map(Value::from).collect())
            .collect(),
        )
        .unwrap();
        let voters = Relation::new(
            "Voters",
            vec!["voter", "sex", "age", "edu"],
            vec![
                vec!["Ann", "F", "20", "BS"],
                vec!["Bob", "M", "30", "BS"],
                vec!["Dave", "M", "50", "MS"],
            ]
            .into_iter()
            .map(|row| row.into_iter().map(Value::from).collect())
            .collect(),
        )
        .unwrap();
        // Sessions of the Polls p-relation (Figure 1): item ids follow the
        // order of the Candidates relation.
        let ann = Session::new(
            vec![Value::from("Ann"), Value::from("5/5")],
            MallowsModel::new(Ranking::new(vec![1, 2, 3, 0]).unwrap(), 0.3).unwrap(),
        );
        let bob = Session::new(
            vec![Value::from("Bob"), Value::from("5/5")],
            MallowsModel::new(Ranking::new(vec![0, 3, 2, 1]).unwrap(), 0.3).unwrap(),
        );
        let dave = Session::new(
            vec![Value::from("Dave"), Value::from("6/5")],
            MallowsModel::new(Ranking::new(vec![1, 2, 3, 0]).unwrap(), 0.5).unwrap(),
        );
        let polls =
            PreferenceRelation::new("Polls", vec!["voter", "date"], vec![ann, bob, dave]).unwrap();
        DatabaseBuilder::new()
            .item_relation(candidates, "candidate")
            .relation(voters)
            .preference_relation(polls)
            .build()
            .unwrap()
    }

    /// A Polls-shaped database of 24 voters × 8 candidates (`cand0` …
    /// `cand7`, sexes and parties mixed): eight distinct centre rankings, three
    /// voters to each, dispersions 0.2 / 0.5 / 0.8.
    pub(crate) fn polls_24_by_8() -> PpdDatabase {
        let row =
            |cells: &[&str]| -> Vec<Value> { cells.iter().copied().map(Value::from).collect() };
        let candidates = Relation::new(
            "Candidates",
            vec!["candidate", "party", "sex", "age", "edu", "reg"],
            (0..8usize)
                .map(|c| {
                    let (party, sex) = (["D", "R"][c / 2 % 2], ["F", "M", "M"][c % 3]);
                    row(&[&format!("cand{c}"), party, sex, "50", "BS", "NE"])
                })
                .collect(),
        )
        .unwrap();
        let voters = Relation::new(
            "Voters",
            vec!["voter", "sex", "age", "edu"],
            (0..24)
                .map(|v| row(&[&format!("voter{v}"), "F", "30", "BS"]))
                .collect(),
        )
        .unwrap();
        // Eight centre rankings: a multiplicative walk over the items, then
        // a rotation — fixed, distinct, and far from each other.
        let centres: Vec<Ranking> = (0..8u32)
            .map(|c| {
                let stride = [1, 3, 5, 7][c as usize % 4];
                Ranking::new((0..8).map(|i| (i * stride + c) % 8).collect()).unwrap()
            })
            .collect();
        let sessions = (0..24usize)
            .map(|v| {
                Session::new(
                    vec![Value::from(format!("voter{v}")), Value::from("5/5")],
                    MallowsModel::new(centres[v * 5 % 8].clone(), [0.2, 0.5, 0.8][v % 3]).unwrap(),
                )
            })
            .collect();
        let polls = PreferenceRelation::new("Polls", vec!["voter", "date"], sessions).unwrap();
        DatabaseBuilder::new()
            .item_relation(candidates, "candidate")
            .relation(voters)
            .preference_relation(polls)
            .build()
            .unwrap()
    }

    #[test]
    fn polling_database_builds() {
        let db = polling_database();
        assert_eq!(db.num_items(), 4);
        assert_eq!(db.preference_relation("Polls").unwrap().sessions().len(), 3);
        assert!(db.relation("Voters").is_some());
        assert!(db.relation("Nope").is_none());
    }
}
