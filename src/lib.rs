//! # ppd
//!
//! Umbrella crate for the `ppd` workspace — a Rust implementation of
//! *"Supporting Hard Queries over Probabilistic Preferences"* (VLDB 2020):
//! probabilistic preference databases (RIM-PPDs) and the exact and
//! approximate solvers needed to evaluate hard conjunctive, count and top-k
//! queries over them.
//!
//! The umbrella crate simply re-exports the workspace members under stable
//! module names so applications can depend on a single crate:
//!
//! * [`rim`] — rankings, partial orders, RIM, Mallows, AMP sampling;
//! * [`patterns`] — label patterns, pattern unions, satisfaction,
//!   decomposition, upper-bound relaxations;
//! * [`solvers`] — the exact (two-label, bipartite, general) and approximate
//!   (rejection, IS-AMP, MIS-AMP-lite/adaptive) solvers;
//! * [`core`] — the RIM-PPD database, conjunctive queries, and the parallel,
//!   cache-backed [`core::engine::Engine`] whose methods evaluate Boolean,
//!   Count-Session and Most-Probable-Session queries, one by one or in
//!   batches;
//! * [`service`] — the multi-tenant query front door: one engine per
//!   database behind one two-class admission layer, wave batching, deadlines with
//!   cancellation, streamed per-query answers, and a line-delimited JSON
//!   wire protocol over TCP/Unix sockets;
//! * [`obs`] — the zero-bit-impact observability layer: lock-free metric
//!   instruments with Prometheus-style text exposition, and per-submission
//!   span traces served through the wire protocol's `metrics` and `trace`
//!   verbs;
//! * [`datagen`] — generators for the paper's experimental datasets.
//!
//! See `examples/quickstart.rs` for a five-minute tour and README.md
//! ("Workspace layout" onwards) for the full system inventory.

pub use ppd_core as core;
pub use ppd_datagen as datagen;
pub use ppd_obs as obs;
pub use ppd_patterns as patterns;
pub use ppd_rim as rim;
pub use ppd_service as service;
pub use ppd_solvers as solvers;

/// Commonly used types, re-exported flat for convenience.
pub mod prelude {
    pub use ppd_core::{
        BatchAnswer, CacheCapacity, CacheStats, CompareOp, ConjunctiveQuery, DatabaseBuilder,
        Engine, EngineObs, ErrorBudget, EvalConfig, PpdDatabase, PreferenceRelation, Relation,
        Session, SolverChoice, Term, TopKStrategy, Update, Value,
    };
    pub use ppd_obs::{Histogram, ObsConfig, Registry, SpanEvent, SpanRecord, TraceMode};
    pub use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion};
    pub use ppd_rim::{MallowsModel, Ranking, RimModel};
    pub use ppd_service::{
        AdmissionClass, Answer, Request, Service, ServiceConfig, ServiceError, ServiceStats,
        SubmitOptions, Ticket, WireClient, WireServer, WireStatsReport, DEFAULT_DATABASE,
    };
    pub use ppd_solvers::{
        ApproxSolver, BipartiteSolver, ExactSolver, GeneralSolver, MisAmpAdaptive, MisAmpLite,
        RejectionSampler, TwoLabelSolver,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let ranking = Ranking::identity(3);
        let model = MallowsModel::new(ranking, 0.5).unwrap();
        assert_eq!(model.num_items(), 3);
    }
}
