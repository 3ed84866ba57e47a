//! CDB core: the graph-based query model and the unified multi-goal query
//! optimizer of *CDB: Optimizing Queries with Crowd-Based Selections and
//! Joins* (SIGMOD 2017).
//!
//! Existing crowd databases (CrowdDB, Qurk, Deco, CrowdOP) optimize with a
//! *tree model* — a table-level join order — which asks the same task order
//! for every joined tuple. CDB instead builds a **graph** whose vertices
//! are tuples and whose edges are crowd tasks ("can these two values be
//! joined?") weighted by a similarity-derived matching probability, and
//! optimizes at the tuple level:
//!
//! * **Cost** (§5.1): ask the fewest edges that determine all answers —
//!   optimal min-cut selection when colors are known ([`cost::known`]), a
//!   sampling + min-cut greedy ([`cost::sampling`]), the expectation-based
//!   ordering of Eq. 1 ([`cost::expectation`]) and budget-aware selection
//!   ([`cost::budget`]).
//! * **Latency** (§5.2): ask mutually non-conflicting tasks in the same
//!   round ([`latency`]).
//! * **Quality** (§5.3): truth inference and online task assignment,
//!   integrated in the round loop ([`executor`]).
//!
//! The [`Cdb`] façade runs a CQL query end to end against a (simulated)
//! crowd platform.

#![deny(missing_docs)]

pub mod build;
pub mod candidate;
pub mod cost;
pub mod executor;
pub mod fillcollect;
pub mod latency;
pub mod metrics;
pub mod model;
pub mod ops;
pub mod prune;
pub mod reuse;
pub mod truth;

mod cdb;

pub use build::{build_query_graph, build_query_graph_indexed, GraphBuildConfig, PredicateIndex};
pub use candidate::{enumerate_candidates, Candidate, CandidateFilter};
pub use cdb::{analyze_sql, plan_select, Cdb, CdbConfig, QueryOutcome};
pub use cost::estimate::CostEstimate;
pub use executor::{ExecutionStats, Executor, ExecutorConfig, QualityStrategy, SelectionStrategy};
pub use metrics::{f_measure, precision_recall, PrMetrics};
pub use model::{Color, EdgeId, NodeId, PartId, PartKind, QueryGraph};
pub use reuse::{
    normalize, Provenance, Recorded, ReuseCache, ReuseOutcome, ReuseSession, SettleSink,
    SettledFact,
};
pub use truth::{EdgeTruth, QueryTruth, SimCrowd};
