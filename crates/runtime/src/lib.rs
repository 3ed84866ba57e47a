//! Concurrent crowd-execution runtime for CDB.
//!
//! The paper's execution loop (Algorithm 1) is round-synchronous: publish
//! a batch, wait for every answer, infer, repeat. Real crowds are not
//! synchronous — workers answer at their own pace, drop out, abandon
//! HITs — and a deployment runs *many* queries at once. This crate adds
//! that missing layer on top of `cdb-core`'s optimizer:
//!
//! * **Scheduling** ([`RuntimeExecutor`], [`run_units`]): a fleet's jobs
//!   run on scoped threads pulling from one cursor; the fleet protocol
//!   (one reuse snapshot per unit, settle-after-fsync, absorb in unit
//!   order) lives once, in [`run_units`], shared with `cdb-shard`.
//! * **Virtual time** ([`engine::RuntimeEngine`] + `cdb-crowd`'s
//!   [`cdb_crowd::LatencyModel`]/[`cdb_crowd::OpenRound`]): rounds
//!   complete as answers arrive on a simulated clock, not in lockstep.
//! * **Fault injection** ([`fault::FaultPlan`]): worker dropout, slow
//!   workers and abandoned HITs, with per-assignment deadlines, bounded
//!   retry and reassignment to a different worker (respecting
//!   [`cdb_crowd::Market::supports_online_assignment`]). Exhausted budgets
//!   surface as [`fault::RuntimeError`] — typed, never a hang.
//! * **Deterministic replay**: every stochastic decision is drawn from a
//!   stream keyed by *what the decision is about*
//!   ([`cdb_crowd::stream_rng`]), so a `(seed, fault_plan)` pair yields
//!   byte-identical [`RuntimeReport::answers`] at any thread count.
//! * **Telemetry** ([`metrics::RuntimeMetrics`]): dispatches, retries,
//!   timeouts, reassignments and a per-round latency histogram, exported
//!   as JSON for the bench figures.

#![deny(missing_docs)]

pub mod engine;
pub mod fault;
pub mod metrics;

mod executor;
mod fleet;

pub use engine::RuntimeEngine;
pub use executor::{
    bindings_text, execute_query, failed_count, ok_count, settled_facts, QueryJob, QueryResult,
    RoundHook, RoundSink, RuntimeConfig, RuntimeExecutor, RuntimeReport, SettleHook,
};
pub use fault::{Fault, FaultPlan, RetryPolicy, RuntimeError};
pub use fleet::{run_units, UnitRun};
pub use metrics::{MetricsSnapshot, RuntimeMetrics};
