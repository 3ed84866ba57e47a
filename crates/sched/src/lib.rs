//! Multi-query scheduling for CDB: admission control, fair-share rounds
//! and cross-query HIT batching.
//!
//! The paper optimizes one query at a time; under the "heavy traffic"
//! north star many queries hit the crowd *together*, and per-query
//! dispatch wastes both money (every query pays for its own partial HITs)
//! and fairness (a large join can monopolize the worker pool the way a
//! table scan monopolizes a disk). This crate sits between the `Cdb`
//! facade and the runtime engine and adds the multi-query layer:
//!
//! * [`admission`] — typed admission against a global money/worker
//!   envelope: [`AdmissionDecision::Admitted`] /
//!   [`AdmissionDecision::Queued`] (bounded — backpressure, not unbounded
//!   queueing) / [`AdmissionDecision::Rejected`], holding each query's
//!   pre-execution [`cdb_core::CostEstimate`] against the envelope.
//! * [`drr`] — deficit-round-robin interleaving of per-query round traces
//!   into global crowd rounds, preserving each query's solo latency bound.
//! * [`scheduler`] — the driver, one admit → wave → bill loop
//!   ([`Scheduler::run_waves`]): execute admitted waves — on the unmodified
//!   deterministic [`cdb_runtime::RuntimeExecutor`] for [`Scheduler::run`],
//!   on `cdb-shard`'s executor for sharded fleets — interleave, and bill
//!   global rounds as shared HITs ([`cdb_crowd::pack_shared`]) with
//!   cents-exact per-query attribution. The run's bill is kept once, in
//!   [`BillingReport`]; admission verdicts are also the `sched.admit` /
//!   `sched.queue` / `sched.reject` events on [`SchedConfig::trace`].
//!
//! Batching never changes answers: execution is per-query deterministic
//! and the scheduler only re-packs the billing — see the determinism notes
//! on [`scheduler`].

#![deny(missing_docs)]

pub mod admission;
pub mod drr;
pub mod scheduler;

pub use admission::{AdmissionController, AdmissionDecision, Envelope, QueryRequest, RejectReason};
pub use drr::{DrrConfig, GlobalRound};
pub use scheduler::{BillingReport, RoundRecord, SchedConfig, SchedJob, SchedReport, Scheduler};
