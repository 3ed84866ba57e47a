//! Admission control for CDB: the money/concurrency envelope every served
//! query is held against before it gets near the crowd.
//!
//! The paper optimizes one query at a time; a service runs many at once
//! and must not promise more money or more concurrent queries than it
//! has. [`AdmissionController`] answers each arrival with
//! [`AdmissionDecision::Admitted`], [`AdmissionDecision::Queued`]
//! (bounded — backpressure, not unbounded queueing) or
//! [`AdmissionDecision::Rejected`] with a typed [`RejectReason`], holding
//! each query's pre-execution [`cdb_core::CostEstimate`] against the
//! [`Envelope`], and promotes queued queries FIFO as completions free
//! money and slots.

#![deny(missing_docs)]

pub mod admission;

pub use admission::{AdmissionController, AdmissionDecision, Envelope, QueryRequest, RejectReason};
