//! Observability substrate for CDB.
//!
//! CDB's whole contribution is a multi-goal optimizer trading monetary
//! cost, latency (rounds) and answer quality — so the system must be able
//! to say *where* each of those three currencies was spent, not just
//! report end-of-run aggregates. This crate provides the pieces, std-only
//! (no external deps, usable from every other crate without cycles):
//!
//! * **Events and spans** ([`event`], [`span`]): a fixed-size, allocation
//!   free [`Event`] record (name + virtual timestamp + up to
//!   [`event::MAX_KV`] key/value pairs) and hierarchical, *content-derived*
//!   [`SpanId`]s. Because span ids are pure functions of what the span is
//!   about — `(query, round, task, …)` — and never of thread identity or
//!   wall-clock, the event stream of a deterministic run is itself
//!   deterministic: sorted canonically it is byte-identical at any thread
//!   count.
//! * **Collection** ([`collect`]): the [`Collector`] trait, the no-op
//!   collector ([`Trace::off`] — tracing compiled in but zero work done),
//!   a fan-out, a context wrapper that stamps every event with the query
//!   it belongs to, and [`Ring`] — a lock-free bounded MPMC ring buffer
//!   with drop-counting, so tracing can never block the executor's
//!   worker threads.
//! * **Attribution** ([`attr`]): fold an event stream into per-query /
//!   per-plan-node / per-round rollups of money (task price × dispatches),
//!   virtual latency and quality (decision confidence, vote entropy), with
//!   a conservation check against the runtime's aggregate counters.
//! * **Exposition** ([`json`], [`prom`], [`trace_event`]): a tiny
//!   hand-rolled JSON writer (the workspace is std-only), a Prometheus
//!   text-format writer + line-format validator, and a Chrome `trace_event` JSON emitter loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//! * **Profiling** ([`hist`], [`profile`]): the *wall-clock* domain,
//!   deliberately separate from the deterministic virtual-time streams
//!   above. [`Hist`] is a fixed-precision log-bucketed histogram whose
//!   merge is bucket-wise addition (byte-identical at any thread count);
//!   [`profile::Profiler`] turns RAII [`profile::phase`] guards placed in
//!   hot functions into a per-phase self-time tree with a text report
//!   and a wall-clock Chrome-trace export.

pub mod attr;
pub mod collect;
pub mod event;
pub mod hist;
pub mod json;
pub mod profile;
pub mod prom;
pub mod span;
pub mod trace_event;

pub use attr::{Attribution, ConservationTotals, NodeAttribution, QueryAttribution};
pub use collect::{Collector, Fanout, Noop, Ring, Trace, WithContext};
pub use event::{Event, EventKind, KvList, Value, MAX_KV};
pub use hist::Hist;
pub use profile::{PhaseGuard, ProfileReport, Profiler};
pub use prom::{validate_exposition, PromText};
pub use span::{Span, SpanId};
pub use trace_event::chrome_trace;
