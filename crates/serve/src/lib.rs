//! `cdb-serve` — the wire surface: a multi-tenant CQL service over
//! HTTP/1.1, std-only, in front of the crowd runtime.
//!
//! Sessions `POST /queries` with CQL text and a tenant name, get a typed
//! admission decision (`admitted` / `queued` / `rejected`) from the
//! tenant's [`cdb_sched`] money/concurrency envelope, then stream result
//! bindings from `GET /queries/{id}/stream` as NDJSON chunks *while the
//! crowd is still answering* — the runtime's per-round hook pushes each
//! round's newly-resolved bindings straight onto the wire. `/metrics`
//! re-exposes the runtime's Prometheus families plus the serve layer's
//! own.
//!
//! Three guarantees the tests pin down:
//!
//! 1. **Replay determinism on the wire** — for a fixed server seed and
//!    submission order, every query's NDJSON stream is byte-identical
//!    regardless of the execution worker-pool size (1/4/8), because
//!    execution randomness is keyed by `(seed, query id)` and chunks
//!    carry no wall-clock state.
//! 2. **Zero lost or duplicated bindings** — the streamed union (minus
//!    retractions) equals the in-process [`oracle`]'s answer set, per
//!    query, with over a thousand queries in flight
//!    (`tests/wire.rs::a_thousand_in_flight_queries_stream_exactly_the_oracle`).
//! 3. **Money conservation** — admission holds the pessimistic cost
//!    envelope; completion refunds exactly the unspent part, failures
//!    refund everything, and a client disconnect mid-stream cancels the
//!    query and refunds what the crowd never consumed.
//!
//! See `docs/OPERATIONS.md` for running the server and `docs/CQL.md` for
//! the query language it accepts.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod oracle;
pub mod server;
pub mod state;
pub mod wire;

pub use client::{Client, HttpResponse, SubmitOutcome};
pub use oracle::{verify_streams, OracleCheck};
pub use server::{start, Server};
pub use state::{QueryState, ServeConfig, ServerState};
pub use wire::{StreamEvent, Submit};
