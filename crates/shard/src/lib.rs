//! `cdb-shard` — component-sharded scale-out execution.
//!
//! The tuple graph of a crowd query decomposes into *connected
//! components*: candidate answers are connected substructures, and
//! transitive inference never crosses a component boundary, so the
//! query's answer set is exactly the disjoint union of its components'
//! answer sets. That independence is the scale-out seam this crate
//! exploits:
//!
//! - [`partition`](partition::partition) splits each query's graph into
//!   components with deterministic ids (ascending minimum node id), and
//!   [`verify_partition`] re-derives the
//!   invariants — every edge in exactly one component, no node overlap,
//!   internal connectivity, canonical order — as a typed violation the
//!   simulation's sabotage modes must trip.
//! - [`ShardExecutor`] places units (one per
//!   component) across worker shards with deterministic LPT placement,
//!   streams components through a byte-accounted
//!   [`Arena`] under a plan-time ceiling
//!   ([`ShardError::ComponentTooLarge`](memory::ShardError)), and runs
//!   each unit with randomness keyed purely by `(query, component)` —
//!   so an N-shard run is byte-identical to the 1-shard oracle at any
//!   thread count.
//! - The [`merge`] layer reassembles per-component bindings in
//!   deterministic component-id order and folds shard-local metrics
//!   collectors into one fleet-wide snapshot by field-wise sum.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod memory;
pub mod merge;
pub mod partition;

pub use executor::{
    unit_seed, ShardConfig, ShardExecutor, ShardReport, ShardStats, UnitOutcome, SHARD_STREAM,
};
pub use memory::{component_bytes, Arena, MemoryConfig, ShardError};
pub use merge::sum_snapshots;
pub use partition::{
    component_job, partition, verify_partition, Component, Partition, PartitionViolation,
};
