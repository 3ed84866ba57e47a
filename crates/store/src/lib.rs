//! `cdb-store`: durable storage for CDB.
//!
//! Crowd answers are the most expensive artifact a CDB deployment owns —
//! the whole optimization story of *CDB: Optimizing Queries with
//! Crowd-Based Selections and Joins* (SIGMOD 2017) exists to avoid
//! buying an answer twice — yet without this crate a process restart
//! forfeits every cent spent. `cdb-store` gives the three artifacts that
//! matter a crash-safe home:
//!
//! 1. **The crowd answer + provenance log** ([`AnswerLog`]): every
//!    settled `(measure, value-pair, votes, cents)` fact, fsync'd
//!    *before* the engine treats the answer as settled, with a commit
//!    marker separating settled facts from the partial output of failed
//!    or aborted queries.
//! 2. **The durable reuse cache** ([`DurableReuseCache`]): a
//!    [`cdb_core::ReuseCache`] rebuilt from the log on every open, so
//!    cross-query entailment (transitivity-style inference) survives
//!    restarts and never re-buys an answer.
//! 3. **Durable tables** ([`TableFile`]): the file a
//!    `cdb_storage::Database` is reopened from ([`TableFile::open`]) and
//!    flushed to ([`TableFile::flush`]); the catalog type itself stays
//!    `cdb-storage`'s.
//!
//! The substrate is deliberately small: the answer log sits on a
//! length-prefixed, CRC-framed [write-ahead log](wal) with segment
//! rotation and torn-tail repair, and a table file is [one checksummed
//! snapshot](db) committed by write-temp → fsync → rename. Recovery is
//! verified end to end by `cdb-sim`'s kill-and-recover differential
//! scenarios.

#![deny(missing_docs)]

pub mod alog;
pub mod codec;
pub mod crc;
pub mod db;
pub mod dur;
pub mod error;
pub mod scratch;
pub mod wal;

pub use alog::{AnswerLog, AnswerRecovery};
pub use db::{FlushStats, TableFile};
pub use dur::DurableReuseCache;
pub use error::{Result, StoreError};
pub use scratch::ScratchDir;
pub use wal::{RecoveryReport, Wal, DEFAULT_SEGMENT_BYTES};
