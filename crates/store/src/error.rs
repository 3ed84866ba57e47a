//! Typed storage errors. Every failure mode of the table file, the
//! write-ahead log and recovery is a distinct variant, so callers (and
//! the `cdb-sim` recovery checker) can tell honest crash artifacts
//! (a torn tail) from real corruption (a bad checksum mid-log).

use std::fmt;

/// Result alias for the store crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Everything that can go wrong in the durable layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying I/O operation failed. The `io::Error` is flattened
    /// to `(kind, message)` so the error stays `Clone`-able for repro
    /// files and test assertions.
    Io {
        /// `std::io::ErrorKind` as its stable debug name.
        kind: String,
        /// The operation that failed and the OS message.
        detail: String,
    },
    /// A WAL record is empty or larger than the frame limit,
    /// [`MAX_FRAME_PAYLOAD`](crate::wal::MAX_FRAME_PAYLOAD).
    RecordTooLarge {
        /// The record's size in bytes.
        len: usize,
    },
    /// A WAL segment is corrupt *before* its final record — not a torn
    /// tail (which recovery tolerates by truncation) but damage inside
    /// the settled prefix, which must surface loudly.
    WalCorrupt {
        /// Segment index the bad frame was found in.
        segment: u64,
        /// Byte offset of the bad frame within the segment.
        offset: u64,
        /// What failed (length, checksum, truncation).
        reason: String,
    },
    /// A serialized structure (table file, catalog, log record) failed
    /// to verify or decode: truncated, corrupt, or not ours.
    Decode {
        /// What was being decoded and why it failed.
        detail: String,
    },
    /// An error bubbled up from the in-memory table layer.
    Storage(cdb_storage::StorageError),
}

impl StoreError {
    /// Flatten an `io::Error` (not `Clone`) into the `Io` variant.
    pub fn io(context: &str, e: std::io::Error) -> StoreError {
        StoreError::Io { kind: format!("{:?}", e.kind()), detail: format!("{context}: {e}") }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { kind, detail } => write!(f, "io error ({kind}): {detail}"),
            StoreError::RecordTooLarge { len } => write!(f, "record of {len} bytes is too large"),
            StoreError::WalCorrupt { segment, offset, reason } => {
                write!(f, "wal segment {segment} corrupt at offset {offset}: {reason}")
            }
            StoreError::Decode { detail } => write!(f, "decode failed: {detail}"),
            StoreError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<cdb_storage::StorageError> for StoreError {
    fn from(e: cdb_storage::StorageError) -> Self {
        StoreError::Storage(e)
    }
}
