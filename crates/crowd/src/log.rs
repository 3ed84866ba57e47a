//! Assignment metadata: who answered what.
//!
//! CDB "maintain[s] the assignment of a task to a worker as well as the
//! corresponding result" (§2.1, MetaData & Statistics). Every round hands
//! its assignments back to the caller, whose truth inference and
//! worker-quality estimation read them.

use crate::{Answer, TaskId, WorkerId};

/// One (task, worker, answer) record.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Task answered.
    pub task: TaskId,
    /// Answering worker.
    pub worker: WorkerId,
    /// The answer given.
    pub answer: Answer,
}
