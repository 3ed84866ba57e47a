//! Assignment metadata: who answered what.
//!
//! CDB "maintain[s] the assignment of a task to a worker as well as the
//! corresponding result" (§2.1, MetaData & Statistics). Truth inference and
//! worker-quality estimation read this log.

use std::collections::BTreeMap;

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
    /// Round in which the answer was collected (latency bookkeeping).
    pub round: usize,
}

/// Append-only log of assignments, indexed by task.
#[derive(Debug, Clone, Default)]
pub struct AssignmentLog {
    by_task: BTreeMap<TaskId, Vec<Assignment>>,
    total: usize,
}

impl AssignmentLog {
    /// Empty log.
    pub fn new() -> Self {
        AssignmentLog::default()
    }

    /// Record one answer.
    pub fn record(&mut self, a: Assignment) {
        self.by_task.entry(a.task).or_default().push(a);
        self.total += 1;
    }

    /// All answers for one task (empty slice if none).
    pub fn answers(&self, task: TaskId) -> &[Assignment] {
        self.by_task.get(&task).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct tasks with at least one answer.
    pub fn task_count(&self) -> usize {
        self.by_task.len()
    }

    /// Total number of assignments.
    pub fn assignment_count(&self) -> usize {
        self.total
    }

    /// Iterate over `(task, answers)` pairs in task order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &[Assignment])> {
        self.by_task.iter().map(|(t, v)| (*t, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(task: u64, worker: u32, choice: usize, round: usize) -> Assignment {
        Assignment {
            task: TaskId(task),
            worker: WorkerId(worker),
            answer: Answer::Choice(choice),
            round,
        }
    }

    #[test]
    fn record_and_read_back() {
        let mut log = AssignmentLog::new();
        log.record(asg(1, 1, 0, 0));
        log.record(asg(1, 2, 1, 0));
        log.record(asg(2, 1, 0, 1));
        assert_eq!(log.answers(TaskId(1)).len(), 2);
        assert_eq!(log.answers(TaskId(3)).len(), 0);
        assert_eq!(log.task_count(), 2);
        assert_eq!(log.assignment_count(), 3);
    }

    #[test]
    fn iteration_is_task_ordered() {
        let mut log = AssignmentLog::new();
        log.record(asg(5, 1, 0, 0));
        log.record(asg(2, 1, 0, 0));
        let order: Vec<u64> = log.iter().map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![2, 5]);
    }
}
