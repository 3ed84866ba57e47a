//! Fault injection: worker dropout, slow workers and abandoned HITs.
//!
//! Every fault decision is drawn from a stream keyed by
//! `(plan.seed, query, round, task, worker, attempt)` — see
//! [`cdb_crowd::stream_rng`] — so the *same plan always injects the same
//! faults*, independent of thread count or scheduling. That is what makes
//! a `(seed, fault_plan)` pair a replayable artifact: rerunning it yields
//! byte-identical query answers.

use cdb_crowd::{stream_rng, SimTime, TaskId, WorkerId};
use rand::Rng;

/// Which fault (if any) hits one dispatched assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the answer arrives normally.
    None,
    /// The worker dropped off the platform; the answer never arrives.
    Dropout,
    /// The worker accepted the HIT, then walked away without submitting.
    Abandoned,
    /// The worker responds, but slower by the plan's `slow_factor`.
    Slow,
}

/// A deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed of the fault streams.
    pub seed: u64,
    /// Per-assignment probability the worker has dropped out.
    pub dropout_rate: f64,
    /// Per-assignment probability the HIT is abandoned.
    pub abandon_rate: f64,
    /// Per-assignment probability the response is slowed.
    pub slow_rate: f64,
    /// Latency multiplier for slow responses.
    pub slow_factor: f64,
    /// Forced dropouts: `(worker, at)` — from virtual instant `at` on, the
    /// worker never delivers an answer. For scripting targeted scenarios
    /// in tests and experiments.
    forced_dropouts: Vec<(WorkerId, SimTime)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            dropout_rate: 0.0,
            abandon_rate: 0.0,
            slow_rate: 0.0,
            slow_factor: 4.0,
            forced_dropouts: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A quick mixed plan: `rate` split evenly across dropout, abandonment
    /// and slowness.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let each = rate / 3.0;
        FaultPlan {
            seed,
            dropout_rate: each,
            abandon_rate: each,
            slow_rate: each,
            ..FaultPlan::default()
        }
    }

    /// Set the per-assignment dropout probability.
    pub fn with_dropout(mut self, rate: f64) -> Self {
        self.dropout_rate = rate;
        self
    }

    /// Set the per-assignment abandoned-HIT probability.
    pub fn with_abandon(mut self, rate: f64) -> Self {
        self.abandon_rate = rate;
        self
    }

    /// Set the slow-response probability and multiplier.
    pub fn with_slow(mut self, rate: f64, factor: f64) -> Self {
        self.slow_rate = rate;
        self.slow_factor = factor;
        self
    }

    /// Force `worker` to drop out at virtual instant `at`.
    pub fn drop_worker(mut self, worker: WorkerId, at: SimTime) -> Self {
        self.forced_dropouts.push((worker, at));
        self
    }

    /// Is `worker` force-dropped at or before `t`?
    pub fn worker_dropped_by(&self, worker: WorkerId, t: SimTime) -> bool {
        self.forced_dropouts.iter().any(|&(w, at)| w == worker && at <= t)
    }

    /// The fault hitting one `(query, round, task, worker, attempt)`
    /// dispatch — a pure function of the plan and the key. A plan whose
    /// rates are all zero (or below) draws nothing: no draw could fault.
    pub fn fault_for(
        &self,
        query: u64,
        round: u64,
        task: TaskId,
        worker: WorkerId,
        attempt: u32,
    ) -> Fault {
        if [self.dropout_rate, self.abandon_rate, self.slow_rate].iter().all(|&r| r <= 0.0) {
            return Fault::None;
        }
        let mut rng = stream_rng(
            self.seed,
            &[0xFA_17, query, round, task.0, u64::from(worker.0), u64::from(attempt)],
        );
        let u: f64 = rng.gen();
        if u < self.dropout_rate {
            Fault::Dropout
        } else if u < self.dropout_rate + self.abandon_rate {
            Fault::Abandoned
        } else if u < self.dropout_rate + self.abandon_rate + self.slow_rate {
            Fault::Slow
        } else {
            Fault::None
        }
    }
}

/// Per-assignment deadline and retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual milliseconds an assignment may stay unanswered before the
    /// task is reassigned.
    pub deadline_ms: SimTime,
    /// How many reassignments a task may consume before the query fails.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Two virtual minutes per assignment, three reassignments.
        RetryPolicy { deadline_ms: 120_000, max_retries: 3 }
    }
}

/// Typed runtime failures — surfaced as `Err`, never as a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A task missed its deadline more times than the retry budget allows.
    RetryBudgetExhausted {
        /// The task that kept timing out.
        task: TaskId,
        /// Dispatch attempts consumed (original + retries).
        attempts: u32,
    },
    /// Reassignment needed a fresh worker but every worker was excluded.
    NoEligibleWorker {
        /// The task that could not be reassigned.
        task: TaskId,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::RetryBudgetExhausted { task, attempts } => {
                write!(f, "task {task:?} exhausted its retry budget after {attempts} attempts")
            }
            RuntimeError::NoEligibleWorker { task } => {
                write!(f, "no eligible worker left to reassign task {task:?}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_deterministic_per_key() {
        let plan = FaultPlan::uniform(9, 0.6);
        for q in 0..4 {
            for t in 0..4 {
                let a = plan.fault_for(q, 0, TaskId(t), WorkerId(1), 0);
                let b = plan.fault_for(q, 0, TaskId(t), WorkerId(1), 0);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan {
            seed: 3,
            dropout_rate: 0.25,
            abandon_rate: 0.0,
            slow_rate: 0.0,
            ..FaultPlan::default()
        };
        let n = 4000;
        let drops = (0..n)
            .filter(|&i| plan.fault_for(0, 0, TaskId(i), WorkerId(0), 0) == Fault::Dropout)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn zero_rate_plan_is_faultless() {
        let plan = FaultPlan::none();
        for t in 0..64 {
            assert_eq!(plan.fault_for(1, 2, TaskId(t), WorkerId(3), 0), Fault::None);
        }
    }

    #[test]
    fn forced_dropout_applies_from_its_instant() {
        let plan = FaultPlan::none().drop_worker(WorkerId(5), 1000);
        assert!(!plan.worker_dropped_by(WorkerId(5), 999));
        assert!(plan.worker_dropped_by(WorkerId(5), 1000));
        assert!(plan.worker_dropped_by(WorkerId(5), 2000));
        assert!(!plan.worker_dropped_by(WorkerId(6), 2000));
    }

    #[test]
    fn errors_render_without_hanging_anything() {
        let e = RuntimeError::RetryBudgetExhausted { task: TaskId(7), attempts: 4 };
        assert!(e.to_string().contains("retry budget"));
        let e = RuntimeError::NoEligibleWorker { task: TaskId(7) };
        assert!(e.to_string().contains("eligible"));
    }
}
