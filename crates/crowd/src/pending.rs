//! Non-blocking answer collection with per-assignment deadlines.
//!
//! [`SimulatedPlatform::publish_round`](crate::SimulatedPlatform::publish_round)
//! hands back a batch of [`PendingAssignment`]s instead of blocking: answers
//! are *pending* until the virtual clock reaches their arrival instant, and
//! each assignment carries a deadline after which the requester may reassign
//! the task to a different worker. Queued in an [`OpenRound`] — one
//! time-ordered event queue per round — they are the substrate `cdb-runtime`
//! builds its event loop on.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::latency::SimTime;
use crate::{Answer, Assignment, TaskId, Worker, WorkerId};

/// One in-flight assignment: dispatched to a worker, answer not yet in.
#[derive(Debug, Clone)]
pub struct PendingAssignment {
    /// The task the worker is answering.
    pub task: TaskId,
    /// The worker it was assigned to.
    pub worker: Worker,
    /// The answer the worker will submit when they respond — pre-drawn at
    /// dispatch so that arrival order cannot change its value.
    pub answer: Answer,
    /// Virtual instant the assignment was dispatched.
    pub dispatched_at: SimTime,
    /// Virtual instant the answer arrives; `None` when the worker dropped
    /// out or abandoned the HIT and will never respond.
    pub arrives_at: Option<SimTime>,
    /// Per-assignment deadline, after which the requester reassigns.
    pub deadline: SimTime,
    /// 0 for the original dispatch; incremented on each reassignment.
    pub attempt: u32,
}

impl PendingAssignment {
    /// True once the virtual clock has reached the arrival instant.
    pub fn arrived_by(&self, now: SimTime) -> bool {
        matches!(self.arrives_at, Some(t) if t <= now)
    }

    /// True when the deadline has passed without the answer arriving in
    /// time: the trigger for reassignment.
    pub fn overdue_at(&self, now: SimTime) -> bool {
        now >= self.deadline && !self.arrived_by(self.deadline)
    }

    /// Turn an arrived pending assignment into a log-ready [`Assignment`].
    pub fn into_assignment(self, round: usize) -> Assignment {
        Assignment { task: self.task, worker: self.worker.id, answer: self.answer, round }
    }
}

/// A queued assignment under its sort key: the one instant it next matters
/// — its arrival if that is in time, else its deadline — and which of the
/// two that is. `epoch` is its task's cancel count when it was queued.
#[derive(Debug)]
struct Queued {
    at: SimTime,
    overdue: bool,
    epoch: u32,
    p: PendingAssignment,
}

impl Queued {
    fn key(&self) -> (SimTime, bool, TaskId, WorkerId, u32) {
        (self.at, self.overdue, self.p.task, self.p.worker.id, self.p.attempt)
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    /// Reversed, so that `BinaryHeap`'s maximum is the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A published batch whose answers are collected as virtual time advances —
/// the non-blocking counterpart of a synchronous round.
///
/// One min-heap of events keyed `(instant, arrival before overdue, task,
/// worker, attempt)`. The caller visits instants in non-decreasing order,
/// at each one calling [`collect_arrived`](OpenRound::collect_arrived) and
/// then [`take_overdue`](OpenRound::take_overdue), may [`push`](OpenRound::push)
/// replacements whose arrival and deadline lie after that instant, and moves
/// to [`next_event_after`](OpenRound::next_event_after). Under that contract
/// an answer that would land after its own deadline is never collected: the
/// deadline comes first and takes it.
#[derive(Debug, Default)]
pub struct OpenRound {
    round: usize,
    queue: BinaryHeap<Queued>,
    /// Per task: how often it was cancelled, and its assignments in flight.
    /// Entries queued under an older count stay in the heap, dead, until
    /// they surface; the head of the heap is always live.
    tasks: HashMap<TaskId, (u32, usize)>,
    in_flight: usize,
}

impl OpenRound {
    /// An empty round whose collected assignments are recorded under `round`.
    pub fn new(round: usize) -> Self {
        OpenRound { round, ..OpenRound::default() }
    }

    /// Queue one in-flight assignment. Its `arrives_at` must be final: the
    /// key is computed here.
    pub fn push(&mut self, p: PendingAssignment) {
        let arrival = p.arrives_at.filter(|&t| t <= p.deadline);
        let (epoch, live) = self.tasks.entry(p.task).or_default();
        *live += 1;
        self.in_flight += 1;
        let (at, overdue) = (arrival.unwrap_or(p.deadline), arrival.is_none());
        self.queue.push(Queued { at, overdue, epoch: *epoch, p });
    }

    /// Pop the head if it is due by `now` and of the asked kind.
    fn pop_due(&mut self, now: SimTime, overdue: bool) -> Option<PendingAssignment> {
        let head = self.queue.peek()?;
        if head.at > now || head.overdue != overdue {
            return None;
        }
        let p = self.queue.pop()?.p;
        self.tasks.get_mut(&p.task).expect("queued task is counted").1 -= 1;
        self.in_flight -= 1;
        self.drop_dead_heads();
        Some(p)
    }

    fn drop_dead_heads(&mut self) {
        while self.queue.peek().is_some_and(|q| q.epoch != self.tasks[&q.p.task].0) {
            self.queue.pop();
        }
    }

    /// Remove and return every assignment whose answer has arrived by
    /// `now`, in deterministic (arrival, task, worker) order.
    pub fn collect_arrived(&mut self, now: SimTime) -> Vec<Assignment> {
        let round = self.round;
        std::iter::from_fn(|| self.pop_due(now, false)).map(|p| p.into_assignment(round)).collect()
    }

    /// Remove and return every assignment past its deadline with no answer
    /// in time, in deterministic (deadline, task, worker) order — the
    /// caller decides whether to reassign each one.
    pub fn take_overdue(&mut self, now: SimTime) -> Vec<PendingAssignment> {
        std::iter::from_fn(|| self.pop_due(now, true)).collect()
    }

    /// Drop every in-flight assignment of `task` (its outcome is decided)
    /// and return how many there were. A cancelled assignment never arrives,
    /// never goes overdue and never is the next event.
    pub fn cancel(&mut self, task: TaskId) -> usize {
        let Some((epoch, live)) = self.tasks.get_mut(&task) else { return 0 };
        *epoch += 1;
        let n = std::mem::take(live);
        self.in_flight -= n;
        self.drop_dead_heads();
        n
    }

    /// The earliest virtual instant strictly after `now` at which
    /// [`OpenRound::collect_arrived`] or [`OpenRound::take_overdue`] could
    /// yield more work, or `None` when nothing is pending. Also `None` when
    /// the head is not after `now` — an assignment pushed with a deadline
    /// that had already passed — so that a caller's clock always moves.
    pub fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        self.queue.peek().map(|q| q.at).filter(|&t| t > now)
    }

    /// Number of assignments still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True once every pending assignment has arrived or timed out and
    /// been taken.
    pub fn is_drained(&self) -> bool {
        self.in_flight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(
        task: u64,
        worker: u32,
        arrives_at: Option<SimTime>,
        deadline: SimTime,
    ) -> PendingAssignment {
        PendingAssignment {
            task: TaskId(task),
            worker: Worker { id: WorkerId(worker), accuracy: 1.0 },
            answer: Answer::Choice(0),
            dispatched_at: 0,
            arrives_at,
            deadline,
            attempt: 0,
        }
    }

    fn round(round: usize, batch: Vec<PendingAssignment>) -> OpenRound {
        let mut open = OpenRound::new(round);
        batch.into_iter().for_each(|p| open.push(p));
        open
    }

    fn tasks(ps: &[PendingAssignment]) -> Vec<TaskId> {
        ps.iter().map(|p| p.task).collect()
    }

    #[test]
    fn arrivals_are_collected_in_time_order() {
        let mut open = round(
            2,
            vec![
                pending(1, 0, Some(50), 100),
                pending(2, 1, Some(20), 100),
                pending(3, 2, Some(80), 100),
            ],
        );
        assert_eq!(open.collect_arrived(10).len(), 0);
        let got = open.collect_arrived(60);
        assert_eq!(got.iter().map(|a| a.task).collect::<Vec<_>>(), vec![TaskId(2), TaskId(1)]);
        assert!(got.iter().all(|a| a.round == 2));
        assert_eq!(open.in_flight(), 1);
        open.collect_arrived(100);
        assert!(open.is_drained());
    }

    #[test]
    fn overdue_covers_late_and_never_arriving_answers() {
        let mut open = round(
            0,
            vec![
                pending(1, 0, Some(150), 100), // late: would arrive after its deadline
                pending(2, 1, None, 100),      // abandoned: never arrives
                pending(3, 2, Some(100), 100), // in time, exactly at the deadline
            ],
        );
        assert!(open.collect_arrived(99).is_empty());
        assert!(open.take_overdue(99).is_empty());
        // At one instant the arrival comes before the deadline: the in-time
        // answer is collected, the other two are taken.
        assert_eq!(open.next_event_after(99), Some(100));
        assert_eq!(open.collect_arrived(100).len(), 1);
        assert_eq!(tasks(&open.take_overdue(100)), vec![TaskId(1), TaskId(2)]);
        // The late answer is gone with its deadline: never collected.
        assert!(open.is_drained());
        assert!(open.collect_arrived(150).is_empty());
    }

    #[test]
    fn next_event_walks_arrivals_then_deadlines() {
        let mut open = round(0, vec![pending(1, 0, Some(40), 100), pending(2, 1, None, 70)]);
        assert_eq!(open.next_event_after(0), Some(40));
        assert_eq!(open.collect_arrived(40).len(), 1);
        assert!(open.take_overdue(40).is_empty());
        assert_eq!(open.next_event_after(40), Some(70));
        assert!(open.collect_arrived(70).is_empty());
        assert_eq!(tasks(&open.take_overdue(70)), vec![TaskId(2)]);
        assert_eq!(open.next_event_after(70), None);
        // A late arrival (after its own deadline) is not an event; the
        // deadline is.
        let mut late = round(0, vec![pending(1, 0, Some(150), 100)]);
        assert_eq!(late.next_event_after(0), Some(100));
        assert!(late.collect_arrived(100).is_empty());
        assert_eq!(late.take_overdue(100).len(), 1);
        assert_eq!(late.next_event_after(100), None);
    }

    #[test]
    fn a_cancelled_task_is_never_an_event_and_can_be_queued_again() {
        let mut open = round(
            0,
            vec![pending(1, 0, Some(10), 100), pending(1, 1, None, 100), pending(2, 2, None, 60)],
        );
        assert_eq!(open.cancel(TaskId(1)), 2);
        assert_eq!(open.cancel(TaskId(1)), 0);
        assert_eq!(open.cancel(TaskId(9)), 0);
        assert_eq!(open.in_flight(), 1);
        // Task 1's arrival at 10 no longer advances the clock.
        assert_eq!(open.next_event_after(0), Some(60));
        // A later assignment of the same task is live; the dead ones stay dead.
        open.push(pending(1, 3, Some(80), 200));
        assert!(open.collect_arrived(60).is_empty());
        assert_eq!(tasks(&open.take_overdue(60)), vec![TaskId(2)]);
        assert_eq!(open.next_event_after(60), Some(80));
        let got = open.collect_arrived(80);
        assert_eq!(got.iter().map(|a| a.worker).collect::<Vec<_>>(), vec![WorkerId(3)]);
        assert!(open.is_drained());
        assert_eq!(open.next_event_after(80), None);
    }
}
