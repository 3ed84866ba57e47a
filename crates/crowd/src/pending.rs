//! Non-blocking answer collection with per-assignment deadlines.
//!
//! [`SimulatedPlatform::publish_round`](crate::SimulatedPlatform::publish_round)
//! hands back a batch of [`PendingAssignment`]s instead of blocking: answers
//! are *pending* until the virtual clock reaches their arrival instant, and
//! each assignment carries a deadline after which the requester may reassign
//! the task to a different worker. An [`OpenRound`] owns the batch and hands
//! its answers to `cdb-runtime`'s event loop in time order: every key is
//! known at publish, so it is one sorted walk plus a heap of replacements.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    pub fn into_assignment(self) -> Assignment {
        Assignment { task: self.task, worker: self.worker.id, answer: self.answer }
    }
}

/// The order key of one queued assignment: the one instant it next matters
/// — its arrival if that is in time, else its deadline — whether that is
/// the deadline, then `(task, worker, attempt)`. Its task position, its slot
/// and its position's cancel count when it was queued ride along.
type Key = (SimTime, bool, TaskId, WorkerId, u32, u32, u32, u32);

fn key(p: &PendingAssignment, pos: usize, slot: usize, epoch: u32) -> Key {
    let arrival = p.arrives_at.filter(|&t| t <= p.deadline);
    let at = arrival.unwrap_or(p.deadline);
    (at, arrival.is_none(), p.task, p.worker.id, p.attempt, pos as u32, slot as u32, epoch)
}

/// A published batch whose answers are collected as virtual time advances —
/// the non-blocking counterpart of a synchronous round.
///
/// Assignments belong to task *positions*: [`new`](OpenRound::new) takes a
/// task-major batch and [`push`](OpenRound::push) names a replacement's.
/// The batch's keys are sorted once and walked with a cursor, replacements
/// go into a side heap, and the head is the smaller of the two. The caller
/// visits instants in non-decreasing order, at each one collecting arrivals,
/// then taking the overdue, maybe pushing replacements due after it, and
/// moves to [`next_event_after`](OpenRound::next_event_after). Under that
/// contract an answer that would land after its own deadline is never
/// collected: the deadline comes first and takes it.
#[derive(Debug, Default)]
pub struct OpenRound {
    /// The opening batch, then each replacement; never emptied.
    slots: Vec<PendingAssignment>,
    /// The batch's keys in order, and the cursor walking them.
    sorted: Vec<Key>,
    next: usize,
    replacements: BinaryHeap<Reverse<Key>>,
    /// Per position: its cancel count and assignments in flight. Keys queued
    /// under an older count are dead; both heads are always live.
    tasks: Vec<(u32, usize)>,
    in_flight: usize,
}

impl OpenRound {
    /// Open a round on a batch whose `arrives_at` are final: `batch[i]`
    /// answers position `i / per_task` (non-zero unless `batch` is empty).
    pub fn new(batch: Vec<PendingAssignment>, per_task: usize) -> Self {
        let mut sorted: Vec<Key> =
            batch.iter().enumerate().map(|(s, p)| key(p, s / per_task, s, 0)).collect();
        sorted.sort_unstable();
        OpenRound {
            tasks: vec![(0, per_task); batch.len().checked_div(per_task).unwrap_or(0)],
            in_flight: batch.len(),
            slots: batch,
            sorted,
            ..OpenRound::default()
        }
    }

    /// Queue one more in-flight assignment of the task at `pos`. Its
    /// `arrives_at` must be final: the key is computed here.
    pub fn push(&mut self, pos: usize, p: PendingAssignment) {
        if pos >= self.tasks.len() {
            self.tasks.resize(pos + 1, (0, 0));
        }
        let (epoch, live) = &mut self.tasks[pos];
        *live += 1;
        self.in_flight += 1;
        self.replacements.push(Reverse(key(&p, pos, self.slots.len(), *epoch)));
        self.slots.push(p);
    }

    /// The smaller of the cursor's key and the heap's top.
    fn head(&self) -> Option<Key> {
        let top = self.replacements.peek().map(|r| r.0);
        self.sorted.get(self.next).copied().into_iter().chain(top).min()
    }

    /// Pop the head if it is due by `now` and of the asked kind.
    fn pop_due(&mut self, now: SimTime, overdue: bool) -> Option<(usize, &PendingAssignment)> {
        let head = self.head()?;
        let (at, kind, .., pos, slot, _) = head;
        if at > now || kind != overdue {
            return None;
        }
        if self.sorted.get(self.next) == Some(&head) {
            self.next += 1;
        } else {
            self.replacements.pop();
        }
        self.tasks[pos as usize].1 -= 1;
        self.in_flight -= 1;
        self.drop_dead_heads();
        Some((pos as usize, &self.slots[slot as usize]))
    }

    fn drop_dead_heads(&mut self) {
        let dead = |tasks: &[(u32, usize)], k: &Key| k.7 != tasks[k.5 as usize].0;
        while self.sorted.get(self.next).is_some_and(|k| dead(&self.tasks, k)) {
            self.next += 1;
        }
        while self.replacements.peek().is_some_and(|Reverse(k)| dead(&self.tasks, k)) {
            self.replacements.pop();
        }
    }

    /// Move every assignment whose answer has arrived by `now` onto the end
    /// of `out` with its position, in (arrival, task, worker) order.
    pub fn collect_arrived(&mut self, now: SimTime, out: &mut Vec<(usize, Assignment)>) {
        while let Some((pos, p)) = self.pop_due(now, false) {
            out.push((pos, p.clone().into_assignment()));
        }
    }

    /// Remove and return every assignment past its deadline with no answer
    /// in time, with its position, in deterministic (deadline, task, worker)
    /// order — the caller decides whether to reassign each one.
    pub fn take_overdue(&mut self, now: SimTime) -> Vec<(usize, PendingAssignment)> {
        std::iter::from_fn(|| self.pop_due(now, true).map(|(pos, p)| (pos, p.clone()))).collect()
    }

    /// Drop every in-flight assignment of the task at `pos` (its outcome is
    /// decided) and return how many there were. A cancelled assignment
    /// never arrives, never goes overdue and never is the next event.
    pub fn cancel(&mut self, pos: usize) -> usize {
        let Some((epoch, live)) = self.tasks.get_mut(pos) else { return 0 };
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
        self.head().map(|key| key.0).filter(|&t| t > now)
    }

    /// Every assignment queued so far: the opening batch, then each pushed
    /// replacement, collected, taken and cancelled ones included.
    pub fn slots(&self) -> &[PendingAssignment] {
        &self.slots
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

    /// A round whose positions are the task ids.
    fn round(batch: Vec<PendingAssignment>) -> OpenRound {
        let mut open = OpenRound::default();
        batch.into_iter().for_each(|p| open.push(p.task.0 as usize, p));
        open
    }

    fn arrived(open: &mut OpenRound, now: SimTime) -> Vec<Assignment> {
        let mut out = Vec::new();
        open.collect_arrived(now, &mut out);
        out.into_iter().map(|(_, a)| a).collect()
    }

    fn tasks(ps: &[(usize, PendingAssignment)]) -> Vec<TaskId> {
        ps.iter().map(|(_, p)| p.task).collect()
    }

    #[test]
    fn arrivals_are_collected_in_time_order() {
        let mut open = round(vec![
            pending(1, 0, Some(50), 100),
            pending(2, 1, Some(20), 100),
            pending(3, 2, Some(80), 100),
        ]);
        let mut got = Vec::new();
        open.collect_arrived(10, &mut got);
        assert!(got.is_empty());
        open.collect_arrived(60, &mut got);
        assert_eq!(got.iter().map(|a| a.1.task).collect::<Vec<_>>(), vec![TaskId(2), TaskId(1)]);
        assert_eq!(open.in_flight(), 1);
        // Later arrivals are appended behind the earlier ones.
        open.collect_arrived(100, &mut got);
        assert_eq!(got.iter().map(|a| a.1.task.0).collect::<Vec<_>>(), [2, 1, 3]);
        assert!(open.is_drained());
    }

    #[test]
    fn overdue_covers_late_and_never_arriving_answers() {
        let mut open = round(vec![
            pending(1, 0, Some(150), 100), // late: would arrive after its deadline
            pending(2, 1, None, 100),      // abandoned: never arrives
            pending(3, 2, Some(100), 100), // in time, exactly at the deadline
        ]);
        assert!(arrived(&mut open, 99).is_empty());
        assert!(open.take_overdue(99).is_empty());
        // At one instant the arrival comes before the deadline: the in-time
        // answer is collected, the other two are taken.
        assert_eq!(open.next_event_after(99), Some(100));
        assert_eq!(arrived(&mut open, 100).len(), 1);
        assert_eq!(tasks(&open.take_overdue(100)), vec![TaskId(1), TaskId(2)]);
        // The late answer is gone with its deadline: never collected.
        assert!(open.is_drained());
        assert!(arrived(&mut open, 150).is_empty());
    }

    #[test]
    fn next_event_walks_arrivals_then_deadlines() {
        let mut open = round(vec![pending(1, 0, Some(40), 100), pending(2, 1, None, 70)]);
        assert_eq!(open.next_event_after(0), Some(40));
        assert_eq!(arrived(&mut open, 40).len(), 1);
        assert!(open.take_overdue(40).is_empty());
        assert_eq!(open.next_event_after(40), Some(70));
        assert!(arrived(&mut open, 70).is_empty());
        assert_eq!(tasks(&open.take_overdue(70)), vec![TaskId(2)]);
        assert_eq!(open.next_event_after(70), None);
        // A late arrival (after its own deadline) is not an event; the
        // deadline is.
        let mut late = round(vec![pending(1, 0, Some(150), 100)]);
        assert_eq!(late.next_event_after(0), Some(100));
        assert!(arrived(&mut late, 100).is_empty());
        assert_eq!(late.take_overdue(100).len(), 1);
        assert_eq!(late.next_event_after(100), None);
    }

    #[test]
    fn a_cancelled_task_is_never_an_event_and_can_be_queued_again() {
        let mut open = round(vec![
            pending(1, 0, Some(10), 100),
            pending(1, 1, None, 100),
            pending(2, 2, None, 60),
        ]);
        assert_eq!(open.cancel(1), 2);
        assert_eq!(open.cancel(1), 0);
        assert_eq!(open.cancel(9), 0);
        assert_eq!(open.in_flight(), 1);
        // Task 1's arrival at 10 no longer advances the clock.
        assert_eq!(open.next_event_after(0), Some(60));
        // A later assignment of the same task is live; the dead ones stay dead.
        open.push(1, pending(1, 3, Some(80), 200));
        assert!(arrived(&mut open, 60).is_empty());
        assert_eq!(tasks(&open.take_overdue(60)), vec![TaskId(2)]);
        assert_eq!(open.next_event_after(60), Some(80));
        let got = arrived(&mut open, 80);
        assert_eq!(got.iter().map(|a| a.worker).collect::<Vec<_>>(), vec![WorkerId(3)]);
        assert!(open.is_drained());
        assert_eq!(open.next_event_after(80), None);
    }
}
