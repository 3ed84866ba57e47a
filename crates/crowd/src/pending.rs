//! Non-blocking answer collection with per-assignment deadlines.
//!
//! [`SimulatedPlatform::publish_round`](crate::SimulatedPlatform::publish_round)
//! hands back a batch of [`PendingAssignment`]s instead of blocking: answers
//! are *pending* until the virtual clock reaches their arrival instant, and
//! each assignment carries a deadline after which the requester may reassign
//! the task to a different worker. Queued in an [`OpenRound`] — one
//! time-ordered event queue per round — they are the substrate `cdb-runtime`
//! builds its event loop on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Hashes a task id with one multiply (FxHash's step). Task ids are the
/// program's own small integers, never outside input, and SipHash made a
/// third of the queue's cost.
#[derive(Default)]
struct TaskHasher(u64);

impl Hasher for TaskHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The heap key of one queued assignment: the one instant it next matters
/// — its arrival if that is in time, else its deadline — whether that is
/// the deadline, then `(task, worker, attempt)` and its slab slot.
type Key = (SimTime, bool, TaskId, WorkerId, u32, u32);

/// A published batch whose answers are collected as virtual time advances —
/// the non-blocking counterpart of a synchronous round.
///
/// One min-heap of small copyable keys over a slab of the queued assignments,
/// ordered `(instant, arrival before overdue, task, worker, attempt)`. The
/// caller visits instants in non-decreasing order, at each one calling
/// [`collect_arrived`](OpenRound::collect_arrived) and then
/// [`take_overdue`](OpenRound::take_overdue), may [`push`](OpenRound::push)
/// replacements whose arrival and deadline lie after that instant, and moves
/// to [`next_event_after`](OpenRound::next_event_after). Under that contract
/// an answer that would land after its own deadline is never collected: the
/// deadline comes first and takes it.
#[derive(Debug, Default)]
pub struct OpenRound {
    queue: BinaryHeap<Reverse<Key>>,
    /// Queued assignments by slot, each with its task's cancel count when
    /// it was queued; `None` is a free slot, listed in `free`.
    slab: Vec<Option<(u32, PendingAssignment)>>,
    free: Vec<u32>,
    /// Per task: how often it was cancelled, and its assignments in flight.
    /// Entries queued under an older count stay in the heap, dead, until
    /// they surface; the head of the heap is always live.
    tasks: HashMap<TaskId, (u32, usize), BuildHasherDefault<TaskHasher>>,
    in_flight: usize,
}

impl OpenRound {
    /// Queue one in-flight assignment. Its `arrives_at` must be final: the
    /// key is computed here.
    pub fn push(&mut self, p: PendingAssignment) {
        let arrival = p.arrives_at.filter(|&t| t <= p.deadline);
        let (epoch, live) = self.tasks.entry(p.task).or_default();
        *live += 1;
        self.in_flight += 1;
        let (at, overdue) = (arrival.unwrap_or(p.deadline), arrival.is_none());
        let (task, worker, attempt) = (p.task, p.worker.id, p.attempt);
        let entry = Some((*epoch, p));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        self.queue.push(Reverse((at, overdue, task, worker, attempt, slot)));
    }

    /// Empty `slot` and hand back its cancel count and assignment.
    fn take(&mut self, slot: u32) -> (u32, PendingAssignment) {
        self.free.push(slot);
        self.slab[slot as usize].take().expect("a queued slot is full")
    }

    /// Pop the head if it is due by `now` and of the asked kind.
    fn pop_due(&mut self, now: SimTime, overdue: bool) -> Option<PendingAssignment> {
        let &Reverse((at, kind, task, .., slot)) = self.queue.peek()?;
        if at > now || kind != overdue {
            return None;
        }
        self.queue.pop();
        let (_, p) = self.take(slot);
        self.tasks.get_mut(&task).expect("queued task is counted").1 -= 1;
        self.in_flight -= 1;
        self.drop_dead_heads();
        Some(p)
    }

    fn drop_dead_heads(&mut self) {
        while let Some(&Reverse((.., task, _, _, slot))) = self.queue.peek() {
            let epoch = self.slab[slot as usize].as_ref().expect("a queued slot is full").0;
            if epoch == self.tasks[&task].0 {
                return;
            }
            self.queue.pop();
            self.take(slot);
        }
    }

    /// Move every assignment whose answer has arrived by `now` onto the end
    /// of `out`, in deterministic (arrival, task, worker) order.
    pub fn collect_arrived(&mut self, now: SimTime, out: &mut Vec<Assignment>) {
        while let Some(p) = self.pop_due(now, false) {
            out.push(p.into_assignment());
        }
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
        self.queue.peek().map(|Reverse(key)| key.0).filter(|&t| t > now)
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

    fn round(batch: Vec<PendingAssignment>) -> OpenRound {
        let mut open = OpenRound::default();
        batch.into_iter().for_each(|p| open.push(p));
        open
    }

    fn arrived(open: &mut OpenRound, now: SimTime) -> Vec<Assignment> {
        let mut out = Vec::new();
        open.collect_arrived(now, &mut out);
        out
    }

    fn tasks(ps: &[PendingAssignment]) -> Vec<TaskId> {
        ps.iter().map(|p| p.task).collect()
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
        assert_eq!(got.iter().map(|a| a.task).collect::<Vec<_>>(), vec![TaskId(2), TaskId(1)]);
        assert_eq!(open.in_flight(), 1);
        // Later arrivals are appended behind the earlier ones.
        open.collect_arrived(100, &mut got);
        assert_eq!(got.iter().map(|a| a.task.0).collect::<Vec<_>>(), [2, 1, 3]);
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
        assert_eq!(open.cancel(TaskId(1)), 2);
        assert_eq!(open.cancel(TaskId(1)), 0);
        assert_eq!(open.cancel(TaskId(9)), 0);
        assert_eq!(open.in_flight(), 1);
        // Task 1's arrival at 10 no longer advances the clock.
        assert_eq!(open.next_event_after(0), Some(60));
        // A later assignment of the same task is live; the dead ones stay dead.
        open.push(pending(1, 3, Some(80), 200));
        assert!(arrived(&mut open, 60).is_empty());
        assert_eq!(tasks(&open.take_overdue(60)), vec![TaskId(2)]);
        assert_eq!(open.next_event_after(60), Some(80));
        let got = arrived(&mut open, 80);
        assert_eq!(got.iter().map(|a| a.worker).collect::<Vec<_>>(), vec![WorkerId(3)]);
        assert!(open.is_drained());
        assert_eq!(open.next_event_after(80), None);
    }
}
