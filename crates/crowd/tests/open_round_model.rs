//! The event queue against the scans it replaced.
//!
//! [`OpenRound`] is a batch sorted once plus a heap of replacements; it
//! was once a `Vec` that three methods each scanned in full. The sim's
//! sequential oracle cannot witness the swap (it calls the same engine), so
//! this file keeps the scans — `Scan` below is those three methods
//! verbatim, plus the `retain` early termination did on the `Vec` — and
//! drives both through the engine's access pattern on random batches: visit
//! instants in the order `next_event_after` yields them; at each one
//! collect, maybe cancel a task, take the overdue, maybe push replacements
//! stamped `now`. What is collected, what is taken, the instants visited
//! and the point the round drains must be equal element for element. The
//! queue addresses tasks by position; here a task's position is its id.

use std::collections::BTreeSet;

use cdb_crowd::{
    Answer, Assignment, OpenRound, PendingAssignment, SimTime, TaskId, Worker, WorkerId,
};
use proptest::prelude::*;

/// The pre-queue `OpenRound`: every method a full scan of `pending`.
struct Scan {
    pending: Vec<PendingAssignment>,
}

impl Scan {
    fn collect_arrived(&mut self, now: SimTime) -> Vec<Assignment> {
        let mut arrived = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].arrived_by(now) {
                arrived.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        arrived.sort_by_key(|p| (p.arrives_at, p.task, p.worker.id, p.attempt));
        arrived.into_iter().map(PendingAssignment::into_assignment).collect()
    }

    fn take_overdue(&mut self, now: SimTime) -> Vec<PendingAssignment> {
        let mut overdue = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].overdue_at(now) {
                overdue.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        overdue.sort_by_key(|p| (p.deadline, p.task, p.worker.id, p.attempt));
        overdue
    }

    fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        self.pending
            .iter()
            .flat_map(|p| {
                let arrival = p.arrives_at.filter(|&t| t <= p.deadline);
                [arrival, Some(p.deadline)]
            })
            .flatten()
            .filter(|&t| t > now)
            .min()
    }

    fn cancel(&mut self, task: TaskId) -> usize {
        let before = self.pending.len();
        self.pending.retain(|p| p.task != task);
        before - self.pending.len()
    }
}

/// `(task, worker, attempt, arrival kind, arrival offset, deadline offset)`.
type Spec = (u64, u32, u32, u8, u64, u64);

fn spec() -> impl Strategy<Value = Spec> {
    (0u64..6, 0u32..4, 0u32..3, 0u8..5, 0u64..24, 0u64..24)
}

/// One assignment dispatched at `now` whose arrival and deadline are at
/// least `lead` after it. Offsets are small, so instants collide often.
/// `serial` goes into the answer, telling apart what the key cannot.
fn assignment(spec: Spec, now: SimTime, lead: u64, serial: usize) -> PendingAssignment {
    let (task, worker, attempt, kind, a, d) = spec;
    let deadline = now + d.max(lead);
    let arrives_at = match kind {
        0 => None,
        1 => Some(deadline),
        2 => Some(deadline + 1 + a),
        _ => Some(now + lead + a % (deadline - now - lead + 1)),
    };
    PendingAssignment {
        task: TaskId(task),
        worker: Worker { id: WorkerId(worker), accuracy: 0.5 },
        answer: Answer::Choice(serial),
        dispatched_at: now,
        arrives_at,
        deadline,
        attempt,
    }
}

/// What one visited instant does besides collecting and taking: cancel a
/// task (ids from 6 up name none) and push replacements.
type Step = (u64, Vec<Spec>);

fn lines(ps: Vec<PendingAssignment>) -> Vec<String> {
    ps.iter().map(|p| format!("{p:?}")).collect()
}

/// Drop the positions the queue tags its output with, checking that each is
/// the task's id.
fn untag<T>(tagged: Vec<(usize, T)>, task: impl Fn(&T) -> TaskId) -> Vec<T> {
    tagged
        .into_iter()
        .map(|(pos, x)| {
            assert_eq!(TaskId(pos as u64), task(&x), "an output tagged with another position");
            x
        })
        .collect()
}

/// `prop_assert_eq!` that says where the two sides parted.
macro_rules! same {
    ($what:expr, $now:expr, $queue:expr, $scans:expr) => {{
        let (queue, scans) = ($queue, $scans);
        prop_assert!(
            queue == scans,
            "{} differ at instant {}:\n queue: {:?}\n scans: {:?}",
            $what,
            $now,
            queue,
            scans
        );
    }};
}

/// Run `queue` and `scan`, both holding the same opening batch, through the
/// engine's access pattern under `script`. `used` holds the
/// `(task, worker, attempt)` triples already queued: two live assignments
/// never share one, as one attempt of one task goes to one worker. When
/// `revive` is set, every replacement goes to the task the step cancelled.
fn drive(
    mut queue: OpenRound,
    mut scan: Scan,
    script: &[Step],
    mut used: BTreeSet<(u64, u32, u32)>,
    revive: bool,
) -> Result<(), TestCaseError> {
    let mut serial = scan.pending.len();
    let mut now: SimTime = 0;
    let mut visited = 0usize;
    loop {
        let mut arrived = Vec::new();
        queue.collect_arrived(now, &mut arrived);
        same!("arrivals", now, untag(arrived, |a| a.task), scan.collect_arrived(now));
        let step = script.get(visited);
        if let Some(&(task, _)) = step {
            same!("cancelled", now, queue.cancel(task as usize), scan.cancel(TaskId(task)));
        }
        let overdue = untag(queue.take_overdue(now), |p| p.task);
        same!("overdue", now, lines(overdue), lines(scan.take_overdue(now)));
        // Replacements lie strictly after the instant they are pushed at.
        if let Some((cancelled, specs)) = step {
            for &s in specs {
                let s = if revive { (*cancelled, s.1, s.2, s.3, s.4, s.5) } else { s };
                if used.insert((s.0, s.1, s.2)) {
                    let p = assignment(s, now, 1, serial);
                    serial += 1;
                    scan.pending.push(p.clone());
                    queue.push(s.0 as usize, p);
                }
            }
        }
        visited += 1;
        same!("in flight", now, queue.in_flight(), scan.pending.len());
        same!("drain point", now, queue.is_drained(), scan.pending.is_empty());
        let next = queue.next_event_after(now);
        same!("next instant", now, next, scan.next_event_after(now));
        match next {
            Some(t) => now = t,
            None => break,
        }
    }
    prop_assert!(queue.is_drained(), "every assignment is collected, taken or cancelled");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn the_queue_drains_exactly_as_the_scans_did(
        batch in prop::collection::vec(spec(), 0..40),
        script in prop::collection::vec((0u64..18, prop::collection::vec(spec(), 0..3)), 0..12),
    ) {
        // The first batch is pushed one by one, so it may name any task in
        // any order and hold deadlines and arrivals at the very instant it
        // is published: that instant is visited first.
        let mut queue = OpenRound::default();
        let mut scan = Scan { pending: Vec::new() };
        let mut used = BTreeSet::new();
        for s in batch {
            if used.insert((s.0, s.1, s.2)) {
                let p = assignment(s, 0, 0, scan.pending.len());
                scan.pending.push(p.clone());
                queue.push(s.0 as usize, p);
            }
        }
        drive(queue, scan, &script, used, false)?;
    }

    /// A round opened on a published, task-major batch: `tasks` tasks with
    /// `per_task` workers each, sorted once by `OpenRound::new`. Half the
    /// cases push every replacement to the task just cancelled, so a
    /// position's dead keys and its live replacements are queued together.
    #[test]
    fn a_published_batch_drains_exactly_as_the_scans_did(
        tasks in 0u64..7,
        per_task in 1u32..6,
        timing in prop::collection::vec((0u8..5, 0u64..24, 0u64..24), 30),
        script in prop::collection::vec((0u64..18, prop::collection::vec(spec(), 0..3)), 0..12),
        revive in any::<bool>(),
    ) {
        let mut batch = Vec::new();
        for task in 0..tasks {
            for worker in 0..per_task {
                let (kind, a, d) = timing[batch.len()];
                batch.push(assignment((task, worker, 0, kind, a, d), 0, 0, batch.len()));
            }
        }
        let used = batch.iter().map(|p| (p.task.0, p.worker.id.0, 0)).collect();
        let scan = Scan { pending: batch.clone() };
        drive(OpenRound::new(batch, per_task as usize), scan, &script, used, revive)?;
    }
}
