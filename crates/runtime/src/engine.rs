//! The concurrent crowd engine: a [`CrowdPlatform`] whose rounds complete
//! as answers *arrive* in virtual time, with fault injection and
//! deadline-driven reassignment.
//!
//! One engine serves one query. It wraps a per-query [`SimulatedPlatform`]
//! and the query's answer key, and replaces the synchronous `ask_round`
//! with an event loop:
//!
//! 1. answer each question from the key and publish the batch (answers
//!    and latencies pre-drawn at dispatch);
//! 2. apply the fault plan to each dispatch (dropout / abandon / slow) and
//!    open an [`OpenRound`] on the batch, which sorts its keys once; from
//!    then on a task is its position in the batch, for the vote tally,
//!    cancellation and the workers a reassignment must avoid;
//! 3. advance the virtual clock to the next arrival or deadline;
//! 4. collect arrivals; close a task as soon as its collected votes can
//!    no longer be overturned, cancelling its unneeded assignments
//!    (CDAS-style, see `cdb-quality`); reassign misses to a fresh worker
//!    within the retry budget;
//! 5. the round ends when nothing is in flight.
//!
//! The engine publishes exactly the batch it is handed. Answer reuse is
//! not its business: the core round loop colours cache-entailed edges
//! before selection, so a task that reaches `ask_round` is by
//! construction one the crowd must answer.
//!
//! Nor is requester-side task assignment (CDB+): that is a
//! [`SimulatedPlatform`] capability. The engine keeps
//! [`CrowdPlatform::ask_round_assigned`]'s default, which publishes a
//! plain [`CrowdPlatform::ask_round`]: it samples the workers itself and
//! reassigns them on faults.
//!
//! Everything the engine does is a pure function of
//! `(platform seed, fault plan, retry policy, query id)` — no wall-clock,
//! no thread identity — which is what makes runs replayable and
//! thread-count-independent.
//!
//! Telemetry: every dispatch, arrival, fault, timeout, retry,
//! reassignment and early-termination decision is emitted exactly once as
//! a `cdb-obsv` event; the shared [`RuntimeMetrics`] is simply one
//! collector on that stream (attached in [`RuntimeEngine::new`]), so the
//! aggregate counters and any richer sink (ring buffer, Chrome trace) can
//! never disagree.

use std::sync::Arc;

use cdb_core::truth::{join_task, EdgeTruth};
use cdb_crowd::{
    Answer, Assignment, CrowdPlatform, LatencyModel, Market, OpenRound, PendingAssignment,
    Question, SimTime, SimulatedPlatform, Task, TaskKind, WorkerId,
};
use cdb_obsv::attr::names;
use cdb_obsv::{kv, Span, SpanId, Trace};
use cdb_quality::{decided_choice, vote_entropy};

use crate::fault::{Fault, FaultPlan, RetryPolicy, RuntimeError};
use crate::metrics::RuntimeMetrics;

/// A fault-injecting, virtual-time crowd platform for one query.
pub struct RuntimeEngine {
    platform: SimulatedPlatform,
    /// The query's answer key.
    truth: EdgeTruth,
    plan: FaultPlan,
    retry: RetryPolicy,
    query_id: u64,
    trace: Trace,
    now: SimTime,
    error: Option<RuntimeError>,
    /// Crowd rounds published so far.
    rounds: usize,
}

impl RuntimeEngine {
    /// Wrap a per-query platform answering from `truth`. `metrics` may be
    /// shared across queries; it is attached as the first collector on the
    /// engine's event stream.
    pub fn new(
        platform: SimulatedPlatform,
        truth: EdgeTruth,
        latency: LatencyModel,
        plan: FaultPlan,
        retry: RetryPolicy,
        query_id: u64,
        metrics: Arc<RuntimeMetrics>,
    ) -> Self {
        RuntimeEngine {
            platform: platform.with_latency(latency),
            truth,
            plan,
            retry,
            query_id,
            trace: Trace::collector(metrics),
            now: 0,
            error: None,
            rounds: 0,
        }
    }

    /// Tee the engine's event stream into `trace` as well (the metrics
    /// collector attached at construction keeps receiving everything).
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = self.trace.and(&trace);
        self
    }

    /// The engine's event stream (metrics collector + any added sinks).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current virtual time (the query's makespan so far), in ms.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The fatal error, if one was latched.
    pub fn error(&self) -> Option<&RuntimeError> {
        self.error.as_ref()
    }

    /// Take the fatal error, leaving the engine errored-but-queryable.
    pub fn take_error(&mut self) -> Option<RuntimeError> {
        self.error.clone()
    }

    fn emit_dispatch(&self, span: &Span, p: &PendingAssignment, round: u64) {
        span.event(
            names::DISPATCH,
            p.dispatched_at,
            kv![
                task => p.task.0,
                worker => p.worker.id.0,
                attempt => u64::from(p.attempt),
                round => round,
                cents => self.platform.market().task_price_cents(),
            ],
        );
    }

    fn apply_faults(&self, span: &Span, p: &mut PendingAssignment, round: u64) {
        // Scripted dropouts: an answer lands only if it arrives while the
        // worker is still on the platform.
        if let Some(arr) = p.arrives_at {
            if self.plan.worker_dropped_by(p.worker.id, arr) {
                p.arrives_at = None;
                span.event(
                    names::FAULT,
                    p.dispatched_at,
                    kv![kind => "dropout", task => p.task.0, worker => p.worker.id.0],
                );
                return;
            }
        }
        let fault = self.plan.fault_for(self.query_id, round, p.task, p.worker.id, p.attempt);
        let kind = match fault {
            Fault::Dropout => "dropout",
            Fault::Abandoned => "abandoned",
            Fault::Slow => "slow",
            Fault::None => "",
        };
        if fault != Fault::None {
            span.event(
                names::FAULT,
                p.dispatched_at,
                kv![kind => kind, task => p.task.0, worker => p.worker.id.0],
            );
        }
        match fault {
            Fault::Dropout | Fault::Abandoned => p.arrives_at = None,
            Fault::Slow => {
                if let Some(arr) = p.arrives_at {
                    let slowed = (arr - p.dispatched_at) as f64 * self.plan.slow_factor.max(1.0);
                    p.arrives_at = Some(p.dispatched_at + slowed as SimTime);
                }
            }
            Fault::None => {}
        }
    }

    /// CDAS-style early termination: if the votes tallied for `tasks[i]`
    /// already decide it (the outstanding votes cannot overturn it), cancel
    /// its in-flight assignments and emit the decided choice with the vote
    /// statistics quality attribution wants.
    fn close_if_decided(
        &self,
        span: &Span,
        open: &mut OpenRound,
        task: &Task,
        tally: &Tally,
        i: usize,
        redundancy: usize,
    ) {
        let TaskKind::SingleChoice { choices, .. } = task.kind else { return };
        let (counts, received) = (tally.counts(i, choices), tally.received[i]);
        let Some(choice) = decided_choice(counts, received, redundancy) else { return };
        let cancelled = open.cancel(i);
        if cancelled == 0 {
            return;
        }
        span.event(
            names::DECIDE,
            self.now,
            kv![
                task => task.id.0,
                choice => choice as u64,
                conf => counts[choice] as f64 / received as f64,
                entropy => vote_entropy(counts),
            ],
        );
        span.event(names::CANCEL, self.now, kv![task => task.id.0, n => cancelled as u64]);
    }

    /// Latch `err`, close the round with what arrived, and return it.
    fn fail_round(
        &mut self,
        err: RuntimeError,
        collected: Vec<Assignment>,
        round_start: SimTime,
        span: Span,
    ) -> Vec<Assignment> {
        self.error = Some(err);
        span.close(self.now, kv![ms => self.now - round_start, ok => false]);
        collected
    }
}

/// One round's vote tally in flat buffers indexed by the task's position
/// in the batch: a fixed-width slot of per-choice counts per task, and the
/// choice answers each task has received (malformed ones included).
struct Tally {
    width: usize,
    counts: Vec<usize>,
    received: Vec<usize>,
}

impl Tally {
    fn new(tasks: &[Task]) -> Self {
        let width = tasks.iter().map(choices).max().unwrap_or(0);
        Tally { width, counts: vec![0; tasks.len() * width], received: vec![0; tasks.len()] }
    }

    /// Count one choice answer for `task`, at position `i`; an out-of-range
    /// choice is received but counts toward no choice.
    fn record(&mut self, i: usize, task: &Task, choice: usize) {
        self.received[i] += 1;
        if choice < choices(task) {
            self.counts[i * self.width + choice] += 1;
        }
    }

    /// Votes per choice for the task at position `i`, which has `choices`
    /// options.
    fn counts(&self, i: usize, choices: usize) -> &[usize] {
        &self.counts[i * self.width..][..choices]
    }
}

/// Options of a single-choice task; none for a fill-in-blank one.
fn choices(task: &Task) -> usize {
    match task.kind {
        TaskKind::SingleChoice { choices, .. } => choices,
        TaskKind::FillInBlank { .. } => 0,
    }
}

impl CrowdPlatform for RuntimeEngine {
    fn market(&self) -> Market {
        self.platform.market()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn ask_round(&mut self, questions: &[Question], redundancy: usize) -> Vec<Assignment> {
        // A latched fatal error poisons the engine: no more dispatches, so
        // the executor's round loop runs out of answers and terminates
        // instead of hanging.
        if questions.is_empty() || self.error.is_some() {
            return Vec::new();
        }
        let tasks: Vec<Task> = questions.iter().map(|q| join_task(&self.truth, q)).collect();
        let round = self.rounds as u64;
        let round_start = self.now;
        self.rounds += 1;
        let span =
            self.trace.span(SpanId::ROOT, names::ROUND, &[round], round_start, kv![round => round]);

        // The batch holds each task's workers together, in `tasks` order:
        // the task at position `i` owns `batch[i * per_task..][..per_task]`.
        let mut batch =
            self.platform.publish_round(&tasks, redundancy, self.retry.deadline_ms, self.now);
        let per_task = batch.len() / tasks.len();
        for p in &batch {
            self.emit_dispatch(&span, p, round);
        }
        // Queued only after the fault plan has had its say: an assignment's
        // place in the queue is its post-fault arrival.
        for p in &mut batch {
            self.apply_faults(&span, p, round);
        }
        let mut open = OpenRound::new(batch, per_task);
        let mut collected: Vec<Assignment> = Vec::with_capacity(open.in_flight());
        let mut arrived: Vec<(usize, Assignment)> = Vec::new();

        let mut tally = Tally::new(&tasks);
        // Positions of the tasks that received a vote at this instant.
        let mut voted: Vec<usize> = Vec::new();
        loop {
            open.collect_arrived(self.now, &mut arrived);
            for (i, a) in arrived.drain(..) {
                span.event(names::ARRIVAL, self.now, kv![task => a.task.0, worker => a.worker.0]);
                if let Answer::Choice(c) = a.answer {
                    tally.record(i, &tasks[i], c);
                    voted.push(i);
                }
                collected.push(a);
            }
            // A task's verdict can change only when one of its votes lands,
            // so only this instant's voters are re-tested, in task id order.
            voted.sort_unstable_by_key(|&i| tasks[i].id);
            voted.dedup();
            for i in voted.drain(..) {
                self.close_if_decided(&span, &mut open, &tasks[i], &tally, i, redundancy);
            }

            for (i, missed) in open.take_overdue(self.now) {
                span.event(
                    names::TIMEOUT,
                    self.now,
                    kv![task => missed.task.0, worker => missed.worker.id.0, attempt => u64::from(missed.attempt)],
                );
                if missed.attempt >= self.retry.max_retries {
                    let err = RuntimeError::RetryBudgetExhausted {
                        task: missed.task,
                        attempts: missed.attempt + 1,
                    };
                    return self.fail_round(err, collected, round_start, span);
                }
                span.event(
                    names::RETRY,
                    self.now,
                    kv![task => missed.task.0, attempt => u64::from(missed.attempt + 1)],
                );
                // Workers already tried, for reassignment to go elsewhere:
                // the task's part of the batch, then its replacements.
                let (published, replaced) = open.slots().split_at(tasks.len() * per_task);
                let exclude: Vec<WorkerId> = published[i * per_task..][..per_task]
                    .iter()
                    .chain(replaced.iter().filter(|p| p.task == missed.task))
                    .map(|p| p.worker.id)
                    .collect();
                let replacement = self.platform.dispatch_replacement(
                    &tasks[i],
                    &exclude,
                    self.retry.deadline_ms,
                    self.now,
                    missed.attempt + 1,
                );
                match replacement {
                    Some(mut p) => {
                        self.emit_dispatch(&span, &p, round);
                        if p.worker.id != missed.worker.id {
                            span.event(
                                names::REASSIGN,
                                self.now,
                                kv![task => p.task.0, worker => p.worker.id.0],
                            );
                        }
                        self.apply_faults(&span, &mut p, round);
                        open.push(i, p);
                    }
                    None => {
                        let err = RuntimeError::NoEligibleWorker { task: missed.task };
                        return self.fail_round(err, collected, round_start, span);
                    }
                }
            }

            if open.is_drained() {
                break;
            }
            match open.next_event_after(self.now) {
                Some(t) => self.now = t,
                // Unreachable (every pending has a deadline), but never
                // spin: close the round instead.
                None => break,
            }
        }
        span.close(self.now, kv![ms => self.now - round_start, ok => true]);
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsSnapshot;
    use cdb_crowd::{TaskId, WorkerPool};
    use cdb_obsv::Ring;

    fn engine(accs: &[f64], seed: u64, plan: FaultPlan, retry: RetryPolicy) -> RuntimeEngine {
        let platform = SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(accs), seed);
        RuntimeEngine::new(
            platform,
            yes_key(),
            LatencyModel::default(),
            plan,
            retry,
            0,
            Arc::new(RuntimeMetrics::new()),
        )
    }

    /// An answer key under which every task the tests publish is a match.
    fn yes_key() -> EdgeTruth {
        (0..64).map(|i| (cdb_core::EdgeId(i), true)).collect()
    }

    fn yes_task(id: u64) -> Question {
        Question { id: TaskId(id), difficulty: 1.0 }
    }

    #[test]
    fn faultless_round_collects_deciding_votes_and_advances_the_clock() {
        let mut e = engine(&[1.0; 10], 3, FaultPlan::none(), RetryPolicy::default());
        let asg = e.ask_round(&[yes_task(1), yes_task(2)], 5);
        // Perfect workers: 3 unanimous votes of 5 decide each task.
        assert_eq!(asg.len(), 6);
        assert!(asg.iter().all(|a| a.answer == Answer::Choice(0)));
        assert!(e.now() > 0, "virtual clock must advance");
        assert_eq!(e.rounds(), 1);
        assert!(e.error().is_none());
    }

    #[test]
    fn answers_arrive_over_time_not_in_lockstep() {
        // With per-worker response times, the round's makespan is the max
        // of the sampled latencies — not a fixed barrier. Verify arrivals
        // span distinct virtual instants by checking the makespan exceeds
        // the fastest worker's response.
        let mut e = engine(&[1.0; 12], 7, FaultPlan::none(), RetryPolicy::default());
        let asg = e.ask_round(&[yes_task(1)], 8);
        // 5 unanimous votes of 8 decide the task.
        assert_eq!(asg.len(), 5);
        let makespan = e.now();
        let fastest = asg
            .iter()
            .map(|a| a.worker)
            .map(|w| LatencyModel::default().worker_factor(w))
            .fold(f64::INFINITY, f64::min);
        assert!(makespan as f64 > fastest * LatencyModel::default().mean_ms * 0.1);
    }

    #[test]
    fn identical_engines_replay_identically() {
        let run = || {
            let mut e = engine(&[0.8; 10], 11, FaultPlan::uniform(5, 0.3), RetryPolicy::default());
            let a1 = e.ask_round(&[yes_task(1), yes_task(2)], 5);
            let a2 = e.ask_round(&[yes_task(3)], 5);
            (format!("{a1:?}"), format!("{a2:?}"), e.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dropped_workers_force_reassignment_within_deadline() {
        // First, observe which two workers' votes decide task 1 in a
        // faultless run.
        let mut probe = engine(&[1.0; 8], 21, FaultPlan::none(), RetryPolicy::default());
        let baseline = probe.ask_round(&[yes_task(1)], 3);
        let victims = [baseline[0].worker, baseline[1].worker];

        // Re-run the same seed with both force-dropped from t=0: the one
        // vote left cannot decide, so the task waits for a replacement.
        let metrics = Arc::new(RuntimeMetrics::new());
        let platform =
            SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 8]), 21);
        let retry = RetryPolicy::default();
        let mut e = RuntimeEngine::new(
            platform,
            yes_key(),
            LatencyModel::default(),
            FaultPlan::none().drop_worker(victims[0], 0).drop_worker(victims[1], 0),
            retry,
            0,
            Arc::clone(&metrics),
        );
        let asg = e.ask_round(&[yes_task(1)], 3);
        // Two votes decide it again, without the dropped workers.
        assert_eq!(asg.len(), 2);
        assert!(asg.iter().all(|a| !victims.contains(&a.worker)));
        let s = metrics.snapshot();
        assert_eq!(s.timeouts, 2, "both dropped assignments missed their deadline");
        assert_eq!(s.reassignments, 2, "each dropped worker's assignment moved once");
        assert_eq!(s.dropouts, 2);
        // The replacement was dispatched at the missed deadline, and its
        // own deadline bounds the round's makespan.
        assert!(e.now() <= 2 * retry.deadline_ms);
        assert!(e.error().is_none());
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error_not_a_hang() {
        let plan = FaultPlan::none().with_dropout(1.0);
        let retry = RetryPolicy { deadline_ms: 1000, max_retries: 2 };
        let mut e = engine(&[1.0; 6], 5, plan, retry);
        let asg = e.ask_round(&[yes_task(1)], 2);
        assert!(asg.is_empty(), "every answer was dropped");
        match e.take_error() {
            Some(RuntimeError::RetryBudgetExhausted { task, attempts }) => {
                assert_eq!(task, TaskId(1));
                assert_eq!(attempts, retry.max_retries + 1);
            }
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
        // Poisoned: further rounds dispatch nothing (so callers terminate).
        assert!(e.ask_round(&[yes_task(2)], 2).is_empty());
    }

    #[test]
    fn reassignment_needs_an_eligible_worker() {
        // Pool of exactly `redundancy` workers: all are tried at dispatch,
        // so the first miss has nobody left to take the task.
        let plan = FaultPlan::none().with_dropout(1.0);
        let retry = RetryPolicy { deadline_ms: 1000, max_retries: 5 };
        let mut e = engine(&[1.0; 3], 5, plan, retry);
        let asg = e.ask_round(&[yes_task(1)], 3);
        assert!(asg.is_empty());
        assert!(matches!(e.take_error(), Some(RuntimeError::NoEligibleWorker { task: TaskId(1) })));
    }

    #[test]
    fn slow_faults_stretch_the_round_makespan() {
        let base = {
            let mut e = engine(
                &[1.0; 10],
                13,
                FaultPlan::none(),
                RetryPolicy { deadline_ms: SimTime::MAX / 2, max_retries: 0 },
            );
            e.ask_round(&[yes_task(1)], 5);
            e.now()
        };
        let slowed = {
            let plan = FaultPlan::none().with_slow(1.0, 6.0);
            let mut e = engine(
                &[1.0; 10],
                13,
                plan,
                RetryPolicy { deadline_ms: SimTime::MAX / 2, max_retries: 0 },
            );
            e.ask_round(&[yes_task(1)], 5);
            e.now()
        };
        assert!(slowed > base, "slow faults must stretch {base} -> {slowed}");
    }

    #[test]
    fn traced_round_emits_one_event_per_fact() {
        let ring = Arc::new(Ring::with_capacity(1024));
        let metrics = Arc::new(RuntimeMetrics::new());
        let platform =
            SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), 3);
        let mut e = RuntimeEngine::new(
            platform,
            yes_key(),
            LatencyModel::default(),
            FaultPlan::none(),
            RetryPolicy::default(),
            0,
            Arc::clone(&metrics),
        )
        .with_trace(Trace::collector(ring.clone()));
        let asg = e.ask_round(&[yes_task(1), yes_task(2)], 5);
        assert_eq!(asg.len(), 6);
        let evs = ring.drain();
        let count = |n: &str| evs.iter().filter(|e| e.name == n).count();
        assert_eq!(count(names::DISPATCH), 10);
        assert_eq!(count(names::ARRIVAL), 6);
        assert_eq!(count(names::DECIDE), 2);
        assert_eq!(count(names::CANCEL), 2);
        // The round span opened and closed.
        let round_evs: Vec<_> = evs.iter().filter(|e| e.name == names::ROUND).collect();
        assert_eq!(round_evs.len(), 2);
        assert_eq!(round_evs[1].get_u64("ms"), Some(e.now()));
        // Every dispatch priced at the AMT rate.
        assert!(evs
            .iter()
            .filter(|e| e.name == names::DISPATCH)
            .all(|e| e.get_u64("cents") == Some(5)));
        // The metrics collector consumed the same stream.
        let s = metrics.snapshot();
        assert_eq!(s.tasks_dispatched, 10);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.cost_cents, 50);
        assert_eq!(s.round_latency.sum(), u128::from(e.now()));
    }

    #[test]
    fn early_termination_emits_decide_and_cancel_events() {
        let ring = Arc::new(Ring::with_capacity(1024));
        let platform =
            SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), 17);
        let mut e = RuntimeEngine::new(
            platform,
            yes_key(),
            LatencyModel::default(),
            FaultPlan::none(),
            RetryPolicy::default(),
            0,
            Arc::new(RuntimeMetrics::new()),
        )
        .with_trace(Trace::collector(ring.clone()));
        e.ask_round(&[yes_task(1)], 5);
        let evs = ring.drain();
        let decide = evs.iter().find(|e| e.name == names::DECIDE).expect("a DECIDE event");
        // Perfect workers vote unanimously: confidence 1, entropy 0.
        assert_eq!(decide.get("conf").unwrap().as_f64(), Some(1.0));
        assert_eq!(decide.get("entropy").unwrap().as_f64(), Some(0.0));
        assert_eq!(decide.get_u64("choice"), Some(0));
        let cancel = evs.iter().find(|e| e.name == names::CANCEL).expect("a CANCEL event");
        assert_eq!(cancel.get_u64("n"), Some(2), "5 dispatched, 3 decide, 2 cancelled");
    }

    /// Per task, the workers of its DISPATCH events in emission order, after
    /// one round of 20 tasks at redundancy 1 on a pool of 8 in which every
    /// worker but `w7` has dropped out from the start: a task is re-posted
    /// until it reaches `w7`. Also returns the metrics of the run.
    fn dispatches_with_seven_dropouts(market: Market) -> (Vec<Vec<u64>>, MetricsSnapshot) {
        let plan = (0..7).fold(FaultPlan::none(), |p, w| p.drop_worker(WorkerId(w), 0));
        let retry = RetryPolicy { deadline_ms: 10_000_000, max_retries: 200 };
        let ring = Arc::new(Ring::with_capacity(1 << 14));
        let metrics = Arc::new(RuntimeMetrics::new());
        let platform = SimulatedPlatform::new(market, WorkerPool::with_accuracies(&[1.0; 8]), 29);
        let mut e = RuntimeEngine::new(
            platform,
            yes_key(),
            LatencyModel::default(),
            plan,
            retry,
            0,
            Arc::clone(&metrics),
        )
        .with_trace(Trace::collector(ring.clone()));
        let tasks: Vec<Question> = (0..20).map(yes_task).collect();
        assert_eq!(e.ask_round(&tasks, 1).len(), 20);
        assert!(e.error().is_none());
        let mut workers = vec![Vec::new(); 20];
        for ev in ring.drain().iter().filter(|ev| ev.name == names::DISPATCH) {
            let task = ev.get_u64("task").expect("task") as usize;
            workers[task].push(ev.get_u64("worker").expect("worker"));
        }
        (workers, metrics.snapshot())
    }

    #[test]
    fn online_reassignment_never_repeats_a_worker_across_retries() {
        let (workers, s) = dispatches_with_seven_dropouts(Market::Amt);
        // Some task missed at least three times, so its exclusion list had
        // to carry every earlier replacement, not just the original.
        assert!(workers.iter().any(|w| w.len() >= 4), "{workers:?}");
        for w in &workers {
            let mut distinct = w.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), w.len(), "a worker was asked twice: {w:?}");
            assert_eq!(w.last(), Some(&7));
        }
        let misses: usize = workers.iter().map(|w| w.len() - 1).sum();
        assert_eq!(s.timeouts, misses as u64);
        assert_eq!(s.reassignments, misses as u64);
    }

    #[test]
    fn reassignment_without_control_may_repeat_a_worker() {
        let (workers, s) = dispatches_with_seven_dropouts(Market::CrowdFlower);
        let repeated = |w: &Vec<u64>| (1..w.len()).any(|i| w[..i].contains(&w[i]));
        assert!(workers.iter().any(repeated), "{workers:?}");
        let misses: usize = workers.iter().map(|w| w.len() - 1).sum();
        assert_eq!(s.timeouts, misses as u64);
        // A re-post to the worker that just missed is no reassignment.
        assert!(s.reassignments < s.timeouts);
    }
}
