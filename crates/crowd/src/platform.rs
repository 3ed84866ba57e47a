//! The simulated crowdsourcing market.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::latency::{LatencyModel, SimTime};
use crate::pending::PendingAssignment;
use crate::{Answer, Assignment, Question, Task, TaskId, TaskKind, Worker, WorkerId, WorkerPool};

/// The crowdsourcing markets CDB deploys on (§2.1). The distinction that
/// matters for optimization: AMT's developer model lets the requester's
/// server control *online task assignment*; CrowdFlower and ChinaCrowd do
/// not, so tasks there are assigned to random workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Market {
    /// Amazon Mechanical Turk (supports online assignment).
    Amt,
    /// CrowdFlower (no requester-side assignment control).
    CrowdFlower,
    /// ChinaCrowd (no requester-side assignment control).
    ChinaCrowd,
}

impl Market {
    /// True when the requester can choose which tasks each arriving worker
    /// receives — the prerequisite for CDB+'s task-assignment strategy.
    pub fn supports_online_assignment(self) -> bool {
        matches!(self, Market::Amt)
    }

    /// Price of one assignment (HIT answer) on this market, in cents —
    /// the unit the observability layer multiplies by dispatch counts to
    /// attribute monetary cost. The paper's experiments pay $0.05 per
    /// AMT task (§6.1); the other markets are modelled slightly cheaper.
    pub fn task_price_cents(self) -> u64 {
        match self {
            Market::Amt => 5,
            Market::CrowdFlower => 4,
            Market::ChinaCrowd => 3,
        }
    }
}

/// A deterministic, seeded simulation of a crowdsourcing platform.
///
/// Workers answer according to their latent accuracy: a single-choice task
/// is answered correctly with probability `accuracy`, otherwise one of the
/// wrong choices is picked uniformly — the standard worker model the paper
/// adopts for its simulated study (§6.2).
#[derive(Debug)]
pub struct SimulatedPlatform {
    market: Market,
    pool: WorkerPool,
    rng: StdRng,
    round: usize,
    /// Response-time model of the timed dispatches.
    latency: LatencyModel,
    /// Each worker's persistent speed factor under `latency`, indexed by
    /// worker id: drawn on the first timed dispatch, then only read.
    speed: Vec<f64>,
    /// Reused worker-sampling buffer.
    scratch: Vec<Worker>,
}

impl SimulatedPlatform {
    /// Create a platform over a worker pool with a deterministic seed.
    pub fn new(market: Market, pool: WorkerPool, seed: u64) -> Self {
        SimulatedPlatform {
            market,
            pool,
            rng: StdRng::seed_from_u64(seed),
            round: 0,
            latency: LatencyModel::default(),
            speed: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Time the answers of [`SimulatedPlatform::publish_round`] and
    /// [`SimulatedPlatform::dispatch_replacement`] with `latency` (the
    /// default is [`LatencyModel::default`]).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self.speed.clear();
        self
    }

    /// Which market this simulates.
    pub fn market(&self) -> Market {
        self.market
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Publish a batch of tasks as one *round*: each task is answered by
    /// `redundancy` distinct randomly-drawn workers (the no-control market
    /// model). Returns the new assignments. A non-empty batch advances the
    /// round counter by one — the paper's latency metric is exactly this
    /// number of rounds.
    pub fn ask_round(&mut self, tasks: &[Task], redundancy: usize) -> Vec<Assignment> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(tasks.len() * redundancy);
        let k = redundancy.min(self.pool.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        for task in tasks {
            for &w in self.pool.sample_distinct(k, &mut self.rng, &mut scratch) {
                let answer = self.simulate_answer(w, task);
                out.push(Assignment { task: task.id, worker: w.id, answer });
            }
        }
        self.scratch = scratch;
        self.round += 1;
        out
    }

    /// Publish a batch of tasks as one round under AMT's developer model:
    /// workers arrive one at a time and the requester-supplied `assigner`
    /// decides which (up to `batch_size`) of the still-open tasks each
    /// arriving worker receives. The round ends when every task has
    /// `redundancy` answers.
    ///
    /// # Panics
    /// Panics when the market does not support online assignment.
    pub fn ask_round_assigned(
        &mut self,
        tasks: &[Task],
        redundancy: usize,
        batch_size: usize,
        assigner: &mut TaskAssigner,
    ) -> Vec<Assignment> {
        assert!(
            self.market.supports_online_assignment(),
            "{:?} does not support requester-side task assignment",
            self.market
        );
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut need: std::collections::BTreeMap<TaskId, usize> =
            tasks.iter().map(|t| (t.id, redundancy)).collect();
        let by_id: std::collections::BTreeMap<TaskId, &Task> =
            tasks.iter().map(|t| (t.id, t)).collect();
        // Track which workers already answered which tasks in this round so
        // no worker answers the same task twice.
        let mut answered: std::collections::HashSet<(WorkerId, TaskId)> =
            std::collections::HashSet::new();
        let mut out = Vec::new();
        // Workers arrive in an endless random stream; bail out if the pool
        // cannot provide the required redundancy.
        let mut idle_arrivals = 0usize;
        while need.values().any(|&n| n > 0) {
            let w = self.pool.workers()[self.rng.gen_range(0..self.pool.len())];
            let open: Vec<Question> = need
                .iter()
                .filter(|(id, &n)| n > 0 && !answered.contains(&(w.id, **id)))
                .map(|(&id, _)| Question { id, difficulty: by_id[&id].difficulty })
                .collect();
            if open.is_empty() {
                idle_arrivals += 1;
                assert!(
                    idle_arrivals < 100 * self.pool.len().max(1),
                    "worker pool too small for redundancy {redundancy}"
                );
                continue;
            }
            idle_arrivals = 0;
            let chosen = assigner(&w, &open);
            for tid in chosen.into_iter().take(batch_size) {
                let Some(task) = by_id.get(&tid) else { continue };
                if need[&tid] == 0 || answered.contains(&(w.id, tid)) {
                    continue;
                }
                let answer = self.simulate_answer(w, task);
                out.push(Assignment { task: tid, worker: w.id, answer });
                answered.insert((w.id, tid));
                *need.get_mut(&tid).expect("task known") -= 1;
            }
        }
        self.round += 1;
        out
    }

    /// Generate one worker's answer to one task according to the latent
    /// accuracy model, drawing from the platform's own RNG.
    pub fn simulate_answer(&mut self, worker: Worker, task: &Task) -> Answer {
        simulate_answer_with(worker, task, &mut self.rng)
    }

    /// Publish a batch *without* blocking for answers: each task goes to
    /// `redundancy` distinct workers and every assignment gets a pre-drawn
    /// answer plus a response-latency sample from the platform's
    /// [`LatencyModel`]. The round counter does not move — the caller
    /// opens an [`OpenRound`](crate::OpenRound) on the returned batch once
    /// each `arrives_at` is final (after any fault injection), collects
    /// arrivals as virtual time advances and counts its own rounds. This is
    /// the answers-as-they-arrive counterpart of
    /// [`SimulatedPlatform::ask_round`].
    /// Assignments come task by task, in `tasks` order.
    pub fn publish_round(
        &mut self,
        tasks: &[Task],
        redundancy: usize,
        deadline_ms: SimTime,
        now: SimTime,
    ) -> Vec<PendingAssignment> {
        let mut batch = Vec::with_capacity(tasks.len() * redundancy);
        let k = redundancy.min(self.pool.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        for task in tasks {
            for &w in self.pool.sample_distinct(k, &mut self.rng, &mut scratch) {
                batch.push(self.dispatch(w, task, deadline_ms, now, 0));
            }
        }
        self.scratch = scratch;
        batch
    }

    /// Dispatch one replacement assignment — the reassignment step after a
    /// worker dropout or an expired per-assignment deadline. On markets
    /// with online assignment the requester picks a worker outside
    /// `exclude`; elsewhere the platform hands the task to a random worker,
    /// excluded or not (the requester has no control). Returns `None` when
    /// online assignment is supported but no eligible worker remains.
    pub fn dispatch_replacement(
        &mut self,
        task: &Task,
        exclude: &[WorkerId],
        deadline_ms: SimTime,
        now: SimTime,
        attempt: u32,
    ) -> Option<PendingAssignment> {
        let w = if self.market.supports_online_assignment() {
            let eligible: Vec<Worker> =
                self.pool.workers().iter().copied().filter(|w| !exclude.contains(&w.id)).collect();
            if eligible.is_empty() {
                return None;
            }
            eligible[self.rng.gen_range(0..eligible.len())]
        } else {
            self.pool.workers()[self.rng.gen_range(0..self.pool.len())]
        };
        Some(self.dispatch(w, task, deadline_ms, now, attempt))
    }

    fn dispatch(
        &mut self,
        w: Worker,
        task: &Task,
        deadline_ms: SimTime,
        now: SimTime,
        attempt: u32,
    ) -> PendingAssignment {
        if self.speed.is_empty() {
            let latency = self.latency;
            self.speed = self.pool.workers().iter().map(|w| latency.worker_factor(w.id)).collect();
        }
        // The answer is pre-drawn at dispatch time so that arrival order
        // (and hence thread scheduling) can never change its value.
        let answer = self.simulate_answer(w, task);
        let factor = self.speed[w.id.0 as usize];
        let arrives_at = Some(now + self.latency.sample(factor, &mut self.rng));
        PendingAssignment {
            task: task.id,
            worker: w,
            answer,
            dispatched_at: now,
            arrives_at,
            deadline: now + deadline_ms,
            attempt,
        }
    }
}

/// Generate one worker's answer to one task under the latent accuracy
/// model, using the supplied RNG — the pure core of
/// [`SimulatedPlatform::simulate_answer`]. Exposed so the concurrent
/// runtime can draw answers from deterministic keyed streams
/// (`crate::stream_rng`) instead of a shared sequential RNG.
pub fn simulate_answer_with(worker: Worker, task: &Task, rng: &mut impl Rng) -> Answer {
    // Difficulty-aware accuracy: easy tasks (difficulty -> 0) are
    // answered correctly almost always, hard tasks at the worker's
    // latent accuracy (the flat model of the paper's simulation).
    let eff = worker.accuracy + (1.0 - worker.accuracy) * (1.0 - task.difficulty) * 0.9;
    match task.kind {
        TaskKind::SingleChoice { choices, truth } => {
            if rng.gen::<f64>() < eff || choices <= 1 {
                Answer::Choice(truth)
            } else {
                // Uniform over the wrong choices.
                let mut c = rng.gen_range(0..choices - 1);
                if c >= truth {
                    c += 1;
                }
                Answer::Choice(c)
            }
        }
        TaskKind::FillInBlank { ref truth } => {
            if rng.gen::<f64>() < eff {
                Answer::Text(truth.clone())
            } else {
                Answer::Text(corrupt(truth, rng))
            }
        }
    }
}

/// Requester-side online assigner: given the arriving worker and the
/// still-open questions, decide which tasks the worker receives this visit.
/// It sees ids and difficulties, never a task's answer.
pub type TaskAssigner<'a> = dyn FnMut(&Worker, &[Question]) -> Vec<TaskId> + 'a;

/// The crowd the query executor asks its join checks of. Abstracting it
/// lets `cdb-core`'s round loop drive either the sequential
/// [`SimulatedPlatform`] (through `cdb_core::SimCrowd`, which pairs it
/// with the query's answer key) or `cdb-runtime`'s concurrent,
/// fault-injecting engine without a dependency cycle between those crates.
/// The executor publishes [`Question`]s; only the crowd knows the answers.
pub trait CrowdPlatform {
    /// Which market this platform deploys on.
    fn market(&self) -> Market;

    /// Number of completed rounds.
    fn rounds(&self) -> usize;

    /// Publish a batch of join checks as one round with `redundancy`
    /// answers per question, blocking until the round completes.
    fn ask_round(&mut self, questions: &[Question], redundancy: usize) -> Vec<Assignment>;

    /// Publish a batch as one round under requester-side online task
    /// assignment (AMT's developer model). The default ignores the
    /// assigner and publishes a plain [`CrowdPlatform::ask_round`], as a
    /// platform without requester-side control does.
    fn ask_round_assigned(
        &mut self,
        questions: &[Question],
        redundancy: usize,
        _batch_size: usize,
        _assigner: &mut TaskAssigner,
    ) -> Vec<Assignment> {
        self.ask_round(questions, redundancy)
    }
}

/// Corrupt a string the way failing workers do: half the time a
/// character-level slip (drop, duplicate or swap — the answer stays
/// recognizable), half the time a completely different answer (the worker
/// did not know and guessed). Guaranteed to differ from the input for
/// inputs of length ≥ 2.
pub(crate) fn corrupt(s: &str, rng: &mut impl Rng) -> String {
    if rng.gen::<f64>() < 0.5 {
        // A wrong guess unrelated to the truth.
        return format!("unknown answer {}", rng.gen_range(0..1000u32));
    }
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return format!("{s}?");
    }
    let mut out = chars.clone();
    match rng.gen_range(0..3u8) {
        0 => {
            let i = rng.gen_range(0..out.len());
            out.remove(i);
        }
        1 => {
            let i = rng.gen_range(0..out.len());
            let c = out[i];
            out.insert(i, c);
        }
        _ => {
            let i = rng.gen_range(0..out.len() - 1);
            out.swap(i, i + 1);
            if out == chars {
                // Swapped identical characters; force a difference.
                out.remove(i);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpenRound;

    fn platform(accs: &[f64], seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(accs), seed)
    }

    fn yes_task(id: u64) -> Task {
        Task::join_check(Question { id: TaskId(id), difficulty: 1.0 }, true)
    }

    #[test]
    fn market_assignment_capability() {
        assert!(Market::Amt.supports_online_assignment());
        assert!(!Market::CrowdFlower.supports_online_assignment());
        assert!(!Market::ChinaCrowd.supports_online_assignment());
    }

    #[test]
    fn market_prices_are_stable() {
        assert_eq!(Market::Amt.task_price_cents(), 5);
        assert_eq!(Market::CrowdFlower.task_price_cents(), 4);
        assert_eq!(Market::ChinaCrowd.task_price_cents(), 3);
    }

    #[test]
    fn perfect_workers_always_answer_truth() {
        let mut p = platform(&[1.0; 5], 1);
        let asg = p.ask_round(&[yes_task(1)], 5);
        assert_eq!(asg.len(), 5);
        assert!(asg.iter().all(|a| a.answer == Answer::Choice(0)));
    }

    #[test]
    fn zero_accuracy_workers_always_wrong() {
        let mut p = platform(&[0.0; 5], 1);
        let asg = p.ask_round(&[yes_task(1)], 5);
        assert!(asg.iter().all(|a| a.answer == Answer::Choice(1)));
    }

    #[test]
    fn accuracy_is_respected_statistically() {
        let mut p = platform(&[0.8; 50], 42);
        let tasks: Vec<Task> = (0..200).map(yes_task).collect();
        let asg = p.ask_round(&tasks, 5);
        let correct = asg.iter().filter(|a| a.answer == Answer::Choice(0)).count();
        let rate = correct as f64 / asg.len() as f64;
        assert!((rate - 0.8).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn rounds_count_batches() {
        let mut p = platform(&[1.0; 5], 1);
        assert_eq!(p.rounds(), 0);
        p.ask_round(&[yes_task(1)], 3);
        p.ask_round(&[yes_task(2)], 3);
        p.ask_round(&[], 3); // empty batch is not a round
        assert_eq!(p.rounds(), 2);
    }

    #[test]
    fn every_task_gets_redundancy_answers_in_task_order() {
        let mut p = platform(&[1.0; 5], 1);
        let asg = p.ask_round(&[yes_task(1), yes_task(2)], 4);
        let tasks: Vec<u64> = asg.iter().map(|a| a.task.0).collect();
        assert_eq!(tasks, [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn redundancy_uses_distinct_workers() {
        let mut p = platform(&[0.9; 8], 9);
        let asg = p.ask_round(&[yes_task(1)], 5);
        let mut ids: Vec<u32> = asg.iter().map(|a| a.worker.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn assigned_round_respects_assigner_choice() {
        let mut p = platform(&[1.0; 10], 3);
        let tasks = vec![yes_task(1), yes_task(2)];
        // Assigner always gives the lowest-id open task.
        let asg = p.ask_round_assigned(&tasks, 3, 1, &mut |_, open| {
            let mut ids: Vec<TaskId> = open.iter().map(|q| q.id).collect();
            ids.sort();
            ids.truncate(1);
            ids
        });
        // Lowest id first: task 1 fills up before task 2 is handed out.
        let order: Vec<u64> = asg.iter().map(|a| a.task.0).collect();
        assert_eq!(order, [1, 1, 1, 2, 2, 2]);
        assert_eq!(p.rounds(), 1);
    }

    #[test]
    fn assigned_round_never_gives_same_task_twice_to_one_worker() {
        let mut p = platform(&[1.0; 4], 3);
        let tasks = vec![yes_task(1)];
        let asg =
            p.ask_round_assigned(&tasks, 4, 5, &mut |_, open| open.iter().map(|q| q.id).collect());
        let mut workers: Vec<u32> = asg.iter().map(|a| a.worker.0).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 4);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn crowdflower_rejects_online_assignment() {
        let mut p =
            SimulatedPlatform::new(Market::CrowdFlower, WorkerPool::with_accuracies(&[1.0]), 0);
        p.ask_round_assigned(&[yes_task(1)], 1, 1, &mut |_, open| {
            open.iter().map(|q| q.id).collect()
        });
    }

    #[test]
    fn corrupt_changes_string() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for s in ["University of California", "ab", "x", ""] {
            let c = corrupt(s, &mut rng);
            assert_ne!(c, s, "corrupt({s:?}) did not change it");
        }
    }

    #[test]
    fn fill_task_answers_match_accuracy_model() {
        let mut p = platform(&[1.0], 1);
        let t = Task {
            id: TaskId(9),
            kind: TaskKind::FillInBlank { truth: "MIT".into() },
            difficulty: 1.0,
        };
        let w = Worker { id: WorkerId(0), accuracy: 1.0 };
        assert_eq!(p.simulate_answer(w, &t), Answer::Text("MIT".into()));
    }

    #[test]
    fn publish_round_is_nonblocking() {
        let mut p = platform(&[1.0; 8], 11);
        let batch = p.publish_round(&[yes_task(1), yes_task(2)], 3, 600_000, 0);
        assert_eq!(batch.len(), 6);
        assert_eq!(p.rounds(), 0, "publish must not advance the round");
        // Drain at the deadline: every sampled latency of this seed is
        // inside the 10 minutes.
        let mut open = OpenRound::new(batch, 3);
        let mut collected = Vec::new();
        open.collect_arrived(600_000, &mut collected);
        assert_eq!(collected.len(), 6);
        assert!(collected.iter().all(|a| a.1.answer == Answer::Choice(0)));
    }

    #[test]
    fn replacement_respects_online_assignment_exclusions() {
        let mut p = platform(&[1.0; 3], 5);
        let exclude = [WorkerId(0), WorkerId(1)];
        for _ in 0..8 {
            let r = p
                .dispatch_replacement(&yes_task(1), &exclude, 1000, 0, 1)
                .expect("one eligible worker remains");
            assert_eq!(r.worker.id, WorkerId(2));
            assert_eq!(r.attempt, 1);
        }
        // All workers excluded: requester-side assignment has nobody left.
        let all = [WorkerId(0), WorkerId(1), WorkerId(2)];
        assert!(p.dispatch_replacement(&yes_task(1), &all, 1000, 0, 1).is_none());
    }

    #[test]
    fn replacement_without_assignment_control_ignores_exclusions() {
        let mut p =
            SimulatedPlatform::new(Market::CrowdFlower, WorkerPool::with_accuracies(&[1.0]), 0);
        let r = p
            .dispatch_replacement(&yes_task(1), &[WorkerId(0)], 1000, 0, 2)
            .expect("random assignment always finds a worker");
        assert_eq!(r.worker.id, WorkerId(0), "no control: excluded worker may recur");
    }
}
