//! The CDB execution loop (Algorithm 1 of the paper).
//!
//! Each round: select the remaining tasks by the configured cost-control
//! strategy, take the largest non-conflicting batch (latency control),
//! publish the batch to the crowd platform with the configured redundancy,
//! infer the edges' colors from the workers' answers (quality control),
//! color the graph and prune invalid edges — until every edge is colored
//! or pruned. The answers are the all-BLUE candidates.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use cdb_crowd::{CrowdPlatform, Question, TaskId, WorkerId};
use cdb_obsv::attr::names;
use cdb_obsv::{kv, Event, Span, SpanId, Trace};
use cdb_quality::{
    bayesian_posterior_difficulty, em_truth_inference, select_top_k_tasks, vote_entropy, EmConfig,
    TaskAnswers,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::candidate::{answers, Candidate};
use crate::cost::budget::next_budget_batch;
use crate::cost::expectation::SelectionState;
use crate::cost::sampling::mincut_sampling_order;
use crate::latency::parallel_round;
use crate::model::{Color, EdgeId, NodeId, QueryGraph};
use crate::prune::prune_invalid_edges;
use crate::reuse::{ReuseOutcome, ReuseSession};

pub use crate::truth::{true_answers, EdgeTruth};

/// How the next tasks are chosen (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Expectation-based ordering (Eq. 1) — the `CDB` method.
    Expectation,
    /// Sampling + min-cut greedy — the `MinCut` method.
    MinCutSampling {
        /// Number of sampled colorings.
        samples: usize,
    },
    /// Ask edges in descending weight order (naive ablation).
    WeightDescending,
    /// Ask edges in id order (no optimization at all).
    Unordered,
}

/// How edge colors are inferred from redundant answers (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityStrategy {
    /// Plain majority voting (the strategy of CrowdDB/Qurk/Deco/CrowdOP).
    MajorityVote,
    /// EM worker-quality estimation + Bayesian voting (Eq. 2) — `CDB+`.
    EmBayes,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Workers per task (paper: 5).
    pub redundancy: usize,
    /// Cost-control strategy.
    pub selection: SelectionStrategy,
    /// Quality-control strategy.
    pub quality: QualityStrategy,
    /// Use entropy-based online task assignment (`CDB+` on AMT).
    pub use_task_assignment: bool,
    /// Batch non-conflicting tasks per round (latency control); when off,
    /// one task is asked per round (serial ablation).
    pub parallel_rounds: bool,
    /// Maximum number of tasks to ask (BUDGET). When set, selection
    /// switches to budget-aware candidate-first mode (§5.1.3).
    pub budget: Option<usize>,
    /// Latency constraint (Figure 22): optimize for the first `r − 1`
    /// rounds, then ask every remaining open edge in round `r`.
    pub max_rounds: Option<usize>,
    /// Use the paper's flat error model (every task at difficulty 1.0)
    /// instead of the similarity-derived difficulty of DESIGN.md §1.
    pub flat_difficulty: bool,
    /// Seed for the sampling strategy.
    pub seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            redundancy: 5,
            selection: SelectionStrategy::Expectation,
            quality: QualityStrategy::MajorityVote,
            use_task_assignment: false,
            parallel_rounds: true,
            budget: None,
            max_rounds: None,
            flat_difficulty: false,
            seed: 0,
        }
    }
}

/// What an execution did and found.
#[derive(Debug, Clone)]
pub struct ExecutionStats {
    /// Distinct tasks (edges) asked — the paper's cost metric.
    pub tasks_asked: usize,
    /// Edges resolved from the answer-reuse layer instead of being asked
    /// (0 unless a [`ReuseSession`] is attached via `with_reuse`).
    pub tasks_saved: usize,
    /// Rounds of crowd interaction — the paper's latency metric.
    pub rounds: usize,
    /// Total worker assignments collected: `tasks × redundancy` on a
    /// synchronous platform, only the deciding votes on the runtime engine.
    pub assignments: usize,
    /// The answers: all-BLUE candidates at termination.
    pub answers: Vec<Candidate>,
    /// Final worker-quality estimates (EmBayes only; empty under majority
    /// voting). Fold these into a [`cdb_crowd::WorkerHistory`] to warm-start
    /// the next query's inference — the paper's worker-metadata loop. EM
    /// sums each worker's evidence in edge-id order, so one run's estimates
    /// are bit-for-bit those of any rerun, in this process or another.
    pub worker_qualities: HashMap<WorkerId, f64>,
    /// Answers contributed per worker (for history weighting).
    pub worker_answer_counts: HashMap<WorkerId, usize>,
    /// True when a round observer stopped the run early (client cancel /
    /// disconnect in `cdb-serve`); the stats above are then partial.
    pub cancelled: bool,
}

impl ExecutionStats {
    /// Answer bindings as a comparable set (for precision/recall).
    pub fn answer_bindings(&self) -> BTreeSet<Vec<NodeId>> {
        self.answers.iter().map(|c| c.binding.clone()).collect()
    }
}

/// Executes one query graph against a crowd platform.
///
/// Generic over [`CrowdPlatform`] so the same round loop drives both the
/// sequential [`SimCrowd`](crate::SimCrowd) and `cdb-runtime`'s
/// concurrent, fault-injecting engine. It asks edge questions and never
/// holds their answers.
pub struct Executor<'a, P: CrowdPlatform> {
    graph: QueryGraph,
    platform: &'a mut P,
    cfg: ExecutorConfig,
    /// All single-choice answers so far, indexed by edge id:
    /// (worker, 0=yes/1=no).
    votes: Vec<Vec<(WorkerId, usize)>>,
    /// Latest worker-quality estimates (EmBayes only).
    qualities: HashMap<WorkerId, f64>,
    asked: BTreeSet<EdgeId>,
    rng: StdRng,
    /// Plan-level observability sink (off by default; see `cdb-obsv`).
    trace: Trace,
    /// Answer-reuse session: resolves open edges by cache lookup +
    /// entailment before selection, and records every inferred color.
    reuse: Option<Arc<Mutex<ReuseSession>>>,
    tasks_saved: usize,
    /// Incremental expectation scores, carried across rounds
    /// (`Expectation` strategy only): each round rescores just the
    /// components touched by the previous round's answers.
    selection: Option<SelectionState>,
    /// Per-round answer-delta observer (see
    /// [`with_round_observer`](Self::with_round_observer)).
    round_observer: Option<RoundObserver<'a>>,
    /// Bindings already handed to the round observer, so each one is
    /// reported exactly once.
    streamed: BTreeSet<Vec<NodeId>>,
    /// True once the round observer asked the run to stop.
    cancelled: bool,
}

/// Callback invoked after each crowd round with the bindings that became
/// answers (all-BLUE candidates) in that round. Returning `false` cancels
/// the query: the executor stops asking and returns its partial stats.
///
/// The observer is *observation only* with respect to determinism — it
/// sees each binding exactly once, in the executor's canonical
/// ([`BTreeSet`]) order, and a run with an observer that always returns
/// `true` asks exactly the tasks a run without one asks.
pub type RoundObserver<'a> = Box<dyn FnMut(u64, &[Vec<NodeId>]) -> bool + Send + 'a>;

impl<'a, P: CrowdPlatform> Executor<'a, P> {
    /// Create an executor over a snapshot of the graph.
    pub fn new(graph: QueryGraph, platform: &'a mut P, cfg: ExecutorConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Executor {
            votes: vec![Vec::new(); graph.edge_count()],
            graph,
            platform,
            cfg,
            qualities: HashMap::new(),
            asked: BTreeSet::new(),
            rng,
            trace: Trace::off(),
            reuse: None,
            tasks_saved: 0,
            selection: None,
            round_observer: None,
            streamed: BTreeSet::new(),
            cancelled: false,
        }
    }

    /// Attach a per-round answer observer (see [`RoundObserver`]): after
    /// every crowd round (and once more before returning) the callback
    /// receives the bindings that newly became all-BLUE answers, in
    /// canonical order. This is the streaming hook `cdb-serve` uses to
    /// push result bindings over the wire as rounds resolve instead of
    /// waiting for query completion; a `false` return cancels the rest of
    /// the run ([`ExecutionStats::cancelled`] is then set).
    pub fn with_round_observer(mut self, observer: RoundObserver<'a>) -> Self {
        self.round_observer = Some(observer);
        self
    }

    /// Attach an answer-reuse session (§5.1 cost control, extended with
    /// cross-query answer reuse). Before each round's selection, every
    /// open edge is checked against the session — cached or entailed
    /// answers color the edge directly (counted in
    /// [`ExecutionStats::tasks_saved`], emitted as `reuse.hit` events)
    /// instead of dispatching a task; every crowd-inferred color is
    /// recorded back so later edges and queries can reuse it.
    pub fn with_reuse(mut self, session: Arc<Mutex<ReuseSession>>) -> Self {
        self.reuse = Some(session);
        self
    }

    /// Attach an observability sink: each round opens an `exec.round`
    /// span carrying `plan.select` / `cost.estimate` / `exec.edge` /
    /// `exec.color` events (see `cdb_obsv::attr::names`). Timestamps are
    /// round ordinals — the core loop has no clock of its own.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Seed worker-quality priors from history (§2.1 worker metadata):
    /// returning workers start from their historical estimate instead of
    /// the 0.7 cold-start default. Only affects `EmBayes` inference and
    /// task assignment.
    pub fn with_worker_priors(mut self, priors: HashMap<WorkerId, f64>) -> Self {
        self.qualities = priors;
        self
    }

    /// The (mutated) graph — colored edges reflect inferred truths.
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// Run to completion and return the stats.
    pub fn run(mut self) -> ExecutionStats {
        prune_invalid_edges(&mut self.graph);
        let start_rounds = self.platform.rounds();
        let mut precomputed_order: Option<Vec<EdgeId>> = None;

        loop {
            let remaining_budget =
                self.cfg.budget.map(|b| b.saturating_sub(self.asked.len())).unwrap_or(usize::MAX);
            if remaining_budget == 0 {
                break;
            }
            let open = self.graph.open_edges();
            if open.is_empty() {
                break;
            }

            // Latency constraint: in the final permitted round, flush all.
            let this_round = self.platform.rounds() - start_rounds + 1;
            let flush = self.cfg.max_rounds.is_some_and(|r| this_round >= r);

            // Answer reuse: resolve whatever the cache + entailment already
            // know *before* spending selection effort or crowd money. A
            // resolved edge can invalidate candidates, so re-prune and
            // re-derive the open set when anything resolved.
            if self.reuse.is_some() {
                let mut ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::ENTAIL_RESOLVE);
                let resolved = self.sweep_reuse(&open, this_round as u64);
                ph.set(cdb_obsv::attr::keys::N, resolved as u64);
                drop(ph);
                if resolved > 0 {
                    prune_invalid_edges(&mut self.graph);
                    continue;
                }
            }

            if self.trace.on() {
                self.trace.emit(Event::instant(
                    SpanId::root(),
                    names::COST_ESTIMATE,
                    this_round as u64,
                    kv![
                        round => this_round as u64,
                        n => open.len() as u64,
                        kind => self.selection_name(flush)
                    ],
                ));
            }

            let mut select_phase = cdb_obsv::profile::phase(cdb_obsv::profile::phases::TASK_SELECT);
            select_phase.set(cdb_obsv::attr::keys::ROUND, this_round as u64);
            let batch: Vec<EdgeId> = if flush {
                open.clone()
            } else if self.cfg.budget.is_some() {
                // Budget mode: most-promising candidate first; its edges are
                // asked one per round (they conflict by construction).
                let b = next_budget_batch(&self.graph, remaining_budget);
                b.into_iter().take(1).collect()
            } else {
                let order: Vec<EdgeId> = match self.cfg.selection {
                    SelectionStrategy::Expectation => {
                        self.selection.get_or_insert_with(SelectionState::new).order(&self.graph)
                    }
                    SelectionStrategy::MinCutSampling { samples } => {
                        if precomputed_order.is_none() {
                            precomputed_order =
                                Some(mincut_sampling_order(&self.graph, samples, &mut self.rng));
                        }
                        precomputed_order
                            .as_ref()
                            .expect("set above")
                            .iter()
                            .copied()
                            .filter(|e| open.contains(e))
                            .collect()
                    }
                    SelectionStrategy::WeightDescending => {
                        let mut o = open.clone();
                        o.sort_by(|&a, &b| {
                            self.graph
                                .edge_weight(b)
                                .total_cmp(&self.graph.edge_weight(a))
                                .then(a.cmp(&b))
                        });
                        o
                    }
                    SelectionStrategy::Unordered => open.clone(),
                };
                if self.cfg.parallel_rounds {
                    parallel_round(&self.graph, &order)
                } else {
                    order.into_iter().take(1).collect()
                }
            };
            let batch: Vec<EdgeId> = batch.into_iter().take(remaining_budget).collect();
            select_phase.set(cdb_obsv::attr::keys::N, batch.len() as u64);
            drop(select_phase);
            if batch.is_empty() {
                break;
            }
            let round_no = this_round as u64;
            let span = self.trace.span(
                SpanId::root(),
                names::EXEC_ROUND,
                &[round_no],
                round_no,
                kv![round => round_no, n => batch.len() as u64],
            );
            self.emit_plan_edges(&span, &batch, round_no);
            {
                let mut ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::ROUND_DISPATCH);
                ph.set(cdb_obsv::attr::keys::ROUND, round_no);
                ph.set(cdb_obsv::attr::keys::N, batch.len() as u64);
                self.ask_batch(&batch);
            }
            {
                let _ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::QUALITY_INFER);
                self.infer_and_color(&batch);
            }
            self.record_reuse(&batch);
            self.emit_colors(&span, &batch, round_no);
            prune_invalid_edges(&mut self.graph);
            span.close(round_no, kv![n => batch.len() as u64]);
            if !self.notify_round(round_no) {
                self.cancelled = true;
                break;
            }
        }

        // CDB+ final pass: early rounds were colored with immature worker
        // quality estimates; once all answers are in, re-infer every asked
        // edge with the final qualities. (Edges pruned as invalid were
        // never asked and keep their state.)
        let assignments: usize = self.votes.iter().map(Vec::len).sum();
        if self.cfg.quality == QualityStrategy::EmBayes && assignments > 0 {
            let asked: Vec<EdgeId> = self.asked.iter().copied().collect();
            self.infer_and_color(&asked);
        }
        // Flush any answers the final pass (or a zero-round run) produced
        // that no round reported — every answer reaches the observer
        // exactly once. A cancelled run skips this: its stream ends with
        // the server's `cancelled` chunk, not more bindings.
        if !self.cancelled {
            let final_round = (self.platform.rounds() - start_rounds) as u64;
            self.notify_round(final_round);
        }

        let mut worker_answer_counts: HashMap<WorkerId, usize> = HashMap::new();
        for answers in &self.votes {
            for &(w, _) in answers {
                *worker_answer_counts.entry(w).or_insert(0) += 1;
            }
        }
        ExecutionStats {
            tasks_asked: self.asked.len(),
            tasks_saved: self.tasks_saved,
            rounds: self.platform.rounds() - start_rounds,
            assignments,
            answers: answers(&self.graph),
            worker_qualities: self.qualities,
            worker_answer_counts,
            cancelled: self.cancelled,
        }
    }

    /// Hand the round observer the bindings that newly became answers.
    /// Returns `false` when the observer cancelled the run. A no-op
    /// (always `true`) without an observer — the delta scan only runs
    /// when someone is listening.
    fn notify_round(&mut self, round: u64) -> bool {
        let Some(observer) = self.round_observer.as_mut() else { return true };
        let current: BTreeSet<Vec<NodeId>> =
            answers(&self.graph).into_iter().map(|c| c.binding).collect();
        let new: Vec<Vec<NodeId>> =
            current.into_iter().filter(|b| !self.streamed.contains(b)).collect();
        for b in &new {
            self.streamed.insert(b.clone());
        }
        observer(round, &new)
    }

    /// Check every open edge against the reuse session; color the hits
    /// and return how many resolved. Each hit saves one task's worth of
    /// money (`redundancy × task price`) and is emitted as a `reuse.hit`
    /// event carrying provenance kind, entailment depth and saved cents.
    fn sweep_reuse(&mut self, open: &[EdgeId], at: u64) -> usize {
        let Some(session) = self.reuse.clone() else { return 0 };
        let mut session = session.lock().expect("reuse session poisoned");
        let cents = self.platform.market().task_price_cents() * self.cfg.redundancy as u64;
        let mut resolved = 0usize;
        for &e in open {
            let (u, v) = self.graph.edge_endpoints(e);
            let outcome = session.resolve(
                self.edge_measure(e),
                self.graph.node_label(u),
                self.graph.node_label(v),
            );
            if let ReuseOutcome::Hit { same, provenance } = outcome {
                self.graph.set_color(e, if same { Color::Blue } else { Color::Red });
                resolved += 1;
                if self.trace.on() {
                    self.trace.emit(Event::instant(
                        SpanId::root(),
                        names::REUSE_HIT,
                        at,
                        kv![
                            task => e.0 as u64,
                            node => self.graph.edge_predicate(e) as u64,
                            kind => provenance.kind(),
                            depth => provenance.depth() as u64,
                            cents => cents
                        ],
                    ));
                }
            }
        }
        self.tasks_saved += resolved;
        resolved
    }

    /// Record this round's inferred colors into the reuse session so the
    /// rest of this query — and, once absorbed, later queries — can skip
    /// re-asking the same value pair. Edges with no collected votes are
    /// skipped: their color is a vacuous default (a failed engine returns
    /// zero assignments and majority-vote over nothing picks Blue), not
    /// crowd evidence, and must never seed the cache.
    fn record_reuse(&mut self, batch: &[EdgeId]) {
        let Some(session) = self.reuse.clone() else { return };
        let mut session = session.lock().expect("reuse session poisoned");
        for &e in batch {
            if self.votes[e.0].is_empty() {
                continue;
            }
            let (u, v) = self.graph.edge_endpoints(e);
            let same = self.graph.edge_color(e) == Color::Blue;
            session.record(
                self.edge_measure(e),
                self.graph.node_label(u),
                self.graph.node_label(v),
                same,
            );
        }
    }

    /// The similarity measure a crowd check on `e` evaluates — its
    /// predicate's description, the answer-reuse cache namespace.
    fn edge_measure(&self, e: EdgeId) -> &str {
        &self.graph.predicates()[self.graph.edge_predicate(e)].description
    }

    /// Name of the selection mode that produced this round's batch.
    fn selection_name(&self, flush: bool) -> &'static str {
        if flush {
            "flush"
        } else if self.cfg.budget.is_some() {
            "budget"
        } else {
            match self.cfg.selection {
                SelectionStrategy::Expectation => "expectation",
                SelectionStrategy::MinCutSampling { .. } => "mincut",
                SelectionStrategy::WeightDescending => "weight",
                SelectionStrategy::Unordered => "unordered",
            }
        }
    }

    /// One `exec.edge` event per *newly* asked edge, binding the task to
    /// its plan node (the predicate) — the attribution join key. Must run
    /// before `ask_batch` extends `self.asked`.
    fn emit_plan_edges(&self, span: &Span, batch: &[EdgeId], at: u64) {
        if !self.trace.on() {
            return;
        }
        for &e in batch {
            if !self.asked.contains(&e) {
                span.event(
                    names::PLAN_EDGE,
                    at,
                    kv![task => e.0 as u64, node => self.graph.edge_predicate(e) as u64],
                );
            }
        }
    }

    /// One `exec.color` event per edge colored this round, with the vote
    /// agreement (`conf`) and vote entropy — the per-round quality signal.
    /// Iterates the batch slice, never the votes map, so event order is
    /// deterministic.
    fn emit_colors(&self, span: &Span, batch: &[EdgeId], at: u64) {
        if !self.trace.on() {
            return;
        }
        for &e in batch {
            let (votes, counts) = (&self.votes[e.0], self.vote_counts(e));
            let choice = usize::from(self.graph.edge_color(e) != Color::Blue);
            let conf =
                if votes.is_empty() { 0.0 } else { counts[choice] as f64 / votes.len() as f64 };
            span.event(
                names::COLOR,
                at,
                kv![
                    task => e.0 as u64,
                    choice => choice as u64,
                    conf => conf,
                    entropy => vote_entropy(&counts),
                    n => votes.len() as u64
                ],
            );
        }
    }

    fn question(&self, e: EdgeId) -> Question {
        Question { id: TaskId(e.0 as u64), difficulty: self.edge_difficulty(e) }
    }

    /// Task difficulty for an edge under the configured error model.
    fn edge_difficulty(&self, e: EdgeId) -> f64 {
        if self.cfg.flat_difficulty {
            1.0
        } else {
            cdb_crowd::join_difficulty(self.graph.edge_weight(e))
        }
    }

    fn ask_batch(&mut self, batch: &[EdgeId]) {
        let questions: Vec<Question> = batch.iter().map(|&e| self.question(e)).collect();
        let assignments = if self.cfg.use_task_assignment
            && self.platform.market().supports_online_assignment()
        {
            // CDB+: entropy-based top-k assignment per arriving worker.
            let votes = &self.votes;
            let qualities = &self.qualities;
            self.platform.ask_round_assigned(
                &questions,
                self.cfg.redundancy,
                10,
                &mut |worker, open_tasks| {
                    let posteriors: Vec<Vec<f64>> = open_tasks
                        .iter()
                        .map(|t| {
                            let answers = &votes[t.id.0 as usize];
                            bayesian_posterior_difficulty(answers, qualities, 2, t.difficulty)
                        })
                        .collect();
                    let q_w = qualities.get(&worker.id).copied().unwrap_or(0.7);
                    select_top_k_tasks(&posteriors, q_w, 10)
                        .into_iter()
                        .map(|i| open_tasks[i].id)
                        .collect()
                },
            )
        } else {
            self.platform.ask_round(&questions, self.cfg.redundancy)
        };
        for a in assignments {
            if let cdb_crowd::Answer::Choice(c) = a.answer {
                self.votes[a.task.0 as usize].push((a.worker, c));
            }
        }
        self.asked.extend(batch.iter().copied());
    }

    /// Votes per choice (yes, no) collected for `e`.
    fn vote_counts(&self, e: EdgeId) -> [usize; 2] {
        let mut counts = [0usize; 2];
        for &(_, c) in &self.votes[e.0] {
            if let Some(n) = counts.get_mut(c) {
                *n += 1;
            }
        }
        counts
    }

    fn infer_and_color(&mut self, batch: &[EdgeId]) {
        match self.cfg.quality {
            QualityStrategy::MajorityVote => {
                for &e in batch {
                    // Plurality with ties toward yes: no votes at all is Blue.
                    let [yes, no] = self.vote_counts(e);
                    self.graph.set_color(e, if yes >= no { Color::Blue } else { Color::Red });
                }
            }
            QualityStrategy::EmBayes => {
                // Re-run EM over the whole history, in edge order: quality
                // estimates sharpen as more answers accumulate.
                let tasks: Vec<TaskAnswers> = self
                    .votes
                    .iter()
                    .enumerate()
                    .filter(|(_, answers)| !answers.is_empty())
                    .map(|(e, answers)| TaskAnswers {
                        task: TaskId(e as u64),
                        num_choices: 2,
                        answers: answers.clone(),
                        difficulty: self.edge_difficulty(EdgeId(e)),
                    })
                    .collect();
                let result = em_truth_inference(&tasks, EmConfig::default());
                // Keep prior estimates for workers EM has no data on yet.
                let mut merged = std::mem::take(&mut self.qualities);
                merged.extend(result.qualities);
                self.qualities = merged;
                // Edges without a vote stay "no".
                let mut truth_by_edge = vec![1; self.votes.len()];
                for (t, &truth) in tasks.iter().zip(&result.truths) {
                    truth_by_edge[t.task.0 as usize] = truth;
                }
                for &e in batch {
                    let yes = truth_by_edge[e.0] == 0;
                    self.graph.set_color(e, if yes { Color::Blue } else { Color::Red });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testgraph::chain_2x3;
    use crate::SimCrowd;
    use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};

    /// Ground truth: one blue chain A0-B0-C0 in the 2x3 chain fixture.
    fn fixture() -> (QueryGraph, EdgeTruth) {
        let (g, nodes) = chain_2x3(0.5);
        let mut truth = EdgeTruth::new();
        for i in 0..g.edge_count() {
            let e = EdgeId(i);
            let (u, v) = g.edge_endpoints(e);
            let blue =
                (u == nodes[0][0] && v == nodes[1][0]) || (u == nodes[1][0] && v == nodes[2][0]);
            truth.insert(e, blue);
        }
        (g, truth)
    }

    fn platform(acc: f64, n: usize, seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&vec![acc; n]), seed)
    }

    #[test]
    fn perfect_workers_find_exactly_the_true_answers() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 20, 1);
        let stats =
            Executor::new(g.clone(), &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default())
                .run();
        assert_eq!(stats.answers.len(), 1);
        let expected: BTreeSet<Vec<NodeId>> =
            true_answers(&g, &truth).into_iter().map(|c| c.binding).collect();
        assert_eq!(stats.answer_bindings(), expected);
    }

    #[test]
    fn executor_saves_tasks_vs_asking_everything() {
        let (g, truth) = fixture();
        let total = g.edge_count();
        let mut p = platform(1.0, 20, 1);
        let stats =
            Executor::new(g, &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default()).run();
        assert!(stats.tasks_asked < total, "{} !< {total}", stats.tasks_asked);
    }

    #[test]
    fn serial_mode_has_more_rounds_than_parallel() {
        let (g, truth) = fixture();
        let mut p1 = platform(1.0, 20, 1);
        let par = Executor::new(
            g.clone(),
            &mut SimCrowd::new(&mut p1, &truth),
            ExecutorConfig::default(),
        )
        .run();
        let mut p2 = platform(1.0, 20, 1);
        let ser = Executor::new(
            g,
            &mut SimCrowd::new(&mut p2, &truth),
            ExecutorConfig { parallel_rounds: false, ..ExecutorConfig::default() },
        )
        .run();
        assert!(ser.rounds >= par.rounds);
        assert!(ser.rounds >= ser.tasks_asked); // one task per round
    }

    #[test]
    fn budget_limits_tasks() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 20, 1);
        let stats = Executor::new(
            g,
            &mut SimCrowd::new(&mut p, &truth),
            ExecutorConfig { budget: Some(3), ..ExecutorConfig::default() },
        )
        .run();
        assert!(stats.tasks_asked <= 3);
    }

    #[test]
    fn max_rounds_constraint_flushes() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 20, 1);
        let stats = Executor::new(
            g,
            &mut SimCrowd::new(&mut p, &truth),
            ExecutorConfig { max_rounds: Some(1), ..ExecutorConfig::default() },
        )
        .run();
        assert_eq!(stats.rounds, 1);
        // Flushing round 1 asks everything open at once.
        assert_eq!(stats.answers.len(), 1);
    }

    #[test]
    fn mincut_sampling_strategy_completes() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 20, 1);
        let stats = Executor::new(
            g,
            &mut SimCrowd::new(&mut p, &truth),
            ExecutorConfig {
                selection: SelectionStrategy::MinCutSampling { samples: 10 },
                ..ExecutorConfig::default()
            },
        )
        .run();
        assert_eq!(stats.answers.len(), 1);
    }

    #[test]
    fn em_quality_beats_majority_with_noisy_workers() {
        // A pool with a few excellent workers and several near-coin-flip
        // workers. On a single-join graph every worker answers many tasks,
        // so EM can identify the experts — Bayesian voting then recovers
        // truths that plain majority voting gets wrong.
        use crate::model::{PartKind, QueryGraph};
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let an: Vec<NodeId> = (0..6).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<NodeId> = (0..4).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let p_ab = g.add_predicate(a, b, true, "A~B");
        let mut truth = EdgeTruth::new();
        for (i, &x) in an.iter().enumerate() {
            for (j, &y) in bn.iter().enumerate() {
                let e = g.add_edge(x, y, p_ab, 0.5);
                truth.insert(e, i % 4 == j);
            }
        }
        let mut accs = vec![0.95, 0.95, 0.95];
        accs.extend(vec![0.52; 5]);
        let reference: BTreeSet<Vec<NodeId>> =
            true_answers(&g, &truth).into_iter().map(|c| c.binding).collect();
        let mut mv_f = 0.0;
        let mut em_f = 0.0;
        for seed in 0..20 {
            let pool = WorkerPool::with_accuracies(&accs);
            let mut p = SimulatedPlatform::new(Market::Amt, pool.clone(), seed);
            let mv = Executor::new(
                g.clone(),
                &mut SimCrowd::new(&mut p, &truth),
                ExecutorConfig { quality: QualityStrategy::MajorityVote, ..Default::default() },
            )
            .run();
            mv_f += crate::metrics::precision_recall(&mv.answer_bindings(), &reference).f_measure;
            let mut p = SimulatedPlatform::new(Market::Amt, pool, seed);
            let em = Executor::new(
                g.clone(),
                &mut SimCrowd::new(&mut p, &truth),
                ExecutorConfig { quality: QualityStrategy::EmBayes, ..Default::default() },
            )
            .run();
            em_f += crate::metrics::precision_recall(&em.answer_bindings(), &reference).f_measure;
        }
        assert!(em_f > mv_f, "EM {em_f} should beat MV {mv_f}");
    }

    #[test]
    fn traced_run_emits_rounds_edges_and_colors() {
        use cdb_obsv::{EventKind, Ring, Trace};
        use std::sync::Arc;
        let (g, truth) = fixture();
        let mut p = platform(1.0, 20, 1);
        let ring = Arc::new(Ring::with_capacity(1024));
        let stats = Executor::new(g, &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default())
            .with_trace(Trace::collector(ring.clone()))
            .run();
        let evs = ring.drain();
        assert_eq!(ring.dropped(), 0);
        let rounds = evs
            .iter()
            .filter(|e| e.name == names::EXEC_ROUND && e.kind == EventKind::Enter)
            .count();
        assert_eq!(rounds, stats.rounds);
        // Every asked task is bound to its plan node exactly once.
        let edges = evs.iter().filter(|e| e.name == names::PLAN_EDGE).count();
        assert_eq!(edges, stats.tasks_asked);
        // Each round colors its batch; perfect workers agree unanimously.
        let colors: Vec<_> = evs.iter().filter(|e| e.name == names::COLOR).collect();
        assert!(colors.len() >= stats.tasks_asked);
        assert!(colors.iter().all(|e| e.get("conf").unwrap().as_f64() == Some(1.0)));
        let est = evs.iter().filter(|e| e.name == names::COST_ESTIMATE).count();
        assert_eq!(est, stats.rounds);
        assert!(evs.iter().filter(|e| e.name == names::COST_ESTIMATE).all(|e| e
            .get("kind")
            .unwrap()
            .as_str()
            == Some("expectation")));
    }

    #[test]
    fn task_assignment_mode_runs() {
        let (g, truth) = fixture();
        let mut p = platform(0.9, 20, 1);
        let stats = Executor::new(
            g,
            &mut SimCrowd::new(&mut p, &truth),
            ExecutorConfig {
                quality: QualityStrategy::EmBayes,
                use_task_assignment: true,
                ..ExecutorConfig::default()
            },
        )
        .run();
        assert_eq!(stats.answers.len(), 1);
        assert!(stats.assignments >= stats.tasks_asked * 5);
    }

    #[test]
    fn reuse_session_skips_everything_on_a_repeat_run() {
        let (g, truth) = fixture();
        let session = Arc::new(Mutex::new(ReuseSession::default()));
        let mut p1 = platform(1.0, 20, 1);
        let first = Executor::new(
            g.clone(),
            &mut SimCrowd::new(&mut p1, &truth),
            ExecutorConfig::default(),
        )
        .with_reuse(session.clone())
        .run();
        assert_eq!(first.tasks_saved, 0);
        assert!(first.tasks_asked > 0);
        // Same graph again: every edge's value pair is now recorded (or
        // entailed), so the repeat run never dispatches a single task.
        let mut p2 = platform(1.0, 20, 99);
        let second = Executor::new(
            g.clone(),
            &mut SimCrowd::new(&mut p2, &truth),
            ExecutorConfig::default(),
        )
        .with_reuse(session)
        .run();
        assert_eq!(second.tasks_asked, 0);
        assert!(second.tasks_saved > 0);
        assert_eq!(second.answer_bindings(), first.answer_bindings());
        // Hits are coloured before selection, so an all-hit run never
        // reaches the platform: no round published, nothing answered.
        assert_eq!(p2.rounds(), 0);
        assert_eq!(second.assignments, 0);
        // Without reuse the second run would have paid full price.
        let mut p3 = platform(1.0, 20, 99);
        let plain =
            Executor::new(g, &mut SimCrowd::new(&mut p3, &truth), ExecutorConfig::default()).run();
        assert_eq!(plain.tasks_asked, first.tasks_asked);
        assert_eq!(plain.tasks_saved, 0);
    }

    #[test]
    fn reuse_emits_hit_events_with_provenance() {
        use cdb_obsv::{Ring, Trace};
        use std::sync::Arc as ObsArc;
        let (g, truth) = fixture();
        let session = Arc::new(Mutex::new(ReuseSession::default()));
        let mut p1 = platform(1.0, 20, 1);
        Executor::new(g.clone(), &mut SimCrowd::new(&mut p1, &truth), ExecutorConfig::default())
            .with_reuse(session.clone())
            .run();
        let ring = ObsArc::new(Ring::with_capacity(1024));
        let mut p2 = platform(1.0, 20, 1);
        let stats =
            Executor::new(g, &mut SimCrowd::new(&mut p2, &truth), ExecutorConfig::default())
                .with_reuse(session)
                .with_trace(Trace::collector(ring.clone()))
                .run();
        let evs = ring.drain();
        let hits: Vec<_> = evs.iter().filter(|e| e.name == names::REUSE_HIT).collect();
        assert_eq!(hits.len(), stats.tasks_saved);
        for h in &hits {
            assert!(h.get("depth").unwrap().as_u64().unwrap() >= 1);
            assert!(h.get("cents").unwrap().as_u64().unwrap() > 0);
            let kind = h.get("kind").unwrap().as_str().unwrap();
            assert!(["cached", "transitive", "negative"].contains(&kind));
        }
    }

    #[test]
    fn stats_assignments_match_redundancy() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 20, 1);
        let stats =
            Executor::new(g, &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default()).run();
        assert_eq!(stats.assignments, stats.tasks_asked * 5);
    }
}
