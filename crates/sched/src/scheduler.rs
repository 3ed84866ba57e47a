//! The multi-query scheduler: admission → deterministic execution →
//! fair-share interleaving → shared-HIT billing.
//!
//! The loop exists once, in [`Scheduler::run_waves`], generalised over
//! *how a wave runs* (a closure) and *what a DRR flow is* (the closure
//! names each flow's query). [`Scheduler::run`] is that loop over a
//! [`RuntimeExecutor`], one flow per query; a sharded fleet passes a
//! closure around `cdb_shard::ShardExecutor::run`, one flow per
//! `(query, component)` unit, so shared HITs pack tasks from units on
//! different shards under the same cents-exact attribution.
//!
//! # Determinism strategy
//!
//! Cross-query batching must not perturb query answers: the acceptance
//! bar is per-query bindings byte-identical to a plain runtime run, at
//! any thread count. The scheduler gets this by construction, in two
//! phases:
//!
//! 1. **Execution.** Admitted queries run through the unmodified
//!    [`RuntimeExecutor`] — each query a pure function of
//!    `(seed, query id)` ([`cdb_runtime::execute_query`]), byte-identical
//!    at 1/4/8 threads. The engine additionally records each query's
//!    *round trace* (tasks published per crowd round).
//! 2. **Interleaving.** The deficit-round-robin scheduler ([`crate::drr`])
//!    replays those traces into global crowd rounds, and the HIT packer
//!    bills each global round as shared HITs with largest-remainder cent
//!    attribution ([`cdb_crowd::attribute_shared_cents`]).
//!
//! Batching therefore changes *how tasks are packed and billed*, never
//! which tasks are asked or what the crowd answers. What it buys is the
//! partial-HIT waste: per query, every round ends with up to
//! `tasks_per_hit − 1` empty slots that are paid for anyway; packed
//! across queries those slots are filled. Every round also counts the
//! HITs per-query billing would have published
//! ([`BillingReport::solo_hits`]); `crates/bench/tests/pinned_counts.rs`
//! pins the reduction (≥15% at 8 concurrent queries).
//!
//! Queued queries admit in *waves*: when a wave of active queries
//! completes, their committed budgets release and the controller promotes
//! the queue FIFO into the next wave. Wave composition is a pure function
//! of the request sequence, so the whole schedule replays.

use std::collections::BTreeMap;
use std::convert::Infallible;

use cdb_core::cost::estimate::estimate;
use cdb_crowd::{attribute_shared_cents, pack_shared, HitConfig};
use cdb_obsv::attr::names;
use cdb_obsv::{kv, Event, SpanId, Trace};
use cdb_runtime::{QueryJob, QueryResult, RuntimeConfig, RuntimeError, RuntimeExecutor};

use crate::admission::{AdmissionController, AdmissionDecision, Envelope, QueryRequest};
use crate::drr::{schedule, DrrConfig, GlobalRound};

/// Scheduler configuration.
#[derive(Debug, Clone, Default)]
pub struct SchedConfig {
    /// The runtime the admitted waves execute on (threads, seed, faults,
    /// reuse — all of it applies unchanged).
    pub runtime: RuntimeConfig,
    /// Global admission envelope.
    pub envelope: Envelope,
    /// Fair-share knobs (quantum, optional per-round capacity).
    pub drr: DrrConfig,
    /// HIT packing ("pack 10 tasks in each HIT", §6.3).
    pub hit: HitConfig,
    /// Observability sink for `sched.*` events.
    pub trace: Trace,
}

/// One query submitted to the scheduler: the job plus its resources.
#[derive(Debug, Clone)]
pub struct SchedJob {
    /// The query to run (its `id` keys decisions, results, attribution).
    pub job: QueryJob,
    /// Money this query brings, in cents.
    pub budget_cents: u64,
    /// Optional deadline in global scheduler rounds.
    pub deadline_rounds: Option<usize>,
}

impl SchedJob {
    /// A job with an effectively unlimited budget and no deadline.
    pub fn unconstrained(job: QueryJob) -> Self {
        SchedJob { job, budget_cents: u64::MAX, deadline_rounds: None }
    }
}

/// One global crowd round as billed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Global round index (continuous across waves).
    pub index: usize,
    /// `(query id, tasks)` in query-id order.
    pub contributions: Vec<(u64, usize)>,
    /// Shared HITs published this round.
    pub hits: usize,
    /// Platform spend this round, in cents.
    pub cents: u64,
}

/// What [`Scheduler::run_waves`] decided and billed — everything a
/// scheduled run produces except the per-query results, which belong to
/// whatever executed the waves.
#[derive(Debug, Clone)]
pub struct BillingReport {
    /// Admission verdict per submitted query, in submission order.
    pub decisions: Vec<(u64, AdmissionDecision)>,
    /// The billed global rounds, in order, contributions folded per query.
    pub rounds: Vec<RoundRecord>,
    /// Global round (0-based) in which each query released its last task.
    pub completion_round: BTreeMap<u64, usize>,
    /// Shared-HIT cost attributed per query, in cents. Sums exactly to
    /// [`platform_cents`](Self::platform_cents).
    pub attributed_cents: BTreeMap<u64, u64>,
    /// Total platform spend on HITs, in cents.
    pub platform_cents: u64,
    /// Total shared HITs published.
    pub total_hits: usize,
    /// Total HITs a per-flow (unbatched) billing would have published —
    /// the baseline the HIT reduction is measured against.
    pub solo_hits: usize,
    /// Execution waves (1 unless admission queued queries).
    pub waves: usize,
}

impl BillingReport {
    /// Fraction of HITs saved versus per-flow billing (0 when nothing
    /// ran).
    pub fn hit_reduction(&self) -> f64 {
        if self.solo_hits == 0 {
            0.0
        } else {
            1.0 - self.total_hits as f64 / self.solo_hits as f64
        }
    }
}

/// Everything a scheduled run produced.
#[derive(Debug)]
pub struct SchedReport {
    /// Per-query outcomes of every admitted query, sorted by query id.
    pub results: Vec<(u64, Result<QueryResult, RuntimeError>)>,
    /// Admission verdicts, billed rounds, attribution and counters.
    pub billing: BillingReport,
}

impl SchedReport {
    /// Bindings-only rendering, byte-compatible with
    /// [`cdb_runtime::RuntimeReport::bindings_text`] — the artifact for
    /// comparing a scheduled run against a plain runtime run.
    pub fn bindings_text(&self) -> String {
        cdb_runtime::bindings_text(&self.results)
    }
}

/// Runs fleets of queries through admission, fair-share rounds and shared
/// HITs.
pub struct Scheduler {
    cfg: SchedConfig,
}

impl Scheduler {
    /// Build a scheduler from its configuration.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Admit, execute and bill every submitted query. Submission order is
    /// the arrival order admission sees; execution and billing are then
    /// deterministic (and thread-count independent) given that order.
    pub fn run(&self, submissions: Vec<SchedJob>) -> SchedReport {
        let executor = RuntimeExecutor::new(self.cfg.runtime.clone());
        let mut results: Vec<(u64, Result<QueryResult, RuntimeError>)> = Vec::new();
        let billing = self
            .run_waves(submissions, |jobs| {
                let report = executor.run(jobs);
                let flows = report
                    .results
                    .iter()
                    .filter_map(|(id, r)| Some((*id, *id, r.as_ref().ok()?.round_tasks.clone())))
                    .collect();
                results.extend(report.results);
                Ok::<_, Infallible>(flows)
            })
            .unwrap_or_else(|never| match never {});
        results.sort_by_key(|&(id, _)| id);
        SchedReport { results, billing }
    }

    /// The admit → wave → bill loop. Offers every submission to admission
    /// in arrival order, then, until no wave is left: hands the admitted
    /// jobs to `run_wave`, DRR-interleaves the round traces it returns,
    /// bills each global round, releases the wave's holds and promotes the
    /// queue FIFO into the next wave.
    ///
    /// `run_wave` executes one wave and returns a `(flow id, query id,
    /// tasks published per round)` triple per DRR flow — flow ids unique
    /// within the wave; flows of failed work are simply left out. Packing
    /// and attribution happen per flow; the report (and the `sched.cost`
    /// events) fold flows back to their queries. An `Err` from `run_wave`
    /// aborts the run.
    ///
    /// `runtime` in the configuration supplies the redundancy and task
    /// price admission estimates with; a `run_wave` that executes on its
    /// own runtime configuration must use the same two values.
    pub fn run_waves<E>(
        &self,
        submissions: Vec<SchedJob>,
        mut run_wave: impl FnMut(Vec<QueryJob>) -> Result<Vec<(u64, u64, Vec<usize>)>, E>,
    ) -> Result<BillingReport, E> {
        let trace = &self.cfg.trace;
        let redundancy = self.cfg.runtime.exec.redundancy;
        let price_cents = self.cfg.runtime.market.task_price_cents();

        // Admission pass, in arrival order.
        let mut ctl = AdmissionController::new(self.cfg.envelope);
        let mut decisions = Vec::new();
        let mut queued_jobs: BTreeMap<u64, QueryJob> = BTreeMap::new();
        let mut wave: Vec<(QueryRequest, QueryJob)> = Vec::new();
        for sub in submissions {
            let est = estimate(&sub.job.graph, redundancy, price_cents);
            let req = QueryRequest {
                query: sub.job.id,
                estimate: est,
                budget_cents: sub.budget_cents,
                deadline_rounds: sub.deadline_rounds,
            };
            let decision = ctl.offer(req);
            match decision {
                AdmissionDecision::Admitted => {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_ADMIT,
                        0,
                        kv![q => req.query, cents => est.cost_cents_upper],
                    ));
                    wave.push((req, sub.job));
                }
                AdmissionDecision::Queued { position } => {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_QUEUE,
                        0,
                        kv![q => req.query, n => position as u64],
                    ));
                    queued_jobs.insert(req.query, sub.job);
                }
                AdmissionDecision::Rejected(reason) => {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_REJECT,
                        0,
                        kv![q => req.query, kind => reason.kind()],
                    ));
                }
            }
            decisions.push((req.query, decision));
        }

        // Execute in waves; bill each wave's interleaved schedule.
        let mut report = BillingReport {
            decisions,
            rounds: Vec::new(),
            completion_round: BTreeMap::new(),
            attributed_cents: BTreeMap::new(),
            platform_cents: 0,
            total_hits: 0,
            solo_hits: 0,
            waves: 0,
        };
        while !wave.is_empty() {
            report.waves += 1;
            let (reqs, jobs): (Vec<_>, Vec<_>) = wave.drain(..).unzip();
            let flows = run_wave(jobs)?;
            let query_of: BTreeMap<u64, u64> = flows.iter().map(|&(f, q, _)| (f, q)).collect();
            let traces: Vec<(u64, Vec<usize>)> =
                flows.into_iter().map(|(f, _, rounds)| (f, rounds)).collect();
            let (globals, finish) = schedule(&traces, self.cfg.drr);
            let base = report.rounds.len();
            for g in &globals {
                let rec = self.bill_round(g, &query_of, base + g.index, redundancy);
                for (&q, &(_, c)) in &rec.per_query {
                    *report.attributed_cents.entry(q).or_default() += c;
                }
                report.platform_cents += rec.cents;
                report.total_hits += rec.hits;
                report.solo_hits += rec.solo_hits;
                report.rounds.push(RoundRecord {
                    index: base + g.index,
                    contributions: rec.per_query.iter().map(|(&q, &(n, _))| (q, n)).collect(),
                    hits: rec.hits,
                    cents: rec.cents,
                });
            }
            // A query finishes when its last flow does.
            for (f, r) in finish {
                let done = report.completion_round.entry(query_of[&f]).or_default();
                *done = (*done).max(base + r);
            }
            for req in &reqs {
                ctl.complete(&req.estimate);
            }
            wave = ctl
                .admit_wave()
                .into_iter()
                .map(|req| {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_ADMIT,
                        0,
                        kv![q => req.query, cents => req.estimate.cost_cents_upper],
                    ));
                    let job = queued_jobs.remove(&req.query).expect("queued job exists");
                    (req, job)
                })
                .collect();
        }
        Ok(report)
    }

    /// Bill one global round: pack and attribute shared HITs per flow,
    /// fold tasks and cents back to the flows' queries, and emit the
    /// `sched.cost` / `sched.round` events.
    fn bill_round(
        &self,
        g: &GlobalRound,
        query_of: &BTreeMap<u64, u64>,
        index: usize,
        redundancy: usize,
    ) -> BilledRound {
        let tph = self.cfg.hit.tasks_per_hit;
        let solo_hits: usize = g.contributions.iter().map(|&(_, n)| n.div_ceil(tph)).sum();
        let shared = pack_shared(&g.contributions, self.cfg.hit);
        let hits = shared.len();
        let attributed = attribute_shared_cents(&shared, self.cfg.hit, redundancy);
        let cents = self.cfg.hit.hits_cost_cents(hits, redundancy);
        debug_assert_eq!(
            attributed.iter().map(|&(_, c)| c).sum::<u64>(),
            cents,
            "attribution must conserve platform cents"
        );
        let mut per_query: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for &(f, n) in &g.contributions {
            per_query.entry(query_of[&f]).or_default().0 += n;
        }
        for &(f, c) in &attributed {
            per_query.entry(query_of[&f]).or_default().1 += c;
        }
        let at = index as u64;
        let trace = &self.cfg.trace;
        for (q, (task_n, c)) in &per_query {
            trace.emit(Event::instant(
                SpanId::ROOT,
                names::SCHED_COST,
                at,
                kv![q => *q, round => at, n => *task_n as u64, cents => *c],
            ));
        }
        trace.emit(Event::instant(
            SpanId::ROOT,
            names::SCHED_ROUND,
            at,
            kv![
                round => at,
                n => g.task_count() as u64,
                hits => hits as u64,
                cents => cents
            ],
        ));
        BilledRound { hits, solo_hits, cents, per_query }
    }
}

struct BilledRound {
    hits: usize,
    solo_hits: usize,
    cents: u64,
    /// `query → (tasks, attributed cents)` this round.
    per_query: BTreeMap<u64, (usize, u64)>,
}
