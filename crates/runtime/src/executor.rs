//! The concurrent query executor.
//!
//! [`RuntimeExecutor`] runs many crowd queries at once: a fleet's jobs are
//! sorted by query id and handed to the shared unit runner
//! ([`run_units`]) as one lane of `threads` scoped threads; each job
//! drives the core round loop ([`cdb_core::Executor`]) against its own
//! per-query [`RuntimeEngine`].
//!
//! Determinism: each query's platform seed, executor seed and fault
//! stream are keyed by `(runtime seed, query id)` via
//! [`cdb_crowd::stream_key`], so a query's outcome is a pure function of
//! the configuration — never of which thread ran it or when. Results are
//! reported in query-id order. Consequently
//! [`RuntimeReport::answers`] is byte-identical across thread counts for
//! a fixed `(seed, fault plan)` — the deterministic-replay guarantee.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cdb_core::executor::{Executor, ExecutorConfig};
use cdb_core::model::NodeId;
use cdb_core::{QueryGraph, ReuseCache, ReuseSession, SettleSink, SettledFact};
use cdb_crowd::{stream_key, LatencyModel, Market, SimTime, SimulatedPlatform, WorkerPool};
use cdb_obsv::attr::names;
use cdb_obsv::{kv, Event, SpanId, Trace};

use crate::engine::RuntimeEngine;
use crate::fault::{FaultPlan, RetryPolicy, RuntimeError};
use crate::fleet::run_units;
use crate::metrics::{MetricsSnapshot, RuntimeMetrics};

/// Runtime configuration: the thread count, seeds, simulated crowd and
/// fault plan every query of a fleet runs under.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads per lane of the unit runner (`0` runs as `1`).
    pub threads: usize,
    /// Root seed; every per-query stream is keyed off it.
    pub seed: u64,
    /// Market the per-query platforms simulate.
    pub market: Market,
    /// Accuracies of the simulated worker pool (same pool per query).
    pub worker_accuracies: Vec<f64>,
    /// Worker response-time model.
    pub latency: LatencyModel,
    /// Fault-injection plan (shared stream root across queries).
    pub fault_plan: FaultPlan,
    /// Per-assignment deadline and retry budget.
    pub retry: RetryPolicy,
    /// Core executor knobs (its `seed` is re-keyed per query).
    pub exec: ExecutorConfig,
    /// Observability sink. Off by default (zero cost); when attached,
    /// every query's events are tagged with its `q` id and its span ids
    /// are salted into a per-query namespace before reaching the sink.
    pub trace: Trace,
    /// Cross-query answer-reuse cache. `None` disables reuse. When set,
    /// the run snapshots the cache once before any job starts, hands
    /// every query a private [`ReuseSession`], and absorbs the sessions
    /// of *successful* queries back in query-id order after every job
    /// has finished (failed queries' sessions are discarded: their
    /// post-error colors carry no crowd evidence) — so per-query outcomes
    /// stay a pure function of `(config, job, snapshot)` at any thread
    /// count, and knowledge compounds across fleet runs sharing the same
    /// cache.
    pub reuse: Option<Arc<ReuseCache>>,
    /// Durability hook (settle-after-fsync). When set alongside `reuse`,
    /// each successful query's fresh crowd answers are handed to the sink
    /// — which must put them on stable storage before returning — and
    /// only then absorbed into the shared cache. If settling fails the
    /// session is skipped: the answers stay query-local (re-bought later,
    /// losing money but never correctness) rather than being handed out
    /// as reuse hits that disk would not remember after a crash. Failed
    /// queries are never settled, so recovery cannot resurrect answers
    /// the live engine discarded. `None` (the default) absorbs directly.
    pub settle: Option<SettleHook>,
    /// Per-round binding stream hook. When set, every query invokes the
    /// sink after each crowd round with the bindings that newly became
    /// answers (in canonical order) — `cdb-serve` pushes these over the
    /// wire as NDJSON chunks while the query is still running. The sink
    /// returning `false` cancels that query: the core loop stops asking
    /// and the query reports a partial [`QueryResult`] with
    /// [`cancelled`](QueryResult::cancelled) set. `None` (the default)
    /// streams nothing and can cancel nothing.
    pub round_sink: Option<RoundHook>,
}

/// Receives each query's per-round answer deltas (see
/// [`RuntimeConfig::round_sink`]). Implementations must be cheap and
/// non-blocking-ish — they run on the worker thread inside the round
/// loop — and must not vary behavior by thread or wall clock if replay
/// determinism matters to them.
pub trait RoundSink: Send + Sync {
    /// `new_bindings` became answers for `query` in crowd round `round`
    /// (1-based; a final flush may repeat the last round number). Return
    /// `false` to cancel the query.
    fn on_round(&self, query: u64, round: u64, new_bindings: &[Vec<NodeId>]) -> bool;
}

/// A cloneable, debuggable handle around the round sink — same shape as
/// [`SettleHook`], so [`RuntimeConfig`] can stay `#[derive(Debug, Clone)]`.
#[derive(Clone)]
pub struct RoundHook(Arc<dyn RoundSink>);

impl RoundHook {
    /// Wrap a sink (e.g. `cdb-serve`'s per-query chunk streams).
    pub fn new(sink: Arc<dyn RoundSink>) -> RoundHook {
        RoundHook(sink)
    }

    /// Forward one round's delta; `false` means cancel.
    pub fn on_round(&self, query: u64, round: u64, new_bindings: &[Vec<NodeId>]) -> bool {
        self.0.on_round(query, round, new_bindings)
    }
}

impl std::fmt::Debug for RoundHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RoundHook(..)")
    }
}

/// A cloneable, debuggable handle around the durability sink — kept as a
/// newtype so [`RuntimeConfig`] can stay `#[derive(Debug, Clone)]`.
#[derive(Clone)]
pub struct SettleHook(Arc<dyn SettleSink>);

impl SettleHook {
    /// Wrap a sink (e.g. `cdb-store`'s durable reuse cache).
    pub fn new(sink: Arc<dyn SettleSink>) -> SettleHook {
        SettleHook(sink)
    }

    /// Durably settle `facts` for `query`.
    pub fn settle(&self, query: u64, facts: &[SettledFact]) -> Result<(), String> {
        self.0.settle(query, facts)
    }
}

impl std::fmt::Debug for SettleHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SettleHook(..)")
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        // A deterministic mixed-quality pool: accuracies in [0.6, 0.95).
        let accs: Vec<f64> = (0..40)
            .map(|i| {
                use rand::Rng;
                let mut r = cdb_crowd::stream_rng(0xACC0, &[i]);
                0.6 + 0.35 * r.gen::<f64>()
            })
            .collect();
        RuntimeConfig {
            threads: 4,
            seed: 0,
            market: Market::Amt,
            worker_accuracies: accs,
            latency: LatencyModel::default(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            exec: ExecutorConfig::default(),
            trace: Trace::off(),
            reuse: None,
            settle: None,
            round_sink: None,
        }
    }
}

/// One query to run: a prepared graph plus the crowd's answer key.
#[derive(Debug, Clone)]
pub struct QueryJob {
    /// Stable id; results are reported in id order.
    pub id: u64,
    /// The query graph.
    pub graph: QueryGraph,
    /// The crowd's answer key: ground-truth edge colors. Only the
    /// query's [`RuntimeEngine`] reads it, to answer the questions the
    /// core round loop publishes; the optimizer never sees it.
    pub truth: cdb_core::EdgeTruth,
}

/// A completed query's outcome.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query id.
    pub query: u64,
    /// Answer bindings (all-BLUE candidates).
    pub bindings: BTreeSet<Vec<NodeId>>,
    /// Distinct tasks asked.
    pub tasks_asked: usize,
    /// Crowd rounds consumed.
    pub rounds: usize,
    /// Worker assignments collected.
    pub assignments: usize,
    /// Tasks answered from the reuse cache instead of the crowd.
    pub tasks_saved: usize,
    /// Virtual makespan of the query, in simulated ms.
    pub virtual_ms: SimTime,
    /// True when a [`RoundSink`] stopped the query early (client cancel
    /// or disconnect): `bindings` holds only what had resolved so far.
    pub cancelled: bool,
}

/// Everything a runtime run produced.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Per-query outcomes, sorted by query id.
    pub results: Vec<(u64, Result<QueryResult, RuntimeError>)>,
    /// Frozen runtime counters.
    pub metrics: MetricsSnapshot,
    /// Real (wall-clock) time the run took.
    pub wall: Duration,
}

/// The `a.b|c.d` rendering of an answer set, in its canonical order.
fn join_bindings(bindings: &BTreeSet<Vec<NodeId>>) -> String {
    let rows: Vec<String> = bindings
        .iter()
        .map(|b| b.iter().map(|n| n.0.to_string()).collect::<Vec<_>>().join("."))
        .collect();
    rows.join("|")
}

/// One line of the bindings-only replay artifact: `q{id} answers=[a.b|c.d]`
/// for an answer set, `q{id} error=…` for a failure.
fn answer_line(id: u64, outcome: Result<&BTreeSet<Vec<NodeId>>, &RuntimeError>) -> String {
    match outcome {
        Ok(bindings) => format!("q{id} answers=[{}]\n", join_bindings(bindings)),
        Err(e) => format!("q{id} error={e}\n"),
    }
}

/// Bindings-only rendering of per-query outcomes: one line per query with
/// just its answer set. Every report (runtime, scheduled, sharded) renders
/// its `bindings_text` here, which is what lets them be compared byte for
/// byte.
pub fn bindings_text(results: &[(u64, Result<QueryResult, RuntimeError>)]) -> String {
    results.iter().map(|(id, r)| answer_line(*id, r.as_ref().map(|q| &q.bindings))).collect()
}

/// Queries that finished cleanly.
pub fn ok_count(results: &[(u64, Result<QueryResult, RuntimeError>)]) -> usize {
    results.iter().filter(|(_, r)| r.is_ok()).count()
}

/// Queries that failed with a typed error.
pub fn failed_count(results: &[(u64, Result<QueryResult, RuntimeError>)]) -> usize {
    results.len() - ok_count(results)
}

impl RuntimeReport {
    /// Canonical text rendering of every query's answer — the replay
    /// artifact: byte-identical across thread counts for a fixed
    /// `(seed, fault_plan)`.
    pub fn answers(&self) -> String {
        let mut s = String::new();
        for (id, r) in &self.results {
            match r {
                Ok(q) => s.push_str(&format!(
                    "q{id} tasks={} rounds={} assignments={} virtual_ms={} answers=[{}]\n",
                    q.tasks_asked,
                    q.rounds,
                    q.assignments,
                    q.virtual_ms,
                    join_bindings(&q.bindings)
                )),
                Err(e) => s.push_str(&answer_line(*id, Err(e))),
            }
        }
        s
    }

    /// Bindings-only rendering: one line per query with just its answer
    /// set. Unlike [`answers`](Self::answers) this omits the task, round
    /// and assignment counts, which legitimately shrink when answer reuse
    /// is enabled — so it is the right artifact for comparing a
    /// cache-enabled run against a cache-disabled one.
    pub fn bindings_text(&self) -> String {
        bindings_text(&self.results)
    }

    /// Queries that finished cleanly.
    pub fn ok_count(&self) -> usize {
        ok_count(&self.results)
    }

    /// Queries that failed with a typed error.
    pub fn failed_count(&self) -> usize {
        failed_count(&self.results)
    }

    /// Sum of per-query virtual makespans — what a *serial* schedule would
    /// cost in simulated time; compare with the max for the concurrent
    /// lower bound.
    pub fn virtual_ms_serial(&self) -> SimTime {
        self.results.iter().map(|(_, r)| r.as_ref().map(|q| q.virtual_ms).unwrap_or(0)).sum()
    }
}

/// Runs fleets of crowd queries concurrently with deterministic replay.
pub struct RuntimeExecutor {
    cfg: RuntimeConfig,
}

impl RuntimeExecutor {
    /// Build a scheduler from its configuration.
    pub fn new(cfg: RuntimeConfig) -> Self {
        RuntimeExecutor { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Run every job to completion and report. Jobs execute concurrently
    /// (up to `threads` at once); results are reported in query-id order
    /// regardless of completion order, and the reuse cache is fed in that
    /// order too (see [`run_units`]).
    pub fn run(&self, mut jobs: Vec<QueryJob>) -> RuntimeReport {
        let start = Instant::now();
        jobs.sort_by_key(|j| j.id);
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        // `execute_query` consumes its job; each is taken exactly once.
        let jobs: Vec<Mutex<Option<QueryJob>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let lane: Vec<usize> = (0..ids.len()).collect();
        let (outcomes, metrics) = run_units(&self.cfg, &ids, &[lane], |i, metrics, session| {
            let job = jobs[i].lock().expect("job slot poisoned").take().expect("job runs once");
            (execute_query(&self.cfg, metrics, job, session).1, ())
        });
        let results = ids.into_iter().zip(outcomes.into_iter().map(|(r, ())| r)).collect();
        let metrics = metrics.into_iter().next().expect("one lane");
        RuntimeReport { results, metrics, wall: start.elapsed() }
    }
}

/// Price a successful query's fresh reuse facts for durable settlement:
/// each fact was decided from `redundancy` worker votes at the market's
/// task price. Public so the sim's sequential oracle settles facts
/// byte-identically to the concurrent scheduler.
pub fn settled_facts(cfg: &RuntimeConfig, session: &ReuseSession) -> Vec<SettledFact> {
    let votes = cfg.exec.redundancy as u32;
    let cents = cfg.market.task_price_cents() * cfg.exec.redundancy as u64;
    session
        .fresh_facts()
        .iter()
        .map(|(measure, left, right, same)| SettledFact {
            measure: measure.clone(),
            left: left.clone(),
            right: right.clone(),
            same: *same,
            votes,
            cents,
        })
        .collect()
}

/// Run one query job — a pure function of `(cfg, job, reuse snapshot)`;
/// the shared `metrics` is write-only telemetry.
///
/// This is the *seedable scheduler hook*: [`RuntimeExecutor::run`] calls
/// it from the unit runner's threads, but external harnesses (the `cdb-sim`
/// differential oracle) can call it directly, one query at a time in any
/// order, and must observe byte-identical outcomes — the scheduler only
/// adds concurrency, never behavior. All randomness is keyed by
/// `(cfg.seed, job.id)` via [`cdb_crowd::stream_key`].
pub fn execute_query(
    cfg: &RuntimeConfig,
    metrics: &Arc<RuntimeMetrics>,
    job: QueryJob,
    reuse: Option<Arc<Mutex<ReuseSession>>>,
) -> (u64, Result<QueryResult, RuntimeError>) {
    let platform_seed = stream_key(cfg.seed, &[0x51A7, job.id]);
    let wpool = WorkerPool::with_accuracies(&cfg.worker_accuracies);
    let platform = SimulatedPlatform::new(cfg.market, wpool, platform_seed);
    // Per-query view of the configured sink: every event gains the `q`
    // key and span ids are salted into the query's namespace, so the
    // instrumented code never threads the query id through its calls.
    let qspan = SpanId::root().child(names::QUERY, &[job.id]);
    let qtrace = cfg.trace.with_context(kv![q => job.id], qspan.raw());
    let mut engine = RuntimeEngine::new(
        platform,
        job.truth,
        cfg.latency,
        cfg.fault_plan.clone(),
        cfg.retry,
        job.id,
        Arc::clone(metrics),
    )
    .with_trace(qtrace.clone());
    let exec_cfg = ExecutorConfig { seed: stream_key(cfg.seed, &[0xE5EC, job.id]), ..cfg.exec };
    // The core loop gets the same per-query view, so its plan-level
    // events (`exec.edge` task→node bindings, `exec.color`) land in the
    // same stream the engine's crowd events do — teeing in the shared
    // metrics so the core's pre-round `reuse.hit` sweeps (the only place
    // a task is answered from the cache) count in the snapshot.
    let exec_trace =
        Trace::collector(Arc::clone(metrics) as Arc<dyn cdb_obsv::Collector>).and(&qtrace);
    let mut executor = Executor::new(job.graph, &mut engine, exec_cfg).with_trace(exec_trace);
    if let Some(session) = reuse {
        // The core loop is the session's only reader and writer: it
        // colours entailed edges before selection and records each
        // round's inferred colors after vote aggregation.
        executor = executor.with_reuse(session);
    }
    if let Some(hook) = &cfg.round_sink {
        let hook = hook.clone();
        let query = job.id;
        executor = executor
            .with_round_observer(Box::new(move |round, new| hook.on_round(query, round, new)));
    }
    let stats = executor.run();
    let virtual_ms = engine.now();
    let id = job.id;
    let err = engine.take_error();
    // One `runtime.query` fact per query: metrics folds it into the
    // ok/failed counters; external sinks read the makespan off it.
    engine.trace().emit(Event::instant(
        SpanId::root(),
        names::QUERY,
        virtual_ms,
        kv![q => id, ok => err.is_none(), ms => virtual_ms],
    ));
    match err {
        Some(e) => (id, Err(e)),
        None => (
            id,
            Ok(QueryResult {
                query: id,
                bindings: stats.answer_bindings(),
                tasks_asked: stats.tasks_asked,
                rounds: stats.rounds,
                assignments: stats.assignments,
                tasks_saved: stats.tasks_saved,
                virtual_ms,
                cancelled: stats.cancelled,
            }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::executor::{EdgeTruth, QualityStrategy};
    use cdb_core::model::PartKind;

    /// A small single-join graph: `a_i` joins `b_j` iff `i % nb == j`.
    pub(crate) fn join_query(id: u64, na: usize, nb: usize) -> QueryJob {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: format!("A{id}") });
        let b = g.add_part(PartKind::Table { name: format!("B{id}") });
        let an: Vec<NodeId> = (0..na).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<NodeId> = (0..nb).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let p = g.add_predicate(a, b, true, "A~B");
        let mut truth = EdgeTruth::new();
        for (i, &x) in an.iter().enumerate() {
            for (j, &y) in bn.iter().enumerate() {
                let e = g.add_edge(x, y, p, 0.5);
                truth.insert(e, i % nb == j);
            }
        }
        QueryJob { id, graph: g, truth }
    }

    fn jobs(n: u64) -> Vec<QueryJob> {
        (0..n).map(|i| join_query(i, 4, 3)).collect()
    }

    #[test]
    fn a_fleet_completes_and_reports_in_id_order() {
        // The default 2-minute, 3-retry budget lets a few queries in a
        // hundred exhaust their retries on slow workers; this fleet must
        // complete, so it gets the budget the other fleet tests use.
        let cfg = RuntimeConfig {
            threads: 4,
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(12));
        assert_eq!(report.results.len(), 12);
        assert_eq!(report.ok_count(), 12);
        let ids: Vec<u64> = report.results.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        assert!(report.metrics.rounds > 0);
        assert!(report.metrics.tasks_dispatched > 0);
    }

    #[test]
    fn perfect_workers_recover_the_true_joins() {
        let cfg = RuntimeConfig {
            threads: 2,
            worker_accuracies: vec![1.0; 20],
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(3));
        for (_, r) in &report.results {
            let q = r.as_ref().expect("no faults, no failures");
            assert_eq!(q.bindings.len(), 4, "each a_i joins exactly one b_j");
        }
    }

    #[test]
    fn report_answers_is_reproducible_within_a_thread_count() {
        let mk = || {
            let cfg = RuntimeConfig { threads: 3, seed: 42, ..RuntimeConfig::default() };
            RuntimeExecutor::new(cfg).run(jobs(6)).answers()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn zero_threads_runs_as_one() {
        let run = |threads| {
            let cfg = RuntimeConfig { threads, seed: 42, ..RuntimeConfig::default() };
            let report = RuntimeExecutor::new(cfg).run(jobs(6));
            (report.answers(), report.metrics)
        };
        assert_eq!(run(0), run(1));
    }

    /// Panics on every round of query 3; streams nothing otherwise.
    struct PanicOnQuery3;

    impl RoundSink for PanicOnQuery3 {
        fn on_round(&self, query: u64, _round: u64, _new: &[Vec<NodeId>]) -> bool {
            assert_ne!(query, 3, "injected sink panic");
            true
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_job_panics_the_run_instead_of_hanging_it() {
        // One of 8 jobs panics inside its round loop. The scope joins the
        // other threads — which drain the remaining 7 jobs — and then
        // re-raises; nothing is left waiting on the dead thread's result.
        let cfg = RuntimeConfig {
            threads: 4,
            round_sink: Some(RoundHook::new(Arc::new(PanicOnQuery3))),
            ..RuntimeConfig::default()
        };
        RuntimeExecutor::new(cfg).run(jobs(8));
    }

    #[test]
    fn reuse_cache_compounds_across_fleet_runs() {
        // The fleet's queries share node labels and truth, so after the
        // first run absorbs its answers, a second run over the same cache
        // resolves everything by entailment and dispatches almost nothing.
        let cache = Arc::new(ReuseCache::new());
        let cfg = RuntimeConfig {
            threads: 4,
            worker_accuracies: vec![1.0; 20],
            reuse: Some(Arc::clone(&cache)),
            ..RuntimeConfig::default()
        };
        let exec = RuntimeExecutor::new(cfg);
        let first = exec.run(jobs(4));
        assert_eq!(first.ok_count(), 4);
        assert!(!cache.is_empty(), "absorb fed the cache");
        let second = exec.run(jobs(4));
        assert_eq!(second.ok_count(), 4);
        assert_eq!(first.bindings_text(), second.bindings_text());
        assert!(second.metrics.tasks_saved > 0, "second run hits the cache");
        assert!(
            second.metrics.tasks_dispatched < first.metrics.tasks_dispatched,
            "reuse must reduce dispatch: {} -> {}",
            first.metrics.tasks_dispatched,
            second.metrics.tasks_dispatched
        );
        for (_, r) in &second.results {
            assert!(r.as_ref().unwrap().tasks_saved > 0);
        }
    }

    #[test]
    fn reuse_matches_cache_off_bindings() {
        // Perfect workers and transitively-consistent truth: the entailed
        // answers are the true answers, so reuse changes cost, never the
        // result.
        let run = |reuse: Option<Arc<ReuseCache>>| {
            let cfg = RuntimeConfig {
                threads: 2,
                worker_accuracies: vec![1.0; 20],
                reuse,
                ..RuntimeConfig::default()
            };
            RuntimeExecutor::new(cfg).run(jobs(5)).bindings_text()
        };
        assert_eq!(run(None), run(Some(Arc::new(ReuseCache::new()))));
    }

    #[test]
    fn faults_surface_per_query_without_sinking_the_fleet() {
        // Dropout-everything plan with a tiny retry budget: every query
        // fails with a typed error, and the run still terminates.
        let cfg = RuntimeConfig {
            threads: 4,
            worker_accuracies: vec![1.0; 30],
            fault_plan: FaultPlan::none().with_dropout(1.0),
            retry: RetryPolicy { deadline_ms: 1_000, max_retries: 1 },
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(5));
        assert_eq!(report.failed_count(), 5);
        for (_, r) in &report.results {
            assert!(matches!(r, Err(RuntimeError::RetryBudgetExhausted { .. })));
        }
        assert_eq!(report.metrics.queries_failed, 5);
    }

    #[test]
    fn failed_queries_never_feed_the_reuse_cache() {
        // Dropout-everything: every query latches a fatal error, the
        // engine stops dispatching, and the executor's remaining rounds
        // color edges with zero collected votes. None of that is crowd
        // evidence — the cache must stay empty, or the vacuous colors
        // would beat real answers in every later run sharing the cache.
        let cache = Arc::new(ReuseCache::new());
        let cfg = RuntimeConfig {
            threads: 4,
            worker_accuracies: vec![1.0; 30],
            fault_plan: FaultPlan::none().with_dropout(1.0),
            retry: RetryPolicy { deadline_ms: 1_000, max_retries: 1 },
            reuse: Some(Arc::clone(&cache)),
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(5));
        assert_eq!(report.failed_count(), 5);
        assert!(cache.is_empty(), "failed queries contributed {} answers", cache.len());

        // A healthy run over the same (still-empty) cache then answers
        // exactly as a cache-off run would.
        let healthy = |reuse: Option<Arc<ReuseCache>>| {
            let cfg = RuntimeConfig {
                threads: 2,
                worker_accuracies: vec![1.0; 20],
                reuse,
                ..RuntimeConfig::default()
            };
            RuntimeExecutor::new(cfg).run(jobs(3)).bindings_text()
        };
        assert_eq!(healthy(Some(cache)), healthy(None));
    }

    /// A settle sink that records calls and can be told to reject them.
    #[derive(Debug, Default)]
    struct RecordingSink {
        settled: Mutex<Vec<(u64, usize)>>,
        fail: bool,
    }

    impl SettleSink for RecordingSink {
        fn settle(&self, query: u64, facts: &[SettledFact]) -> Result<(), String> {
            if self.fail {
                return Err("injected durability failure".into());
            }
            self.settled.lock().expect("sink poisoned").push((query, facts.len()));
            Ok(())
        }
    }

    #[test]
    fn settle_hook_runs_before_absorb_in_query_id_order() {
        let cache = Arc::new(ReuseCache::new());
        let sink = Arc::new(RecordingSink::default());
        let cfg = RuntimeConfig {
            threads: 4,
            worker_accuracies: vec![1.0; 20],
            reuse: Some(Arc::clone(&cache)),
            settle: Some(SettleHook::new(Arc::clone(&sink) as Arc<dyn SettleSink>)),
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(4));
        assert_eq!(report.ok_count(), 4);
        assert!(!cache.is_empty(), "absorb still feeds the cache when settling succeeds");
        let settled = sink.settled.lock().unwrap().clone();
        let ids: Vec<u64> = settled.iter().map(|&(q, _)| q).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "settled in ascending query-id order");
        // Every fact the cache holds went through the sink first; sessions
        // may settle overlapping facts (absorb dedups), never fewer.
        let total: usize = settled.iter().map(|&(_, n)| n).sum();
        assert!(total >= cache.len(), "settled {total} < cached {}", cache.len());
    }

    #[test]
    fn failed_queries_are_never_settled() {
        // The durability mirror of `failed_queries_never_feed_the_reuse_
        // cache`: a failed query's partial answers must not reach the
        // settle sink either, or recovery would resurrect answers the
        // live engine discarded.
        let cache = Arc::new(ReuseCache::new());
        let sink = Arc::new(RecordingSink::default());
        let cfg = RuntimeConfig {
            threads: 4,
            worker_accuracies: vec![1.0; 30],
            fault_plan: FaultPlan::none().with_dropout(1.0),
            retry: RetryPolicy { deadline_ms: 1_000, max_retries: 1 },
            reuse: Some(Arc::clone(&cache)),
            settle: Some(SettleHook::new(Arc::clone(&sink) as Arc<dyn SettleSink>)),
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(5));
        assert_eq!(report.failed_count(), 5);
        assert!(sink.settled.lock().unwrap().is_empty(), "failed queries reached the sink");
        assert!(cache.is_empty());
    }

    #[test]
    fn settle_failure_keeps_answers_out_of_the_cache() {
        // A sink that cannot make answers durable must also keep them out
        // of the shared cache: reuse may never hand out an answer that
        // disk would not remember after a crash.
        let cache = Arc::new(ReuseCache::new());
        let sink = Arc::new(RecordingSink { fail: true, ..RecordingSink::default() });
        let cfg = RuntimeConfig {
            threads: 2,
            worker_accuracies: vec![1.0; 20],
            reuse: Some(Arc::clone(&cache)),
            settle: Some(SettleHook::new(sink as Arc<dyn SettleSink>)),
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(3));
        assert_eq!(report.ok_count(), 3, "queries themselves still succeed");
        assert!(cache.is_empty(), "unsettled answers leaked into the cache");
    }

    #[test]
    fn moderate_fault_rates_still_answer() {
        let cfg = RuntimeConfig {
            threads: 4,
            worker_accuracies: vec![0.95; 30],
            fault_plan: FaultPlan::uniform(7, 0.2),
            // A "slow" response (4x of a ~60s mean) usually misses the
            // default 2-minute deadline too, so give the fleet a deadline
            // and retry budget sized for the injected fault rate.
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
            ..RuntimeConfig::default()
        };
        let report = RuntimeExecutor::new(cfg).run(jobs(6));
        assert_eq!(report.ok_count(), 6, "answers: {}", report.answers());
        let m = &report.metrics;
        assert!(m.dropouts + m.abandons + m.slowdowns > 0, "faults were injected");
        assert!(m.reassignments > 0, "dropped work was reassigned");
    }

    #[test]
    fn task_assignment_runs_the_engine_round_with_faults_and_the_same_answers() {
        // CDB+ asks for requester-side assignment. The engine publishes
        // that as its one round path, so the fault plan, deadlines and
        // retries apply, and the fleet answers exactly as without it.
        let run = |use_task_assignment| {
            let cfg = RuntimeConfig {
                threads: 4,
                worker_accuracies: vec![0.95; 30],
                fault_plan: FaultPlan::uniform(7, 0.2),
                retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
                exec: ExecutorConfig {
                    quality: QualityStrategy::EmBayes,
                    use_task_assignment,
                    ..ExecutorConfig::default()
                },
                ..RuntimeConfig::default()
            };
            RuntimeExecutor::new(cfg).run(jobs(6))
        };
        let assigned = run(true);
        assert_eq!(assigned.ok_count(), 6, "answers: {}", assigned.answers());
        let m = &assigned.metrics;
        assert!(m.dropouts + m.abandons + m.slowdowns > 0, "faults were injected");
        assert_eq!(assigned.answers(), run(false).answers());
    }
}
