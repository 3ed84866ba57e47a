//! Server state: the shared catalog, the per-tenant admission ledgers,
//! the query registry with retained NDJSON chunks, and the execution
//! worker pool that drives [`cdb_runtime::execute_query`] with the
//! per-round streaming hook attached.
//!
//! # Determinism
//!
//! A query's NDJSON stream is a pure function of `(cfg.seed, query id,
//! sql)` — [`cdb_runtime::execute_query`] keys all randomness by
//! `(seed, id)`, the streaming hook only *observes* round deltas, and no
//! chunk carries wall-clock state. The worker-pool size changes which
//! thread runs a query, never its bytes, so 1/4/8-worker servers produce
//! byte-identical streams for the same submission order (the wire
//! analogue of the runtime's replay guarantee). Wall-clock timing lives
//! only in status/metrics responses, never in streams.
//!
//! # Money
//!
//! Each tenant's wallet is a [`cdb_sched::AdmissionController`] whose
//! envelope budget is the tenant's lifetime allowance. Admission commits
//! the query's pessimistic [`CostEstimate`] hold; completion releases
//! only the *unspent* part (the refund), so `committed_cents` retains
//! actual spend permanently — wallet semantics on the unmodified
//! scheduler API. Failed queries release their whole hold; cancelled
//! queries pay for what ran before the cancel landed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Instant;

use cdb_core::model::NodeId;
use cdb_core::{
    analyze_sql, build_query_graph_indexed, CostEstimate, GraphBuildConfig, PredicateIndex,
    QueryGraph, QueryTruth,
};
use cdb_obsv::json::{JsonArray, JsonObject};
use cdb_obsv::Hist;
use cdb_runtime::{execute_query, QueryJob, RoundHook, RoundSink, RuntimeConfig, RuntimeMetrics};
use cdb_sched::{AdmissionController, AdmissionDecision, Envelope, QueryRequest};

use crate::wire::{StreamEvent, Submit};

/// Everything that configures a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base runtime configuration: seed, worker pool, market, faults,
    /// retry, executor strategies. `runtime.threads` is ignored — the
    /// service schedules queries on its own [`exec_threads`] pool.
    ///
    /// [`exec_threads`]: ServeConfig::exec_threads
    pub runtime: RuntimeConfig,
    /// Graph construction (similarity function, ε).
    pub build: GraphBuildConfig,
    /// Price per assignment, in cents (feeds the admission estimate and
    /// the actual-spend accounting).
    pub task_price_cents: u64,
    /// Execution worker threads — concurrently *running* queries.
    pub exec_threads: usize,
    /// Envelope for tenants without an explicit entry in
    /// [`tenants`](ServeConfig::tenants).
    pub default_envelope: Envelope,
    /// Per-tenant envelope overrides, by tenant name.
    pub tenants: BTreeMap<String, Envelope>,
    /// Real milliseconds to hold each crowd round (0 = free-running).
    /// The simulated crowd answers in virtual time, so an unthrottled
    /// query finishes in microseconds; the throttle makes live streaming
    /// and sustained in-flight load observable, like a real crowd would.
    pub round_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            runtime: RuntimeConfig::default(),
            build: GraphBuildConfig::default(),
            task_price_cents: 2,
            exec_threads: 4,
            default_envelope: Envelope {
                budget_cents: 100_000,
                max_active: 8,
                queue_capacity: 128,
            },
            tenants: BTreeMap::new(),
            round_delay_ms: 0,
        }
    }
}

/// One served statement as the engine runs it. It carries no truth: the
/// worker projects the crowd's answer key onto the graph at dispatch.
pub(crate) struct Plan {
    pub(crate) graph: QueryGraph,
    /// The server's runtime configuration with the statement's `BUDGET n`
    /// task cap folded in and no round sink attached.
    pub(crate) runtime: RuntimeConfig,
}

/// Turn served CQL into the job it runs as: analyze the SELECT
/// ([`cdb_core::analyze_sql`]), refuse the post-ops the wire does not
/// serve before any join work, build the graph through `index`, and fold
/// the statement's task cap into the runtime
/// configuration. The server plans every submission here through its own
/// index and the oracle re-plans here through a fresh one, so the two can
/// never disagree on what a statement means.
pub(crate) fn plan(
    db: &cdb_storage::Database,
    index: &PredicateIndex,
    cfg: &ServeConfig,
    sql: &str,
) -> Result<Plan, String> {
    let analyzed = analyze_sql(db, sql).map_err(|e| e.to_string())?;
    if analyzed.group_by.is_some() || analyzed.order_by.is_some() {
        return Err("GROUP BY/ORDER BY CROWD post-ops are not served over the wire".into());
    }
    let graph = build_query_graph_indexed(&analyzed, db, &cfg.build, index);
    let mut runtime = cfg.runtime.clone();
    runtime.exec.budget = analyzed.budget.or(runtime.exec.budget);
    runtime.round_sink = None;
    Ok(Plan { graph, runtime })
}

/// Lifecycle of one submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// Waiting in the tenant's admission queue (no hold committed yet).
    Queued,
    /// Admitted (hold committed), waiting for an execution worker.
    Admitted,
    /// Executing.
    Running,
    /// Finished normally; stream is complete.
    Done,
    /// Failed at runtime (fault injection / retry exhaustion); hold
    /// fully refunded.
    Failed,
    /// Cancelled (explicit or client disconnect); partial stream, unspent
    /// hold refunded.
    Cancelled,
}

impl QueryState {
    /// Stable lowercase label for wire responses.
    pub fn label(self) -> &'static str {
        match self {
            QueryState::Queued => "queued",
            QueryState::Admitted => "admitted",
            QueryState::Running => "running",
            QueryState::Done => "done",
            QueryState::Failed => "failed",
            QueryState::Cancelled => "cancelled",
        }
    }
}

/// One tenant's ledger.
struct Tenant {
    admission: AdmissionController,
    spent_cents: u64,
    refunded_cents: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
}

/// One submitted query's registry entry.
struct QueryEntry {
    tenant: String,
    state: QueryState,
    estimate: CostEstimate,
    /// The prepared plan, taken by the worker that runs the query. Boxed:
    /// entries outlive their run, and an inline plan would keep every
    /// finished entry the plan's size.
    plan: Option<Box<Plan>>,
    /// Retained NDJSON lines — the stream replay artifact.
    chunks: Vec<String>,
    /// Set by [`ServerState::cancel`]; the round hook then stops the query.
    cancel: bool,
    /// Bindings already streamed (for retract computation and the
    /// no-duplicates guarantee).
    streamed: BTreeSet<Vec<u64>>,
    admitted_at: Option<Instant>,
    first_binding_ms: Option<f64>,
}

impl QueryEntry {
    /// True once the terminal chunk is in `chunks`.
    fn done(&self) -> bool {
        matches!(self.state, QueryState::Done | QueryState::Failed | QueryState::Cancelled)
    }
}

/// Registry + ledgers + run queue, under one lock.
struct Inner {
    next_id: u64,
    queries: BTreeMap<u64, QueryEntry>,
    tenants: BTreeMap<String, Tenant>,
    run_queue: VecDeque<u64>,
    inflight: usize,
    peak_inflight: usize,
    submitted: u64,
    /// Server-side admission→first-binding latencies, real microseconds.
    first_binding_us: Hist,
}

impl Inner {
    /// Server-wide `[completed, failed, cancelled, rejected]`: the tenant
    /// ledgers are the only books, so the totals are their sum.
    fn terminal_totals(&self) -> [u64; 4] {
        self.tenants.values().fold([0; 4], |[c, f, x, r], t| {
            [c + t.completed, f + t.failed, x + t.cancelled, r + t.rejected]
        })
    }
}

/// The shared server state. One instance per server; handlers and
/// execution workers share it behind an `Arc`.
pub struct ServerState {
    db: cdb_storage::Database,
    /// Every CROWDJOIN planned against `db` so far: a repeat is a lookup.
    index: PredicateIndex,
    /// The simulated crowd's answer key; workers project it per job.
    truth: QueryTruth,
    cfg: ServeConfig,
    metrics: Arc<RuntimeMetrics>,
    inner: Mutex<Inner>,
    /// Wakes execution workers (run-queue pushes, shutdown).
    wake: Condvar,
    /// Wakes stream subscribers (chunk appends, terminal states).
    chunks: Condvar,
    shutdown: AtomicBool,
    hook: OnceLock<RoundHook>,
}

/// The [`RoundSink`] the server installs: forwards each query's round
/// delta into its registry entry as a wire chunk.
struct ServeSink(Weak<ServerState>);

impl RoundSink for ServeSink {
    fn on_round(&self, query: u64, round: u64, new_bindings: &[Vec<NodeId>]) -> bool {
        let Some(state) = self.0.upgrade() else { return false };
        state.on_round(query, round, new_bindings)
    }
}

impl ServerState {
    /// Build the state for a catalog + ground truth + config.
    pub fn new(db: cdb_storage::Database, truth: QueryTruth, cfg: ServeConfig) -> Arc<ServerState> {
        let state = Arc::new(ServerState {
            db,
            index: PredicateIndex::default(),
            truth,
            cfg,
            metrics: Arc::new(RuntimeMetrics::new()),
            inner: Mutex::new(Inner {
                next_id: 0,
                queries: BTreeMap::new(),
                tenants: BTreeMap::new(),
                run_queue: VecDeque::new(),
                inflight: 0,
                peak_inflight: 0,
                submitted: 0,
                first_binding_us: Hist::new(),
            }),
            wake: Condvar::new(),
            chunks: Condvar::new(),
            shutdown: AtomicBool::new(false),
            hook: OnceLock::new(),
        });
        let sink: Arc<dyn RoundSink> = Arc::new(ServeSink(Arc::downgrade(&state)));
        state.hook.set(RoundHook::new(sink)).expect("hook set once");
        state
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The shared runtime metrics (crowd counters, histograms).
    pub fn metrics(&self) -> &Arc<RuntimeMetrics> {
        &self.metrics
    }

    /// True once [`stop`](Self::stop) ran.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask workers and subscribers to wind down.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _inner = self.inner.lock().unwrap();
        self.wake.notify_all();
        self.chunks.notify_all();
    }

    // ---- submission ----------------------------------------------------

    /// Handle one submission: plan, estimate, admit. Returns the decision,
    /// the assigned query id (admitted/queued only), and the HTTP body.
    pub fn submit(&self, req: &Submit) -> Result<(AdmissionDecision, Option<u64>), String> {
        // Plan outside the lock — the catalog is immutable.
        let mut plan = plan(&self.db, &self.index, &self.cfg, &req.sql)?;
        plan.runtime.exec.max_rounds = req.deadline_rounds.or(plan.runtime.exec.max_rounds);
        let estimate = cdb_core::cost::estimate::estimate(
            &plan.graph,
            self.cfg.runtime.exec.redundancy,
            self.cfg.task_price_cents,
        );

        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let tenant = inner.tenants.entry(req.tenant.clone()).or_insert_with(|| Tenant {
            admission: AdmissionController::new(
                self.cfg.tenants.get(&req.tenant).copied().unwrap_or(self.cfg.default_envelope),
            ),
            spent_cents: 0,
            refunded_cents: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            rejected: 0,
        });
        let id = inner.next_id;
        let decision = tenant.admission.offer(QueryRequest {
            query: id,
            estimate,
            budget_cents: req.budget_cents,
            deadline_rounds: req.deadline_rounds,
        });
        if let AdmissionDecision::Rejected(_) = decision {
            tenant.rejected += 1;
            return Ok((decision, None));
        }
        inner.next_id += 1;
        let state = if matches!(decision, AdmissionDecision::Admitted) {
            QueryState::Admitted
        } else {
            QueryState::Queued
        };
        inner.queries.insert(
            id,
            QueryEntry {
                tenant: req.tenant.clone(),
                state,
                estimate,
                plan: Some(Box::new(plan)),
                chunks: Vec::new(),
                cancel: false,
                streamed: BTreeSet::new(),
                admitted_at: if state == QueryState::Admitted {
                    Some(Instant::now())
                } else {
                    None
                },
                first_binding_ms: None,
            },
        );
        inner.submitted += 1;
        inner.inflight += 1;
        inner.peak_inflight = inner.peak_inflight.max(inner.inflight);
        if state == QueryState::Admitted {
            inner.run_queue.push_back(id);
            self.wake.notify_one();
        }
        Ok((decision, Some(id)))
    }

    // ---- execution workers ---------------------------------------------

    /// One execution worker's loop: pop admitted queries and run them
    /// until [`stop`](Self::stop).
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let next = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if self.stopping() {
                        return;
                    }
                    if let Some(id) = inner.run_queue.pop_front() {
                        let entry = inner.queries.get_mut(&id).expect("queued query exists");
                        if entry.done() {
                            // Cancelled while waiting for a worker; the
                            // cancel path already settled the ledger.
                            continue;
                        }
                        entry.state = QueryState::Running;
                        let Plan { graph, mut runtime } =
                            *entry.plan.take().expect("plan not yet taken");
                        runtime.round_sink = Some(self.hook.get().expect("hook installed").clone());
                        break Some((id, graph, runtime));
                    }
                    inner = self.wake.wait(inner).unwrap();
                }
            };
            let Some((id, graph, runtime)) = next else { return };
            // Outside the lock: the crowd's answer key for this graph.
            let job = QueryJob { id, truth: self.truth.edge_truth(&graph), graph };
            let (_, result) = execute_query(&runtime, &self.metrics, job, None);
            self.finalize(id, result);
        }
    }

    /// The streaming hook: append this round's delta as a wire chunk.
    /// Returns false to cancel the query.
    fn on_round(&self, query: u64, round: u64, new_bindings: &[Vec<NodeId>]) -> bool {
        if self.stopping() {
            return false;
        }
        if self.cfg.round_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.round_delay_ms));
        }
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(entry) = inner.queries.get_mut(&query) else { return false };
        if entry.cancel {
            return false;
        }
        if !new_bindings.is_empty() {
            if entry.first_binding_ms.is_none() {
                let waited = entry.admitted_at.map(|t| t.elapsed()).unwrap_or_default();
                entry.first_binding_ms = Some(waited.as_secs_f64() * 1e3);
                inner.first_binding_us.record(waited.as_micros() as u64);
            }
            let new: Vec<Vec<u64>> =
                new_bindings.iter().map(|b| b.iter().map(|n| n.0 as u64).collect()).collect();
            for b in &new {
                debug_assert!(!entry.streamed.contains(b), "binding streamed twice");
                entry.streamed.insert(b.clone());
            }
            entry.chunks.push(StreamEvent::Round { round, new }.encode());
            self.chunks.notify_all();
        }
        true
    }

    /// Settle one finished query: retractions, terminal chunk, ledger.
    fn finalize(
        &self,
        id: u64,
        result: Result<cdb_runtime::QueryResult, cdb_runtime::RuntimeError>,
    ) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let entry = inner.queries.get_mut(&id).expect("finalizing a known query");
        let committed = entry.estimate.cost_cents_upper;
        let tenant_name = entry.tenant.clone();
        let (released, terminal) = match result {
            Ok(qr) => {
                let final_bindings: BTreeSet<Vec<u64>> =
                    qr.bindings.iter().map(|b| b.iter().map(|n| n.0 as u64).collect()).collect();
                let retracted: Vec<Vec<u64>> =
                    entry.streamed.difference(&final_bindings).cloned().collect();
                if !retracted.is_empty() {
                    entry.chunks.push(StreamEvent::Retract { bindings: retracted }.encode());
                }
                let actual = committed.min(qr.assignments as u64 * self.cfg.task_price_cents);
                let refund = committed - actual;
                let cancelled = qr.cancelled || entry.cancel;
                entry.chunks.push(
                    StreamEvent::Done {
                        rounds: qr.rounds as u64,
                        tasks: qr.tasks_asked as u64,
                        assignments: qr.assignments as u64,
                        bindings: final_bindings.len() as u64,
                        cancelled,
                        refund_cents: refund,
                    }
                    .encode(),
                );
                entry.state = if cancelled { QueryState::Cancelled } else { QueryState::Done };
                (Spend { actual, refund }, entry.state)
            }
            Err(e) => {
                entry.chunks.push(StreamEvent::Error { message: e.to_string() }.encode());
                entry.state = QueryState::Failed;
                (Spend { actual: 0, refund: committed }, QueryState::Failed)
            }
        };
        inner.inflight -= 1;
        Self::settle_tenant(inner, &tenant_name, released, terminal);
        Self::promote(inner, &tenant_name, &self.wake);
        self.chunks.notify_all();
    }

    /// Release a completed query's hold, keeping actual spend committed.
    fn settle_tenant(inner: &mut Inner, tenant: &str, spend: Spend, terminal: QueryState) {
        let t = inner.tenants.get_mut(tenant).expect("tenant exists");
        t.admission.complete(&CostEstimate {
            tasks_upper: 0,
            rounds_upper: 0,
            cost_cents_upper: spend.refund,
        });
        t.spent_cents += spend.actual;
        t.refunded_cents += spend.refund;
        match terminal {
            QueryState::Done => t.completed += 1,
            QueryState::Failed => t.failed += 1,
            _ => t.cancelled += 1,
        }
    }

    /// Promote admission-queued queries into freed slots. Queries that
    /// were cancelled while queued release their freshly-committed hold
    /// immediately and free the slot for the next in line.
    fn promote(inner: &mut Inner, tenant: &str, wake: &Condvar) {
        loop {
            let wave = {
                let t = inner.tenants.get_mut(tenant).expect("tenant exists");
                t.admission.admit_wave()
            };
            if wave.is_empty() {
                return;
            }
            for req in wave {
                let entry = inner.queries.get_mut(&req.query).expect("queued query exists");
                if entry.done() {
                    // Cancelled while admission-queued: nothing to run.
                    let t = inner.tenants.get_mut(tenant).expect("tenant exists");
                    t.admission.complete(&req.estimate);
                    continue;
                }
                entry.state = QueryState::Admitted;
                entry.admitted_at = Some(Instant::now());
                inner.run_queue.push_back(req.query);
                wake.notify_one();
            }
        }
    }

    // ---- cancellation ---------------------------------------------------

    /// Cancel a query (explicit request or client disconnect). Idempotent;
    /// running queries settle asynchronously when the hook observes the
    /// flag. Returns false for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(entry) = inner.queries.get_mut(&id) else { return false };
        entry.cancel = true;
        match entry.state {
            QueryState::Running | QueryState::Done | QueryState::Failed | QueryState::Cancelled => {
            }
            QueryState::Admitted | QueryState::Queued => {
                // Never ran: full refund. An Admitted query's hold is
                // released here; a Queued query committed nothing (its
                // eventual promotion is unwound in `promote`).
                let was_admitted = entry.state == QueryState::Admitted;
                let committed = entry.estimate.cost_cents_upper;
                entry.state = QueryState::Cancelled;
                entry.chunks.push(
                    StreamEvent::Done {
                        rounds: 0,
                        tasks: 0,
                        assignments: 0,
                        bindings: 0,
                        cancelled: true,
                        refund_cents: committed,
                    }
                    .encode(),
                );
                let tenant_name = entry.tenant.clone();
                let estimate = entry.estimate;
                inner.inflight -= 1;
                let t = inner.tenants.get_mut(&tenant_name).expect("tenant exists");
                t.cancelled += 1;
                if was_admitted {
                    t.admission.complete(&estimate);
                    t.refunded_cents += committed;
                    Self::promote(inner, &tenant_name, &self.wake);
                }
                self.chunks.notify_all();
            }
        }
        true
    }

    // ---- reads ----------------------------------------------------------

    /// Block until query `id` has more than `from` chunks, is done, or the
    /// server stops. Returns the retained stream chunks from `from` onward
    /// plus whether the stream is complete; `None` for unknown ids.
    pub fn wait_chunks(&self, id: u64, from: usize) -> Option<(Vec<String>, bool)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            {
                let entry = inner.queries.get(&id)?;
                if entry.done() || entry.chunks.len() > from {
                    return Some((
                        entry.chunks[from.min(entry.chunks.len())..].to_vec(),
                        entry.done(),
                    ));
                }
            }
            if self.stopping() {
                return Some((Vec::new(), false));
            }
            let (guard, _timeout) =
                self.chunks.wait_timeout(inner, std::time::Duration::from_millis(200)).unwrap();
            inner = guard;
        }
    }

    /// Status JSON for `GET /queries/{id}`; `None` for unknown ids.
    pub fn query_status(&self, id: u64) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        let entry = inner.queries.get(&id)?;
        let mut o = JsonObject::new()
            .u64("query", id)
            .str("tenant", &entry.tenant)
            .str("state", entry.state.label())
            .bool("done", entry.done())
            .u64("chunks", entry.chunks.len() as u64)
            .u64("bindings_streamed", entry.streamed.len() as u64)
            .raw(
                "estimate",
                &JsonObject::new()
                    .u64("tasks_upper", entry.estimate.tasks_upper as u64)
                    .u64("rounds_upper", entry.estimate.rounds_upper as u64)
                    .u64("cost_cents_upper", entry.estimate.cost_cents_upper)
                    .finish(),
            );
        if let Some(ms) = entry.first_binding_ms {
            o = o.f64("first_binding_ms", ms);
        }
        Some(o.finish())
    }

    /// Budget/ledger JSON for `GET /tenants/{name}`; `None` if the tenant
    /// has never submitted.
    pub fn tenant_status(&self, name: &str) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        let t = inner.tenants.get(name)?;
        let env = *t.admission.envelope();
        Some(
            JsonObject::new()
                .str("tenant", name)
                .u64("budget_cents", env.budget_cents)
                .u64("committed_cents", t.admission.committed_cents())
                .u64(
                    "available_cents",
                    env.budget_cents.saturating_sub(t.admission.committed_cents()),
                )
                .u64("max_active", env.max_active as u64)
                .u64("queue_capacity", env.queue_capacity as u64)
                .u64("active", t.admission.active() as u64)
                .u64("queued", t.admission.queued() as u64)
                .u64("spent_cents", t.spent_cents)
                .u64("refunded_cents", t.refunded_cents)
                .u64("completed", t.completed)
                .u64("failed", t.failed)
                .u64("cancelled", t.cancelled)
                .u64("rejected", t.rejected)
                .finish(),
        )
    }

    /// Server-wide counters for `GET /stats`.
    pub fn stats(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let [completed, failed, cancelled, rejected] = inner.terminal_totals();
        JsonObject::new()
            .u64("inflight", inner.inflight as u64)
            .u64("peak_inflight", inner.peak_inflight as u64)
            .u64("submitted", inner.submitted)
            .u64("completed", completed)
            .u64("failed", failed)
            .u64("cancelled", cancelled)
            .u64("rejected", rejected)
            .u64("exec_threads", self.cfg.exec_threads as u64)
            .finish()
    }

    /// Catalog JSON for `GET /catalog`.
    pub fn catalog(&self) -> String {
        let mut tables = JsonArray::new();
        for t in self.db.tables() {
            let mut cols = JsonArray::new();
            for c in t.schema().columns() {
                cols = cols.raw(
                    &JsonObject::new()
                        .str("name", &c.name)
                        .str("type", c.ty.name())
                        .bool("crowd", c.crowd)
                        .finish(),
                );
            }
            tables = tables.raw(
                &JsonObject::new()
                    .str("name", t.name())
                    .bool("crowd", t.is_crowd())
                    .u64("rows", t.row_count() as u64)
                    .raw("columns", &cols.finish())
                    .finish(),
            );
        }
        JsonObject::new().raw("tables", &tables.finish()).finish()
    }

    /// Prometheus exposition for `GET /metrics`: the runtime families
    /// re-exposed verbatim, plus the serve layer's own.
    pub fn prometheus(&self) -> String {
        let mut text = self.metrics.snapshot().to_prometheus();
        let mut p = cdb_obsv::PromText::new();
        let inner = self.inner.lock().unwrap();
        let [completed, failed, cancelled, rejected] = inner.terminal_totals();
        p.counter_family(
            "cdb_serve_queries_total",
            "Queries by terminal state (rejected ones never ran)",
            &[
                (vec![("state", "completed")], completed),
                (vec![("state", "failed")], failed),
                (vec![("state", "cancelled")], cancelled),
                (vec![("state", "rejected")], rejected),
            ],
        );
        p.gauge(
            "cdb_serve_inflight",
            "Queries submitted but not yet terminal",
            inner.inflight as f64,
        );
        p.gauge(
            "cdb_serve_inflight_peak",
            "High-water mark of concurrently in-flight queries",
            inner.peak_inflight as f64,
        );
        p.gauge(
            "cdb_serve_tenants",
            "Tenants that have submitted at least once",
            inner.tenants.len() as f64,
        );
        let committed: u64 = inner.tenants.values().map(|t| t.admission.committed_cents()).sum();
        p.gauge(
            "cdb_serve_committed_cents",
            "Cents held or spent across all tenant envelopes",
            committed as f64,
        );
        inner.first_binding_us.prom(
            &mut p,
            "cdb_serve_first_binding_ms",
            "Admission to first streamed binding, real milliseconds",
            1e-3,
        );
        drop(inner);
        let (entries, pairs) = self.index.size();
        p.gauge(
            "cdb_serve_predicate_index_entries",
            "CROWDJOIN pair lists the predicate index holds",
            entries as f64,
        );
        p.gauge(
            "cdb_serve_predicate_index_pairs",
            "Verified similarity pairs the predicate index holds",
            pairs as f64,
        );
        p.counter(
            "cdb_serve_predicate_index_builds_total",
            "Similarity joins run to fill the predicate index",
            self.index.builds(),
        );
        text.push_str(&p.finish());
        text
    }
}

/// How a finished query's hold splits.
#[derive(Clone, Copy)]
struct Spend {
    actual: u64,
    refund: u64,
}
