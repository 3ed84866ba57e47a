//! The three served workloads: a real `cdb_serve` server in this process,
//! driven over loopback HTTP by two client threads.
//!
//! One run is: set-up (repeated, median reported) → warm-up and phase A →
//! paced segments (`wire_small`) → phase B → checks, each segment on a
//! fresh server, with the stop/start cycles spread over the gaps between
//! segments. Operation counts are fixed by the scale factor, never by the
//! clock, so `attempted` and every count repeat between runs.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cdb_core::{
    build_query_graph, CostEstimate, EdgeTruth, GraphBuildConfig, NodeId, QueryGraph, QueryTruth,
};
use cdb_datagen::{
    award_dataset, movie_dataset, paper_dataset, paper_example_dataset, queries_for, Dataset,
    DatasetScale,
};
use cdb_runtime::{RetryPolicy, RuntimeConfig};
use cdb_sched::Envelope;
use cdb_serve::{verify_streams, Client, ServeConfig, Server, StreamEvent, Submit, SubmitOutcome};
use cdb_storage::Database;

use crate::replay;
use crate::stats::{mean, median, percentile, slice_median_rate, SplitMix};
use crate::{host, RunOutput};

/// Client threads, connections and tenants: one of each per core.
const CLIENTS: usize = 2;
const TENANTS: [&str; CLIENTS] = ["bench-a", "bench-b"];
/// Streams diffed against the in-process oracle: a seeded half of phase
/// A's, at most this many (the oracle re-executes each one).
const VERIFY_SAMPLE: usize = 64;
/// Paced segments: rate (q/s) with the metric its tail latency goes to,
/// the tail percentile, and the limit a rate's tail must meet to be "ok".
const PACED: [(f64, &str); 3] = [
    (200.0, "loadgen.paced_ms_p95_at_200"),
    (400.0, "loadgen.paced_ms_p95_at_400"),
    (800.0, "loadgen.paced_ms_p95_at_800"),
];
const PACED_TAIL: f64 = 0.95;
const PACED_LIMIT_MS: f64 = 20.0;
/// The tables are generated from this fixed seed, not from `--seed`: at
/// 1/10 scale two data seeds differ by 7 % in tasks per query and 30 % in
/// `select_heavy`'s median latency, which no regression bound could
/// contain. `--seed` drives the crowd (`runtime.seed`: worker assignment
/// and answers), which query goes first, and the checks' samples.
const DATA_SEED: u64 = 2017;
const F1_FLOOR: f64 = 0.75;

const EXAMPLE_SQL: &str = "SELECT * FROM Researcher, University \
     WHERE Researcher.affiliation CROWDJOIN University.name";

/// A workload's sizes at scale factor 1 (the declared run length); all of
/// them scale with the factor.
struct Shape {
    /// Queries per phase.
    n: usize,
    /// Requests per paced rate (0 = no paced segments).
    paced: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    setups: usize,
    /// Stop/start cycles `restart_ms` is the median of.
    restarts: usize,
}

fn shape(workload: &str) -> Shape {
    match workload {
        // Set-up and a restart are a millisecond here, so many repeats are
        // needed for a steady median and cost nothing. Every query opens a
        // connection that the server closes and that then sits in
        // TIME_WAIT for a minute; 14,000 a run showed no effect on speed
        // even with 40,000 of them left over from earlier runs.
        "wire_small" => Shape { n: 6_000, paced: 400, setups: 21, restarts: 120 },
        "join_heavy" => Shape { n: 90, paced: 0, setups: 3, restarts: 15 },
        // 50, not 60: a 3J query is half a second here, and this workload
        // is already half of the four's total time.
        "select_heavy" => Shape { n: 50, paced: 0, setups: 3, restarts: 9 },
        other => unreachable!("not a served workload: {other}"),
    }
}

fn scaled(base: usize, factor: f64, floor: usize) -> usize {
    ((base as f64 * factor).round() as usize).max(floor)
}

/// One distinct query of the workload, planned once during set-up.
pub struct Prepared {
    pub sql: String,
    pub estimate: CostEstimate,
    /// The true answer bindings, for F-measure.
    pub reference: BTreeSet<Vec<NodeId>>,
}

/// Everything set-up produces: the catalog, the server configuration and
/// the planned queries.
pub struct Setup {
    pub db: Database,
    pub truth: QueryTruth,
    pub cfg: ServeConfig,
    pub queries: Vec<Prepared>,
}

fn merge(parts: Vec<Dataset>) -> (Database, QueryTruth) {
    let mut db = Database::new();
    let mut truth = QueryTruth::default();
    for ds in parts {
        for t in ds.db.tables() {
            db.add_table(t.clone()).expect("generated datasets use distinct table names");
        }
        truth.joins.extend(ds.truth.joins);
        truth.selections.extend(ds.truth.selections);
    }
    (db, truth)
}

fn sql_of(dataset: &str, label: &str) -> String {
    let q = queries_for(dataset).into_iter().find(|q| q.label == label);
    q.expect("Table 4 has this query").cql
}

/// Generate the workload's catalog and query texts. The first query is the
/// one each restart cycle submits.
fn inputs(workload: &str) -> (Database, QueryTruth, Vec<String>) {
    let seed = DATA_SEED;
    let tenth = |s: DatasetScale| s.scaled(10);
    match workload {
        "wire_small" => {
            let (db, truth) = paper_example_dataset();
            (db, truth, vec![EXAMPLE_SQL.to_string()])
        }
        "join_heavy" => {
            let (db, truth) = merge(vec![
                paper_dataset(tenth(DatasetScale::paper_full()), seed),
                movie_dataset(tenth(DatasetScale::movie_full()), seed ^ 0x6d6f),
            ]);
            (db, truth, vec![sql_of("paper", "2J"), sql_of("paper", "2J1S"), sql_of("movie", "2J")])
        }
        "select_heavy" => {
            let (db, truth) = merge(vec![
                paper_dataset(tenth(DatasetScale::paper_full()), seed),
                movie_dataset(tenth(DatasetScale::movie_full()), seed ^ 0x6d6f),
                award_dataset(tenth(DatasetScale::award_full()), seed ^ 0x6177),
            ]);
            (db, truth, vec![sql_of("paper", "3J"), sql_of("movie", "3J"), sql_of("award", "3J")])
        }
        other => unreachable!("not a served workload: {other}"),
    }
}

/// Plan one workload query: its graph, the simulated crowd's edge truth, and
/// the true answer bindings.
pub(crate) fn plan_query(
    sql: &str,
    db: &Database,
    truth: &QueryTruth,
    build: &GraphBuildConfig,
) -> (QueryGraph, EdgeTruth, BTreeSet<Vec<NodeId>>) {
    let cdb_cql::Statement::Select(q) = cdb_cql::parse(sql).expect("workload SQL parses") else {
        unreachable!("workload queries are SELECTs")
    };
    let analyzed = cdb_cql::analyze_select(&q, db).expect("workload SQL analyzes");
    let graph = build_query_graph(&analyzed, db, build);
    let edge_truth = truth.edge_truth(&graph);
    let reference = cdb_core::executor::true_answers(&graph, &edge_truth)
        .into_iter()
        .map(|c| c.binding)
        .collect();
    (graph, edge_truth, reference)
}

/// Set-up: generate the data, plan every distinct query once (estimate and
/// true answers), and size the tenants' envelopes from the estimates so
/// that `submissions` queries per server can never be rejected.
pub(crate) fn set_up(workload: &str, seed: u64, submissions: usize) -> Setup {
    let (db, truth, sqls) = inputs(workload);
    let mut cfg = ServeConfig {
        runtime: RuntimeConfig {
            seed,
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
            ..RuntimeConfig::default()
        },
        exec_threads: CLIENTS,
        ..ServeConfig::default()
    };
    let queries: Vec<Prepared> = sqls
        .into_iter()
        .map(|sql| {
            let (graph, _, reference) = plan_query(&sql, &db, &truth, &cfg.build);
            let estimate = cdb_core::cost::estimate::estimate(
                &graph,
                cfg.runtime.exec.redundancy,
                cfg.task_price_cents,
            );
            Prepared { sql, estimate, reference }
        })
        .collect();
    let dearest = queries.iter().map(|q| q.estimate.cost_cents_upper).max().unwrap_or(0);
    let envelope = Envelope {
        budget_cents: dearest.saturating_mul(submissions as u64 + 16),
        max_active: 8,
        queue_capacity: 64,
    };
    cfg.tenants = TENANTS.iter().map(|t| (t.to_string(), envelope)).collect();
    Setup { db, truth, cfg, queries }
}

fn start(setup: &Setup) -> Result<Server, String> {
    cdb_serve::start("127.0.0.1:0", setup.db.clone(), setup.truth.clone(), setup.cfg.clone())
        .map_err(|e| format!("bind 127.0.0.1:0 failed: {e}"))
}

/// One submitted query as the client saw it. Times are seconds since the
/// segment started.
struct Record {
    sql: usize,
    tenant: usize,
    query: Option<u64>,
    queued: bool,
    rejected: bool,
    /// When the request was due (paced) or sent (closed loop).
    due_s: f64,
    send_s: f64,
    submit_ms: f64,
    first_ms: Option<f64>,
    done_s: f64,
    lines: Vec<String>,
    error: Option<String>,
}

impl Record {
    fn done_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }
}

/// Drive `plan` (query indices) from [`CLIENTS`] threads sharing one
/// cursor. `rate` = `None` is a closed loop: a client sends its next query
/// when the previous stream ended. `Some(r)` is an open loop with at most
/// [`CLIENTS`] requests outstanding: request `i` is due at `i / r` seconds
/// and is timed from then, so a stall is charged to every request it delays.
fn drive(addr: SocketAddr, setup: &Setup, plan: &[usize], rate: Option<f64>) -> Vec<Record> {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|tenant| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&sql) = plan.get(i) else { break };
                        let due_s = rate.map(|r| i as f64 / r);
                        if let Some(due) = due_s {
                            let due = Duration::from_secs_f64(due);
                            std::thread::sleep(due.saturating_sub(started.elapsed()));
                        }
                        out.push(one_query(&mut client, setup, sql, tenant, started, due_s));
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread panicked")).collect()
    });
    records.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    records
}

fn one_query(
    client: &mut Client,
    setup: &Setup,
    sql: usize,
    tenant: usize,
    started: Instant,
    due_s: Option<f64>,
) -> Record {
    let q = &setup.queries[sql];
    let submit = Submit {
        tenant: TENANTS[tenant].to_string(),
        sql: q.sql.clone(),
        budget_cents: q.estimate.cost_cents_upper,
        deadline_rounds: None,
    };
    let sent = Instant::now();
    let send_s = sent.duration_since(started).as_secs_f64();
    let mut rec = Record {
        sql,
        tenant,
        query: None,
        queued: false,
        rejected: false,
        due_s: due_s.unwrap_or(send_s),
        send_s,
        submit_ms: 0.0,
        first_ms: None,
        done_s: 0.0,
        lines: Vec::new(),
        error: None,
    };
    let outcome = client.submit(&submit);
    rec.submit_ms = sent.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(SubmitOutcome::Admitted { query }) => rec.query = Some(query),
        Ok(SubmitOutcome::Queued { query, .. }) => {
            rec.query = Some(query);
            rec.queued = true;
        }
        Ok(SubmitOutcome::Rejected { reason, .. }) => {
            rec.rejected = true;
            rec.error = Some(format!("rejected: {reason}"));
        }
        Err(e) => rec.error = Some(format!("submit: {e}")),
    }
    if let Some(query) = rec.query {
        let mut first = None;
        let streamed = client.stream(query, |line| {
            if first.is_none() && line.starts_with("{\"event\":\"round\"") {
                first = Some(sent.elapsed().as_secs_f64() * 1e3);
            }
            true
        });
        rec.first_ms = first;
        match streamed {
            Ok(lines) => rec.lines = lines,
            Err(e) => rec.error = Some(format!("stream: {e}")),
        }
    }
    rec.done_s = started.elapsed().as_secs_f64();
    rec
}

/// A stream that passed the structural checks, decoded.
struct Stream {
    events: Vec<StreamEvent>,
    /// Streamed bindings minus retractions.
    bindings: BTreeSet<Vec<u64>>,
    retracted: usize,
    tasks: u64,
    rounds: u64,
    assignments: u64,
    refund_cents: u64,
    bytes: usize,
}

/// Decode one stream and check its shape: exactly one terminal line and it
/// is last, no binding streamed twice, retractions only of streamed
/// bindings. `Err` is a correctness violation; a well-formed stream that
/// ended in `error` or `cancelled` is `Ok(None)` — a failed operation.
fn check_stream(lines: &[String]) -> Result<Option<Stream>, String> {
    let events: Vec<StreamEvent> =
        lines.iter().map(|l| StreamEvent::decode(l)).collect::<Result<_, _>>()?;
    let terminal =
        |e: &StreamEvent| matches!(e, StreamEvent::Done { .. } | StreamEvent::Error { .. });
    if events.iter().filter(|e| terminal(e)).count() != 1 || !events.last().is_some_and(terminal) {
        return Err("stream does not end in exactly one terminal line".into());
    }
    let mut bindings = BTreeSet::new();
    let mut retracted = 0;
    for e in &events {
        match e {
            StreamEvent::Round { new, .. } => {
                for b in new {
                    if !bindings.insert(b.clone()) {
                        return Err(format!("binding {b:?} streamed twice"));
                    }
                }
            }
            StreamEvent::Retract { bindings: gone } => {
                for b in gone {
                    if !bindings.remove(b) {
                        return Err(format!("retraction of {b:?}, which was never streamed"));
                    }
                    retracted += 1;
                }
            }
            _ => {}
        }
    }
    let Some(StreamEvent::Done {
        rounds,
        tasks,
        assignments,
        bindings: n,
        cancelled,
        refund_cents,
    }) = events.last().cloned()
    else {
        return Ok(None);
    };
    if cancelled {
        return Ok(None);
    }
    if n != bindings.len() as u64 {
        return Err(format!("done line counts {n} bindings, stream holds {}", bindings.len()));
    }
    let bytes = lines.iter().map(String::len).sum();
    Ok(Some(Stream {
        events,
        bindings,
        retracted,
        tasks,
        rounds,
        assignments,
        refund_cents,
        bytes,
    }))
}

/// One server's books as its clients saw them: operations attempted and
/// failed, shape violations, and per tenant the cents held at admission and
/// refunded on `done` lines.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    held: [u64; CLIENTS],
    refunded: [u64; CLIENTS],
}

impl Ledger {
    /// Check every stream of `records` and book it; returns the good
    /// streams with their record's index.
    fn book(&mut self, setup: &Setup, records: &[Record]) -> Vec<(usize, Stream)> {
        let mut good = Vec::new();
        for (i, r) in records.iter().enumerate() {
            self.attempted += 1;
            if r.error.is_some() {
                self.failed += 1;
                continue;
            }
            match check_stream(&r.lines) {
                Ok(Some(s)) => {
                    self.held[r.tenant] += setup.queries[r.sql].estimate.cost_cents_upper;
                    self.refunded[r.tenant] += s.refund_cents;
                    good.push((i, s));
                }
                Ok(None) => self.failed += 1,
                Err(v) => self.violations.push(format!("query {:?}: {v}", r.query)),
            }
        }
        good
    }

    /// Check the books against the server's, stop it, and add this
    /// server's counts to the run's.
    fn close(mut self, server: Server, what: &str, out: &mut RunOutput) {
        self.check_against(server.addr(), what);
        server.shutdown();
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.violations.append(&mut self.violations);
    }

    /// Compare the server's ledger for each tenant with what the streams
    /// said: spend committed, the rest refunded, nothing left running.
    fn check_against(&mut self, addr: SocketAddr, what: &str) {
        if self.failed > 0 {
            return; // already a failed run; a failed query's hold is on no `done` line
        }
        let mut client = Client::new(addr);
        for (t, name) in TENANTS.iter().enumerate() {
            if self.held[t] == 0 {
                continue; // this tenant never reached this server
            }
            let Ok(Some(j)) = client.tenant_status(name) else {
                self.violations.push(format!("{what}: no ledger for tenant {name}"));
                continue;
            };
            let field = |k: &str| j.get(k).and_then(|v| v.as_num()).map(|v| v as u64);
            let spent = self.held[t] - self.refunded[t];
            let expect = [
                ("committed_cents", spent),
                ("spent_cents", spent),
                ("refunded_cents", self.refunded[t]),
                ("active", 0),
                ("queued", 0),
            ];
            for (key, want) in expect {
                if field(key) != Some(want) {
                    self.violations.push(format!(
                        "{what}: tenant {name} {key} = {:?}, streams say {want}",
                        field(key)
                    ));
                }
            }
        }
    }
}

/// Mean F-measure of the streams' bindings against the true answers.
fn f_measure(setup: &Setup, records: &[Record], streams: &[(usize, Stream)]) -> f64 {
    let scores: Vec<f64> = streams
        .iter()
        .map(|(i, s)| {
            let returned: BTreeSet<Vec<NodeId>> = s
                .bindings
                .iter()
                .map(|b| b.iter().map(|&n| NodeId(n as usize)).collect())
                .collect();
            let truth = &setup.queries[records[*i].sql].reference;
            cdb_core::precision_recall(&returned, truth).f_measure
        })
        .collect();
    mean(&scores)
}

/// Diff a seeded sample of streams against the in-process oracle, one
/// `verify_streams` call per distinct SQL, the groups in parallel.
fn verify_sample(
    setup: &Setup,
    records: &[Record],
    streams: &[(usize, Stream)],
    seed: u64,
) -> Vec<String> {
    let mut picks: Vec<usize> = (0..streams.len()).collect();
    SplitMix(seed ^ 0x7665_7269).shuffle(&mut picks);
    picks.truncate(VERIFY_SAMPLE.min(streams.len().div_ceil(2)));
    let mut groups: BTreeMap<usize, BTreeMap<u64, Vec<StreamEvent>>> = BTreeMap::new();
    for p in picks {
        let (i, s) = &streams[p];
        let r = &records[*i];
        groups
            .entry(r.sql)
            .or_default()
            .insert(r.query.expect("a checked stream has an id"), s.events.clone());
    }
    std::thread::scope(|scope| {
        let checks: Vec<_> = groups
            .iter()
            .map(|(&sql, streams)| {
                scope.spawn(move || {
                    let sql = &setup.queries[sql].sql;
                    (sql, verify_streams(&setup.db, &setup.truth, &setup.cfg, sql, streams))
                })
            })
            .collect();
        checks
            .into_iter()
            .map(|c| c.join().expect("oracle thread panicked"))
            .filter(|(_, check)| !check.clean())
            .map(|(sql, check)| format!("oracle diff on `{sql}`: {check:?}"))
            .collect()
    })
}

/// The distinct queries in turn, so that every stretch of a phase holds the
/// same mix; the seed picks which one goes first.
fn query_order(queries: usize, n: usize, seed: u64) -> Vec<usize> {
    (0..n).map(|i| (i + seed as usize) % queries).collect()
}

/// Stop/start cycles: `cdb_serve::start` on the loaded catalog until the
/// first query submitted afterwards is done; returns each cycle's ms.
fn restart_cycles(setup: &Setup, cycles: usize, out: &mut RunOutput) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let t = Instant::now();
        let server = start(setup)?;
        let first = drive(server.addr(), setup, &[0], None);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut books = Ledger::default();
        books.book(setup, &first);
        books.close(server, "restarted server", out);
    }
    Ok(ms)
}

/// Run one served workload.
pub fn run(workload: &str, seed: u64, factor: f64, trace: bool) -> Result<RunOutput, String> {
    let shape = shape(workload);
    let n = scaled(shape.n, factor, 2);
    let warm = scaled(n, 0.05, 1);
    let paced = if shape.paced > 0 { scaled(shape.paced, factor, 20) } else { 0 };
    // The restart cycles are spread over the gaps between segments, so
    // that a slow spell of the host lands on a part of them only.
    let gaps = if paced > 0 { 1 + PACED.len() } else { 1 };
    let cycles_per_gap = scaled(shape.restarts, factor, 3).div_ceil(gaps);

    // Set-up, repeated; the last server stays up for phase A.
    let mut setup_s = Vec::new();
    let mut live: Option<(Setup, Server)> = None;
    for _ in 0..scaled(shape.setups, factor, 1) {
        if let Some((_, server)) = live.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let setup = set_up(workload, seed, warm + n.max(paced));
        let server = start(&setup)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((setup, server));
    }
    let (setup, server) = live.expect("at least one set-up");
    let mut out = RunOutput::default();
    out.metrics.set("setup_s", median(&setup_s));

    // First server: warm-up, phase A, health checks.
    let plan = query_order(setup.queries.len(), n, seed);
    let mut books = Ledger::default();
    let warmup = drive(server.addr(), &setup, &plan[..warm], None);
    books.book(&setup, &warmup);
    let phase_a = drive(server.addr(), &setup, &plan, None);
    let streams_a = books.book(&setup, &phase_a);
    let (held, refunded): (u64, u64) = (books.held.iter().sum(), books.refunded.iter().sum());
    out.metrics.set("sched.hold_over_spend", held as f64 / (held - refunded).max(1) as f64);
    let mut health = Client::new(server.addr());
    let healthz_us: Vec<f64> = (0..200)
        .filter_map(|_| {
            let t = Instant::now();
            health.request("GET", "/healthz", None).ok().map(|_| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    out.metrics.set("serve.healthz_us_p50", median(&healthz_us));
    let stats = health.stats().map_err(|e| format!("GET /stats: {e}"))?;
    let peak_inflight = stats.get("peak_inflight").and_then(|v| v.as_num()).unwrap_or(0.0);
    out.metrics.set("serve.peak_inflight", peak_inflight);
    drop(health);
    let saved_share = |s: &cdb_runtime::MetricsSnapshot| {
        s.tasks_saved as f64 / (s.tasks_saved + s.tasks_dispatched).max(1) as f64
    };
    let share = saved_share(&server.state().metrics().snapshot());
    out.metrics.set("runtime.tasks_saved_share", share);
    books.close(server, "first server", &mut out);
    let mut restart_ms = restart_cycles(&setup, cycles_per_gap, &mut out)?;

    // Paced segments, a fresh server each.
    if paced > 0 {
        let (mut late_ms, mut rate_ok) = (Vec::new(), 0.0);
        for (rate, tail_metric) in PACED {
            let server = start(&setup)?;
            let mut books = Ledger::default();
            let records = drive(server.addr(), &setup, &vec![0; paced], Some(rate));
            books.book(&setup, &records);
            let from_due: Vec<f64> = records.iter().map(Record::done_ms).collect();
            late_ms.extend(records.iter().map(|r| (r.send_s - r.due_s) * 1e3));
            // A growing backlog is lateness, and latency from the due time
            // includes lateness, so one limit on the tail covers both.
            let tail = percentile(&from_due, PACED_TAIL);
            if books.failed == 0 && tail > 0.0 && tail <= PACED_LIMIT_MS {
                rate_ok = rate;
            }
            out.metrics.set(tail_metric, tail);
            // Overwritten per rate: the last, highest rate's median stays.
            out.metrics.set("loadgen.paced_done_ms_p50", median(&from_due));
            books.close(server, "paced server", &mut out);
            restart_ms.extend(restart_cycles(&setup, cycles_per_gap, &mut out)?);
        }
        out.metrics.set("loadgen.paced_late_ms_p99", percentile(&late_ms, 0.99));
        out.metrics.set("loadgen.rate_ok_qps", rate_ok);
    }
    out.metrics.set("restart_ms", median(&restart_ms));

    // Phase B: the same submissions against a fresh server.
    let server = start(&setup)?;
    let mut books = Ledger::default();
    let phase_b = drive(server.addr(), &setup, &plan, None);
    books.book(&setup, &phase_b);
    let share = saved_share(&server.state().metrics().snapshot());
    out.metrics.set("runtime.warm_tasks_saved_share", share);
    books.close(server, "second server", &mut out);
    // Read before the checks: the oracle re-executes queries on threads of
    // its own, and its memory is not the served system's.
    out.metrics.set("peak_rss_mb", host::peak_rss_mb());

    // Metrics of the timed phases.
    let m = &mut out.metrics;
    let done_s = |rs: &[Record]| rs.iter().map(|r| r.done_s).collect::<Vec<_>>();
    let done_ms = |rs: &[Record]| rs.iter().map(Record::done_ms).collect::<Vec<_>>();
    let per_query =
        |f: &dyn Fn(&Stream) -> f64| mean(&streams_a.iter().map(|(_, s)| f(s)).collect::<Vec<_>>());
    m.set("throughput_qps", slice_median_rate(&done_s(&phase_a), 1.0));
    m.set("warm_throughput_qps", slice_median_rate(&done_s(&phase_b), 1.0));
    m.set("done_ms_p50", median(&done_ms(&phase_a)));
    m.set("tasks_per_query", per_query(&|s| s.tasks as f64));
    m.set("rounds_per_query", per_query(&|s| s.rounds as f64));
    let f1 = f_measure(&setup, &phase_a, &streams_a);
    m.set("f1", f1);

    m.set("loadgen.samples", phase_a.len() as f64);
    m.set("loadgen.done_ms_p90", percentile(&done_ms(&phase_a), 0.9));
    m.set("loadgen.done_ms_p99", percentile(&done_ms(&phase_a), 0.99));
    m.set("loadgen.warm_done_ms_p50", median(&done_ms(&phase_b)));
    m.set("serve.submit_ms_p50", median(&phase_a.iter().map(|r| r.submit_ms).collect::<Vec<_>>()));
    m.set(
        "serve.first_binding_ms_p50",
        median(&phase_a.iter().filter_map(|r| r.first_ms).collect::<Vec<_>>()),
    );
    m.set("serve.stream_bytes_per_query", per_query(&|s| s.bytes as f64));
    m.set("crowd.assignments_per_query", per_query(&|s| s.assignments as f64));
    let (tasks, rounds): (u64, u64) =
        streams_a.iter().fold((0, 0), |(t, r), (_, s)| (t + s.tasks, r + s.rounds));
    m.set("crowd.tasks_per_round", tasks as f64 / rounds.max(1) as f64);
    m.set("quality.retracted_bindings", per_query(&|s| s.retracted as f64));
    let submitted = phase_a.len().max(1) as f64;
    m.set("sched.queued_share", phase_a.iter().filter(|r| r.queued).count() as f64 / submitted);
    m.set("sched.rejected_share", phase_a.iter().filter(|r| r.rejected).count() as f64 / submitted);

    // Correctness, outside the timed phases.
    out.violations.extend(verify_sample(&setup, &phase_a, &streams_a, seed));
    if f1 < F1_FLOOR {
        out.violations.push(format!("f1 {f1:.3} is below the floor {F1_FLOOR}"));
    }

    if trace {
        let sample: Vec<replay::Sampled> = streams_a
            .iter()
            .map(|(i, _)| &phase_a[*i])
            .map(|r| replay::Sampled {
                sql: r.sql,
                query: r.query.expect("a checked stream has an id"),
                tenant: TENANTS[r.tenant],
            })
            .collect();
        let done_ms_p50 = out.metrics.get("done_ms_p50");
        replay::served(workload, &setup, &sample, seed, done_ms_p50, &mut out.metrics)?;
    }
    Ok(out)
}
