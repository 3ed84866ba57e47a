//! `fleet_durable`: no HTTP. Fleets of the five Table 4 award queries run
//! through `ShardExecutor` (two shards, streaming) with answer reuse and
//! settle-after-fsync on one `DurableReuseCache`.
//!
//! Phase A runs every fleet cold, all appending to one growing log (the
//! write path: settle → fsync → marker → fsync). The restart cycles drop
//! the cache and reopen it from the log. Phase B runs the same fleets warm
//! on the recovered cache (the read path: entailment lookups, nothing
//! dispatched). Each fleet has its own data seed and its own reuse
//! namespace, so nothing is shared between fleets and phase A stays cold.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdb_core::{EdgeId, NodeId, PartId, QueryGraph, SettleSink, SettledFact};
use cdb_datagen::{award_dataset, queries_for, DatasetScale};
use cdb_obsv::profile::{self, Profiler};
use cdb_runtime::{QueryJob, RetryPolicy, RuntimeConfig, SettleHook};
use cdb_shard::{MemoryConfig, ShardConfig, ShardExecutor, ShardReport};
use cdb_store::DurableReuseCache;

use crate::served::plan_query;
use crate::stats::{mean, median, slice_median_rate};
use crate::{host, replay, RunOutput};

/// Fleets per phase at scale factor 1.
const FLEETS: usize = 80;
/// The award tables are generated at 1/30 of the paper's cardinalities: a
/// fleet's five graphs build in ~60 ms, so set-up stays seconds while the
/// settle path still writes hundreds of facts per pass.
const SCALE_DIVISOR: usize = 30;
const SHARDS: usize = 2;
const RESTARTS: usize = 15;
/// Planning the fleets is most of a run, so set-up is not repeated: it is
/// done in this many equal batches, and `setup_s` is the median batch's
/// time times the number of batches.
const SETUP_BATCHES: usize = 4;
/// Times phase B goes over the fleets: a warm pass is ~20 times shorter
/// than a cold one, and one sweep would be a fifth of a second of clock.
const WARM_SWEEPS: usize = 10;
const F1_FLOOR: f64 = 0.75;
/// Fleet `k`'s tables come from seed `DATA_SEED + k`, not from `--seed`
/// (see `served::DATA_SEED`); `--seed` drives `runtime.seed` and the
/// replay sample.
const DATA_SEED: u64 = 2_017_000;

/// One fleet: its five jobs and each job's true answers.
pub struct Fleet {
    pub jobs: Vec<QueryJob>,
    references: Vec<BTreeSet<Vec<NodeId>>>,
}

/// Copy `g` with every predicate description prefixed by `namespace`. The
/// description is the reuse cache's measure key, and vertex labels are
/// `Table#row` whatever the data, so without this two fleets generated
/// from different seeds would answer each other's tasks. Part, node and
/// edge ids are unchanged (everything is re-added in id order).
fn namespaced(g: &QueryGraph, namespace: &str) -> QueryGraph {
    let mut out = QueryGraph::new();
    for p in 0..g.part_count() {
        out.add_part(g.part_kind(PartId(p)).clone());
    }
    for info in g.predicates() {
        out.add_predicate(info.a, info.b, info.crowd, format!("{namespace}/{}", info.description));
    }
    for n in (0..g.node_count()).map(NodeId) {
        out.add_node(g.node_part(n), g.node_tuple(n).cloned(), g.node_label(n));
    }
    for e in (0..g.edge_count()).map(EdgeId) {
        let (u, v) = g.edge_endpoints(e);
        out.add_edge(u, v, g.edge_predicate(e), g.edge_weight(e));
    }
    out
}

/// Generate and plan fleets `first..first + fleets` (this is the
/// workload's set-up cost).
fn prepare(first: usize, fleets: usize) -> Vec<Fleet> {
    let build = cdb_core::GraphBuildConfig::default();
    (first..first + fleets)
        .map(|k| {
            let scale = DatasetScale::award_full().scaled(SCALE_DIVISOR);
            let ds = award_dataset(scale, DATA_SEED + k as u64);
            let (mut jobs, mut references) = (Vec::new(), Vec::new());
            for (i, q) in queries_for("award").iter().enumerate() {
                let (graph, truth, reference) = plan_query(&q.cql, &ds.db, &ds.truth, &build);
                references.push(reference);
                let graph = namespaced(&graph, &format!("fleet{k}"));
                jobs.push(QueryJob { id: (k * 5 + i) as u64, graph, truth });
            }
            Fleet { jobs, references }
        })
        .collect()
}

/// The settle sink the runtime calls: forwards to the durable cache and
/// keeps each call's wall time and fact count.
struct TimedSink {
    store: Arc<DurableReuseCache>,
    settle_ms: Mutex<Vec<f64>>,
    facts: AtomicU64,
}

impl SettleSink for TimedSink {
    fn settle(&self, query: u64, facts: &[SettledFact]) -> Result<(), String> {
        let _span = profile::phase("store.settle");
        let t = Instant::now();
        let result = self.store.settle(query, facts);
        self.settle_ms
            .lock()
            .expect("settle samples poisoned")
            .push(t.elapsed().as_secs_f64() * 1e3);
        self.facts.fetch_add(facts.len() as u64, Ordering::Relaxed);
        result
    }
}

/// An open store with its sink and the executor configured on it.
struct Opened {
    sink: Arc<TimedSink>,
    exec: ShardExecutor,
    open_ms: f64,
}

fn open(dir: &std::path::Path, seed: u64) -> Result<Opened, String> {
    let t = Instant::now();
    let store = {
        let _span = profile::phase("store.open");
        DurableReuseCache::open(dir).map_err(|e| format!("open answer log: {e}"))?
    };
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let store = Arc::new(store);
    let sink =
        Arc::new(TimedSink { store, settle_ms: Mutex::new(Vec::new()), facts: AtomicU64::new(0) });
    let runtime = RuntimeConfig {
        threads: 1,
        seed,
        // Perfect workers: two queries of a fleet ask the same pair, and
        // with fallible workers the warm pass would see the first writer's
        // answer where the cold pass saw its own, so bindings would differ.
        worker_accuracies: vec![1.0; 20],
        retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        reuse: Some(sink.store.cache()),
        settle: Some(SettleHook::new(Arc::clone(&sink) as Arc<dyn SettleSink>)),
        ..RuntimeConfig::default()
    };
    let exec = ShardExecutor::new(ShardConfig {
        shards: SHARDS,
        runtime,
        memory: MemoryConfig { ceiling_bytes: None, streaming: true },
    });
    Ok(Opened { sink, exec, open_ms })
}

/// One fleet pass and what it cost.
struct Pass {
    ms: f64,
    report: ShardReport,
}

fn pass(opened: &Opened, fleet: &Fleet, span: &'static str) -> Result<Pass, String> {
    let jobs = fleet.jobs.clone();
    let _span = profile::phase(span);
    let t = Instant::now();
    let report = {
        let _run = profile::phase("shard.run");
        opened.exec.run(jobs).map_err(|e| format!("shard plan: {e:?}"))?
    };
    Ok(Pass { ms: t.elapsed().as_secs_f64() * 1e3, report })
}

/// Task and cents conservation across shards, and no failed query.
fn check_pass(p: &Pass, what: &str, violations: &mut Vec<String>) -> u64 {
    let r = &p.report;
    let tasks: u64 = r.shards.iter().map(|s| s.metrics.tasks_dispatched).sum();
    let cents: u64 = r.shards.iter().map(|s| s.metrics.cost_cents).sum();
    if tasks != r.metrics.tasks_dispatched || cents != r.metrics.cost_cents {
        violations.push(format!("{what}: shard counters do not sum to the merged totals"));
    }
    r.failed_count() as u64
}

/// Seconds since the phase started at which each pass ended (passes run
/// back to back; cloning the next fleet's jobs is not on the clock).
fn pass_ends(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .scan(0.0, |t, p| {
            *t += p.ms / 1e3;
            Some(*t)
        })
        .collect()
}

fn saved_share(passes: &[Pass]) -> f64 {
    let (saved, dispatched) = passes.iter().fold((0, 0), |(s, d), p| {
        (s + p.report.metrics.tasks_saved, d + p.report.metrics.tasks_dispatched)
    });
    saved as f64 / (saved + dispatched).max(1) as f64
}

/// Run the workload.
pub fn run(seed: u64, factor: f64, trace: bool) -> Result<RunOutput, String> {
    let scaled = |count: usize| ((count as f64 * factor).round() as usize).max(1);
    let fleets_n = scaled(FLEETS).max(2);
    let mut out = RunOutput::default();
    // The traced run keeps a profiler installed on this thread throughout:
    // planning, settles, fsyncs and recovery all happen here (units execute
    // on shard threads and show as `shard.run` self time).
    let profiler = trace.then(|| Arc::new(Profiler::with_event_cap(replay::SPAN_CAP)));
    let installed = profiler.as_ref().map(|p| profile::install(Arc::clone(p)));

    // Set-up: open an empty store and plan every fleet, in batches.
    let batches = SETUP_BATCHES.min(fleets_n);
    let (mut batch_s, mut fleets) = (Vec::new(), Vec::new());
    let t = Instant::now();
    let dir = host::Scratch::new("fleet-wal").map_err(|e| format!("scratch dir: {e}"))?;
    let mut opened = open(dir.path(), seed)?;
    let open_s = t.elapsed().as_secs_f64();
    for b in 0..batches {
        let t = Instant::now();
        let (from, to) = (fleets_n * b / batches, fleets_n * (b + 1) / batches);
        fleets.extend(prepare(from, to - from));
        batch_s.push(t.elapsed().as_secs_f64());
    }
    out.metrics.set("setup_s", open_s + median(&batch_s) * batches as f64);
    let queries = (fleets_n * 5) as f64;

    // Warm-up: one pass of a fleet that is not part of the phases, on a
    // store of its own, so the shared log starts empty.
    {
        let spare = prepare(fleets_n, 1);
        let dir = host::Scratch::new("fleet-warmup").map_err(|e| format!("scratch dir: {e}"))?;
        let warmup = open(dir.path(), seed)?;
        out.failed +=
            check_pass(&pass(&warmup, &spare[0], "pass.warmup")?, "warm-up", &mut out.violations);
        out.attempted += 5;
    }

    // Phase A: cold.
    let mut cold = Vec::with_capacity(fleets_n);
    let phases = Instant::now();
    for (k, fleet) in fleets.iter().enumerate() {
        let p = pass(&opened, fleet, "pass.cold")?;
        out.failed += check_pass(&p, &format!("cold pass {k}"), &mut out.violations);
        cold.push(p);
    }
    out.attempted += queries as u64;
    let mut phase_ms = phases.elapsed().as_secs_f64() * 1e3;
    let settle_ms = std::mem::take(&mut *opened.sink.settle_ms.lock().expect("settle samples"));
    let facts = opened.sink.facts.load(Ordering::Relaxed);
    let wal_bytes = dir.bytes();

    // Stop/start cycles: reopen from the log, then one warm pass.
    let (mut restart_ms, mut recover_ms, mut recovered) = (Vec::new(), Vec::new(), 0);
    for k in 0..scaled(RESTARTS).max(3) {
        drop(opened);
        let t = Instant::now();
        opened = open(dir.path(), seed)?;
        let p = pass(&opened, &fleets[0], "pass.restart")?;
        restart_ms.push(t.elapsed().as_secs_f64() * 1e3);
        recover_ms.push(opened.open_ms);
        recovered = opened.sink.store.recovery().settled_facts();
        out.failed += check_pass(&p, &format!("restart {k}"), &mut out.violations);
        out.attempted += 5;
    }

    // Phase B: warm, on the recovered cache.
    let mut warm = Vec::with_capacity(fleets_n * WARM_SWEEPS);
    let phases = Instant::now();
    for (k, fleet) in (0..WARM_SWEEPS).flat_map(|_| fleets.iter().enumerate()) {
        let p = pass(&opened, fleet, "pass.warm")?;
        out.failed += check_pass(&p, &format!("warm pass {k}"), &mut out.violations);
        if p.report.bindings_text() != cold[k].report.bindings_text() {
            out.violations.push(format!("fleet {k}: warm bindings differ from cold bindings"));
        }
        if p.report.metrics.tasks_dispatched != 0 {
            out.violations.push(format!(
                "fleet {k}: warm pass dispatched {} tasks",
                p.report.metrics.tasks_dispatched
            ));
        }
        warm.push(p);
    }
    out.attempted += (queries as usize * WARM_SWEEPS) as u64;
    phase_ms += phases.elapsed().as_secs_f64() * 1e3;
    if opened.sink.facts.load(Ordering::Relaxed) != 0 {
        out.violations.push("warm passes settled new facts".into());
    }

    // End-to-end metrics. A fleet's queries share its pass's wall time.
    let m = &mut out.metrics;
    let pass_ms = |ps: &[Pass]| ps.iter().map(|p| p.ms).collect::<Vec<_>>();
    m.set("throughput_qps", slice_median_rate(&pass_ends(&cold), 5.0));
    m.set("warm_throughput_qps", slice_median_rate(&pass_ends(&warm), 5.0));
    m.set("done_ms_p50", median(&pass_ms(&cold)));
    m.set("restart_ms", median(&restart_ms));
    let results =
        || cold.iter().flat_map(|p| &p.report.results).filter_map(|(_, r)| r.as_ref().ok());
    m.set("tasks_per_query", results().map(|r| r.tasks_asked as f64).sum::<f64>() / queries);
    m.set("rounds_per_query", results().map(|r| r.rounds as f64).sum::<f64>() / queries);
    let scores: Vec<f64> = cold
        .iter()
        .zip(&fleets)
        .flat_map(|(p, fleet)| p.report.results.iter().zip(&fleet.references))
        .filter_map(|((_, r), truth)| r.as_ref().ok().map(|r| (r, truth)))
        .map(|(r, truth)| cdb_core::precision_recall(&r.bindings, truth).f_measure)
        .collect();
    let f1 = mean(&scores);
    m.set("f1", f1);
    if f1 < F1_FLOOR {
        out.violations.push(format!("f1 {f1:.3} is below the floor {F1_FLOOR}"));
    }

    // Per-layer metrics the run itself observes.
    m.set("loadgen.samples", cold.len() as f64);
    m.set("loadgen.warm_done_ms_p50", median(&pass_ms(&warm)));
    m.set("shard.pass_ms_p50", median(&pass_ms(&cold)));
    let units: usize = cold.iter().map(|p| p.report.units.len()).sum();
    m.set("shard.units_per_query", units as f64 / queries);
    m.set(
        "shard.peak_shard_bytes",
        cold.iter().map(|p| p.report.peak_bytes_max()).max().unwrap_or(0) as f64,
    );
    m.set("runtime.tasks_saved_share", saved_share(&cold));
    m.set("runtime.warm_tasks_saved_share", saved_share(&warm));
    m.set(
        "runtime.retries",
        cold.iter().map(|p| p.report.metrics.retries).sum::<u64>() as f64 / queries,
    );
    let assignments: usize = results().map(|r| r.assignments).sum();
    m.set("crowd.assignments_per_query", assignments as f64 / queries);
    let (tasks, rounds) = cold.iter().fold((0, 0), |(t, r), p| {
        (t + p.report.metrics.tasks_dispatched, r + p.report.metrics.rounds)
    });
    m.set("crowd.tasks_per_round", tasks as f64 / rounds.max(1) as f64);
    m.set("store.settle_ms_p50", median(&settle_ms));
    m.set("store.wal_bytes_per_fact", wal_bytes as f64 / facts.max(1) as f64);
    m.set("store.recover_ms", median(&recover_ms));
    m.set("store.recovered_facts", recovered as f64);
    m.set("store.replay_facts_per_s", recovered as f64 / (median(&recover_ms) / 1e3).max(1e-9));

    m.set("peak_rss_mb", host::peak_rss_mb()); // before the replay's own executions
    drop(installed);
    if let Some(profiler) = &profiler {
        let counts = (queries, queries * WARM_SWEEPS as f64);
        replay::fleet(profiler, &fleets, &opened.sink.store.cache(), seed, counts, phase_ms, m)?;
    }
    Ok(out)
}
