//! The traced run's layer-by-layer account.
//!
//! A seeded sample of the queries the load phases just ran is executed
//! again on this thread with a `cdb_obsv::profile::Profiler` installed and
//! one span around each public call the served path makes. A layer's self
//! time is its span minus its children (the profiler computes it from the
//! span stack), so the layers of one query sum to its root span. Spans stay
//! in memory and are written as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdb_core::{build_query_graph, NodeId, ReuseCache};
use cdb_cql::AnalyzedPredicate;
use cdb_obsv::attr::keys;
use cdb_obsv::profile::{self, ProfileReport, Profiler};
use cdb_runtime::{execute_query, QueryJob, RoundHook, RoundSink, RuntimeMetrics};
use cdb_sched::{AdmissionController, QueryRequest};
use cdb_serve::{StreamEvent, Submit};
use cdb_similarity::similarity_join;

use crate::fleet::Fleet;
use crate::served::Setup;
use crate::spec::Metrics;
use crate::stats::{median, SplitMix};
use crate::{alloc, host};

/// Queries replayed with spans on.
const SAMPLE: usize = 32;
/// Of those, replayed once more with spans off, to measure what spans cost.
const PLAIN_SAMPLE: usize = 8;
/// Raw spans kept for the Chrome trace; later ones are only aggregated.
pub const SPAN_CAP: usize = 200_000;

const ROOT: &str = "replay.query";

/// One phase-A query to replay: which SQL, under which id and tenant.
pub struct Sampled {
    pub sql: usize,
    pub query: u64,
    pub tenant: &'static str,
}

/// Collects a query's round deltas the way the server's hook does.
#[derive(Default)]
struct Deltas(Mutex<Vec<(u64, Vec<Vec<u64>>)>>);

impl RoundSink for Deltas {
    fn on_round(&self, _query: u64, round: u64, new: &[Vec<NodeId>]) -> bool {
        if !new.is_empty() {
            let new = new.iter().map(|b| b.iter().map(|n| n.0 as u64).collect()).collect();
            self.0.lock().expect("deltas poisoned").push((round, new));
        }
        true
    }
}

/// Counts taken around one replayed query.
#[derive(Default)]
struct Counts {
    ms: f64,
    edges: usize,
    build_allocs: u64,
    execute_allocs: u64,
    join_allocs: u64,
    pairs: usize,
}

/// Replay one served query: the calls `ServerState::submit` and its worker
/// make, in their order, then (outside the root span, because the served
/// path does not do it) `similarity_join` directly on each join
/// predicate's two columns.
fn replay_served(
    setup: &Setup,
    pick: &Sampled,
    wallets: &mut BTreeMap<&'static str, AdmissionController>,
    crowd: &Arc<RuntimeMetrics>,
) -> Result<Counts, String> {
    let planned = &setup.queries[pick.sql];
    let body = Submit {
        tenant: pick.tenant.to_string(),
        sql: planned.sql.clone(),
        budget_cents: planned.estimate.cost_cents_upper,
        deadline_rounds: None,
    }
    .encode();
    let mut counts = Counts::default();
    let started = Instant::now();
    let mut root = profile::phase(ROOT);
    root.set(keys::QUERY, pick.query);

    let submit = {
        let _s = profile::phase("serve.decode");
        Submit::decode(&body)?
    };
    let statement = {
        let _s = profile::phase("cql.parse");
        cdb_cql::parse(&submit.sql).map_err(|e| e.to_string())?
    };
    let cdb_cql::Statement::Select(select) = statement else {
        return Err("workload queries are SELECTs".into());
    };
    let analyzed = {
        let _s = profile::phase("cql.analyze");
        cdb_cql::analyze_select(&select, &setup.db).map_err(|e| e.to_string())?
    };
    let before = alloc::calls();
    let graph = {
        let _s = profile::phase("core.build");
        build_query_graph(&analyzed, &setup.db, &setup.cfg.build)
    };
    counts.build_allocs = alloc::calls() - before;
    counts.edges = graph.edge_count();
    let truth = {
        let _s = profile::phase("core.truth");
        setup.truth.edge_truth(&graph)
    };
    let estimate = {
        let _s = profile::phase("core.estimate");
        cdb_core::cost::estimate::estimate(
            &graph,
            setup.cfg.runtime.exec.redundancy,
            setup.cfg.task_price_cents,
        )
    };
    let wallet = wallets
        .entry(pick.tenant)
        .or_insert_with(|| AdmissionController::new(setup.cfg.tenants[pick.tenant]));
    {
        let _s = profile::phase("sched.offer");
        wallet.offer(QueryRequest {
            query: pick.query,
            estimate,
            budget_cents: submit.budget_cents,
            deadline_rounds: submit.deadline_rounds,
        });
    }
    let deltas = Arc::new(Deltas::default());
    let mut cfg = setup.cfg.runtime.clone();
    cfg.exec.budget = analyzed.budget.or(cfg.exec.budget);
    cfg.round_sink = Some(RoundHook::new(Arc::clone(&deltas) as Arc<dyn RoundSink>));
    let before = alloc::calls();
    let result = {
        let _s = profile::phase("runtime.execute");
        execute_query(&cfg, crowd, QueryJob { id: pick.query, graph, truth }, None).1
    };
    counts.execute_allocs = alloc::calls() - before;
    let result = result.map_err(|e| format!("replay of query {}: {e}", pick.query))?;
    {
        let _s = profile::phase("serve.encode");
        for (round, new) in deltas.0.lock().expect("deltas poisoned").drain(..) {
            std::hint::black_box(StreamEvent::Round { round, new }.encode());
        }
        let done = StreamEvent::Done {
            rounds: result.rounds as u64,
            tasks: result.tasks_asked as u64,
            assignments: result.assignments as u64,
            bindings: result.bindings.len() as u64,
            cancelled: false,
            refund_cents: 0,
        };
        std::hint::black_box(done.encode());
    }
    wallet.complete(&estimate);
    drop(root);
    counts.ms = started.elapsed().as_secs_f64() * 1e3;

    for p in &analyzed.predicates {
        let AnalyzedPredicate::CrowdJoin { left, right } = p else { continue };
        let column = |c: &cdb_cql::BoundColumn| {
            let table = setup.db.table(&c.table).map_err(|e| e.to_string())?;
            table.column_strings(&c.column).map_err(|e| e.to_string())
        };
        let (l, r) = (column(left)?, column(right)?);
        let l: Vec<&str> = l.iter().map(String::as_str).collect();
        let r: Vec<&str> = r.iter().map(String::as_str).collect();
        let before = alloc::calls();
        let _s = profile::phase("similarity.join");
        counts.pairs +=
            similarity_join(&l, &r, setup.cfg.build.similarity, setup.cfg.build.epsilon).len();
        counts.join_allocs += alloc::calls() - before;
    }
    Ok(counts)
}

/// Reads per-query layer times out of a profile.
struct Layers<'a> {
    report: &'a ProfileReport,
    queries: f64,
}

impl Layers<'_> {
    /// Mean milliseconds per query under the span at `path`, children included.
    fn total_ms(&self, path: &str) -> f64 {
        self.report.get(path).map_or(0.0, |e| e.total_ns as f64 / 1e6 / self.queries)
    }
    /// Mean self milliseconds per query of the span at `path`.
    fn self_ms(&self, path: &str) -> f64 {
        self.report.get(path).map_or(0.0, |e| e.self_ns as f64 / 1e6 / self.queries)
    }
    /// Mean entries per query of the span at `path`.
    fn calls(&self, path: &str) -> f64 {
        self.report.get(path).map_or(0.0, |e| e.count as f64 / self.queries)
    }
    /// Spans recorded anywhere in the profile.
    fn spans(&self) -> f64 {
        self.report.entries.iter().map(|e| e.count as f64).sum()
    }
}

/// What spans cost: the median, over the queries replayed both ways, of
/// (time with spans − time without) ÷ time without. Pairing keeps the mix
/// of cheap and dear queries out of it.
fn overhead_share(traced_ms: &[f64], plain_ms: &[f64]) -> f64 {
    median(&traced_ms.iter().zip(plain_ms).map(|(t, p)| (t - p) / p).collect::<Vec<_>>())
}

/// The spans the core executor opens inside `runtime.execute`.
fn executor_layers(l: &Layers, execute: &str, m: &mut Metrics) {
    let at = |leaf: &str| format!("{execute};{leaf}");
    m.set("runtime.execute_ms", l.total_ms(execute));
    m.set("runtime.self_ms", l.self_ms(execute));
    m.set("core.select_ms", l.total_ms(&at("task.select")));
    m.set("core.select_candidates_ms", l.total_ms(&at("task.select;select.candidates")));
    m.set("core.select_expectation_ms", l.total_ms(&at("task.select;select.expectation")));
    m.set("core.select_calls", l.calls(&at("task.select")));
    m.set("crowd.dispatch_ms", l.total_ms(&at("round.dispatch")));
    m.set("quality.infer_ms", l.total_ms(&at("quality.infer")));
}

fn write_trace(workload: &str, profiler: &Profiler) -> Result<(), String> {
    let dir = host::output_dir();
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, profiler.chrome_trace()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "# trace: wrote {} ({} spans dropped past the cap)",
        path.display(),
        profiler.events_dropped()
    );
    Ok(())
}

/// Equal numbers of each distinct query, in a seeded order.
fn stratified(sample: &[Sampled], distinct: usize, seed: u64) -> Vec<&Sampled> {
    let mut order: Vec<&Sampled> = sample.iter().collect();
    SplitMix(seed ^ 0x7472_6163).shuffle(&mut order);
    let each = SAMPLE.div_ceil(distinct);
    let mut taken = vec![0usize; distinct];
    order.retain(|s| {
        taken[s.sql] += 1;
        taken[s.sql] <= each
    });
    order
}

/// Replay a sample of a served workload's phase-A queries and fill in the
/// replay-derived per-layer metrics.
pub fn served(
    workload: &str,
    setup: &Setup,
    sample: &[Sampled],
    seed: u64,
    done_ms_p50: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let picks = stratified(sample, setup.queries.len(), seed);
    let crowd = Arc::new(RuntimeMetrics::new());
    let mut wallets = BTreeMap::new();
    alloc::set_counting(true);

    // The first few picks are replayed with spans off as well, the two
    // variants alternating in order so that neither always runs on the
    // warmer heap; their difference is what the spans cost.
    let profiler = Arc::new(Profiler::with_event_cap(SPAN_CAP));
    let (mut counts, mut plain_ms) = (Vec::new(), Vec::new());
    for (i, pick) in picks.iter().enumerate() {
        let plain_first = i % 2 == 0;
        if i < PLAIN_SAMPLE && plain_first {
            plain_ms.push(replay_served(setup, pick, &mut wallets, &crowd)?.ms);
        }
        {
            let _installed = profile::install(Arc::clone(&profiler));
            counts.push(replay_served(setup, pick, &mut wallets, &crowd)?);
        }
        if i < PLAIN_SAMPLE && !plain_first {
            plain_ms.push(replay_served(setup, pick, &mut wallets, &crowd)?.ms);
        }
    }
    alloc::set_counting(false);

    let report = profiler.report();
    let l = Layers { report: &report, queries: counts.len().max(1) as f64 };
    let at = |leaf: &str| format!("{ROOT};{leaf}");
    let per_query = |f: &dyn Fn(&Counts) -> f64| counts.iter().map(f).sum::<f64>() / l.queries;
    m.set("serve.submit_decode_us", l.total_ms(&at("serve.decode")) * 1e3);
    m.set("cql.parse_us", l.total_ms(&at("cql.parse")) * 1e3);
    m.set("cql.analyze_us", l.total_ms(&at("cql.analyze")) * 1e3);
    let inner_join = l.total_ms(&at("core.build;graph.build;similarity.join"));
    let inner_prune = l.total_ms(&at("core.build;graph.build;prune"));
    m.set("core.build_ms", l.total_ms(&at("core.build")));
    m.set("core.build_self_ms", l.total_ms(&at("core.build")) - inner_join - inner_prune);
    m.set("core.prune_ms", inner_prune);
    m.set("core.graph_edges", per_query(&|c| c.edges as f64));
    m.set("core.build_allocs", per_query(&|c| c.build_allocs as f64));
    m.set("core.truth_us", l.total_ms(&at("core.truth")) * 1e3);
    m.set("core.estimate_us", l.total_ms(&at("core.estimate")) * 1e3);
    m.set("sched.offer_us", l.total_ms(&at("sched.offer")) * 1e3);
    executor_layers(&l, &at("runtime.execute"), m);
    m.set("runtime.allocs_per_query", per_query(&|c| c.execute_allocs as f64));
    m.set(
        "runtime.retries",
        crowd.snapshot().retries as f64 / (counts.len() + plain_ms.len()) as f64,
    );
    m.set("serve.event_encode_us", l.total_ms(&at("serve.encode")) * 1e3);
    m.set("similarity.join_ms", l.total_ms("similarity.join"));
    m.set("similarity.pairs_per_query", per_query(&|c| c.pairs as f64));
    m.set("similarity.join_allocs", per_query(&|c| c.join_allocs as f64));

    let traced_ms: Vec<f64> = counts.iter().map(|c| c.ms).collect();
    m.set("serve.residual_ms", done_ms_p50 - median(&traced_ms));
    m.set("trace.overhead_share", overhead_share(&traced_ms, &plain_ms));
    m.set("trace.unattributed_share", l.self_ms(ROOT) / l.total_ms(ROOT).max(1e-12));
    m.set("trace.replayed_queries", l.queries);
    m.set("trace.spans", l.spans());
    write_trace(workload, &profiler)
}

/// `fleet_durable`'s account. `profiler` was installed on the calling
/// thread during the phases, so it already holds the pass, settle, fsync
/// and recovery spans; this adds a direct `partition` call and an
/// in-process execution per sampled job (cold on an empty reuse session,
/// then warm on the recovered cache), and reads everything out.
/// `phase_ms` is the wall time of the two phases' loops.
pub fn fleet(
    profiler: &Arc<Profiler>,
    fleets: &[Fleet],
    recovered: &Arc<ReuseCache>,
    seed: u64,
    (cold_queries, warm_queries): (f64, f64),
    phase_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut jobs: Vec<&QueryJob> = fleets.iter().flat_map(|f| &f.jobs).collect();
    SplitMix(seed ^ 0x7472_6163).shuffle(&mut jobs);
    jobs.truncate(SAMPLE);
    let crowd = Arc::new(RuntimeMetrics::new());
    let cfg = cdb_runtime::RuntimeConfig {
        seed,
        worker_accuracies: vec![1.0; 20],
        retry: cdb_runtime::RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        ..cdb_runtime::RuntimeConfig::default()
    };
    let empty = ReuseCache::new();
    let run = |job: &QueryJob, cache: &ReuseCache, span: &'static str| -> Result<f64, String> {
        let job = job.clone();
        let session = Arc::new(Mutex::new(cache.snapshot()));
        let t = Instant::now();
        let mut root = profile::phase(span);
        root.set(keys::QUERY, job.id);
        let _s = profile::phase("runtime.execute");
        let (id, result) = execute_query(&cfg, &crowd, job, Some(session));
        result.map_err(|e| format!("replay of job {id}: {e}"))?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };

    let (mut components, mut allocs) = (0, 0);
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    alloc::set_counting(true);
    for (i, job) in jobs.iter().enumerate() {
        // As in `served`: spans off and on alternate in order.
        let plain_first = i % 2 == 0;
        if i < PLAIN_SAMPLE && plain_first {
            plain_ms.push(run(job, &empty, ROOT)?);
        }
        {
            let _installed = profile::install(Arc::clone(profiler));
            {
                let _s = profile::phase("shard.partition");
                components += cdb_shard::partition(&job.graph).components.len();
            }
            let before = alloc::calls();
            traced_ms.push(run(job, &empty, ROOT)?);
            allocs += alloc::calls() - before;
            run(job, recovered, "replay.warm")?;
        }
        if i < PLAIN_SAMPLE && !plain_first {
            plain_ms.push(run(job, &empty, ROOT)?);
        }
    }
    alloc::set_counting(false);
    let report = profiler.report();

    let sampled = jobs.len().max(1) as f64;
    let l = Layers { report: &report, queries: sampled };
    executor_layers(&l, &format!("{ROOT};runtime.execute"), m);
    m.set("runtime.allocs_per_query", allocs as f64 / sampled);
    m.set("graph.entail_resolve_ms", l.total_ms("replay.warm;runtime.execute;entail.resolve"));
    m.set("graph.components_per_query", components as f64 / sampled);
    m.set("shard.partition_ms", l.total_ms("shard.partition"));
    let (cold, warm) = (
        Layers { report: &report, queries: cold_queries },
        Layers { report: &report, queries: warm_queries },
    );
    m.set("store.fsyncs_per_query", cold.calls("pass.cold;shard.run;store.settle;wal.fsync"));
    m.set("store.warm_fsyncs_per_query", warm.calls("pass.warm;shard.run;store.settle;wal.fsync"));

    let spans_ms =
        cold.total_ms("pass.cold") * cold_queries + warm.total_ms("pass.warm") * warm_queries;
    m.set("trace.unattributed_share", 1.0 - spans_ms / phase_ms.max(1e-12));
    m.set("trace.overhead_share", overhead_share(&traced_ms, &plain_ms));
    m.set("trace.replayed_queries", sampled);
    m.set("trace.spans", l.spans());
    write_trace("fleet_durable", profiler)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layers of a replayed query account for its root span: every
    /// span's self time, summed over the root's subtree, is the root's
    /// total (within 1 %; the profiler's clock reads are not atomic).
    #[test]
    fn span_self_times_sum_to_the_root() {
        let setup = crate::served::set_up("wire_small", 5, 8);
        let profiler = Arc::new(Profiler::new());
        let (mut wallets, crowd) = (BTreeMap::new(), Arc::new(RuntimeMetrics::new()));
        {
            let _installed = profile::install(Arc::clone(&profiler));
            for query in 0..8 {
                let pick = Sampled { sql: 0, query, tenant: "bench-a" };
                replay_served(&setup, &pick, &mut wallets, &crowd).expect("replay runs");
            }
        }
        let report = profiler.report();
        let root = report.get(ROOT).expect("root span recorded");
        let subtree: u64 =
            report.entries.iter().filter(|e| e.path.starts_with(ROOT)).map(|e| e.self_ns).sum();
        let gap = (subtree as f64 - root.total_ns as f64).abs() / root.total_ns as f64;
        assert!(gap <= 0.01, "self times sum to {subtree} ns, root is {} ns", root.total_ns);
        for layer in ["serve.decode", "cql.parse", "core.build", "runtime.execute", "serve.encode"]
        {
            assert!(report.get(&format!("{ROOT};{layer}")).is_some(), "no span for {layer}");
        }
    }
}
