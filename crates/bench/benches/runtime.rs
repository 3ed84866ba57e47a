//! Concurrent-runtime throughput: queries/sec and virtual rounds as the
//! thread count and fault rate vary.
//!
//! Two things this bench demonstrates beyond raw numbers:
//!
//! * **Concurrency**: the fleet's *virtual* cost is the sum of per-query
//!   makespans, but the scheduler runs queries in parallel, so wall-clock
//!   per query shrinks as threads grow.
//! * **Fault tolerance is not free**: the faulted groups pay extra rounds
//!   (timeouts + reassignments) but still answer every query.

use std::sync::Arc;

use cdb_bench::{runtime_fleet, ExpConfig};
use cdb_crowd::{CrowdPlatform, LatencyModel, Market, SimulatedPlatform, Task, TaskId, WorkerPool};
use cdb_datagen::{paper_dataset, queries_for, DatasetScale};
use cdb_obsv::{Ring, Trace};
use cdb_runtime::{
    FaultPlan, QueryJob, RetryPolicy, RuntimeConfig, RuntimeEngine, RuntimeExecutor, RuntimeMetrics,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const FLEET: u64 = 12;

fn fleet() -> Vec<QueryJob> {
    // A small slice of the paper dataset keeps one bench iteration cheap
    // while still exercising real join graphs (not toy bipartite ones).
    let ds = paper_dataset(DatasetScale::paper_full().scaled(40), 7);
    let q = &queries_for("paper")[0];
    let cfg = ExpConfig { worker_quality: 0.9, seed: 7, ..Default::default() };
    runtime_fleet(&ds, &q.cql, &cfg, FLEET)
}

fn config(threads: usize, fault_rate: f64) -> RuntimeConfig {
    RuntimeConfig {
        threads,
        seed: 7,
        fault_plan: FaultPlan::uniform(7, fault_rate),
        // Sized for the injected fault rate: a "slow" response (4x of a
        // ~60s mean) usually overshoots the default 2-minute deadline.
        retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        ..RuntimeConfig::default()
    }
}

fn bench_throughput(c: &mut Criterion) {
    let jobs = fleet();
    let mut group = c.benchmark_group("runtime_throughput");
    for &threads in &[1usize, 2, 4, 8] {
        for &fault_rate in &[0.0f64, 0.2] {
            let id = BenchmarkId::new(format!("threads_{threads}"), format!("fault_{fault_rate}"));
            group.bench_with_input(id, &(threads, fault_rate), |b, &(threads, fault_rate)| {
                b.iter(|| {
                    let report =
                        RuntimeExecutor::new(config(threads, fault_rate)).run(jobs.clone());
                    assert_eq!(report.results.len(), jobs.len());
                    // Virtual rounds consumed — the latency axis of the bench.
                    report.metrics.rounds
                })
            });
        }
    }
    group.finish();
}

fn bench_engine_round(c: &mut Criterion) {
    // One crowd round on its own: the fleets above run 1/40-scale 2-joins
    // whose rounds are a few dozen tasks, where collecting answers and
    // re-posting the overdue ones costs nothing. A 3-join round at 1/10
    // scale is ≈ 800 tasks × 5 workers in flight at once.
    let retry = RetryPolicy { deadline_ms: 300_000, max_retries: 8 };
    let mut group = c.benchmark_group("engine_round");
    for &n in &[100u64, 800] {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                Task::join_check(TaskId(i), &format!("left {i}"), &format!("right {i}"), i % 3 == 0)
            })
            .collect();
        for &fault_rate in &[0.0f64, 0.2] {
            let id = BenchmarkId::new(format!("{n}x5"), format!("fault_{fault_rate}"));
            group.bench_with_input(id, &fault_rate, |b, &fault_rate| {
                b.iter(|| {
                    let pool = WorkerPool::with_accuracies(&[0.9; 25]);
                    let mut engine = RuntimeEngine::new(
                        SimulatedPlatform::new(Market::Amt, pool, 7),
                        LatencyModel::default(),
                        FaultPlan::uniform(7, fault_rate),
                        retry,
                        0,
                        Arc::new(RuntimeMetrics::new()),
                    );
                    let answers = engine.ask_round(&tasks, 5);
                    assert!(engine.error().is_none() && answers.len() == tasks.len() * 5);
                    engine.now()
                })
            });
        }
    }
    group.finish();
}

fn bench_concurrency_evidence(c: &mut Criterion) {
    // Not a timing benchmark: a single measured pass that prints the
    // serial-vs-concurrent virtual gap, so bench runs leave evidence that
    // more than one query was in flight at once.
    let jobs = fleet();
    let report = RuntimeExecutor::new(config(4, 0.0)).run(jobs.clone());
    let serial = report.virtual_ms_serial();
    let max = report
        .results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|q| q.virtual_ms))
        .max()
        .unwrap_or(0);
    assert!(
        serial > max,
        "a {FLEET}-query fleet must cost more serially ({serial} ms) than its slowest member ({max} ms)"
    );
    println!(
        "# concurrency: serial virtual cost {serial} ms, slowest query {max} ms, wall {:?}",
        report.wall
    );

    let mut group = c.benchmark_group("runtime_fleet_overhead");
    group.bench_function("schedule_12_queries_4_threads", |b| {
        b.iter(|| RuntimeExecutor::new(config(4, 0.0)).run(jobs.clone()).ok_count())
    });
    group.finish();
}

fn bench_tracing_overhead(c: &mut Criterion) {
    // The acceptance bar for the observability layer: with no collector
    // attached (`Trace::off`, the default) a traced-instrumented run must
    // cost within 2% of the pre-instrumentation baseline — compare the
    // `trace_off` line against `trace_ring` to see what a live collector
    // adds on top.
    let jobs = fleet();
    let mut group = c.benchmark_group("runtime_tracing_overhead");
    group.bench_function("trace_off", |b| {
        b.iter(|| RuntimeExecutor::new(config(4, 0.1)).run(jobs.clone()).ok_count())
    });
    // The ring outlives the iterations (as it would in a live system);
    // each pass drains what it produced so the buffer never fills.
    let ring = Arc::new(Ring::with_capacity(1 << 18));
    let traced = RuntimeConfig { trace: Trace::collector(ring.clone()), ..config(4, 0.1) };
    group.bench_function("trace_ring", |b| {
        b.iter(|| {
            let report = RuntimeExecutor::new(traced.clone()).run(jobs.clone());
            let drained = ring.drain().len();
            assert_eq!(ring.dropped(), 0);
            (report.ok_count(), drained)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput, bench_engine_round, bench_concurrency_evidence, bench_tracing_overhead
}
criterion_main!(benches);
