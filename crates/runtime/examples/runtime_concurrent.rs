//! Drive 100 crowd queries concurrently through the runtime, with faults
//! injected, and show that the replay artifact is identical at any thread
//! count.
//!
//! ```text
//! cargo run --release -p cdb-runtime --example runtime_concurrent
//! ```
//!
//! The run attaches a ring-buffer collector and writes
//! `target/obsv/metrics.prom` (Prometheus text exposition, validated
//! in-process by `cdb_obsv::validate_exposition` first) and
//! `target/obsv/trace.json` (Chrome `trace_event`, loadable in
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! It then runs the fleet twice against a shared cross-query answer
//! cache: the second pass must resolve tasks by entailment
//! (`tasks_saved > 0`) without changing a single binding.

use std::collections::HashMap;
use std::sync::Arc;

use cdb_core::model::{NodeId, PartKind};
use cdb_core::QueryGraph;
use cdb_obsv::{chrome_trace, Ring, Trace};
use cdb_runtime::{FaultPlan, QueryJob, RetryPolicy, RuntimeConfig, RuntimeExecutor};

/// A single-join query: `a_i` joins `b_j` iff `i % nb == j`.
fn join_query(id: u64, na: usize, nb: usize) -> QueryJob {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: format!("A{id}") });
    let b = g.add_part(PartKind::Table { name: format!("B{id}") });
    let an: Vec<NodeId> = (0..na).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
    let bn: Vec<NodeId> = (0..nb).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
    let p = g.add_predicate(a, b, true, "A~B");
    let mut truth = HashMap::new();
    for (i, &x) in an.iter().enumerate() {
        for (j, &y) in bn.iter().enumerate() {
            let e = g.add_edge(x, y, p, 0.5);
            truth.insert(e, i % nb == j);
        }
    }
    QueryJob { id, graph: g, truth }
}

fn config(threads: usize) -> RuntimeConfig {
    RuntimeConfig {
        threads,
        seed: 42,
        worker_accuracies: vec![0.9; 30],
        // 10% of assignments dropped / abandoned / slowed, plus one worker
        // scripted to vanish two virtual minutes in.
        fault_plan: FaultPlan::uniform(42, 0.1).drop_worker(cdb_crowd::WorkerId(3), 120_000),
        retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        ..RuntimeConfig::default()
    }
}

fn main() {
    let jobs: Vec<QueryJob> = (0..100).map(|i| join_query(i, 4, 3)).collect();

    let ring = Arc::new(Ring::with_capacity(1 << 18));
    let mut cfg = config(4);
    cfg.trace = Trace::collector(ring.clone());

    let report = RuntimeExecutor::new(cfg).run(jobs.clone());
    println!(
        "ran {} queries on 4 threads in {:?} ({} ok, {} failed)",
        report.results.len(),
        report.wall,
        report.ok_count(),
        report.failed_count(),
    );

    let m = &report.metrics;
    println!(
        "dispatched {} assignments over {} rounds; {} timeouts, {} retries, {} reassignments",
        m.tasks_dispatched, m.rounds, m.timeouts, m.retries, m.reassignments
    );
    let serial_s = report.virtual_ms_serial() as f64 / 1e3;
    println!("virtual crowd time: {serial_s:.0}s serially; the fleet overlaps it across threads");

    // Deterministic replay: the same (seed, fault plan) yields the same
    // byte-for-byte answers on one thread as on eight.
    let replay_1 = RuntimeExecutor::new(config(1)).run(jobs.clone()).answers();
    let replay_8 = RuntimeExecutor::new(config(8)).run(jobs.clone()).answers();
    assert_eq!(replay_1, replay_8, "replay must not depend on thread count");
    println!("replay check: 1-thread and 8-thread answers are byte-identical");

    println!("\nfirst three answers:");
    for line in report.answers().lines().take(3) {
        println!("  {line}");
    }
    println!("\nmetrics JSON:\n{}", m.to_json());

    let cache = Arc::new(cdb_core::ReuseCache::new());
    let with_cache = || {
        let mut cfg = config(4);
        cfg.reuse = Some(Arc::clone(&cache));
        RuntimeExecutor::new(cfg).run(jobs.clone())
    };
    let cold = with_cache();
    let warm = with_cache();
    assert!(warm.metrics.tasks_saved > 0, "warm pass must hit the answer cache");
    assert_eq!(cold.bindings_text(), warm.bindings_text(), "reuse must not change any binding");
    println!(
        "\nreuse check: warm pass saved {} tasks / {}¢ (dispatch {} -> {}), identical bindings",
        warm.metrics.tasks_saved,
        warm.metrics.money_saved_cents,
        cold.metrics.tasks_dispatched,
        warm.metrics.tasks_dispatched,
    );

    let dir = std::path::Path::new("target/obsv");
    std::fs::create_dir_all(dir).expect("create target/obsv");
    let prom = m.to_prometheus();
    cdb_obsv::validate_exposition(&prom).expect("prometheus exposition must validate");
    std::fs::write(dir.join("metrics.prom"), &prom).expect("write metrics.prom");
    let events = ring.drain();
    let trace = chrome_trace(&events);
    let parsed = cdb_obsv::json::parse(&trace).expect("the Chrome trace must be valid JSON");
    let traced = parsed.get("traceEvents").and_then(|t| t.as_arr()).expect("a traceEvents array");
    assert!(!traced.is_empty(), "the Chrome trace must not be empty");
    std::fs::write(dir.join("trace.json"), trace).expect("write trace.json");
    println!(
        "\ntrace: {} events captured ({} dropped) -> target/obsv/{{metrics.prom,trace.json}}",
        events.len(),
        ring.dropped()
    );
}
