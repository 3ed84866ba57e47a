//! Observability integration: the event stream a traced run emits must
//! (a) *conserve* — per-span attribution rolls up to exactly the same
//! totals as the runtime's aggregate counters, (b) be *deterministic* —
//! canonically sorted, the stream is byte-identical at any thread count,
//! and (c) *expose* cleanly — Chrome trace JSON and Prometheus text both
//! parse.

use std::collections::HashMap;
use std::sync::Arc;

use cdb_core::model::{NodeId, PartKind};
use cdb_core::QueryGraph;
use cdb_obsv::event::canonical_sort;
use cdb_obsv::{chrome_trace, Attribution, Event, Ring, Trace};
use cdb_runtime::{
    FaultPlan, MetricsSnapshot, QueryJob, RetryPolicy, RuntimeConfig, RuntimeExecutor,
};
use proptest::prelude::*;

/// A single-join query graph: `a_i` joins `b_j` iff `i % nb == j`.
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

/// Run a small fleet with a ring-buffer collector attached and hand back
/// the drained event stream alongside the frozen aggregate counters.
fn run_traced(threads: usize, seed: u64, fault_rate: f64) -> (Vec<Event>, MetricsSnapshot) {
    let ring = Arc::new(Ring::with_capacity(1 << 16));
    let cfg = RuntimeConfig {
        threads,
        seed,
        worker_accuracies: vec![0.9; 25],
        fault_plan: FaultPlan::uniform(seed ^ 0xF00D, fault_rate),
        retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        trace: Trace::collector(ring.clone()),
        ..RuntimeConfig::default()
    };
    let jobs: Vec<QueryJob> = (0..6).map(|i| join_query(i, 4, 3)).collect();
    let report = RuntimeExecutor::new(cfg).run(jobs);
    assert_eq!(ring.dropped(), 0, "ring too small for the test fleet");
    (ring.drain(), report.metrics)
}

/// Sorted canonical rendering — the replay artifact for the event stream.
fn canonical_transcript(mut events: Vec<Event>) -> String {
    canonical_sort(&mut events);
    let mut s = String::new();
    for ev in &events {
        s.push_str(&ev.canonical_line());
        s.push('\n');
    }
    s
}

/// Every cent, retry, round and millisecond the aggregate counters saw
/// must be recoverable from the event stream — nothing double-counted,
/// nothing lost.
#[test]
fn attribution_conserves_the_aggregate_counters() {
    let (events, snap) = run_traced(4, 99, 0.12);
    let attr = Attribution::from_events(&events);
    let t = attr.conservation();
    assert_eq!(t.dispatched, snap.tasks_dispatched);
    assert_eq!(t.retries, snap.retries);
    assert_eq!(t.reassignments, snap.reassignments);
    assert_eq!(t.timeouts, snap.timeouts);
    assert_eq!(t.faults, snap.dropouts + snap.abandons + snap.slowdowns);
    assert_eq!(t.rounds, snap.rounds);
    assert_eq!(t.queries, snap.queries_ok + snap.queries_failed);
    assert_eq!(t.queries_ok, snap.queries_ok);
    assert_eq!(t.virtual_ms, snap.virtual_ms_total);
    assert_eq!(t.cost_cents, snap.cost_cents);
    // And the rollup is real: every query attributed, money on plan nodes.
    assert_eq!(attr.queries.len(), 6);
    let attributed_cents: u64 =
        attr.queries.values().flat_map(|q| q.per_node.values()).map(|n| n.cost_cents).sum();
    assert_eq!(attributed_cents, snap.cost_cents);
}

/// With answer reuse enabled, the conservation law extends to the saved
/// counters: `reuse.hit` events must roll up to exactly the aggregate
/// `tasks_saved` / `money_saved_cents`, at every thread count.
#[test]
fn saved_cost_conserves_with_reuse_enabled_at_1_4_and_8_threads() {
    use cdb_core::ReuseCache;

    for &threads in &[1usize, 4, 8] {
        let cache = Arc::new(ReuseCache::new());
        let run = |ring: &Arc<Ring>| {
            let cfg = RuntimeConfig {
                threads,
                seed: 23,
                worker_accuracies: vec![0.9; 25],
                retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
                trace: Trace::collector(ring.clone()),
                reuse: Some(Arc::clone(&cache)),
                ..RuntimeConfig::default()
            };
            let jobs: Vec<QueryJob> = (0..6).map(|i| join_query(i, 4, 3)).collect();
            RuntimeExecutor::new(cfg).run(jobs)
        };
        // Two passes over one ring: pass one warms the cache, pass two
        // reuses; both passes' events conserve against the summed metrics.
        let ring = Arc::new(Ring::with_capacity(1 << 16));
        let first = run(&ring);
        let second = run(&ring);
        assert_eq!(ring.dropped(), 0);
        let t = Attribution::from_events(&ring.drain()).conservation();
        assert!(second.metrics.tasks_saved > 0, "warm pass must hit the cache");
        assert_eq!(t.tasks_saved, first.metrics.tasks_saved + second.metrics.tasks_saved);
        assert_eq!(
            t.money_saved_cents,
            first.metrics.money_saved_cents + second.metrics.money_saved_cents
        );
        assert_eq!(t.dispatched, first.metrics.tasks_dispatched + second.metrics.tasks_dispatched);
        assert_eq!(t.cost_cents, first.metrics.cost_cents + second.metrics.cost_cents);
    }
}

#[test]
fn fault_free_run_attributes_zero_faults() {
    let (events, snap) = run_traced(2, 7, 0.0);
    let t = Attribution::from_events(&events).conservation();
    assert_eq!(t.faults, 0);
    assert_eq!(t.retries, snap.retries);
    assert_eq!(snap.queries_failed, 0);
    assert_eq!(t.queries_ok, 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// The canonical event transcript is a pure function of
    /// `(seed, fault_plan)` — thread count must not leak into it.
    #[test]
    fn span_streams_are_byte_identical_at_1_4_and_8_threads(
        seed in 0u64..10_000,
        fault_rate in 0.0f64..0.25,
    ) {
        let (e1, s1) = run_traced(1, seed, fault_rate);
        let (e4, s4) = run_traced(4, seed, fault_rate);
        let (e8, s8) = run_traced(8, seed, fault_rate);
        let one = canonical_transcript(e1);
        prop_assert!(!one.is_empty());
        prop_assert_eq!(&one, &canonical_transcript(e4));
        prop_assert_eq!(&one, &canonical_transcript(e8));
        // The counters the streams fold into agree too.
        prop_assert_eq!(&s1, &s4);
        prop_assert_eq!(&s1, &s8);
    }
}

#[test]
fn chrome_trace_and_prometheus_expositions_are_wellformed() {
    let (events, snap) = run_traced(2, 41, 0.1);
    let trace = chrome_trace(&events);
    cdb_obsv::json::parse(&trace).expect("chrome trace parses as JSON");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":"));
    let prom = snap.to_prometheus();
    cdb_obsv::validate_exposition(&prom).expect("prometheus exposition valid");
    let json = Attribution::from_events(&events).to_json();
    cdb_obsv::json::parse(&json).expect("attribution parses as JSON");
}
