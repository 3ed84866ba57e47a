//! Deterministic replay: a `(seed, fault_plan)` pair must produce
//! byte-identical query answers regardless of thread count.

use std::collections::HashMap;

use cdb_core::model::{NodeId, PartKind};
use cdb_core::QueryGraph;
use cdb_runtime::{FaultPlan, QueryJob, RetryPolicy, RuntimeConfig, RuntimeExecutor};
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

fn run_with(threads: usize, seed: u64, fault_rate: f64) -> String {
    let cfg = RuntimeConfig {
        threads,
        seed,
        worker_accuracies: vec![0.9; 25],
        fault_plan: FaultPlan::uniform(seed ^ 0xF00D, fault_rate),
        retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        ..RuntimeConfig::default()
    };
    let jobs: Vec<QueryJob> = (0..6).map(|i| join_query(i, 4, 3)).collect();
    RuntimeExecutor::new(cfg).run(jobs).answers()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn answers_are_byte_identical_at_1_2_4_8_and_16_threads(
        seed in 0u64..10_000,
        fault_rate in 0.0f64..0.25,
    ) {
        let one = run_with(1, seed, fault_rate);
        prop_assert!(!one.is_empty());
        // 2 exercises minimal-contention stealing, 16 oversubscribes the
        // 6-query fleet so some threads must go idle and steal.
        for threads in [2usize, 4, 8, 16] {
            prop_assert_eq!(&one, &run_with(threads, seed, fault_rate), "threads={}", threads);
        }
    }
}

/// A 3-part chain `A ⋈ B ⋈ C`: the multi-join shape where expectation
/// scoring runs death cascades across the middle part. `b_j` matches
/// `a_i` iff `i % nb == j` and `c_k` iff `j % nc == k % nb`.
fn chain_query(id: u64, na: usize, nb: usize, nc: usize) -> QueryJob {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: format!("A{id}") });
    let b = g.add_part(PartKind::Table { name: format!("B{id}") });
    let c = g.add_part(PartKind::Table { name: format!("C{id}") });
    let an: Vec<NodeId> = (0..na).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
    let bn: Vec<NodeId> = (0..nb).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
    let cn: Vec<NodeId> = (0..nc).map(|i| g.add_node(c, None, format!("c{i}"))).collect();
    let pab = g.add_predicate(a, b, true, "A~B");
    let pbc = g.add_predicate(b, c, true, "B~C");
    let mut truth = HashMap::new();
    for (i, &x) in an.iter().enumerate() {
        for (j, &y) in bn.iter().enumerate() {
            let e = g.add_edge(x, y, pab, 0.6);
            truth.insert(e, i % nb == j);
        }
    }
    for (j, &y) in bn.iter().enumerate() {
        for (k, &z) in cn.iter().enumerate() {
            let e = g.add_edge(y, z, pbc, 0.4);
            truth.insert(e, j % nc == k % nb);
        }
    }
    QueryJob { id, graph: g, truth }
}

#[test]
fn multi_join_answers_are_byte_identical_at_1_4_and_8_threads() {
    // The expectation optimizer (the default selection strategy) carries
    // incremental state across rounds inside each query's executor; the
    // answer transcript must not depend on how queries interleave across
    // threads.
    let run = |threads: usize| {
        let cfg = RuntimeConfig {
            threads,
            seed: 42,
            worker_accuracies: vec![0.9; 25],
            fault_plan: FaultPlan::uniform(42 ^ 0xF00D, 0.1),
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
            ..RuntimeConfig::default()
        };
        let jobs: Vec<QueryJob> = (0..6).map(|i| chain_query(i, 3, 3, 2)).collect();
        let report = RuntimeExecutor::new(cfg).run(jobs);
        let slowest = report.results.iter().filter_map(|(_, r)| Some(r.as_ref().ok()?.virtual_ms));
        assert!(Some(report.virtual_ms_serial()) > slowest.max(), "more than one query ran");
        report.answers()
    };
    let reference = run(1);
    assert!(reference.contains("q0") && reference.contains("q5"));
    assert_eq!(reference, run(4));
    assert_eq!(reference, run(8));
}

#[test]
fn replay_is_stable_under_forced_dropouts_too() {
    let run = |threads: usize| {
        let cfg = RuntimeConfig {
            threads,
            seed: 77,
            worker_accuracies: vec![0.95; 20],
            fault_plan: FaultPlan::uniform(3, 0.1)
                .drop_worker(cdb_crowd::WorkerId(0), 0)
                .drop_worker(cdb_crowd::WorkerId(5), 90_000),
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
            ..RuntimeConfig::default()
        };
        let jobs: Vec<QueryJob> = (0..8).map(|i| join_query(i, 5, 2)).collect();
        RuntimeExecutor::new(cfg).run(jobs).answers()
    };
    let reference = run(1);
    assert!(reference.contains("q0") && reference.contains("q7"));
    assert_eq!(reference, run(4));
    assert_eq!(reference, run(8));
}

#[test]
fn different_seeds_give_different_transcripts() {
    // Sanity check that the replay artifact actually depends on the seed
    // (otherwise the byte-identity assertions above would be vacuous).
    let a = run_with(2, 1, 0.15);
    let b = run_with(2, 2, 0.15);
    assert_ne!(a, b);
}
