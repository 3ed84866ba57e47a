//! CDB+ (EM worker quality, Bayesian voting and online task assignment) is
//! a pure function of its inputs inside one process, not only across
//! processes: EM sums each worker's evidence in edge-id order, so two runs
//! of one query on one graph report bit-equal worker qualities. Summed in
//! hash order instead, a rerun's qualities differ in their last bits.

use std::collections::BTreeSet;

use cdb_core::{
    analyze_sql, build_query_graph, Executor, ExecutorConfig, GraphBuildConfig, NodeId,
    QualityStrategy, QueryGraph, SimCrowd,
};
use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};
use cdb_datagen::{paper_dataset, queries_for, DatasetScale};

/// Everything a run reports that must replay: the worker qualities as
/// bits, the answer bindings, and the tasks, rounds and assignments.
type Run = (Vec<(u32, u64)>, BTreeSet<Vec<NodeId>>, [usize; 3]);

fn run(g: &QueryGraph, truth: &cdb_core::EdgeTruth) -> Run {
    // 30 workers, accuracies 0.55 to 0.95: EM has weak and strong workers
    // to tell apart.
    let accuracies: Vec<f64> = (0..30).map(|i| 0.55 + 0.4 * f64::from(i % 10) / 9.0).collect();
    let mut platform =
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&accuracies), 17);
    let cfg = ExecutorConfig {
        quality: QualityStrategy::EmBayes,
        use_task_assignment: true,
        ..ExecutorConfig::default()
    };
    let stats = Executor::new(g.clone(), &mut SimCrowd::new(&mut platform, truth), cfg).run();
    let mut qualities: Vec<(u32, u64)> =
        stats.worker_qualities.iter().map(|(w, q)| (w.0, q.to_bits())).collect();
    qualities.sort_unstable();
    let counts = [stats.tasks_asked, stats.rounds, stats.assignments];
    (qualities, stats.answer_bindings(), counts)
}

#[test]
fn cdb_plus_replays_bit_for_bit_within_one_process() {
    let ds = paper_dataset(DatasetScale::paper_full().scaled(20), 7);
    let sql = &queries_for("paper").into_iter().find(|q| q.label == "2J").expect("2J").cql;
    let analyzed = analyze_sql(&ds.db, sql).expect("table-4 query");
    let g = build_query_graph(&analyzed, &ds.db, &GraphBuildConfig::default());
    let truth = ds.truth.edge_truth(&g);
    let first = run(&g, &truth);
    assert!(!first.0.is_empty(), "EM estimated no worker");
    assert!(first.2[0] > 0, "the query asked no task");
    assert_eq!(run(&g, &truth), first);
}
