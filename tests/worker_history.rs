//! Integration: the worker-metadata loop (§2.1). Quality estimates from
//! one query warm-start the next query's inference through
//! `WorkerHistory`, and repeat offenders can be blocklisted.

use cdb::core::executor::{EdgeTruth, Executor, ExecutorConfig, QualityStrategy};
use cdb::core::model::{PartKind, QueryGraph};
use cdb::core::SimCrowd;
use cdb::crowd::{Market, SimulatedPlatform, WorkerHistory, WorkerId, WorkerPool};

/// Single-join bipartite fixture with a truth per edge.
fn fixture(n: usize) -> (QueryGraph, EdgeTruth) {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: "A".into() });
    let b = g.add_part(PartKind::Table { name: "B".into() });
    let an: Vec<_> = (0..n).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
    let bn: Vec<_> = (0..4).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
    let p = g.add_predicate(a, b, true, "A~B");
    let mut truth = EdgeTruth::new();
    for (i, &x) in an.iter().enumerate() {
        for (j, &y) in bn.iter().enumerate() {
            let e = g.add_edge(x, y, p, 0.5);
            truth.insert(e, i % 4 == j);
        }
    }
    (g, truth)
}

fn pool() -> WorkerPool {
    // 3 experts, 5 mediocre, 2 spammers.
    let mut accs = vec![0.95; 3];
    accs.extend(vec![0.7; 5]);
    accs.extend(vec![0.4; 2]);
    WorkerPool::with_accuracies(&accs)
}

#[test]
fn qualities_flow_into_history_and_back() {
    let (g, truth) = fixture(8);
    let mut history = WorkerHistory::new();

    // Query 1: cold start.
    let mut p = SimulatedPlatform::new(Market::Amt, pool(), 1);
    let stats = Executor::new(
        g.clone(),
        &mut SimCrowd::new(&mut p, &truth),
        ExecutorConfig { quality: QualityStrategy::EmBayes, ..Default::default() },
    )
    .run();
    assert!(!stats.worker_qualities.is_empty());
    history.update(&stats.worker_qualities, &stats.worker_answer_counts);
    assert!(!history.is_empty());

    // The spammers (workers 8 and 9) should look worse than the experts.
    let expert_q = history.quality(WorkerId(0));
    let spammer_q = history.quality(WorkerId(8)).min(history.quality(WorkerId(9)));
    assert!(
        expert_q > spammer_q,
        "history should separate expert ({expert_q:.2}) from spammer ({spammer_q:.2})"
    );

    // Query 2: warm start from history.
    let mut p = SimulatedPlatform::new(Market::Amt, pool(), 2);
    let stats2 = Executor::new(
        g.clone(),
        &mut SimCrowd::new(&mut p, &truth),
        ExecutorConfig { quality: QualityStrategy::EmBayes, ..Default::default() },
    )
    .with_worker_priors(history.priors())
    .run();
    assert!(!stats2.worker_qualities.is_empty());
}

#[test]
fn majority_voting_reports_no_qualities() {
    let (g, truth) = fixture(6);
    let mut p = SimulatedPlatform::new(Market::Amt, pool(), 3);
    let stats =
        Executor::new(g, &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default()).run();
    assert!(stats.worker_qualities.is_empty());
    assert!(!stats.worker_answer_counts.is_empty());
}

#[test]
fn history_blocklist_accumulates_over_queries() {
    let (g, truth) = fixture(10);
    let mut history = WorkerHistory::new();
    for seed in 0..4u64 {
        let mut p = SimulatedPlatform::new(Market::Amt, pool(), seed);
        let stats = Executor::new(
            g.clone(),
            &mut SimCrowd::new(&mut p, &truth),
            ExecutorConfig { quality: QualityStrategy::EmBayes, ..Default::default() },
        )
        .with_worker_priors(history.priors())
        .run();
        history.update(&stats.worker_qualities, &stats.worker_answer_counts);
    }
    // Thresholds: EM shrinks estimates toward the 0.7 prior, so spammers
    // (true accuracy 0.4) land around ~0.5–0.6 while experts stay ≥ ~0.8.
    let blocked = history.blocklist(0.62);
    assert!(!blocked.contains(&WorkerId(0)), "expert 0 flagged: {blocked:?}");
    assert!(!blocked.contains(&WorkerId(1)), "expert 1 flagged: {blocked:?}");
    assert!(
        blocked.iter().any(|w| w.0 >= 8),
        "at least one spammer flagged, got {blocked:?} (history: {:?})",
        (0..10).map(|i| (i, history.quality(WorkerId(i)))).collect::<Vec<_>>()
    );
}
