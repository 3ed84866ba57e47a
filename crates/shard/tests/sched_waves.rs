//! Sharded fleets under `cdb-sched`: `Scheduler::run_waves` with a wave
//! closure around `ShardExecutor::run`, one DRR flow per execution unit.
//! Billing must conserve cents and be independent of the shard count.

use cdb_core::executor::EdgeTruth;
use cdb_core::model::PartKind;
use cdb_core::QueryGraph;
use cdb_runtime::{QueryJob, RuntimeConfig};
use cdb_sched::{BillingReport, SchedConfig, SchedJob, Scheduler};
use cdb_shard::{ShardConfig, ShardExecutor};

fn multi_component_job(id: u64, comps: usize) -> QueryJob {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: "A".into() });
    let b = g.add_part(PartKind::Table { name: "B".into() });
    let p = g.add_predicate(a, b, true, "A~B");
    let mut truth = EdgeTruth::new();
    for i in 0..comps {
        let x = g.add_node(a, None, format!("a{i}"));
        let y = g.add_node(b, None, format!("b{i}"));
        let e = g.add_edge(x, y, p, 0.5);
        truth.insert(e, i % 2 == 0);
    }
    QueryJob { id, graph: g, truth }
}

/// Schedule `queries` jobs of `comps` components each over `shards`
/// shards; returns the bill, the merged fleet metrics JSON and how many
/// queries produced a result.
fn scheduled(
    shards: usize,
    seed: u64,
    queries: u64,
    comps: usize,
) -> (BillingReport, String, usize) {
    let runtime = RuntimeConfig { threads: 1, seed, ..RuntimeConfig::default() };
    let exec =
        ShardExecutor::new(ShardConfig { shards, runtime: runtime.clone(), ..Default::default() });
    let sched = Scheduler::new(SchedConfig { runtime, ..SchedConfig::default() });
    let subs = (0..queries).map(|i| SchedJob::unconstrained(multi_component_job(i, comps)));
    let mut metrics = String::new();
    let mut results = 0;
    let bill = sched
        .run_waves(subs.collect(), |jobs| {
            let report = exec.run(jobs)?;
            metrics = report.metrics.to_json();
            results += report.results.len();
            // One flow per unit, numbered in (query, component) order.
            Ok::<_, cdb_shard::ShardError>(
                report
                    .units
                    .iter()
                    .enumerate()
                    .filter_map(|(flow, u)| {
                        Some((flow as u64, u.query, u.result.as_ref().ok()?.round_tasks.clone()))
                    })
                    .collect(),
            )
        })
        .expect("plans");
    assert_eq!(bill.waves, 1, "the default envelope admits the whole fleet at once");
    (bill, metrics, results)
}

#[test]
fn attribution_conserves_platform_cents() {
    let (bill, _, results) = scheduled(2, 11, 5, 3);
    assert_eq!(results, 5);
    let attributed: u64 = bill.attributed_cents.values().sum();
    assert_eq!(attributed, bill.platform_cents);
    assert!(bill.platform_cents > 0);
    assert!(bill.total_hits <= bill.solo_hits);
}

#[test]
fn billing_is_shard_count_invariant() {
    let (one, one_metrics, _) = scheduled(1, 5, 4, 2);
    let (four, four_metrics, _) = scheduled(4, 5, 4, 2);
    assert_eq!(one.platform_cents, four.platform_cents);
    assert_eq!(one.attributed_cents, four.attributed_cents);
    assert_eq!(one.rounds, four.rounds);
    assert_eq!(one.completion_round, four.completion_round);
    assert_eq!(one_metrics, four_metrics);
}
