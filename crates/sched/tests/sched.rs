//! End-to-end scheduler tests: fairness, determinism, shared-HIT
//! savings, backpressure and cents conservation.

use std::sync::Arc;

use cdb_core::executor::EdgeTruth;
use cdb_core::model::{NodeId, PartKind, QueryGraph};
use cdb_obsv::attr::{names, Attribution};
use cdb_obsv::{Ring, Trace};
use cdb_runtime::{QueryJob, RuntimeConfig};
use cdb_sched::{
    AdmissionDecision, DrrConfig, Envelope, RejectReason, SchedConfig, SchedJob, Scheduler,
};

/// A single-join query: `a_i` joins `b_j` iff `i % nb == j`.
fn join_job(id: u64, na: usize, nb: usize) -> QueryJob {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: format!("A{id}") });
    let b = g.add_part(PartKind::Table { name: format!("B{id}") });
    let an: Vec<NodeId> = (0..na).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
    let bn: Vec<NodeId> = (0..nb).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
    let p = g.add_predicate(a, b, true, format!("A{id}~B{id}"));
    let mut truth = EdgeTruth::new();
    for (i, &x) in an.iter().enumerate() {
        for (j, &y) in bn.iter().enumerate() {
            let e = g.add_edge(x, y, p, 0.5);
            truth.insert(e, i % nb == j);
        }
    }
    QueryJob { id, graph: g, truth }
}

/// A small crowd-selection query: `t_i CROWDEQUAL lit` true for even `i`.
fn select_job(id: u64, n: usize) -> QueryJob {
    let mut g = QueryGraph::new();
    let t = g.add_part(PartKind::Table { name: format!("T{id}") });
    let c = g.add_part(PartKind::Constant { value: format!("lit{id}") });
    let tn: Vec<NodeId> = (0..n).map(|i| g.add_node(t, None, format!("t{i}"))).collect();
    let cn = g.add_node(c, None, format!("lit{id}"));
    let p = g.add_predicate(t, c, true, format!("T{id} CROWDEQUAL lit{id}"));
    let mut truth = EdgeTruth::new();
    for (i, &x) in tn.iter().enumerate() {
        let e = g.add_edge(x, cn, p, 0.5);
        truth.insert(e, i % 2 == 0);
    }
    QueryJob { id, graph: g, truth }
}

fn perfect_runtime(threads: usize) -> RuntimeConfig {
    RuntimeConfig {
        threads,
        seed: 42,
        worker_accuracies: vec![1.0; 30],
        ..RuntimeConfig::default()
    }
}

fn submissions() -> Vec<SchedJob> {
    // One large join + 4 small selections — the fairness workload.
    let mut subs = vec![SchedJob::unconstrained(join_job(0, 12, 8))];
    for q in 1..=4 {
        subs.push(SchedJob::unconstrained(select_job(q, 4)));
    }
    subs
}

fn sched_cfg(threads: usize) -> SchedConfig {
    SchedConfig {
        runtime: perfect_runtime(threads),
        drr: DrrConfig { quantum: 10, capacity: None },
        ..SchedConfig::default()
    }
}

/// Solo round count per query: run each alone through the scheduler.
fn solo_rounds(threads: usize) -> Vec<(u64, usize)> {
    submissions()
        .into_iter()
        .map(|sub| {
            let id = sub.job.id;
            let report = Scheduler::new(sched_cfg(threads)).run(vec![sub]);
            let (_, r) = report.results.first().expect("one result");
            let rounds = r.as_ref().expect("solo run succeeds").round_tasks.len();
            (id, rounds)
        })
        .collect()
}

#[test]
fn fairness_small_queries_finish_within_k_times_solo() {
    // The regression the DRR layer exists for: admitted together with a
    // large join, each small selection must complete within k× its solo
    // round count. With quantum ≥ the selections' per-round tasks, k = 1.
    let solos = solo_rounds(4);
    let report = Scheduler::new(sched_cfg(4)).run(submissions());
    assert_eq!(report.results.len(), 5);
    let k = 1;
    for q in 1..=4u64 {
        let solo = solos.iter().find(|&&(id, _)| id == q).unwrap().1;
        let done = 1 + *report.billing.completion_round.get(&q).expect("query completed");
        assert!(
            done <= k * solo,
            "query {q} finished in {done} global rounds, solo {solo} (k = {k})"
        );
    }
    // And the join was not starved either: it completed, spread over more
    // rounds than its solo count (that is the fair-share trade).
    let join_solo = solos.iter().find(|&&(id, _)| id == 0).unwrap().1;
    let join_done = 1 + report.billing.completion_round[&0];
    assert!(join_done >= join_solo);
}

#[test]
fn scheduled_runs_replay_byte_identically_across_thread_counts() {
    let run = |threads| {
        let r = Scheduler::new(sched_cfg(threads)).run(submissions());
        let bill = &r.billing;
        (r.bindings_text(), format!("{:?}", bill.rounds), bill.platform_cents, bill.total_hits)
    };
    let base = run(1);
    assert_eq!(base, run(4));
    assert_eq!(base, run(8));
}

#[test]
fn shared_packing_bills_fewer_hits_than_solo_and_keeps_bindings() {
    let jobs: Vec<QueryJob> = submissions().into_iter().map(|s| s.job).collect();
    let plain = cdb_runtime::RuntimeExecutor::new(perfect_runtime(4)).run(jobs).bindings_text();
    let report = Scheduler::new(sched_cfg(4)).run(submissions());
    assert_eq!(report.bindings_text(), plain, "bindings must be byte-identical");
    let bill = &report.billing;
    assert!(
        bill.total_hits < bill.solo_hits,
        "shared packing must cut HITs: {} vs {} solo",
        bill.total_hits,
        bill.solo_hits
    );
    assert_eq!(bill.rounds.iter().map(|r| r.hits).sum::<usize>(), bill.total_hits);
    assert!(bill.hit_reduction() > 0.0);
}

#[test]
fn conservation_attributed_cents_equal_platform_cents() {
    let ring = Arc::new(Ring::with_capacity(1 << 16));
    let cfg = SchedConfig { trace: Trace::collector(ring.clone()), ..sched_cfg(2) };
    let report = Scheduler::new(cfg).run(submissions()).billing;
    // Report-level books.
    let attributed: u64 = report.attributed_cents.values().sum();
    assert_eq!(attributed, report.platform_cents);
    assert!(report.platform_cents > 0);
    // Event-level books: the obsv attribution rollup agrees field by field.
    let a = Attribution::from_events(&ring.drain());
    assert!(a.sched_mismatches().is_empty());
    assert_eq!(a.sched_platform_cents, report.platform_cents);
    assert_eq!(a.sched_hits, report.total_hits as u64);
    for (q, cents) in &report.attributed_cents {
        assert_eq!(a.queries[q].sched_cost_cents, *cents, "query {q}");
    }
}

#[test]
fn admission_backpressure_queues_in_waves_and_rejects_past_the_bound() {
    let ring = Arc::new(Ring::with_capacity(1 << 16));
    let cfg = SchedConfig {
        envelope: Envelope { budget_cents: u64::MAX, max_active: 2, queue_capacity: 2 },
        trace: Trace::collector(ring.clone()),
        ..sched_cfg(2)
    };
    let report = Scheduler::new(cfg).run(submissions());
    let bill = &report.billing;
    // 2 admitted, 2 queued, 1 rejected by the bounded queue.
    assert_eq!(bill.decisions[0].1, AdmissionDecision::Admitted);
    assert_eq!(bill.decisions[1].1, AdmissionDecision::Admitted);
    assert!(matches!(bill.decisions[2].1, AdmissionDecision::Queued { position: 0 }));
    assert!(matches!(bill.decisions[3].1, AdmissionDecision::Queued { position: 1 }));
    assert_eq!(
        bill.decisions[4].1,
        AdmissionDecision::Rejected(RejectReason::QueueFull { capacity: 2 })
    );
    // The queued queries ran in a second wave; the rejected one never ran.
    assert_eq!(bill.waves, 2);
    assert_eq!(report.results.len(), 4);
    assert!(report.results.iter().all(|&(id, _)| id != 4));
    let events = ring.drain();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count(names::SCHED_ADMIT), 4, "wave promotion re-emits sched.admit");
    assert_eq!(count(names::SCHED_QUEUE), 2);
    assert_eq!(count(names::SCHED_REJECT), 1);
    // Conservation holds across waves too.
    assert_eq!(bill.attributed_cents.values().sum::<u64>(), bill.platform_cents);
}

#[test]
fn infeasible_and_overbudget_queries_are_rejected_with_typed_reasons() {
    let mut subs = submissions();
    subs[1].budget_cents = 1; // cannot cover its own envelope
    let cfg = SchedConfig {
        // Join envelope: 96 unknown edges × 5 workers × 5¢ = 2400¢; cap
        // the global budget below it.
        envelope: Envelope { budget_cents: 1_000, max_active: 8, queue_capacity: 8 },
        ..sched_cfg(2)
    };
    let report = Scheduler::new(cfg).run(subs);
    let decisions = &report.billing.decisions;
    assert!(matches!(
        decisions[0].1,
        AdmissionDecision::Rejected(RejectReason::BudgetExceeded { .. })
    ));
    assert_eq!(decisions[1].1, AdmissionDecision::Rejected(RejectReason::Infeasible));
    for d in &decisions[2..] {
        assert_eq!(d.1, AdmissionDecision::Admitted);
    }
    assert_eq!(report.results.len(), 3);
}

#[test]
fn scheduled_bindings_match_a_plain_runtime_run() {
    // With a generous envelope everything admits into one wave, and the
    // scheduler's execution IS the plain runtime's — same bindings, byte
    // for byte.
    let jobs: Vec<QueryJob> = submissions().into_iter().map(|s| s.job).collect();
    let plain = cdb_runtime::RuntimeExecutor::new(perfect_runtime(4)).run(jobs).bindings_text();
    let sched = Scheduler::new(sched_cfg(4)).run(submissions()).bindings_text();
    assert_eq!(sched, plain);
}
