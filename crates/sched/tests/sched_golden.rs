//! Golden schedule: admission verdicts, billed rounds, attribution and
//! the `sched.*` event stream of one fixed fleet, pinned to constants.
//!
//! `sched.rs` compares the scheduler with *itself* (other thread counts,
//! a plain runtime run), so a change to the admit → wave → bill loop
//! that shifts every run the same way passes it. This test compares with
//! the past instead: eight queries (three joins, five selections) offered
//! to an envelope of three active / three queued — two admission waves
//! under that envelope plus two `QueueFull` rejections — hashing the
//! report's `decisions`, `rounds`, `completion_round`, `attributed_cents`,
//! `platform_cents`, `total_hits`, `solo_hits` and `bindings_text()`
//! followed by every `sched.*` event the run emitted, in emission order,
//! as its `canonical_line()`.
//!
//! **Where the constants come from.** They were produced by running this
//! file, unchanged, on commit `30d48e0` — the last commit on which
//! `Scheduler::run` held the loop inline over a `RuntimeExecutor` backed
//! by the work-stealing pool, *before* the loop moved into `run_waves` and
//! the executor onto the shared unit runner. Passing here therefore means
//! the generalised loop admits, interleaves, packs and bills exactly as
//! the inline one did, down to every event's kv. A later change that
//! moves these numbers on purpose (a new event, a different packing rule)
//! should say so and replace the constants with the `left` values the
//! failed assertions print; one that moves them by accident has changed
//! what a bill means.

use std::sync::Arc;

use cdb_core::executor::EdgeTruth;
use cdb_core::model::{NodeId, PartKind, QueryGraph};
use cdb_obsv::{Ring, Trace};
use cdb_runtime::{QueryJob, RetryPolicy, RuntimeConfig};
use cdb_sched::{AdmissionDecision, DrrConfig, Envelope, SchedConfig, SchedJob, Scheduler};

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

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(waves, event count, FNV-1a of the report fields + every event line)`.
fn replay() -> (usize, usize, u64) {
    let ring = Arc::new(Ring::with_capacity(1 << 12));
    let cfg = SchedConfig {
        runtime: RuntimeConfig {
            threads: 3,
            seed: 20_260_921,
            worker_accuracies: vec![0.9; 25],
            retry: RetryPolicy { deadline_ms: 200_000, max_retries: 8 },
            ..RuntimeConfig::default()
        },
        envelope: Envelope { budget_cents: u64::MAX, max_active: 3, queue_capacity: 3 },
        drr: DrrConfig { quantum: 7, capacity: Some(24) },
        trace: Trace::collector(ring.clone()),
        ..SchedConfig::default()
    };
    // Arrival order is deliberately not id order.
    let subs: Vec<SchedJob> = vec![
        SchedJob::unconstrained(join_job(5, 9, 6)),
        SchedJob::unconstrained(select_job(2, 7)),
        SchedJob::unconstrained(join_job(7, 6, 5)),
        SchedJob::unconstrained(select_job(0, 13)),
        SchedJob::unconstrained(select_job(6, 4)),
        SchedJob::unconstrained(join_job(1, 8, 3)),
        SchedJob::unconstrained(select_job(3, 9)),
        SchedJob::unconstrained(select_job(4, 5)),
    ];
    let report = Scheduler::new(cfg).run(subs);
    let bill = &report.billing;
    let rejected =
        bill.decisions.iter().filter(|(_, d)| matches!(d, AdmissionDecision::Rejected(_))).count();
    assert_eq!(rejected, 2, "the golden envelope must reject");
    assert!(report.results.iter().all(|(_, r)| r.is_ok()), "a golden query must not fail");
    assert_eq!(ring.dropped(), 0, "ring too small for the golden fleet");
    let events = ring.drain();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let fields = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{} {} {}\n{}",
        bill.decisions,
        bill.rounds,
        bill.completion_round,
        bill.attributed_cents,
        bill.platform_cents,
        bill.total_hits,
        bill.solo_hits,
        report.bindings_text()
    );
    fnv1a(&mut hash, fields.as_bytes());
    for ev in &events {
        assert!(ev.name.starts_with("sched."), "unexpected event {}", ev.name);
        fnv1a(&mut hash, ev.canonical_line().as_bytes());
        fnv1a(&mut hash, b"\n");
    }
    (bill.waves, events.len(), hash)
}

#[test]
fn batching_on() {
    assert_eq!(replay(), (2, 44, 13_291_479_667_820_322_146));
}
