//! Golden replay: the engine's answers and its whole event stream, pinned
//! to constants.
//!
//! `determinism.rs` and the sim oracle compare the engine with *itself*
//! (other thread counts, `execute_query` called sequentially), so a change
//! to the round loop that shifts every run the same way passes them. This
//! test compares with the past instead: six ≈ 600–750-edge joins on one
//! thread under four configurations, hashing `RuntimeReport::answers()`
//! followed by every event the run emitted, in emission order, as its
//! `canonical_line()`.
//!
//! **Where the constants come from.** They were produced by running this
//! file, unchanged, on commit `c116ccd` (PR 14) — the last commit whose
//! `OpenRound` was a `Vec` that `collect_arrived` / `take_overdue` /
//! `next_event_after` each scanned in full, and whose early termination
//! re-tallied every collected vote at every instant — *before* the event
//! queue and the carried tally replaced them. Passing here therefore means
//! the queue pops the same assignments in the same order at the same
//! virtual instants as the scans did, down to every `DECIDE` / `CANCEL`
//! kv. A later change that moves these numbers on purpose (a new event, a
//! different RNG draw order, a changed retry rule) should say so and
//! replace the constants with the `left` values the failed assertions
//! print; one that moves them by accident has changed what a replay means.
//!
//! The two early-termination configurations still hold their `c116ccd`
//! constants. The no-fault and scripted-dropout ones were re-pinned when
//! early termination became the engine's only round behaviour: they used
//! to replay full-redundancy runs.

use std::collections::HashMap;
use std::sync::Arc;

use cdb_core::model::{NodeId, PartKind};
use cdb_core::QueryGraph;
use cdb_crowd::{Market, WorkerId};
use cdb_obsv::{Ring, Trace};
use cdb_runtime::{FaultPlan, QueryJob, RetryPolicy, RuntimeConfig, RuntimeExecutor};

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

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(event count, FNV-1a of answers() + every event line)` for one run.
fn replay(market: Market, plan: FaultPlan) -> (usize, u64) {
    let ring = Arc::new(Ring::with_capacity(1 << 17));
    let cfg = RuntimeConfig {
        threads: 1,
        seed: 42,
        market,
        worker_accuracies: vec![0.9; 25],
        fault_plan: plan,
        retry: RetryPolicy { deadline_ms: 200_000, max_retries: 8 },
        trace: Trace::collector(ring.clone()),
        ..RuntimeConfig::default()
    };
    let jobs: Vec<QueryJob> = (0..6).map(|i| join_query(i, 30, 20 + i as usize)).collect();
    let report = RuntimeExecutor::new(cfg).run(jobs);
    assert_eq!(report.failed_count(), 0, "a golden configuration must not exhaust retries");
    assert_eq!(ring.dropped(), 0, "ring too small for the golden fleet");
    let events = ring.drain();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, report.answers().as_bytes());
    for ev in &events {
        fnv1a(&mut hash, ev.canonical_line().as_bytes());
        fnv1a(&mut hash, b"\n");
    }
    (events.len(), hash)
}

#[test]
fn no_faults() {
    assert_eq!(replay(Market::Amt, FaultPlan::none()), (49_401, 9_682_055_302_733_991_194));
}

#[test]
fn ten_percent_faults_and_a_scripted_dropout() {
    let plan = FaultPlan::uniform(42, 0.1).drop_worker(WorkerId(3), 120_000);
    assert_eq!(replay(Market::Amt, plan), (53_438, 7_547_331_263_512_651_283));
}

#[test]
fn thirty_percent_faults_with_early_termination() {
    assert_eq!(
        replay(Market::Amt, FaultPlan::uniform(42, 0.3)),
        (66_576, 1_452_968_287_405_229_123)
    );
}

#[test]
fn crowdflower_ten_percent_faults_with_early_termination() {
    // No requester-side assignment: a replacement may land on a worker
    // already tried, so `(task, worker)` can tie across attempts.
    assert_eq!(
        replay(Market::CrowdFlower, FaultPlan::uniform(42, 0.1)),
        (52_701, 11_250_396_260_731_071_008)
    );
}
