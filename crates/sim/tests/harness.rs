//! End-to-end tests of the simulation harness itself: clean soaks pass,
//! seeds are byte-reproducible, and armed sabotage is caught, shrunk,
//! and replayable from the repro text alone.

use cdb_sim::{run_seed, soak, Sabotage, ScenarioSpec};

/// A short clean soak: no invariant may fire without sabotage.
#[test]
fn clean_soak_passes() {
    let report = soak(0xC0FFEE, 12, Sabotage::None, |_| {});
    assert_eq!(report.scenarios, 12);
    if let Some(f) = report.failures.first() {
        panic!("seed {} violated: {:?}", f.seed, f.violations);
    }
}

/// Re-running one seed reproduces the identical scenario byte-for-byte.
#[test]
fn single_seed_is_byte_reproducible() {
    for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
        let a = ScenarioSpec::from_seed(seed);
        let b = ScenarioSpec::from_seed(seed);
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
    }
}

/// Deterministically find a seed whose scenario makes `want` applicable.
fn seed_where(start: u64, want: impl Fn(&ScenarioSpec) -> bool) -> u64 {
    (start..start + 500)
        .find(|&s| want(&ScenarioSpec::from_seed(s)))
        .expect("no applicable seed in 500 tries")
}

/// Check that `sabotage` on an applicable seed is (1) caught, (2) shrunk
/// to a still-failing smaller spec, and (3) that the written repro file
/// replays to the same violation with no other context.
fn sabotage_is_caught(sabotage: Sabotage, applicable: impl Fn(&ScenarioSpec) -> bool) {
    let seed = seed_where(100, applicable);
    let outcome = run_seed(seed, sabotage);
    assert!(!outcome.violations.is_empty(), "sabotage {sabotage:?} went undetected on seed {seed}");
    let shrunk = outcome.shrunk.expect("violations imply a shrunk repro");
    assert!(
        shrunk.spec.queries.len() <= outcome.spec.queries.len(),
        "shrinking must not grow the workload"
    );
    let replayed = cdb_sim::replay_repro(&shrunk.repro).expect("repro text parses");
    assert!(!replayed.is_empty(), "replaying the repro must still violate");
    let recorded = cdb_sim::recorded_violations(&shrunk.repro);
    assert!(
        replayed.iter().any(|v| recorded.contains(&v.invariant)),
        "replay must reproduce a recorded invariant; recorded={recorded:?} replayed={replayed:?}"
    );
}

/// A dropped answer binding diverges from the oracle (and, under perfect
/// workers, from ground truth).
#[test]
fn flipped_binding_is_caught_and_shrunk() {
    // Applicable whenever some query completes; perfect + no faults makes
    // that certain.
    sabotage_is_caught(Sabotage::FlipBinding, |s| {
        s.perfect && s.fault_rate == 0.0 && !s.queries.is_empty()
    });
}

/// A flipped entailment color contradicts the recorded crowd decision.
#[test]
fn flipped_entailment_is_caught_and_shrunk() {
    // Needs the reuse cache populated: reuse on, and a completed query.
    sabotage_is_caught(Sabotage::FlipEntailment, |s| {
        s.reuse && s.perfect && s.fault_rate == 0.0 && !s.queries.is_empty()
    });
}

/// A leaked task count breaks event/counter conservation.
#[test]
fn leaked_task_is_caught_and_shrunk() {
    sabotage_is_caught(Sabotage::LeakTask, |s| !s.queries.is_empty());
}

/// A corrupted answer-log tail loses settled answers across the
/// simulated crash — the kill-and-recover differential must flag the
/// loss and the broken money conservation.
#[test]
fn torn_log_tail_is_caught_and_shrunk() {
    // Needs the recovery check armed (reuse on, a crash point strictly
    // inside the fleet) and a first fleet that certainly settles answers.
    sabotage_is_caught(Sabotage::TornTail, |s| {
        s.reuse
            && s.perfect
            && s.fault_rate == 0.0
            && s.budget.is_none()
            && s.kill_after > 0
            && s.kill_after < s.queries.len()
    });
}

/// A component split across two shard units breaks partition integrity —
/// the shard verifier must reject it (a candidate would span shards and
/// vanish from the answer set).
#[test]
fn leak_cross_shard_is_caught_and_shrunk() {
    // Applicable whenever the first query's graph has a component with at
    // least two edges to split; any cluster query qualifies (left and
    // right are both >= 2 when drawn).
    sabotage_is_caught(
        Sabotage::LeakCrossShard,
        |s| matches!(s.queries.first(), Some(cdb_sim::QueryShape::Cluster { left, right }) if left * right >= 2),
    );
}
