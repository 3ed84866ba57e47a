//! Replay every committed simulation repro file.
//!
//! Each `tests/sim_repros/*.repro` is a self-contained scenario written
//! by the cdb-sim shrinker after it caught an invariant violation. The
//! committed set demonstrates the detector end to end via the harness's
//! test-only `sabotage=` corruptions — a 20,000-iteration clean soak of
//! the production path (`sabotage=none`) found no genuine violations
//! (see DESIGN.md, "Simulation testing").
//!
//! A repro regression-passes when replaying it still reports the
//! invariant recorded in its `violation=` lines. If one of these tests
//! fails, either the invariant checker lost a detection or the runtime's
//! determinism contract changed — both need a look before touching the
//! repro file.

use cdb_sim::{recorded_violations, replay_repro};

fn replay_file(name: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/sim_repros/");
    let text = std::fs::read_to_string(format!("{path}{name}")).expect("repro file readable");
    let recorded = recorded_violations(&text);
    assert!(!recorded.is_empty(), "{name}: repro file records no violation");
    let replayed = replay_repro(&text).expect("repro file parses");
    assert!(
        replayed.iter().any(|v| recorded.contains(&v.invariant)),
        "{name}: replay no longer reproduces {recorded:?}; got {replayed:?}"
    );
}

#[test]
fn flip_binding_repro_replays() {
    replay_file("flip-binding.repro");
}

#[test]
fn flip_entailment_repro_replays() {
    replay_file("flip-entailment.repro");
}

#[test]
fn leak_task_repro_replays() {
    replay_file("leak-task.repro");
}

#[test]
fn leak_cross_shard_repro_replays() {
    replay_file("leak-cross-shard.repro");
}

/// Every committed repro file is covered by a named test above — a new
/// `.repro` without a matching test is an error, not silence.
#[test]
fn all_committed_repros_are_replayed() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/sim_repros");
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .expect("sim_repros dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".repro"))
        .collect();
    found.sort();
    assert_eq!(
        found,
        vec![
            "flip-binding.repro",
            "flip-entailment.repro",
            "leak-cross-shard.repro",
            "leak-task.repro",
        ],
        "update tests/sim_repros.rs when adding or removing repro files"
    );
}
