//! The `figures` command line: a misspelt target, flag or value fails
//! before anything runs (usage on stderr, exit 2), so a typo in a CI
//! step cannot go green. Retired targets and flags fail the same way.

use std::process::Command;

#[test]
fn unknown_targets_flags_and_values_exit_2_with_empty_stdout() {
    for args in [
        &["nope"][..],
        &["table4", "--quik"],
        &["--scale", "x", "fig8"],
        &["--scale", "0", "fig8"],
        &["--reps", "0", "fig8"],
        &[],
        &["perf"],
        &["store"],
        &["shard"],
        &["reuse"],
        &["--seed", "42", "sched"],
        &["--quick", "table4"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.starts_with("usage: figures"), "{stderr}");
    }
}

#[test]
fn a_known_target_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--seed", "7", "table4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# Table 4"));
}
