//! The `figures` command line: a misspelt target, flag or value fails
//! before anything runs (usage on stderr, exit 2), so a typo in a CI
//! step cannot go green.

use std::process::Command;

#[test]
fn unknown_targets_flags_and_values_exit_2_with_empty_stdout() {
    for args in [&["nope"][..], &["table4", "--quik"], &["--scale", "x", "fig8"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        // Rejected before the tee re-exec: usage only, no run log.
        assert!(stderr.starts_with("usage: figures") && !stderr.contains("run log"), "{stderr}");
    }
}

#[test]
fn a_known_target_runs() {
    // A set `CDB_FIGURES_LOG` runs the target inline, without the tee
    // re-exec that would write `target/figures/table4.log`.
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--seed", "7", "table4"])
        .env("CDB_FIGURES_LOG", "")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# Table 4"));
}
