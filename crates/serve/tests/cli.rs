//! The `cdb-serve` command line: a malformed flag, value or dataset
//! fails before anything binds (usage on stderr, exit 2). Only failures
//! are tested — a well-formed server runs until killed.

use std::process::Command;

#[test]
fn malformed_flags_exit_2_with_usage() {
    for args in [
        &["--scale", "x"][..],
        &["--seed"],
        &["--nope"],
        &["--dataset", "nope"],
        &["--max-active", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cdb-serve")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.starts_with("usage: cdb-serve"), "{args:?}: {stderr}");
    }
}
