//! The `cdb-repl` command line: a malformed flag, value or dataset fails
//! before the shell starts (usage on stderr, exit 2). Only failures are
//! tested — a well-formed shell waits on stdin.

use std::process::Command;

#[test]
fn malformed_flags_exit_2_with_usage() {
    for args in [
        &["--scale", "x"][..],
        &["--scale", "0"],
        &["--dataset"],
        &["--dataset", "nope"],
        &["--quality"],
        &["--nope"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cdb-repl")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.starts_with("usage: cdb-repl"), "{args:?}: {stderr}");
    }
}
