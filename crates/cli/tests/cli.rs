//! The `cdb-cli` command line: a missing or unparseable `--addr` fails
//! before any connection (usage on stderr, exit 2).

use std::process::Command;

#[test]
fn a_malformed_addr_exits_2_with_usage() {
    for args in [&["--addr"][..], &["--addr", "bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cdb-cli")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.starts_with("usage: cdb-cli"), "{args:?}: {stderr}");
    }
}
