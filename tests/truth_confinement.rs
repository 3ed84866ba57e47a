//! Only the crowd knows the truth.
//!
//! The optimizer decides from similarity-derived probabilities and crowd
//! answers alone, and every figure assumes it never reads ground truth.
//! This test scans the code that plans and executes queries — `cdb-core`,
//! `cdb-baselines`, the runtime's query executor and the server's state —
//! and allows the answer key (the `EdgeTruth` or `QueryTruth` types, a
//! `truth[` index or an `.edge_truth(` projection) only inside the items
//! named in [`ALLOWED`], each with its reason.
//!
//! Out of scope: FILL's latent values (`Cdb::run_fill`'s `ground_truth`)
//! and the `GROUP BY`/`ORDER BY CROWD` post-op truths
//! (`ops::crowd_group`/`ops::crowd_sort`). They are harness inputs for
//! operators outside the graph, which the optimizer does not plan.
//!
//! Imports are not checked (a `use` reads nothing), nor are comments or
//! test modules (each file is cut at its first `#[cfg(test)]`).

use std::path::{Path, PathBuf};

/// Code that must not read the answer key outside [`ALLOWED`].
const SCANNED: [&str; 4] = [
    "crates/core/src",
    "crates/baselines/src",
    "crates/runtime/src/executor.rs",
    "crates/serve/src/state.rs",
];

/// What reading the answer key looks like.
const TOKENS: [&str; 4] = ["EdgeTruth", "QueryTruth", "truth[", ".edge_truth("];

/// `(file, item, why)`: the items allowed to name the answer key. An item
/// is the nearest enclosing `fn`, `struct`, `type`, … by name; `*` allows
/// the whole file.
const ALLOWED: [(&str, &str, &str); 7] = [
    (
        "crates/core/src/truth.rs",
        "*",
        "the crowd module: the key, its projection, the simulated crowd and the F1 reference",
    ),
    ("crates/core/src/cdb.rs", "run_select", "the façade binds its crowd and scores F1"),
    ("crates/baselines/src/tree.rs", "opt_tree_order", "declared oracle: a perfect-worker crowd"),
    ("crates/runtime/src/executor.rs", "QueryJob", "the job carries its engine's answer key"),
    ("crates/serve/src/state.rs", "ServerState", "the server holds the crowd's data-level key"),
    ("crates/serve/src/state.rs", "new", "`ServerState::new` takes that key"),
    ("crates/serve/src/state.rs", "worker_loop", "the worker projects the key at dispatch"),
];

const ITEM_KEYWORDS: [&str; 11] =
    ["fn", "struct", "enum", "type", "trait", "mod", "use", "impl", "const", "static", "union"];

/// The item a line declares, if any: `Some("use")` for an import,
/// `Some(name)` for a named item, `Some("impl")` for an impl block.
fn declared_item(line: &str) -> Option<String> {
    let mut words = line.split_whitespace().peekable();
    while let Some(&w) = words.peek() {
        if w == "pub" || w.starts_with("pub(") || w == "async" || w == "unsafe" || w == "extern" {
            words.next();
        } else {
            break;
        }
    }
    let keyword = words.next()?;
    if !ITEM_KEYWORDS.contains(&keyword) {
        return None;
    }
    if keyword == "use" || keyword == "impl" {
        return Some(keyword.to_string());
    }
    let name: String =
        words.next()?.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    Some(name)
}

/// Every `.rs` file under `path` (or `path` itself).
fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(path).expect("scanned path exists").map(|e| e.unwrap().path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() || p.extension().is_some_and(|x| x == "rs") {
            rust_files(&p, out);
        }
    }
}

/// `(file, item, line number, line)` of every read of the key in the
/// non-test, non-comment, non-import code of `files`.
fn key_reads(root: &Path, files: &[PathBuf]) -> Vec<(String, String, usize, String)> {
    let mut hits = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        let text = std::fs::read_to_string(path).unwrap();
        let mut item = String::new();
        for (i, line) in text.lines().enumerate() {
            let code = line.trim();
            if code.starts_with("#[cfg(test)]") {
                break;
            }
            if code.starts_with("//") {
                continue;
            }
            if let Some(declared) = declared_item(code) {
                item = declared;
            }
            if item != "use" && TOKENS.iter().any(|t| code.contains(t)) {
                hits.push((rel.clone(), item.clone(), i + 1, code.to_string()));
            }
        }
    }
    hits
}

#[test]
fn only_the_crowd_and_declared_oracles_read_the_answer_key() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for p in SCANNED {
        rust_files(&root.join(p), &mut files);
    }
    assert!(files.len() > 20, "scanned only {} files", files.len());
    let hits = key_reads(root, &files);

    let allowed = |file: &str, item: &str| {
        ALLOWED.iter().any(|&(f, i, _)| f == file && (i == "*" || i == item))
    };
    let stray: Vec<String> = hits
        .iter()
        .filter(|(file, item, ..)| !allowed(file, item))
        .map(|(file, item, n, line)| format!("{file}:{n} (in `{item}`): {line}"))
        .collect();
    assert!(
        stray.is_empty(),
        "ground truth read outside the crowd and the declared oracles:\n{}",
        stray.join("\n")
    );

    // Every allowance is still needed, so the list stays as short as the
    // code it excuses.
    for (file, item, why) in ALLOWED {
        assert!(
            hits.iter().any(|(f, i, ..)| f == file && (item == "*" || i == item)),
            "stale allowance {file} `{item}` ({why})"
        );
    }
}
