#!/bin/sh
# Rust lines per crate and for the workspace: total, and non-test (files
# outside tests/, benches/, examples/, each cut at its first `#[cfg(test)]`).
# A PR's "net non-test LOC" is the last line's change from parent to change.
cd "$(dirname "$0")/.." || exit 1
find src tests examples crates vendor -name '*.rs' | sort | awk '
{
    split($0, p, "/")
    c = (p[1] == "crates" || p[1] == "vendor") ? p[1] "/" p[2] : "(root)"
    test = ($0 ~ /(^|\/)(tests|benches|examples)\//)
    while ((getline line < $0) > 0) {
        if (line ~ /^[ \t]*#\[cfg\(test\)\]/) test = 1
        total[c]++
        if (!test) code[c]++
    }
    close($0)
}
END {
    printf "%-20s %8s %9s\n", "crate", "total", "non-test"
    for (c in total) { printf "%-20s %8d %9d\n", c, total[c], code[c] | "sort"; t += total[c]; n += code[c] }
    close("sort")
    printf "%-20s %8d %9d\n", "workspace", t, n
}'
