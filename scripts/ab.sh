#!/bin/sh
# A/B-compare the working tree with a parent revision on one workload of
# `cdb-benchmark`: build both, run `pairs` interleaved pairs on one seed,
# alternating which side goes first, and print for every end-to-end metric
# each side's median and quartiles and how many pairs the change won. Each
# metric's better direction is read from BENCHMARK.json.
#
#   sh scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=1]
#
# The parent is exported with `git archive` to $TMPDIR/cdb-ab/<sha>/src
# (TMPDIR defaults to /tmp) and built there with its own target directory,
# kept for the next call; the working tree builds into ./target. Every
# metric line of every run is kept in <that directory>/ab-<workload>-<seed>.log.
set -eu
if [ $# -lt 2 ]; then
    echo "usage: sh scripts/ab.sh <parent-rev> <workload> [pairs] [seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
base=${TMPDIR:-/tmp}/cdb-ab/$sha
if [ ! -f "$base/src/Cargo.toml" ]; then
    mkdir -p "$base/src"
    git archive "$sha" | tar -x -C "$base/src"
fi
(cd "$base/src" && cargo build --release --offline --quiet -p cdb-benchmark --target-dir "$base/target")
cargo build --release --offline --quiet -p cdb-benchmark

log=$base/ab-$workload-$seed.log
out=$base/ab-run.txt
: >"$log"
# One run of one side: its metric lines go to the log as `side pair name value`.
run() {
    if [ "$1" = parent ]; then bin=$base/target/release/cdb-benchmark; else bin=$root/target/release/cdb-benchmark; fi
    if ! "$bin" --workload "$workload" --seed "$seed" >"$out" 2>&1; then
        echo "$1 $i failed 1" >>"$log"
        tail -n 1 "$out" >&2
    fi
    awk -v side="$1" -v pair="$i" 'NF == 3 && $1 !~ /^[#{]/ { print side, pair, $1, $2 }' "$out" >>"$log"
}
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then run parent; run change; else run change; run parent; fi
    echo "pair $i of $pairs done" >&2
    i=$((i + 1))
done

echo "$workload seed $seed: parent $sha vs the working tree, $pairs pairs"
awk '
# Sort a[1..n] ascending (insertion sort: n is a few dozen).
function sort(a, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
        a[j + 1] = x
    }
}
# The p-quantile of sorted a[1..n], interpolated.
function q(a, n, p,    h, k) {
    h = 1 + p * (n - 1); k = int(h)
    return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
}
function field(line, key,    s) {
    if (!match(line, "\"" key "\": *\"[^\"]*\"")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^"[^"]*": *"/, "", s)
    sub(/"$/, "", s)
    return s
}
FNR == NR {
    if ($0 ~ /"end_to_end"/) section = 1
    else if ($0 ~ /"per_layer"/) section = 0
    if (section && (s = field($0, "name")) != "") { name = s; order[++metrics] = s }
    if (section && (s = field($0, "better")) != "") better[name] = s
    next
}
$3 == "failed" { failed[$1]++; next }
{ value[$1, $2, $3] = $4 + 0; seen[$1, $2, $3] = 1; if ($2 > last) last = $2 }
END {
    printf "%-20s %-34s %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change wins"
    for (m = 1; m <= metrics; m++) {
        name = order[m]; n = 0; wins = 0; ties = 0
        for (p = 1; p <= last; p++) {
            if (!seen["parent", p, name] || !seen["change", p, name]) continue
            a = value["parent", p, name]; b = value["change", p, name]
            pa[++n] = a; ch[n] = b
            if (better[name] == "higher" ? b > a : b < a) wins++
            if (b == a) ties++
        }
        if (n == 0) continue
        sort(pa, n); sort(ch, n)
        printf "%-20s %-34s %-34s %d of %d, %d tied (%s is better)\n", name,
            sprintf("%.4g [%.4g, %.4g]", q(pa, n, 0.5), q(pa, n, 0.25), q(pa, n, 0.75)),
            sprintf("%.4g [%.4g, %.4g]", q(ch, n, 0.5), q(ch, n, 0.25), q(ch, n, 0.75)),
            wins, n, ties, better[name]
    }
    printf "failed runs: parent %d, change %d\n", failed["parent"], failed["change"]
}' BENCHMARK.json "$log"
