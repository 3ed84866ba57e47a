//! The benchmark's vocabulary: workload names, metric names and units.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! drift test in this module fails when the two disagree in either
//! direction. Everything the binary prints is iterated from these tables,
//! so a name cannot be printed without being declared here.

/// Run length `BENCHMARK.json` declares. Operation counts are sized for
/// this many seconds; `--seconds S` scales them by `S / RUN_SECONDS`.
pub const RUN_SECONDS: u64 = 30;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wire_small",
        "12-row example join over HTTP: the query is ~0.3 ms, so parse, codec, admission, locks and sockets are the wait; join, selection and store changes must show no change",
    ),
    (
        "join_heavy",
        "paper+movie 2J/2J1S at 1/10 scale over HTTP: the similarity join on the connection thread is most of every query, so join and index work shows here",
    ),
    (
        "select_heavy",
        "award/movie/paper 3J at 1/10 scale over HTTP: task selection is the top phase with the most tasks, rounds and NDJSON volume; selection work shows here",
    ),
    (
        "fleet_durable",
        "no HTTP: award fleets through ShardExecutor with reuse+settle on one WAL, cold then warm after reopen; covers shard, runtime and store, graph build is in set-up",
    ),
];

/// End-to-end metrics: `(name, unit)`. Every workload prints all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("warm_throughput_qps", "1/s"),
    ("done_ms_p50", "ms"),
    ("restart_ms", "ms"),
    ("tasks_per_query", "count"),
    ("rounds_per_query", "count"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the crate they measure.
/// A metric a workload cannot exercise is printed as 0.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("cql.parse_us", "us"),
    ("cql.analyze_us", "us"),
    ("similarity.join_ms", "ms"),
    ("similarity.pairs_per_query", "count"),
    ("similarity.join_allocs", "count"),
    ("core.build_ms", "ms"),
    ("core.build_self_ms", "ms"),
    ("core.prune_ms", "ms"),
    ("core.graph_edges", "count"),
    ("core.truth_us", "us"),
    ("core.estimate_us", "us"),
    ("core.build_allocs", "count"),
    ("core.select_ms", "ms"),
    ("core.select_candidates_ms", "ms"),
    ("core.select_expectation_ms", "ms"),
    ("core.select_calls", "count"),
    ("graph.entail_resolve_ms", "ms"),
    ("graph.components_per_query", "count"),
    ("crowd.dispatch_ms", "ms"),
    ("crowd.assignments_per_query", "count"),
    ("crowd.tasks_per_round", "count"),
    ("quality.infer_ms", "ms"),
    ("quality.retracted_bindings", "count"),
    ("runtime.execute_ms", "ms"),
    ("runtime.self_ms", "ms"),
    ("runtime.retries", "count"),
    ("runtime.allocs_per_query", "count"),
    ("runtime.tasks_saved_share", "ratio"),
    ("runtime.warm_tasks_saved_share", "ratio"),
    ("sched.offer_us", "us"),
    ("sched.queued_share", "ratio"),
    ("sched.rejected_share", "ratio"),
    ("sched.hold_over_spend", "ratio"),
    ("shard.partition_ms", "ms"),
    ("shard.units_per_query", "count"),
    ("shard.peak_shard_bytes", "bytes"),
    ("shard.pass_ms_p50", "ms"),
    ("store.settle_ms_p50", "ms"),
    ("store.fsyncs_per_query", "count"),
    ("store.warm_fsyncs_per_query", "count"),
    ("store.wal_bytes_per_fact", "bytes"),
    ("store.recover_ms", "ms"),
    ("store.recovered_facts", "count"),
    ("store.replay_facts_per_s", "1/s"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.first_binding_ms_p50", "ms"),
    ("serve.healthz_us_p50", "us"),
    ("serve.submit_decode_us", "us"),
    ("serve.event_encode_us", "us"),
    ("serve.stream_bytes_per_query", "bytes"),
    ("serve.peak_inflight", "count"),
    ("serve.residual_ms", "ms"),
    ("loadgen.samples", "count"),
    ("loadgen.done_ms_p90", "ms"),
    ("loadgen.done_ms_p99", "ms"),
    ("loadgen.warm_done_ms_p50", "ms"),
    ("loadgen.paced_done_ms_p50", "ms"),
    ("loadgen.paced_ms_p95_at_200", "ms"),
    ("loadgen.paced_ms_p95_at_400", "ms"),
    ("loadgen.paced_ms_p95_at_800", "ms"),
    ("loadgen.paced_late_ms_p99", "ms"),
    ("loadgen.rate_ok_qps", "1/s"),
    ("trace.replayed_queries", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// One run's metric values, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(std::collections::BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under a declared name. Panics on an undeclared name:
    /// that is a bug in the benchmark, and the `--quick` smoke test trips it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "metric `{name}` is not declared in spec.rs"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, or 0 for a metric this workload does not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_obsv::json::{parse, Json};
    use std::collections::BTreeSet;

    fn declared(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), if key == "workloads" { s("why") } else { s("unit") })
            })
            .collect()
    }

    fn as_set(pairs: &[(&str, &str)]) -> BTreeSet<(String, String)> {
        pairs.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect()
    }

    #[test]
    fn names_match_benchmark_json_both_ways() {
        let j = parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let (w, e, l) =
            (declared(&j, "workloads"), declared(&j, "end_to_end"), declared(&j, "per_layer"));
        assert!(w.len() <= 8 && e.len() <= 16 && l.len() <= 128);
        assert_eq!(w.iter().cloned().collect::<BTreeSet<_>>(), as_set(&WORKLOADS));
        assert_eq!(e.iter().cloned().collect::<BTreeSet<_>>(), as_set(&END_TO_END));
        assert_eq!(l.iter().cloned().collect::<BTreeSet<_>>(), as_set(&PER_LAYER));
        assert_eq!(j.get("run_seconds").and_then(Json::as_num), Some(RUN_SECONDS as f64));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && ok(name, "_.-"), "bad metric name {name}");
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate name {name}");
        }
        for (name, why) in WORKLOADS {
            assert!(ok(name, "_.-") && seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name} too long");
        }
    }
}
