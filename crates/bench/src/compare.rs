//! Noise-aware diff of two benchmark artifacts (the CI regression gate).
//!
//! `cdb-bench compare <baseline.json> <new.json>` walks both documents in
//! lockstep and classifies every disagreement:
//!
//! * **Structural** — a key, array element, string, boolean, or *count*
//!   (any number whose key has no timing suffix) differs. The perf sweep
//!   is seeded, so counts are bit-deterministic across machines; a count
//!   drift means the measured workload changed, not the machine. Exit 2.
//! * **Timing** — a number with a timing suffix (`_ms`, `_us`, `_ns`,
//!   `_s`, or a `per_s` rate) regressed past its noise threshold. Wall
//!   clocks vary across machines, so thresholds are generous ratios and
//!   tiny absolute values are ignored entirely. Exit 1 (or warn-only).
//!
//! Keys in [`SKIP_KEYS`] (`hist`, `reps`, `generated`) are excluded: the
//! merged histograms legitimately differ between a `--quick` (1-rep) run
//! and the committed multi-rep baseline, and `reps`/`generated` describe
//! the run, not the workload.
//!
//! A PR that legitimately changes phase structure (fewer cascade
//! invocations, a renamed sub-phase) would otherwise be un-landable: its
//! fresh run can never match the old committed baseline structurally.
//! `--accept-structural <phase-prefix>` is the explicit escape hatch:
//! structural diffs attributable to a profile phase whose name starts
//! with a listed prefix are downgraded to warnings, while structural
//! drift anywhere else keeps failing. Each diff carries the `phase` value
//! of its nearest enclosing object for this attribution.

use cdb_obsv::json::Json;

/// Keys excluded from comparison entirely (at any depth).
pub const SKIP_KEYS: &[&str] = &["hist", "reps", "generated"];

/// How a single disagreement is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// Shape or deterministic-count drift — always fatal.
    Structural,
    /// A timing metric regressed past its noise threshold.
    Timing,
}

/// One disagreement between baseline and new.
#[derive(Debug, Clone)]
pub struct Diff {
    /// JSON path of the disagreement (`datasets[0].queries[2].total_ms`).
    pub path: String,
    /// Classification.
    pub kind: DiffKind,
    /// Human-readable description.
    pub message: String,
    /// `phase` value of the nearest enclosing object, when inside a
    /// profile-phase row — the attribution `--accept-structural` matches.
    pub phase: Option<String>,
}

/// Timing classification of a leaf number, by its key's suffix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NumClass {
    /// Duration: regression = new much *larger* than baseline.
    Duration {
        /// Allowed `new / baseline` ratio.
        ratio: f64,
        /// Ignore when both values are below this (noise floor).
        floor: f64,
    },
    /// Rate (`*_per_s`): regression = new much *smaller* than baseline.
    Rate {
        /// Allowed `baseline / new` ratio.
        ratio: f64,
    },
    /// Everything else: exact equality required.
    Exact,
}

/// Classify a leaf key. Sub-millisecond clocks are the noisiest, so the
/// finer the unit the wider the allowed ratio and the higher the floor
/// (in that unit).
fn classify(key: &str) -> NumClass {
    if key.ends_with("per_s") {
        NumClass::Rate { ratio: 2.5 }
    } else if key.ends_with("_ms") || key == "ms" {
        NumClass::Duration { ratio: 2.5, floor: 2.0 }
    } else if key.ends_with("_us") || key == "us" {
        NumClass::Duration { ratio: 4.0, floor: 50.0 }
    } else if key.ends_with("_ns") || key == "ns" {
        NumClass::Duration { ratio: 4.0, floor: 50_000.0 }
    } else if key.ends_with("_s") || key == "s" || key.ends_with("_secs") {
        NumClass::Duration { ratio: 2.5, floor: 0.002 }
    } else {
        NumClass::Exact
    }
}

/// Compare two artifacts; returns every disagreement found.
pub fn compare(baseline: &Json, new: &Json) -> Vec<Diff> {
    let mut diffs = Vec::new();
    walk(baseline, new, "$", "", None, &mut diffs);
    diffs
}

/// Is this structural diff attributable to an accepted phase prefix?
pub fn structural_accepted(d: &Diff, accept_structural: &[String]) -> bool {
    d.kind == DiffKind::Structural
        && d.phase
            .as_deref()
            .is_some_and(|p| accept_structural.iter().any(|prefix| p.starts_with(prefix.as_str())))
}

/// The gate's exit code for a set of diffs: 2 if any structural, else 1
/// if any timing, else 0. `timing_warn_only` downgrades timing-only
/// failures to 0 (for noisy CI runners). Structural diffs whose phase
/// attribution starts with an entry of `accept_structural` are treated
/// as warnings; unattributed or unlisted structural drift stays fatal.
pub fn gate(diffs: &[Diff], timing_warn_only: bool, accept_structural: &[String]) -> i32 {
    if diffs
        .iter()
        .any(|d| d.kind == DiffKind::Structural && !structural_accepted(d, accept_structural))
    {
        2
    } else if diffs.iter().any(|d| d.kind == DiffKind::Timing) && !timing_warn_only {
        1
    } else {
        0
    }
}

/// [`gate`] without structural acceptances.
pub fn exit_code(diffs: &[Diff], timing_warn_only: bool) -> i32 {
    gate(diffs, timing_warn_only, &[])
}

/// The `phase` attribution for children of an object: its own `phase`
/// string field when present, else the inherited context.
fn phase_ctx<'a>(obj: &'a [(String, Json)], inherited: Option<&'a str>) -> Option<&'a str> {
    obj.iter()
        .find_map(|(k, v)| match v {
            Json::Str(s) if k == "phase" => Some(s.as_str()),
            _ => None,
        })
        .or(inherited)
}

fn walk(
    base: &Json,
    new: &Json,
    path: &str,
    key: &str,
    phase: Option<&str>,
    diffs: &mut Vec<Diff>,
) {
    match (base, new) {
        (Json::Obj(b), Json::Obj(n)) => {
            let ctx = phase_ctx(b, phase);
            for (k, bv) in b {
                if SKIP_KEYS.contains(&k.as_str()) {
                    continue;
                }
                let child = format!("{path}.{k}");
                match n.iter().find(|(nk, _)| nk == k) {
                    Some((_, nv)) => walk(bv, nv, &child, k, ctx, diffs),
                    None => diffs.push(Diff {
                        path: child,
                        kind: DiffKind::Structural,
                        message: "key missing in new artifact".into(),
                        phase: ctx.map(str::to_string),
                    }),
                }
            }
            for (k, _) in n {
                if SKIP_KEYS.contains(&k.as_str()) {
                    continue;
                }
                if !b.iter().any(|(bk, _)| bk == k) {
                    diffs.push(Diff {
                        path: format!("{path}.{k}"),
                        kind: DiffKind::Structural,
                        message: "key missing in baseline".into(),
                        phase: ctx.map(str::to_string),
                    });
                }
            }
        }
        (Json::Arr(b), Json::Arr(n)) => {
            // Phase tables are matched by phase name, not index: a run
            // that drops or adds a phase row then yields per-phase diffs
            // (attributable to `--accept-structural`) instead of one
            // opaque length mismatch misaligning every later row.
            if is_phase_table(b) && is_phase_table(n) {
                walk_phase_table(b, n, path, diffs);
                return;
            }
            if b.len() != n.len() {
                diffs.push(Diff {
                    path: path.to_string(),
                    kind: DiffKind::Structural,
                    message: format!("array length {} vs {}", b.len(), n.len()),
                    phase: phase.map(str::to_string),
                });
                return;
            }
            for (i, (bv, nv)) in b.iter().zip(n).enumerate() {
                // An array inherits its key's classification element-wise.
                walk(bv, nv, &format!("{path}[{i}]"), key, phase, diffs);
            }
        }
        (Json::Num(b), Json::Num(n)) => check_num(*b, *n, path, key, phase, diffs),
        _ => {
            if base != new {
                diffs.push(Diff {
                    path: path.to_string(),
                    kind: DiffKind::Structural,
                    message: format!("{base:?} vs {new:?}"),
                    phase: phase.map(str::to_string),
                });
            }
        }
    }
}

/// A non-empty array of objects that all carry a `phase` string.
fn is_phase_table(arr: &[Json]) -> bool {
    !arr.is_empty()
        && arr.iter().all(|v| match v {
            Json::Obj(kvs) => phase_ctx(kvs, None).is_some(),
            _ => false,
        })
}

fn walk_phase_table(b: &[Json], n: &[Json], path: &str, diffs: &mut Vec<Diff>) {
    let name = |v: &Json| -> String {
        match v {
            Json::Obj(kvs) => phase_ctx(kvs, None).expect("checked by is_phase_table").to_string(),
            _ => unreachable!("checked by is_phase_table"),
        }
    };
    for (i, bv) in b.iter().enumerate() {
        let p = name(bv);
        match n.iter().find(|nv| name(nv) == p) {
            Some(nv) => walk(bv, nv, &format!("{path}[{i}]"), "", None, diffs),
            None => diffs.push(Diff {
                path: format!("{path}[{i}]"),
                kind: DiffKind::Structural,
                message: format!("phase {p:?} missing in new artifact"),
                phase: Some(p),
            }),
        }
    }
    for nv in n {
        let p = name(nv);
        if !b.iter().any(|bv| name(bv) == p) {
            diffs.push(Diff {
                path: path.to_string(),
                kind: DiffKind::Structural,
                message: format!("phase {p:?} missing in baseline"),
                phase: Some(p),
            });
        }
    }
}

fn check_num(b: f64, n: f64, path: &str, key: &str, phase: Option<&str>, diffs: &mut Vec<Diff>) {
    match classify(key) {
        NumClass::Duration { ratio, floor } => {
            if b.max(n) < floor {
                return; // both under the noise floor
            }
            // Guard divide-by-zero with the floor as the effective base.
            if n > b.max(floor) * ratio {
                diffs.push(Diff {
                    path: path.to_string(),
                    kind: DiffKind::Timing,
                    message: format!("duration regressed {b:.3} -> {n:.3} (allowed {ratio}x)"),
                    phase: phase.map(str::to_string),
                });
            }
        }
        NumClass::Rate { ratio } => {
            if n > 0.0 && b / n > ratio {
                diffs.push(Diff {
                    path: path.to_string(),
                    kind: DiffKind::Timing,
                    message: format!("rate regressed {b:.1} -> {n:.1} (allowed {ratio}x)"),
                    phase: phase.map(str::to_string),
                });
            }
        }
        NumClass::Exact => {
            if b != n {
                diffs.push(Diff {
                    path: path.to_string(),
                    kind: DiffKind::Structural,
                    message: format!("deterministic count {b} vs {n}"),
                    phase: phase.map(str::to_string),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_obsv::json::parse;

    const ARTIFACT: &str = r#"{
        "bench": "perf", "scale": 10, "seed": 42, "reps": 3,
        "datasets": [
            {"dataset": "paper", "queries": [
                {"query": "3J1S", "edges": 412, "tasks": 96, "rounds": 7,
                 "total_ms": 18.400,
                 "hist": {"count": 3, "p50": 18},
                 "phases": [
                    {"phase": "task.select", "count": 7, "total_ms": 9.100, "self_ms": 0.200}
                 ]}
            ]}
        ],
        "store": {"settles": 64, "settles_per_s": 9000.0}
    }"#;

    fn inflate(text: &str, factor: f64) -> String {
        // Multiply every *_ms value by `factor` (mimics scripts/CI sabotage).
        let doc = parse(text).unwrap();
        fn go(j: &Json, key: &str, f: f64) -> String {
            match j {
                Json::Obj(kvs) => {
                    let inner: Vec<String> =
                        kvs.iter().map(|(k, v)| format!("\"{k}\":{}", go(v, k, f))).collect();
                    format!("{{{}}}", inner.join(","))
                }
                Json::Arr(a) => {
                    let inner: Vec<String> = a.iter().map(|v| go(v, key, f)).collect();
                    format!("[{}]", inner.join(","))
                }
                Json::Num(n) if key.ends_with("_ms") => format!("{}", n * f),
                Json::Num(n) => format!("{n}"),
                Json::Str(s) => format!("\"{s}\""),
                Json::Bool(b) => format!("{b}"),
                Json::Null => "null".into(),
            }
        }
        go(&doc, "", factor)
    }

    #[test]
    fn identical_artifacts_exit_zero() {
        let a = parse(ARTIFACT).unwrap();
        let diffs = compare(&a, &a);
        assert!(diffs.is_empty(), "{diffs:?}");
        assert_eq!(exit_code(&diffs, false), 0);
    }

    #[test]
    fn sabotaged_timings_exit_nonzero() {
        let a = parse(ARTIFACT).unwrap();
        let b = parse(&inflate(ARTIFACT, 3.0)).unwrap();
        let diffs = compare(&a, &b);
        assert!(diffs.iter().any(|d| d.kind == DiffKind::Timing), "{diffs:?}");
        assert!(diffs.iter().all(|d| d.kind == DiffKind::Timing), "{diffs:?}");
        assert_eq!(exit_code(&diffs, false), 1);
        // Warn-only downgrades a pure timing regression to success.
        assert_eq!(exit_code(&diffs, true), 0);
    }

    #[test]
    fn small_timing_wobble_tolerated() {
        let a = parse(ARTIFACT).unwrap();
        let b = parse(&inflate(ARTIFACT, 1.8)).unwrap();
        assert!(compare(&a, &b).is_empty());
    }

    #[test]
    fn sub_floor_noise_ignored() {
        let a = parse(r#"{"x_ms": 0.010}"#).unwrap();
        let b = parse(r#"{"x_ms": 0.900}"#).unwrap();
        // 90x apart, but both under the 2 ms floor.
        assert!(compare(&a, &b).is_empty());
    }

    #[test]
    fn count_drift_is_structural() {
        let a = parse(ARTIFACT).unwrap();
        let b = parse(&ARTIFACT.replace("\"tasks\": 96", "\"tasks\": 97")).unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].kind, DiffKind::Structural);
        assert_eq!(exit_code(&diffs, false), 2);
        // Warn-only never masks structural drift.
        assert_eq!(exit_code(&diffs, true), 2);
    }

    #[test]
    fn missing_key_is_structural() {
        let a = parse(ARTIFACT).unwrap();
        let b = parse(&ARTIFACT.replace("\"rounds\": 7,", "")).unwrap();
        let diffs = compare(&a, &b);
        assert!(diffs.iter().any(|d| d.kind == DiffKind::Structural && d.path.contains("rounds")));
    }

    #[test]
    fn array_length_drift_is_structural() {
        let a = parse(r#"{"phases": [{"count": 1}, {"count": 2}]}"#).unwrap();
        let b = parse(r#"{"phases": [{"count": 1}]}"#).unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].kind, DiffKind::Structural);
    }

    #[test]
    fn hist_and_reps_are_skipped() {
        let a = parse(r#"{"reps": 3, "hist": {"count": 30}, "tasks": 5}"#).unwrap();
        let b = parse(r#"{"reps": 1, "hist": {"count": 10}, "tasks": 5}"#).unwrap();
        assert!(compare(&a, &b).is_empty());
    }

    const PHASED: &str = r#"{
        "tasks": 96,
        "phases": [
            {"phase": "task.select", "count": 7, "total_ms": 9.1},
            {"phase": "task.select;select.cascade", "count": 2392, "total_ms": 8.0},
            {"phase": "prune", "count": 7, "total_ms": 1.0}
        ]
    }"#;

    #[test]
    fn accepted_phase_prefix_downgrades_structural_drift() {
        let a = parse(PHASED).unwrap();
        // Far fewer cascade invocations, and the row's timing shrank —
        // exactly what an incremental-selection PR produces.
        let b = parse(&PHASED.replace("\"count\": 2392", "\"count\": 12")).unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].kind, DiffKind::Structural);
        assert_eq!(diffs[0].phase.as_deref(), Some("task.select;select.cascade"));
        // Fatal without acceptance; warning with the prefix listed.
        assert_eq!(gate(&diffs, false, &[]), 2);
        assert_eq!(gate(&diffs, false, &["task.select".to_string()]), 0);
        // An unrelated prefix does not cover it.
        assert_eq!(gate(&diffs, false, &["prune".to_string()]), 2);
    }

    #[test]
    fn acceptance_never_masks_unattributed_drift() {
        let a = parse(PHASED).unwrap();
        let b = parse(&PHASED.replace("\"tasks\": 96", "\"tasks\": 97")).unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].phase.is_none());
        assert_eq!(gate(&diffs, false, &["task.select".to_string()]), 2);
    }

    #[test]
    fn phase_tables_match_by_name_not_index() {
        let a = parse(PHASED).unwrap();
        // Drop the cascade row entirely: one attributable diff, and the
        // rows after it still compare against their namesakes.
        let b = parse(&PHASED.replace(
            "{\"phase\": \"task.select;select.cascade\", \"count\": 2392, \"total_ms\": 8.0},\n",
            "",
        ))
        .unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].phase.as_deref(), Some("task.select;select.cascade"));
        assert_eq!(gate(&diffs, false, &["task.select".to_string()]), 0);
        // A row present only in the new artifact is also attributable.
        let diffs = compare(&b, &a);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].message.contains("missing in baseline"), "{diffs:?}");
        assert_eq!(gate(&diffs, false, &["task.select".to_string()]), 0);
    }

    #[test]
    fn rate_regression_detected() {
        let a = parse(r#"{"settles_per_s": 9000.0}"#).unwrap();
        let b = parse(r#"{"settles_per_s": 1000.0}"#).unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].kind, DiffKind::Timing);
        // The other direction (faster) is fine.
        assert!(compare(&b, &a).iter().all(|d| d.kind == DiffKind::Timing));
    }

    #[test]
    fn a_per_count_is_exact_and_only_per_s_is_a_rate() {
        // A fixed batch size is a count, not a rate: any drift is fatal.
        let a = parse(r#"{"facts_per_settle": 8, "settles_per_s": 9000.0}"#).unwrap();
        let b = parse(r#"{"facts_per_settle": 9, "settles_per_s": 4000.0}"#).unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].path.ends_with("facts_per_settle"), "{diffs:?}");
        assert_eq!(diffs[0].kind, DiffKind::Structural);
        assert_eq!(exit_code(&diffs, true), 2);
        // `settles_per_s` fell 2.25x, inside its 2.5x rate slack.
    }
}
