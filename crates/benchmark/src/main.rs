//! `cdb-benchmark`: the one benchmark performance claims about CDB are
//! measured with. `BENCHMARK.json` at the repository root declares the
//! command, the workloads and every metric name; `README.md` next to this
//! crate's manifest defines them.
//!
//! ```text
//! cdb-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! cdb-benchmark agree [--sets N] [--runs N] [--quick]
//! ```
//!
//! Without `--workload` all four workloads run in sequence, one result line
//! each. The last line of standard output of a single-workload run is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics. The exit
//! code is non-zero, with one line on standard error saying why, when an
//! argument is unknown, the server cannot bind, a check fails or an
//! operation fails.

mod agree;
mod alloc;
mod fleet;
mod host;
mod replay;
mod served;
mod spec;
mod stats;

use cdb_obsv::json::JsonObject;

use spec::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (every query submitted, timed or not).
    pub attempted: u64,
    /// Operations that failed: error, cancelled, rejected or refused
    /// streams and I/O errors.
    pub failed: u64,
    /// Correctness checks that did not hold; empty means `correct`.
    pub violations: Vec<String>,
    /// Metric values by declared name.
    pub metrics: Metrics,
}

impl RunOutput {
    /// The contract's result line for this run.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = JsonObject::new();
        for (name, unit) in if trace { &PER_LAYER[..] } else { &END_TO_END[..] } {
            let value = JsonObject::new().f64("value", self.metrics.get(name)).str("unit", unit);
            metrics = metrics.raw(name, &value.finish());
        }
        JsonObject::new()
            .bool("correct", self.violations.is_empty())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// Run one workload at `factor` times the declared operation counts.
pub fn run_workload(name: &str, seed: u64, factor: f64, trace: bool) -> Result<RunOutput, String> {
    match name {
        "fleet_durable" => fleet::run(seed, factor, trace),
        served if WORKLOADS.iter().any(|(w, _)| *w == served) => {
            served::run(served, seed, factor, trace)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Command-line options of a measuring run.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?.clone()),
            "--seed" => o.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace 0|1` as the driver passes it; a bare `--trace` is on.
            "--trace" => o.trace = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1"),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(o)
}

/// Run what the options ask for; `Err` is the one line printed before a
/// non-zero exit.
fn measure(o: &Options) -> Result<(), String> {
    let factor = o.seconds / RUN_SECONDS as f64 * if o.quick { 0.05 } else { 1.0 };
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(w, _)| *w).collect(),
    };
    let mut problems = Vec::new();
    for name in names {
        let out = run_workload(name, o.seed, factor, o.trace)?;
        println!("# {name} seed {} factor {factor}", o.seed);
        for (metric, unit) in if o.trace { &PER_LAYER[..] } else { &END_TO_END[..] } {
            println!("{metric} {} {unit}", out.metrics.get(metric));
        }
        println!("{}", out.result_line(o.trace));
        problems.extend(out.violations.iter().map(|v| format!("{name}: check failed: {v}")));
        if out.failed > 0 {
            problems.push(format!("{name}: {} of {} operations failed", out.failed, out.attempted));
        }
    }
    match problems.len() {
        0 => Ok(()),
        1 => Err(problems.remove(0)),
        n => Err(format!("{} (and {} more)", problems[0], n - 1)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("agree") => agree::run(&args[1..]),
        _ => parse_options(&args).and_then(|o| measure(&o)),
    };
    if let Err(why) = result {
        eprintln!("cdb-benchmark: {why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_obsv::json::{parse, Json};

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_invocation_and_the_flag_forms_parse() {
        let o =
            opts(&["--workload", "join_heavy", "--seed", "7", "--seconds", "30", "--trace", "0"])
                .unwrap();
        assert_eq!((o.workload.as_deref(), o.seed, o.trace), (Some("join_heavy"), 7, false));
        assert!(opts(&["--trace", "1"]).unwrap().trace);
        assert!(opts(&["--trace"]).unwrap().trace);
        assert!(opts(&["--trace", "--quick"]).unwrap().quick);
        assert!(opts(&["--workload", "nope"]).is_err());
        assert!(opts(&["--frobnicate"]).is_err());
        assert!(opts(&["--seconds", "0"]).is_err());
        assert!(opts(&["--trace", "2"]).is_err()); // `2` is then an unknown argument
    }

    /// Every workload at 1/20 of its counts, traced, with every check on:
    /// no violation, no failure, and exactly the declared names printed.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "minutes unoptimized; run `cargo test --release`")]
    fn quick_smoke_of_all_four_workloads() {
        for (name, _) in WORKLOADS {
            let out = run_workload(name, 3, 0.05, true).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.violations, Vec::<String>::new(), "{name}");
            assert_eq!(out.failed, 0, "{name}");
            assert!(out.attempted > 0, "{name}");
            for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let line = parse(&out.result_line(trace)).expect("result line is JSON");
                let Some(Json::Obj(printed)) = line.get("metrics") else {
                    panic!("{name}: no metrics object")
                };
                let printed: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
                let declared: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
                assert_eq!(printed, declared, "{name}");
            }
            for (metric, _) in END_TO_END {
                assert!(out.metrics.get(metric) > 0.0, "{name}: {metric} must never be 0");
            }
        }
    }
}
