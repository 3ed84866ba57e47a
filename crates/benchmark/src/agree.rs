//! `cdb-benchmark agree`: do two sets of runs of the same code agree?
//!
//! For every workload the sets are interleaved run by run (A, B, A, B, …),
//! each run a child process of this binary with its own seed. Per
//! end-to-end metric the report gives each set's median and quartiles, the
//! spread (third minus first quartile, over the median) and how much worse
//! the second median is than the first. It fails when a spread (`setup_s`
//! excepted) or a difference exceeds the metric's bound in `BENCHMARK.json`
//! — the same two tests the driver applies before accepting the benchmark.

use std::process::Command;

use cdb_obsv::json::{parse, Json};

use crate::spec::{RUN_SECONDS, WORKLOADS};
use crate::stats::quartiles;

/// `(name, better, bound)` of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Vec<(String, bool, f64)> {
    let j = parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    j.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json declares end_to_end")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name").to_string();
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            (name, lower, m.get("bound").and_then(Json::as_num).expect("metric bound"))
        })
        .collect()
}

/// Run one child and return its end-to-end metric values by name.
fn child(workload: &str, seed: u64, quick: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = parse(stdout.lines().last().unwrap_or_default())?;
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").and_then(Json::as_num).unwrap_or(0.0)))
        .collect())
}

/// Parse `agree`'s arguments, run the sets, print the report.
pub fn run(args: &[String]) -> Result<(), String> {
    let (mut sets, mut runs, mut quick) = (2usize, 5usize, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut number = || -> Result<usize, String> {
            let v = it.next().ok_or(format!("{a} needs a number"))?;
            v.parse().map_err(|e| format!("{a}: {e}"))
        };
        match a.as_str() {
            "--sets" => sets = number()?,
            "--runs" => runs = number()?,
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if sets < 2 || runs < 2 {
        return Err("agree needs at least two sets of two runs".into());
    }
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# Agreement of {sets} interleaved sets of {runs} runs per workload\n");
    println!(
        "Machine: nproc = {cores}, kernel {}. Run length {RUN_SECONDS} s{}; seeds 1..={runs}, \
         the same in every set.\n",
        kernel.trim(),
        if quick { " (quick: 1/20 of the operation counts)" } else { "" }
    );
    println!(
        "`spread` is (Q3 - Q1) / median over a set's runs, quartiles as Python's \
         `statistics.quantiles(n=4)`; `worse` is how far the last set's median is on the \
         wrong side of the first's. Both are shares of the median and must stay within `bound`.\n"
    );
    let bounds = bounds();
    let mut misses = Vec::new();
    for (workload, _) in WORKLOADS {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); bounds.len()]; sets];
        for seed in 1..=runs as u64 {
            for set in values.iter_mut() {
                let metrics = child(workload, seed, quick)?;
                for (slot, (name, _, _)) in set.iter_mut().zip(&bounds) {
                    let v = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
                    slot.push(v.ok_or(format!("{workload}: `{name}` was not printed"))?);
                }
            }
        }
        println!("## {workload}\n");
        println!("| metric | set | Q1 | median | Q3 | spread | worse | bound |");
        println!("|---|---|---|---|---|---|---|---|");
        for (i, (name, lower, bound)) in bounds.iter().enumerate() {
            let first = quartiles(&values[0][i])[1];
            for (s, set) in values.iter().enumerate() {
                let [q1, q2, q3] = quartiles(&set[i]);
                let spread = (q3 - q1) / q2.abs().max(1e-12);
                let worse = if *lower { q2 - first } else { first - q2 } / first.abs().max(1e-12);
                let last = s + 1 == sets;
                println!(
                    "| {name} | {} | {q1:.4} | {q2:.4} | {q3:.4} | {spread:.4} | {} | {bound} |",
                    (b'A' + s as u8) as char,
                    if last { format!("{worse:.4}") } else { "—".into() }
                );
                if name != "setup_s" && spread > *bound {
                    misses.push(format!("{workload}/{name}: spread {spread:.4} > {bound}"));
                }
                if last && worse > *bound {
                    misses.push(format!("{workload}/{name}: second median worse by {worse:.4}"));
                }
            }
        }
        println!();
    }
    if misses.is_empty() {
        println!("All metrics agree within their bounds.");
        Ok(())
    } else {
        println!("Outside their bounds:\n");
        misses.iter().for_each(|m| println!("- {m}"));
        Err(format!("{} metric(s) outside their bounds, first: {}", misses.len(), misses[0]))
    }
}
