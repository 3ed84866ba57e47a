//! Regenerate every table and figure of the CDB paper's evaluation
//! (Section 6 + Appendix D) as plain-text series.
//!
//! ```text
//! figures [--scale N] [--reps R] [--seed S] [--iters N] <target>
//!
//! targets: fig8 fig9 fig10 fig11 fig14 fig15 fig16 fig17 fig18 fig19
//!          fig20 fig21 fig22 fig23 fig24 table2 table3 table4 table5
//!          example ablations sim all
//!
//! An unknown target or flag, a value that does not parse, or a zero
//! `--scale` or `--reps` prints this usage to stderr and exits 2.
//!
//! `sim` soaks the deterministic simulation harness (`cdb-sim`) over
//! `--iters` consecutive seeds starting at `--seed`: each seed generates
//! a randomized workload + environment, runs it on the real runtime and
//! on the sequential reference oracle, and checks every differential
//! invariant. On failure the seed is printed, the scenario is shrunk,
//! and the repro text is dumped; exit status is nonzero.
//!
//! Served load, the profiled Table 5 sweep, the durable store, the shard
//! scaling sweep and answer reuse are not targets here: their
//! deterministic counts are pinned by tests (`crates/serve/tests/wire.rs`,
//! `crates/bench/tests/pinned_counts.rs`) and their timings are
//! `cdb-benchmark`'s.
//! ```
//!
//! `--scale N` divides the paper's table cardinalities by `N` (default 10)
//! so a full sweep finishes in minutes; `--reps R` averages `R` seeded
//! repetitions (the paper uses 1000; default 3). Absolute numbers shift
//! with scale, but the *shape* — which method wins and by what factor —
//! is what EXPERIMENTS.md tracks.

use std::num::NonZeroUsize;
use std::time::Instant;

use cdb_bench::{prepare, run_budget, run_method_avg, ExpConfig, Method};
use cdb_core::cost::expectation::expectation_order;
use cdb_core::executor::{Executor, ExecutorConfig, QualityStrategy};
use cdb_core::fillcollect::{execute_collect, execute_fill, CollectConfig, FillConfig};
use cdb_core::latency::parallel_round;
use cdb_core::SimCrowd;
use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};
use cdb_datagen::{
    award_dataset, paper_dataset, paper_example_dataset, queries_for, Dataset, DatasetScale,
};
use cdb_similarity::SimilarityFn;

struct Args {
    scale: usize,
    reps: usize,
    seed: u64,
    iters: usize,
}

fn usage() -> ! {
    eprintln!("usage: figures [--scale N] [--reps R] [--seed S] [--iters N] <fig8..fig24|table2..table5|example|ablations|sim|all>");
    std::process::exit(2);
}

/// The parsed arguments and the target they name. Anything it does not
/// recognise, and a zero `--scale` or `--reps`, exits through [`usage`].
fn parse_args() -> (Args, fn(&Args)) {
    fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
    }
    let mut args = Args { scale: 10, reps: 3, seed: 42, iters: 100 };
    let mut name = String::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = value::<NonZeroUsize>(&mut it).get(),
            "--reps" => args.reps = value::<NonZeroUsize>(&mut it).get(),
            "--seed" => args.seed = value(&mut it),
            "--iters" => args.iters = value(&mut it),
            t if name.is_empty() && !t.starts_with('-') => name = t.to_string(),
            _ => usage(),
        }
    }
    let run = target(&name).unwrap_or_else(|| usage());
    (args, run)
}

/// The function behind target name `t`, or `None` if there is none.
fn target(t: &str) -> Option<fn(&Args)> {
    let run: fn(&Args) = match t {
        "fig8" => {
            |a| grid(a, "cost", 0.8, "Figure 8: cost (#tasks), simulated workers N(0.8, 0.01)")
        }
        "fig9" => |a| grid(a, "quality", 0.8, "Figure 9: quality (F-measure), simulated workers"),
        "fig10" => |a| grid(a, "latency", 0.8, "Figure 10: latency (#rounds), simulated workers"),
        "fig11" => fig11,
        "fig14" => {
            |a| grid(a, "cost", 0.95, "Figure 14: cost (#tasks), real-platform workers (q=0.95)")
        }
        "fig15" => {
            |a| grid(a, "quality", 0.95, "Figure 15: quality (F-measure), real-platform workers")
        }
        "fig16" => {
            |a| grid(a, "latency", 0.95, "Figure 16: latency (#rounds), real-platform workers")
        }
        "fig17" => fig17,
        "fig18" | "fig19" => fig18_19,
        "fig20" => fig20,
        "fig21" => fig21,
        "fig22" => fig22,
        "fig23" | "fig24" => fig23_24,
        "table2" | "table3" => tables23,
        "table4" => |_| table4(),
        "table5" => table5,
        "example" => example,
        "ablations" => ablations,
        "all" => all,
        // Not part of `all`: a correctness soak, not a paper figure.
        "sim" => sim,
        _ => return None,
    };
    Some(run)
}

/// `figures all`: every paper table and figure and the ablations.
fn all(args: &Args) {
    for t in [
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig20",
        "fig21",
        "fig22",
        "fig23",
        "table2",
        "table4",
        "table5",
        "example",
        "ablations",
    ] {
        target(t).expect("`all` names known targets")(args);
    }
}

fn dataset(name: &str, args: &Args) -> Dataset {
    match name {
        "paper" => paper_dataset(DatasetScale::paper_full().scaled(args.scale), args.seed),
        "award" => award_dataset(DatasetScale::award_full().scaled(args.scale), args.seed),
        _ => unreachable!(),
    }
}

/// Figures 8/9/10 and 14/15/16: the 8 methods × 5 queries grid. `metric`
/// selects the column family; `worker_quality` distinguishes the simulated
/// (0.8) from the "real AMT" (0.95) experiments.
fn grid(args: &Args, metric: &str, worker_quality: f64, header: &str) {
    println!("# {header}");
    for ds_name in ["paper", "award"] {
        let ds = dataset(ds_name, args);
        println!("## dataset: {ds_name}");
        print!("{:<8}", "query");
        for m in Method::all() {
            print!("{:>9}", m.name());
        }
        println!();
        for q in queries_for(ds_name) {
            let cfg = ExpConfig { worker_quality, seed: args.seed, ..Default::default() };
            let (g, truth) = prepare(&ds, &q.cql, &cfg);
            print!("{:<8}", q.label);
            for m in Method::all() {
                let r = run_method_avg(m, &g, &truth, &cfg, args.reps);
                match metric {
                    "cost" => print!("{:>9}", r.tasks),
                    "quality" => print!("{:>9.3}", r.metrics.f_measure),
                    "latency" => print!("{:>9}", r.rounds),
                    _ => unreachable!(),
                }
            }
            println!();
        }
    }
    println!();
}

/// Figure 11: vary worker quality q ∈ {0.7, 0.8, 0.9}.
fn fig11(args: &Args) {
    println!("# Figure 11: varying worker quality (paper dataset, avg over 5 queries)");
    let ds = dataset("paper", args);
    for &metric in &["cost", "quality", "latency"] {
        println!("## {metric}");
        print!("{:<8}", "q");
        for m in Method::all() {
            print!("{:>9}", m.name());
        }
        println!();
        for &q_w in &[0.7, 0.8, 0.9] {
            let cfg = ExpConfig { worker_quality: q_w, seed: args.seed, ..Default::default() };
            print!("{:<8}", q_w);
            for m in Method::all() {
                let mut tasks = 0usize;
                let mut rounds = 0usize;
                let mut f = 0.0;
                let queries = queries_for("paper");
                for q in &queries {
                    let (g, truth) = prepare(&ds, &q.cql, &cfg);
                    let r = run_method_avg(m, &g, &truth, &cfg, args.reps);
                    tasks += r.tasks;
                    rounds += r.rounds;
                    f += r.metrics.f_measure;
                }
                let n = queries.len();
                match metric {
                    "cost" => print!("{:>9}", tasks / n),
                    "quality" => print!("{:>9.3}", f / n as f64),
                    "latency" => print!("{:>9}", rounds / n),
                    _ => unreachable!(),
                }
            }
            println!();
        }
    }
    println!();
}

/// Figure 17: COLLECT and FILL vs the no-duplicate-control baseline.
fn fig17(args: &Args) {
    println!("# Figure 17(a): COLLECT — #questions to reach #distinct (CDB vs Deco)");
    let ds = dataset("paper", args);
    let universe = &ds.universe;
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(args.seed);
    println!("{:<10}{:>10}{:>10}", "#results", "CDB", "Deco");
    for &target in &[20usize, 40, 60, 80, 100] {
        let target = target.min(universe.len().saturating_sub(5));
        let cdb = execute_collect(
            universe,
            &mut rng,
            &CollectConfig { target, ..CollectConfig::default() },
        );
        let deco = execute_collect(
            universe,
            &mut rng,
            &CollectConfig { target, autocomplete: false, ..CollectConfig::default() },
        );
        println!("{:<10}{:>10}{:>10}", target, cdb.questions, deco.questions);
    }

    println!("\n# Figure 17(b): FILL — #questions for N slots (CDB early-stop vs Deco)");
    println!("{:<10}{:>10}{:>10}", "#results", "CDB", "Deco");
    for &n in &[20usize, 40, 60, 80, 100] {
        let truths: Vec<String> = ds.universe.iter().cycle().take(n).cloned().collect();
        let mut p1 = fill_platform(args.seed);
        let cdb = execute_fill(&truths, &mut p1, &FillConfig::default());
        let mut p2 = fill_platform(args.seed);
        let deco = execute_fill(
            &truths,
            &mut p2,
            &FillConfig { early_stop: false, ..FillConfig::default() },
        );
        println!("{:<10}{:>10}{:>10}", n, cdb.questions, deco.questions);
    }
    println!();
}

fn fill_platform(seed: u64) -> SimulatedPlatform {
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
    let pool = WorkerPool::gaussian(50, 0.95, 0.05, &mut rng);
    SimulatedPlatform::new(Market::Amt, pool, seed)
}

/// Figures 18/19: recall and precision vs budget.
fn fig18_19(args: &Args) {
    for (fig, metric) in [("18", "recall"), ("19", "precision")] {
        println!("# Figure {fig}: {metric} vs budget (paper dataset, query 2J)");
        let ds = dataset("paper", args);
        let q = &queries_for("paper")[0];
        let cfg = ExpConfig { worker_quality: 0.95, seed: args.seed, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let total_edges = g.open_edges().len().max(1);
        println!("{:<10}{:>10}{:>10}{:>10}", "budget", "Baseline", "CDB", "CDB+");
        for frac in [1usize, 2, 4, 8, 16, 32] {
            let budget = (total_edges * frac / 32).max(1);
            let mut vals = [0.0f64; 3];
            for r in 0..args.reps {
                let c = ExpConfig { seed: args.seed + r as u64, ..cfg };
                let runs = [
                    run_budget(true, false, &g, &truth, budget, &c),
                    run_budget(false, false, &g, &truth, budget, &c),
                    run_budget(false, true, &g, &truth, budget, &c),
                ];
                for (v, m) in vals.iter_mut().zip(runs) {
                    *v += if metric == "recall" { m.recall } else { m.precision };
                }
            }
            println!(
                "{:<10}{:>10.3}{:>10.3}{:>10.3}",
                budget,
                vals[0] / args.reps as f64,
                vals[1] / args.reps as f64,
                vals[2] / args.reps as f64
            );
        }
        println!();
    }
}

/// Figure 20: quality vs redundancy (query 3J2S), CDB+ vs majority voting.
fn fig20(args: &Args) {
    println!("# Figure 20: F-measure vs redundancy (paper dataset, 2J1S)");
    // The paper uses 3J2S; at 1/20 scale that query has too few answers
    // for stable F-measure, so the redundancy sweep uses the structurally
    // identical but answer-richer 2J1S.
    let ds = dataset("paper", args);
    let q = &queries_for("paper")[1];
    let reps = args.reps * 3; // quality sweeps need more repetitions
    println!("{:<12}{:>10}{:>10}", "redundancy", "MV", "CDB+");
    for &k in &[1usize, 3, 5, 7] {
        // The flat error model isolates the paper's quality-control claim
        // (under the difficulty-aware model, MV is already near-ceiling on
        // easy tasks and the margin compresses — see EXPERIMENTS.md).
        let cfg = ExpConfig {
            worker_quality: 0.7,
            redundancy: k,
            flat_errors: true,
            seed: args.seed,
            ..Default::default()
        };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let mv = run_method_avg(Method::Cdb, &g, &truth, &cfg, reps);
        let plus = run_method_avg(Method::CdbPlus, &g, &truth, &cfg, reps);
        println!("{:<12}{:>10.3}{:>10.3}", k, mv.metrics.f_measure, plus.metrics.f_measure);
    }
    println!();
}

/// Figure 21: quality vs cost budget (3J2S), CDB+ vs majority voting.
fn fig21(args: &Args) {
    println!("# Figure 21: F-measure vs #questions (paper dataset, 2J1S, redundancy 5)");
    let ds = dataset("paper", args);
    let q = &queries_for("paper")[1];
    let cfg =
        ExpConfig { worker_quality: 0.7, flat_errors: true, seed: args.seed, ..Default::default() };
    let (g, truth) = prepare(&ds, &q.cql, &cfg);
    let total_edges = g.open_edges().len().max(1);
    println!("{:<10}{:>10}{:>10}", "budget", "MV", "CDB+");
    for frac in [2usize, 4, 8, 16, 32] {
        let budget = (total_edges * frac / 32).max(1);
        let mut mv = 0.0;
        let mut plus = 0.0;
        for r in 0..args.reps {
            let c = ExpConfig { seed: args.seed + r as u64, ..cfg };
            mv += run_budget(false, false, &g, &truth, budget, &c).f_measure;
            plus += run_budget(false, true, &g, &truth, budget, &c).f_measure;
        }
        println!("{:<10}{:>10.3}{:>10.3}", budget, mv / args.reps as f64, plus / args.reps as f64);
    }
    println!();
}

/// Figure 22: cost vs latency constraint (rounds), all eight methods.
fn fig22(args: &Args) {
    println!("# Figure 22: cost (#tasks) vs latency constraint r (paper dataset, 3J)");
    let ds = dataset("paper", args);
    let q = &queries_for("paper")[2];
    print!("{:<8}", "r");
    for m in Method::all() {
        print!("{:>9}", m.name());
    }
    println!();
    for r in 1usize..=6 {
        let cfg = ExpConfig {
            worker_quality: 0.9,
            max_rounds: Some(r),
            seed: args.seed,
            ..Default::default()
        };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        print!("{:<8}", r);
        for m in Method::all() {
            let res = run_method_avg(m, &g, &truth, &cfg, args.reps);
            print!("{:>9}", res.tasks);
        }
        println!();
    }
    println!();
}

/// Figures 23/24: similarity-function ablation.
fn fig23_24(args: &Args) {
    println!("# Figures 23/24: similarity functions (expectation-based selection)");
    let fns: [(&str, SimilarityFn); 4] = [
        ("NoSim", SimilarityFn::NoSim),
        ("ED", SimilarityFn::EditDistance),
        ("JAC", SimilarityFn::TokenJaccard),
        ("CDB", SimilarityFn::QGramJaccard { q: 2 }),
    ];
    for ds_name in ["paper", "award"] {
        let ds = dataset(ds_name, args);
        println!("## dataset: {ds_name}");
        println!("{:<8}{:>10}{:>10}{:>12}{:>12}", "query", "", "", "#tasks", "F-measure");
        for q in queries_for(ds_name) {
            for (name, f) in fns {
                // NoSim keeps every pair (probability 0.5 everywhere):
                // on the larger award dataset that is an all-pairs graph
                // whose executor run is computationally degenerate. The
                // paper-dataset rows already show NoSim's blow-up, so the
                // award sweep skips it.
                if name == "NoSim" && ds_name == "award" {
                    println!("{:<8}{:>10}{:>10}{:>12}{:>12}", q.label, name, "", "skipped", "-");
                    continue;
                }
                let cfg = ExpConfig {
                    worker_quality: 0.8,
                    similarity: f,
                    seed: args.seed,
                    ..Default::default()
                };
                let (g, truth) = prepare(&ds, &q.cql, &cfg);
                let r = run_method_avg(Method::Cdb, &g, &truth, &cfg, args.reps);
                println!(
                    "{:<8}{:>10}{:>10}{:>12}{:>12.3}",
                    q.label, name, "", r.tasks, r.metrics.f_measure
                );
            }
        }
    }
    println!();
}

/// Tables 2/3: dataset statistics.
fn tables23(args: &Args) {
    for (name, label) in [("paper", "Table 2"), ("award", "Table 3")] {
        let ds = dataset(name, args);
        println!("# {label}: {name} dataset (scale 1/{})", args.scale);
        println!("{:<14}{:>10}  attributes", "table", "#records");
        for t in ds.db.tables() {
            let cols: Vec<&str> = t.schema().columns().iter().map(|c| c.name.as_str()).collect();
            println!("{:<14}{:>10}  {}", t.name(), t.row_count(), cols.join(", "));
        }
        println!("true join pairs: {}", ds.truth.joins.len());
        println!();
    }
}

/// Table 4: the representative queries.
fn table4() {
    println!("# Table 4: the 5 representative queries");
    for ds in ["paper", "award"] {
        println!("## {ds}");
        for q in queries_for(ds) {
            println!("[{}] {}", q.label, q.cql);
        }
    }
    println!();
}

/// Table 5: task-selection efficiency in milliseconds.
fn table5(args: &Args) {
    println!("# Table 5: efficiency of task selection (milliseconds)");
    println!("{:<10}{:>8}{:>8}{:>8}{:>8}{:>8}", "dataset", "2J", "2J1S", "3J", "3J1S", "3J2S");
    for ds_name in ["paper", "award"] {
        let ds = dataset(ds_name, args);
        print!("{:<10}", ds_name);
        for q in queries_for(ds_name) {
            let cfg = ExpConfig { seed: args.seed, ..Default::default() };
            let (g, _) = prepare(&ds, &q.cql, &cfg);
            let start = Instant::now();
            let order = expectation_order(&g);
            let _round = parallel_round(&g, &order);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            print!("{:>8.2}", ms);
        }
        println!();
    }
    println!();
}

/// The Figure 1 / Section 5 walkthrough on the Table 1 running example.
fn example(args: &Args) {
    println!("# Running example (Table 1 / Figure 4): tuple-level vs tree model");
    let (db, truth) = paper_example_dataset();
    let sql = "SELECT * FROM Paper, Researcher, Citation, University \
               WHERE Paper.author CROWDJOIN Researcher.name AND \
               Paper.title CROWDJOIN Citation.title AND \
               Researcher.affiliation CROWDJOIN University.name";
    let cdb = cdb_core::Cdb::with_database(db);
    let g =
        cdb.plan_select(sql, &cdb_core::GraphBuildConfig::default()).expect("example query plans");
    let et = truth.edge_truth(&g);
    println!("graph: {} vertices, {} edges", g.node_count(), g.edge_count());
    let mut p = fill_platform(args.seed);
    let stats = Executor::new(
        g.clone(),
        &mut SimCrowd::new(&mut p, &et),
        ExecutorConfig { quality: QualityStrategy::MajorityVote, ..Default::default() },
    )
    .run();
    println!(
        "CDB (graph model): {} tasks, {} rounds, {} answers",
        stats.tasks_asked,
        stats.rounds,
        stats.answers.len()
    );
    let order = cdb_baselines::opt_tree_order(&g, &et);
    let mut perfect = SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0]), 0);
    let tree = cdb_baselines::run_tree(&g, &mut SimCrowd::new(&mut perfect, &et), 1, &order);
    println!("OptTree (tree model, oracle): {} tasks", tree.tasks_asked);
    println!();
}

/// Design-choice ablations called out in DESIGN.md: sample count for
/// MinCut, threshold ε, selection strategy, latency policy.
fn ablations(args: &Args) {
    use cdb_core::executor::{Executor, ExecutorConfig, SelectionStrategy};

    let ds = dataset("paper", args);
    let q = &queries_for("paper")[2]; // 3J

    println!("# Ablation: MinCut sample count (3J, cost)");
    println!("{:<10}{:>10}", "samples", "#tasks");
    for &samples in &[5usize, 20, 50, 100] {
        let cfg = ExpConfig { mincut_samples: samples, seed: args.seed, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let r = run_method_avg(Method::MinCut, &g, &truth, &cfg, args.reps);
        println!("{:<10}{:>10}", samples, r.tasks);
    }

    println!("\n# Ablation: edge threshold ε (3J, cost & F)");
    println!("{:<10}{:>10}{:>10}{:>10}", "epsilon", "#edges", "#tasks", "F");
    for &eps in &[0.2f64, 0.3, 0.4, 0.5] {
        let cfg = ExpConfig { epsilon: eps, seed: args.seed, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let r = run_method_avg(Method::Cdb, &g, &truth, &cfg, args.reps);
        println!("{:<10}{:>10}{:>10}{:>10.3}", eps, g.edge_count(), r.tasks, r.metrics.f_measure);
    }

    println!("\n# Ablation: selection strategy (3J, cost)");
    let cfg = ExpConfig { seed: args.seed, ..Default::default() };
    let (g, truth) = prepare(&ds, &q.cql, &cfg);
    for (name, sel) in [
        ("expectation", SelectionStrategy::Expectation),
        ("mincut-30", SelectionStrategy::MinCutSampling { samples: 30 }),
        ("weight-desc", SelectionStrategy::WeightDescending),
        ("unordered", SelectionStrategy::Unordered),
    ] {
        let mut tasks = 0usize;
        for rep in 0..args.reps {
            let mut p = fill_platform(args.seed + rep as u64);
            let stats = Executor::new(
                g.clone(),
                &mut SimCrowd::new(&mut p, &truth),
                ExecutorConfig {
                    selection: sel,
                    seed: args.seed + rep as u64,
                    ..Default::default()
                },
            )
            .run();
            tasks += stats.tasks_asked;
        }
        println!("{:<14}{:>10}", name, tasks / args.reps);
    }

    println!("\n# Ablation: latency policy (3J): greedy rounds vs serial");
    for (name, parallel) in [("greedy", true), ("serial", false)] {
        let mut p = fill_platform(args.seed);
        let stats = Executor::new(
            g.clone(),
            &mut SimCrowd::new(&mut p, &truth),
            ExecutorConfig { parallel_rounds: parallel, seed: args.seed, ..Default::default() },
        )
        .run();
        println!("{:<10}{:>8} tasks{:>8} rounds", name, stats.tasks_asked, stats.rounds);
    }
    println!();
}

/// `figures sim`: soak the deterministic simulation harness over
/// `--iters` consecutive seeds. Prints progress every 100 scenarios, the
/// seed and shrunk repro on any violation, and exits nonzero on failure.
fn sim(args: &Args) {
    use cdb_sim::{soak, Sabotage};

    println!(
        "# cdb-sim soak: {} scenarios, seeds {}..{}",
        args.iters,
        args.seed,
        args.seed + args.iters as u64
    );
    let start = Instant::now();
    let mut done = 0usize;
    let report = soak(args.seed, args.iters, Sabotage::None, |outcome| {
        done += 1;
        if done.is_multiple_of(100) {
            println!(
                "  {done} scenarios checked ({:.1}s), last seed {}",
                start.elapsed().as_secs_f64(),
                outcome.seed
            );
        }
        if !outcome.violations.is_empty() {
            eprintln!("FAILED seed {}:", outcome.seed);
            for v in &outcome.violations {
                eprintln!("  {v}");
            }
        }
    });
    println!(
        "# {} scenarios ({} crowd queries) in {:.1}s: {} violating seed(s)",
        report.scenarios,
        report.queries,
        start.elapsed().as_secs_f64(),
        report.failures.len()
    );
    for f in &report.failures {
        eprintln!("\n# shrunk repro for seed {} (replay with cdb_sim::replay_repro):", f.seed);
        if let Some(shrunk) = &f.shrunk {
            eprintln!("{}", shrunk.repro);
        }
    }
    if !report.failures.is_empty() {
        let seeds: Vec<String> = report.failures.iter().map(|f| f.seed.to_string()).collect();
        eprintln!("\nsim soak FAILED; violating seeds: {}", seeds.join(", "));
        std::process::exit(1);
    }
}

fn main() {
    let (args, run) = parse_args();
    run(&args);
}
