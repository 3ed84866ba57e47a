//! Interactive CQL shell over a generated dataset and a simulated crowd.
//!
//! ```sh
//! cargo run --bin cdb-repl -- [--dataset paper|award] [--scale N] [--quality Q]
//! ```
//!
//! Type CQL at the prompt (`SELECT … CROWDJOIN …`, `ORDER BY CROWD`,
//! `GROUP BY CROWD`, `BUDGET n`) and watch the optimizer spend simulated
//! crowd tasks. Meta commands: `.tables`, `.schema <table>`, `.explain
//! <select>`, `.queries`, `.help`, `.quit`.
//!
//! An unknown flag or dataset, a missing or unparseable value, or a zero
//! `--scale` prints usage to stderr and exits 2.

use std::io::{BufRead, Write};
use std::num::NonZeroUsize;

use cdb::core::{Cdb, CdbConfig};
use cdb::crowd::{Market, SimulatedPlatform, WorkerPool};
use cdb::datagen::{award_dataset, paper_dataset, queries_for, Dataset, DatasetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    dataset: String,
    scale: usize,
    quality: f64,
}

fn usage() -> ! {
    eprintln!("usage: cdb-repl [--dataset paper|award] [--scale N] [--quality Q]");
    std::process::exit(2);
}

/// The parsed flags. A flag it does not know, a missing value or one that
/// does not parse exits through [`usage`].
fn parse_args() -> Args {
    fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
    }
    let mut args = Args { dataset: "paper".into(), scale: 20, quality: 0.9 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dataset" => args.dataset = value(&mut it),
            "--scale" => args.scale = value::<NonZeroUsize>(&mut it).get(),
            "--quality" => args.quality = value(&mut it),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let ds: Dataset = match args.dataset.as_str() {
        "paper" => paper_dataset(DatasetScale::paper_full().scaled(args.scale), 42),
        "award" => award_dataset(DatasetScale::award_full().scaled(args.scale), 42),
        _ => usage(),
    };
    let truth = ds.truth.clone();
    let dataset_name = ds.name;
    let cdb = Cdb::with_database(ds.db);

    println!(
        "CDB shell — dataset `{dataset_name}` at 1/{} scale, simulated workers N({}, 0.01).",
        args.scale, args.quality
    );
    println!("Type CQL, or .help for commands.\n");

    let stdin = std::io::stdin();
    let mut seed = 7u64;
    loop {
        print!("cql> ");
        std::io::stdout().flush().expect("stdout flush");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".help" => {
                println!(
                    ".tables            list tables\n\
                     .schema <table>    show a table's columns\n\
                     .queries           show the Table 4 benchmark queries\n\
                     .explain <select>  build the query graph, print stats, ask nothing\n\
                     .quit              leave\n\
                     anything else      executed as CQL against the simulated crowd"
                );
            }
            ".tables" => {
                for t in cdb.database().tables() {
                    println!(
                        "{:<14}{:>7} rows{}",
                        t.name(),
                        t.row_count(),
                        if t.is_crowd() { "  (CROWD)" } else { "" }
                    );
                }
            }
            ".queries" => {
                for q in queries_for(dataset_name) {
                    println!("[{}] {}", q.label, q.cql);
                }
            }
            _ if line.starts_with(".schema") => {
                let name = line.trim_start_matches(".schema").trim();
                match cdb.database().table(name) {
                    Ok(t) => {
                        for c in t.schema().columns() {
                            println!(
                                "{:<16}{}{}",
                                c.name,
                                c.ty.name(),
                                if c.crowd { "  CROWD" } else { "" }
                            );
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            _ if line.starts_with(".explain") => {
                let sql = line.trim_start_matches(".explain").trim();
                match cdb.plan_select(sql, &CdbConfig::default().build) {
                    Ok(g) => {
                        println!(
                            "graph: {} tuple vertices, {} candidate edges, {} predicates",
                            g.node_count(),
                            g.edge_count(),
                            g.predicate_count()
                        );
                        for (i, p) in g.predicates().iter().enumerate() {
                            println!("  predicate {i}: {}", p.description);
                        }
                        println!("open (crowd) edges: {}", g.open_edges().len());
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            sql => {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let pool = WorkerPool::gaussian(50, args.quality, 0.1, &mut rng);
                let mut platform = SimulatedPlatform::new(Market::Amt, pool, seed);
                match cdb.run_select(sql, &truth, &mut platform, &CdbConfig::default()) {
                    Ok(out) => {
                        println!(
                            "{} answers | {} tasks in {} rounds | precision {:.2} recall {:.2} F {:.2}",
                            out.stats.answers.len(),
                            out.stats.tasks_asked + out.post_tasks,
                            out.stats.rounds,
                            out.metrics.precision,
                            out.metrics.recall,
                            out.metrics.f_measure,
                        );
                        // Render up to 10 answers.
                        if let Ok(g) = cdb.plan_select(sql, &CdbConfig::default().build) {
                            let display_order: Vec<usize> = out
                                .order
                                .clone()
                                .unwrap_or_else(|| (0..out.stats.answers.len()).collect());
                            for &i in display_order.iter().take(10) {
                                let cand = &out.stats.answers[i];
                                let cells: Vec<String> = cand
                                    .binding
                                    .iter()
                                    .filter_map(|&n| g.node_tuple(n))
                                    .map(|t| format!("{}[{}]", t.table, t.row))
                                    .collect();
                                println!("  {}", cells.join(" ⋈ "));
                            }
                            if out.stats.answers.len() > 10 {
                                println!("  … and {} more", out.stats.answers.len() - 10);
                            }
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
    println!("bye.");
}
