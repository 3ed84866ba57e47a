//! The `cdb-serve` server binary: load a generated dataset, bind the
//! HTTP listener, and serve CQL until killed.
//!
//! ```text
//! cdb-serve [--addr HOST:PORT] [--dataset example|paper|award|movie]
//!           [--scale N] [--seed S] [--exec-threads T]
//!           [--round-delay-ms MS] [--price-cents C]
//!           [--budget-cents B] [--max-active A] [--queue-capacity Q]
//! ```
//!
//! `--dataset example` (default) serves the paper's Table 1 walkthrough
//! catalog; the others generate the evaluation datasets at
//! `--scale`-divided cardinalities. Tenant envelopes default to
//! `--budget-cents/--max-active/--queue-capacity` for every tenant; see
//! `docs/OPERATIONS.md` for the full operating guide. An unknown flag or
//! dataset, or a missing or unparseable value, prints this usage to
//! stderr and exits 2.

#![deny(missing_docs)]

use cdb_datagen::{
    award_dataset, movie_dataset, paper_dataset, paper_example_dataset, DatasetScale,
};
use cdb_sched::Envelope;
use cdb_serve::ServeConfig;

struct Args {
    addr: String,
    dataset: String,
    scale: usize,
    seed: u64,
    exec_threads: usize,
    round_delay_ms: u64,
    price_cents: u64,
    budget_cents: u64,
    max_active: usize,
    queue_capacity: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: cdb-serve [--addr HOST:PORT] [--dataset example|paper|award|movie] [--scale N] \
         [--seed S] [--exec-threads T] [--round-delay-ms MS] [--price-cents C] \
         [--budget-cents B] [--max-active A] [--queue-capacity Q]"
    );
    std::process::exit(2);
}

/// The parsed flags. A flag it does not know, a missing value, one that
/// does not parse or `--max-active 0` (an envelope that could admit no
/// query) exits through [`usage`].
fn parse_args() -> Args {
    fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
    }
    let mut args = Args {
        addr: "127.0.0.1:8744".into(),
        dataset: "example".into(),
        scale: 10,
        seed: 0,
        exec_threads: 4,
        round_delay_ms: 0,
        price_cents: 2,
        budget_cents: 100_000,
        max_active: 8,
        queue_capacity: 128,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = value(&mut it),
            "--dataset" => args.dataset = value(&mut it),
            "--scale" => args.scale = value(&mut it),
            "--seed" => args.seed = value(&mut it),
            "--exec-threads" => args.exec_threads = value(&mut it),
            "--round-delay-ms" => args.round_delay_ms = value(&mut it),
            "--price-cents" => args.price_cents = value(&mut it),
            "--budget-cents" => args.budget_cents = value(&mut it),
            "--max-active" => args.max_active = value(&mut it),
            "--queue-capacity" => args.queue_capacity = value(&mut it),
            _ => usage(),
        }
    }
    if args.max_active == 0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let (db, truth) = match args.dataset.as_str() {
        "example" => paper_example_dataset(),
        name => {
            let scale = DatasetScale::paper_full().scaled(args.scale.max(1));
            let ds = match name {
                "paper" => paper_dataset(scale, args.seed),
                "award" => {
                    award_dataset(DatasetScale::award_full().scaled(args.scale.max(1)), args.seed)
                }
                "movie" => {
                    movie_dataset(DatasetScale::movie_full().scaled(args.scale.max(1)), args.seed)
                }
                _ => usage(),
            };
            (ds.db, ds.truth)
        }
    };
    let mut cfg = ServeConfig::default();
    cfg.runtime.seed = args.seed;
    cfg.exec_threads = args.exec_threads;
    cfg.round_delay_ms = args.round_delay_ms;
    cfg.task_price_cents = args.price_cents;
    cfg.default_envelope = Envelope {
        budget_cents: args.budget_cents,
        max_active: args.max_active,
        queue_capacity: args.queue_capacity,
    };
    let server = cdb_serve::start(&args.addr, db, truth, cfg).expect("bind listener");
    eprintln!(
        "cdb-serve listening on http://{} (dataset {}, seed {}, {} exec threads)",
        server.addr(),
        args.dataset,
        args.seed,
        args.exec_threads,
    );
    eprintln!("endpoints: POST /queries · GET /queries/<id>/stream · GET /metrics · GET /catalog");
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
