//! Every deterministic count of the profiled Table 5 sweep, the durable
//! store and the shard scaling sweep, pinned at seed 42 and scale 10.
//!
//! These workloads are seeded, so their counts are the same on every
//! machine: a drift means the measured work changed, not the host. Only
//! counts live here; wall-clock timings of the same layers are reported by
//! `cdb-benchmark` (`core.select_*`, `similarity.join_ms`,
//! `store.recover_ms`, `shard.pass_ms_p50`, ...).
//!
//! EXPERIMENTS.md quotes these numbers (the Table 5 decomposition and the
//! shard table). A change that moves one on purpose updates the constant
//! here and the document in the same commit.

use std::sync::{Arc, Mutex};

use cdb_bench::{prepare, selfjoin_jobs, ExpConfig};
use cdb_core::executor::{Executor, ExecutorConfig, QualityStrategy, SelectionStrategy};
use cdb_core::{QueryGraph, ReuseCache, SettleSink, SettledFact};
use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};
use cdb_datagen::{
    award_dataset, movie_dataset, paper_dataset, queries_for, Dataset, DatasetScale,
};
use cdb_obsv::profile::{install, ProfileReport, Profiler};
use cdb_runtime::{QueryJob, RetryPolicy, RuntimeConfig, RuntimeExecutor, SettleHook};
use cdb_shard::{MemoryConfig, ShardConfig, ShardExecutor};
use cdb_storage::{ColumnDef, ColumnType, Schema, Table, Value};
use cdb_store::{AnswerLog, DurableReuseCache, ScratchDir, TableFile, DEFAULT_SEGMENT_BYTES};

const SEED: u64 = 42;
const SCALE: usize = 10;

fn dataset(name: &str) -> Dataset {
    match name {
        "paper" => paper_dataset(DatasetScale::paper_full().scaled(SCALE), SEED),
        "award" => award_dataset(DatasetScale::award_full().scaled(SCALE), SEED),
        "movie" => movie_dataset(DatasetScale::movie_full().scaled(SCALE), SEED),
        _ => unreachable!(),
    }
}

/// One profiled execution: graph build plus the graph executor with an
/// answer-reuse session attached (so `entail.resolve` is on the path).
/// Returns the phase report and `[edges, tasks, rounds, reuse_saved]`.
fn profiled_run(
    ds: &Dataset,
    cql: &str,
    mincut_samples: Option<usize>,
) -> (ProfileReport, [usize; 4]) {
    let cfg = ExpConfig { worker_quality: 0.95, seed: SEED, ..Default::default() };
    let profiler = Arc::new(Profiler::new());
    let guard = install(Arc::clone(&profiler));
    let (g, truth) = prepare(ds, cql, &cfg);
    let edges = g.edge_count();
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(SEED ^ 0x9e37_79b9);
    let pool = WorkerPool::gaussian(cfg.pool_size, cfg.worker_quality, 0.1, &mut rng);
    let mut platform = SimulatedPlatform::new(Market::Amt, pool, SEED);
    let exec_cfg = ExecutorConfig {
        redundancy: cfg.redundancy,
        selection: match mincut_samples {
            Some(samples) => SelectionStrategy::MinCutSampling { samples },
            None => SelectionStrategy::Expectation,
        },
        quality: QualityStrategy::MajorityVote,
        use_task_assignment: false,
        parallel_rounds: true,
        budget: None,
        max_rounds: None,
        flat_difficulty: false,
        seed: SEED,
    };
    let session = Arc::new(Mutex::new(ReuseCache::new().snapshot()));
    let stats = Executor::new(g, &truth, &mut platform, exec_cfg).with_reuse(session).run();
    drop(guard);
    (profiler.report(), [edges, stats.tasks_asked, stats.rounds, stats.tasks_saved])
}

/// `(path, depth, count)` of every phase, in report order.
fn phases(report: &ProfileReport) -> Vec<(&str, usize, u64)> {
    report.entries.iter().map(|e| (e.path.as_str(), e.depth, e.count)).collect()
}

/// The phase tree every expectation-selection run records, in report
/// order; only the counts differ between workloads.
const TABLE5_PHASES: [(&str, usize); 11] = [
    ("graph.build", 0),
    ("graph.build;similarity.join", 1),
    ("graph.build;prune", 1),
    ("prune", 0),
    ("entail.resolve", 0),
    ("task.select", 0),
    ("task.select;select.expectation", 1),
    ("task.select;select.expectation;select.cascade", 2),
    ("task.select;select.candidates", 1),
    ("round.dispatch", 0),
    ("quality.infer", 0),
];

/// `(dataset, query, [edges, tasks, rounds, reuse_saved], phase counts in
/// TABLE5_PHASES order)`, one row per Table 5 workload.
#[rustfmt::skip]
const TABLE5: [(&str, &str, [usize; 4], [u64; 11]); 15] = [
    ("paper", "2J",   [1333, 1000, 2, 0], [1, 2, 1, 3, 2, 2, 2, 506, 2, 2, 2]),
    ("paper", "2J1S", [1355,  303, 3, 0], [1, 2, 1, 4, 3, 3, 3, 569, 3, 3, 3]),
    ("paper", "3J",   [3963, 1841, 3, 0], [1, 3, 1, 4, 3, 3, 3, 990, 3, 3, 3]),
    ("paper", "3J1S", [4001,  958, 4, 0], [1, 3, 1, 5, 4, 4, 4, 1103, 4, 4, 4]),
    ("paper", "3J2S", [4023,  365, 5, 0], [1, 3, 1, 6, 5, 5, 5, 1026, 5, 5, 5]),
    ("award", "2J",   [2562, 1977, 2, 0], [1, 2, 1, 3, 2, 2, 2, 1344, 2, 2, 2]),
    ("award", "2J1S", [2698,  937, 3, 1], [1, 2, 1, 5, 4, 3, 3, 1583, 3, 3, 3]),
    ("award", "3J",   [6793, 3822, 3, 1], [1, 3, 1, 5, 4, 3, 3, 2272, 3, 3, 3]),
    ("award", "3J1S", [6929, 2083, 4, 2], [1, 3, 1, 6, 5, 4, 4, 2461, 4, 4, 4]),
    ("award", "3J2S", [6930,   37, 4, 0], [1, 3, 1, 5, 4, 4, 4, 402, 4, 4, 4]),
    ("movie", "2J",   [2480, 1776, 2, 0], [1, 2, 1, 3, 2, 2, 2, 746, 2, 2, 2]),
    ("movie", "2J1S", [2520,  872, 3, 0], [1, 2, 1, 4, 3, 3, 3, 897, 3, 3, 3]),
    ("movie", "3J",   [3945, 2239, 3, 0], [1, 3, 1, 4, 3, 3, 3, 1106, 3, 3, 3]),
    ("movie", "3J1S", [3957, 1096, 4, 0], [1, 3, 1, 5, 4, 4, 4, 1533, 4, 4, 4]),
    ("movie", "3J2S", [3997,  409, 5, 0], [1, 3, 1, 6, 5, 5, 5, 1162, 5, 5, 5]),
];

#[test]
fn table5_workloads_record_their_pinned_counts_and_phase_trees() {
    let mut rows = TABLE5.iter();
    for name in ["paper", "award", "movie"] {
        let ds = dataset(name);
        for q in queries_for(name) {
            let &(ds_name, label, counts, phase_counts) = rows.next().expect("a row per query");
            assert_eq!((ds_name, label), (name, q.label));
            let (report, got) = profiled_run(&ds, &q.cql, None);
            assert_eq!(got, counts, "{name}/{label}: [edges, tasks, rounds, reuse_saved]");
            let want: Vec<_> = TABLE5_PHASES
                .iter()
                .zip(phase_counts)
                .map(|(&(path, depth), count)| (path, depth, count))
                .collect();
            assert_eq!(phases(&report), want, "{name}/{label}: phase tree");
            if (name, label) == ("award", "3J1S") {
                assert_select_decomposes(&report);
            }
        }
    }
    assert!(rows.next().is_none(), "every pinned row ran");
}

/// The award/3J1S outlier's task selection decomposes into >= 3
/// sub-phases whose self times carry >= 95% of `task.select`.
fn assert_select_decomposes(report: &ProfileReport) {
    let select = report.get("task.select").expect("task.select profiled");
    let subs: Vec<_> =
        report.entries.iter().filter(|e| e.path.starts_with("task.select;")).collect();
    let sub_self_ns: u64 = subs.iter().map(|e| e.self_ns).sum();
    let coverage = sub_self_ns as f64 / select.total_ns.max(1) as f64;
    assert!(subs.len() >= 3, "task.select has {} sub-phases", subs.len());
    assert!(coverage >= 0.95, "sub-phases cover {:.1}% of task.select", 100.0 * coverage);
}

#[test]
fn mincut_selection_runs_the_max_flow_kernel_once_per_sample() {
    let ds = dataset("paper");
    let (report, counts) = profiled_run(&ds, &queries_for("paper")[0].cql, Some(8));
    assert_eq!(counts[..3], [1333, 1120, 2], "paper/2J MinCut: [edges, tasks, rounds]");
    let want = [
        ("graph.build", 0, 1),
        ("graph.build;similarity.join", 1, 2),
        ("graph.build;prune", 1, 1),
        ("prune", 0, 3),
        ("entail.resolve", 0, 2),
        ("task.select", 0, 2),
        ("task.select;select.mincut", 1, 1),
        ("task.select;select.mincut;select.maxflow", 2, 8),
        ("task.select;select.mincut;select.expectation", 2, 1),
        ("task.select;select.mincut;select.expectation;select.cascade", 3, 341),
        ("task.select;select.candidates", 1, 2),
        ("round.dispatch", 0, 2),
        ("quality.infer", 0, 2),
    ];
    assert_eq!(phases(&report), want);
}

/// Settle `queries` queries of four facts each into a fresh answer log.
fn write_log(dir: &ScratchDir, queries: usize) {
    let (mut log, _) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).expect("open log");
    for q in 0..queries {
        let facts: Vec<SettledFact> = (0..4)
            .map(|i| SettledFact {
                measure: "bench.v~v".into(),
                left: format!("item #{}", q * 4 + i),
                right: format!("item #{}", q * 4 + i + 1),
                same: (q + i).is_multiple_of(2),
                votes: 3,
                cents: 15,
            })
            .collect();
        log.append_settled(q as u64, &facts).expect("append");
    }
}

#[test]
fn store_settles_fsync_twice_and_a_reopen_replays_once() {
    let profiler = Arc::new(Profiler::new());
    let guard = install(Arc::clone(&profiler));
    let dir = ScratchDir::new("pinned-fsync");
    write_log(&dir, 64);
    let cache = DurableReuseCache::open(dir.path()).expect("recover");
    drop(guard);
    assert_eq!(phases(&profiler.report()), [("wal.fsync", 0, 128), ("reuse.replay", 0, 1)]);
    assert_eq!(cache.replay_snapshots(), 64);
}

#[test]
fn store_recovery_replays_every_settled_query_from_one_clean_segment() {
    for queries in [100usize, 400, 1600] {
        let dir = ScratchDir::new("pinned-recover");
        write_log(&dir, queries);
        let cache = DurableReuseCache::open(dir.path()).expect("recover");
        let recovery = cache.recovery();
        assert_eq!(recovery.settled_facts(), 4 * queries as u64, "{queries} queries");
        assert_eq!(cache.replay_snapshots(), queries as u64, "{queries} queries");
        assert_eq!(recovery.wal.segments, 1, "{queries} queries");
        assert!(recovery.wal.torn.is_none(), "{queries} queries: torn tail");
    }
}

#[test]
fn store_restart_answers_the_same_fleet_without_dispatch() {
    let dir = ScratchDir::new("pinned-restart");
    let run = |durable: &Arc<DurableReuseCache>| {
        let cfg = RuntimeConfig {
            threads: 4,
            seed: SEED,
            worker_accuracies: vec![1.0; 20],
            reuse: Some(durable.cache()),
            settle: Some(SettleHook::new(Arc::clone(durable) as Arc<dyn SettleSink>)),
            ..RuntimeConfig::default()
        };
        RuntimeExecutor::new(cfg).run(selfjoin_jobs(6, 8, 3))
    };
    let cold = run(&Arc::new(DurableReuseCache::open(dir.path()).expect("open")));
    let warm = run(&Arc::new(DurableReuseCache::open(dir.path()).expect("reopen")));
    let counts =
        |r: &cdb_runtime::RuntimeReport| (r.metrics.tasks_dispatched, r.metrics.tasks_saved);
    assert_eq!(counts(&cold), (1866, 48), "cold (dispatched, saved)");
    assert_eq!(counts(&warm), (0, 384), "warm (dispatched, saved)");
    assert_eq!(cold.bindings_text(), warm.bindings_text(), "a restart changed answers");
}

#[test]
fn store_table_flush_writes_pinned_bytes_and_reopens_every_row() {
    let dir = ScratchDir::new("pinned-tables");
    let path = dir.path().join("tables.cdb");
    let schema = Schema::new(vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::crowd("brand", ColumnType::Text),
    ]);
    let mut table = Table::new_crowd("products", schema);
    for i in 0..2000 {
        table.push(vec![Value::Int(i), Value::Text(format!("brand-{}", i % 97))]).unwrap();
    }
    {
        let (mut file, mut db) = TableFile::open(&path).expect("open db");
        db.add_table(table).expect("add table");
        let stats = file.flush(&db).expect("flush");
        assert_eq!((stats.bytes, stats.seq), (43_862, 2));
    }
    let (_, db) = TableFile::open(&path).expect("reopen db");
    assert_eq!(db.table("products").map(|t| t.row_count()).ok(), Some(2000));
}

/// One configuration's counts: `(shards, streaming, units, ok,
/// virtual_makespan, virtual_total, peak_shard_bytes, tasks, cents)`.
type ShardRow = (usize, bool, usize, usize, u64, u64, u64, u64, u64);

/// Per dataset multiplier, the four configurations in run order; index 0
/// is the monolithic baseline that materializes every component up front.
#[rustfmt::skip]
const SHARD_SWEEP: [(usize, [ShardRow; 4]); 2] = [
    (1, [
        (1, false, 64, 20, 19_598_432, 19_598_432, 396_876, 3065, 15_325),
        (1, true,  64, 20, 19_598_432, 19_598_432,  24_844, 3065, 15_325),
        (2, true,  64, 20, 13_003_959, 19_598_432,  24_844, 3065, 15_325),
        (4, true,  64, 20,  6_863_115, 19_598_432,  24_844, 3065, 15_325),
    ]),
    (10, [
        (1, false, 20, 20, 29_151_301, 29_151_301, 14_678_972, 169_145, 845_725),
        (1, true,  20, 20, 29_151_301, 29_151_301,    964_067, 169_145, 845_725),
        (2, true,  20, 20, 15_019_029, 29_151_301,    964_067, 169_145, 845_725),
        (4, true,  20, 20,  8_012_868, 29_151_301,    964_067, 169_145, 845_725),
    ]),
];

/// The shard scaling sweep: four replicas of each award query (20 jobs)
/// at `1/(SCALE*10)` of the paper's award tables and at 10x that, each
/// run monolithic and at 1/2/4 streaming shards. One runtime thread keeps
/// per-shard peak bytes deterministic.
#[test]
fn shard_sweep_counts_bindings_and_conservation_are_pinned() {
    let base = DatasetScale::award_full().scaled(SCALE * 10);
    for (m, rows) in SHARD_SWEEP {
        let ds = award_dataset(base.times(m), SEED);
        let cfg = ExpConfig { worker_quality: 0.95, seed: SEED, ..Default::default() };
        let prepared: Vec<(QueryGraph, cdb_core::EdgeTruth)> =
            queries_for("award").iter().map(|q| prepare(&ds, &q.cql, &cfg)).collect();
        let jobs: Vec<QueryJob> = (0..4u64)
            .flat_map(|r| {
                prepared.iter().enumerate().map(move |(i, (g, t))| QueryJob {
                    id: r * 5 + i as u64,
                    graph: g.clone(),
                    truth: t.clone(),
                })
            })
            .collect();
        assert_eq!((base.times(m).rows(), jobs.len()), (83 * m, 20));
        let rcfg = RuntimeConfig {
            threads: 1,
            seed: SEED,
            worker_accuracies: vec![0.95; 25],
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
            ..RuntimeConfig::default()
        };
        let mut bindings = Vec::new();
        for row in rows {
            let (shards, streaming, ..) = row;
            let sc = ShardConfig {
                shards,
                runtime: rcfg.clone(),
                memory: MemoryConfig { ceiling_bytes: None, streaming },
            };
            let report = ShardExecutor::new(sc).run(jobs.clone()).expect("no memory ceiling set");
            let tasks: u64 = report.shards.iter().map(|s| s.metrics.tasks_dispatched).sum();
            let cents: u64 = report.shards.iter().map(|s| s.metrics.cost_cents).sum();
            assert_eq!(tasks, report.metrics.tasks_dispatched, "x{m} {shards}: task conservation");
            assert_eq!(cents, report.metrics.cost_cents, "x{m} {shards}: money conservation");
            let got: ShardRow = (
                shards,
                streaming,
                report.units.len(),
                report.ok_count(),
                report.virtual_makespan(),
                report.shards.iter().map(|s| s.virtual_ms).sum(),
                report.peak_bytes_max(),
                tasks,
                cents,
            );
            assert_eq!(got, row, "x{m}");
            bindings.push(report.bindings_text());
        }
        assert!(bindings.iter().all(|b| *b == bindings[0]), "x{m}: bindings differ by config");
        if m == 10 {
            let (mono, four) = (rows[0], rows[3]);
            let speedup = mono.4 as f64 / four.4 as f64;
            assert!(speedup >= 2.0, "4 shards give {speedup:.2}x virtual speedup");
            assert!(four.6 < mono.6, "4-shard peak {} >= monolithic {}", four.6, mono.6);
        }
    }
}
