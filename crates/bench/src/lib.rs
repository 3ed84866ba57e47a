//! Experiment harness: run any of the paper's eight methods on a generated
//! dataset + query and report the three metrics (cost = #tasks, latency =
//! #rounds, quality = F-measure).
//!
//! Used by the `figures` binary, which regenerates every table and figure
//! of the evaluation section, and by `tests/pinned_counts.rs`, which pins
//! the deterministic counts of the profiled, durable, sharded and reuse
//! sweeps.

use std::collections::BTreeSet;

use cdb_baselines::er::run_er_constrained;
use cdb_baselines::tree::run_tree_constrained;
use cdb_baselines::{budget_baseline, crowddb_order, deco_order, opt_tree_order, qurk_order};
use cdb_core::executor::{
    true_answers, EdgeTruth, Executor, ExecutorConfig, QualityStrategy, SelectionStrategy,
};
use cdb_core::model::{NodeId, QueryGraph};
use cdb_core::SimCrowd;
use cdb_core::{metrics::precision_recall, metrics::PrMetrics, plan_select, GraphBuildConfig};
use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};
use cdb_datagen::Dataset;
use cdb_similarity::SimilarityFn;

/// The methods of Figures 8–16. The paper's ACD is folded into Trans
/// (DESIGN.md, deviation 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Transitivity-based crowd ER.
    Trans,
    /// Rule-based tree model, selections pushed down.
    CrowdDb,
    /// Rule-based tree model, predicates as written.
    Qurk,
    /// Cost-based tree model.
    Deco,
    /// Tree-model lower bound (oracle order).
    OptTree,
    /// Graph model, sampling + min-cut selection.
    MinCut,
    /// Graph model, expectation-based selection (majority voting).
    Cdb,
    /// CDB plus quality control (EM + Bayesian voting, task assignment).
    CdbPlus,
}

impl Method {
    /// All eight, in the figures' legend order.
    pub fn all() -> [Method; 8] {
        [
            Method::Trans,
            Method::CrowdDb,
            Method::Qurk,
            Method::Deco,
            Method::OptTree,
            Method::MinCut,
            Method::Cdb,
            Method::CdbPlus,
        ]
    }

    /// Legend name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Trans => "Trans",
            Method::CrowdDb => "CrowdDB",
            Method::Qurk => "Qurk",
            Method::Deco => "Deco",
            Method::OptTree => "OptTree",
            Method::MinCut => "MinCut",
            Method::Cdb => "CDB",
            Method::CdbPlus => "CDB+",
        }
    }
}

/// One run's metrics.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Tasks asked.
    pub tasks: usize,
    /// Crowd rounds.
    pub rounds: usize,
    /// Result quality.
    pub metrics: PrMetrics,
}

/// Experiment knobs shared across figures.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Mean worker accuracy (Gaussian `N(q, 0.01)`).
    pub worker_quality: f64,
    /// Workers per task.
    pub redundancy: usize,
    /// Worker pool size.
    pub pool_size: usize,
    /// Similarity function for graph construction.
    pub similarity: SimilarityFn,
    /// Graph edge threshold ε.
    pub epsilon: f64,
    /// Samples for the MinCut method (paper real runs: 100).
    pub mincut_samples: usize,
    /// Latency constraint (Figure 22), if any.
    pub max_rounds: Option<usize>,
    /// Use the paper's flat error model (see DESIGN.md §1) instead of the
    /// difficulty-aware default.
    pub flat_errors: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            worker_quality: 0.8,
            redundancy: 5,
            pool_size: 50,
            similarity: SimilarityFn::default(),
            epsilon: 0.3,
            mincut_samples: 30,
            max_rounds: None,
            flat_errors: false,
            seed: 0,
        }
    }
}

/// Build the query graph + edge truth for one query over a dataset.
pub fn prepare(ds: &Dataset, cql: &str, cfg: &ExpConfig) -> (QueryGraph, EdgeTruth) {
    let build = GraphBuildConfig { similarity: cfg.similarity, epsilon: cfg.epsilon };
    let (_, g) = plan_select(&ds.db, cql, &build).expect("benchmark query plans");
    let truth = ds.truth.edge_truth(&g);
    (g, truth)
}

/// A fleet of self-join query jobs over a clustered label universe: two
/// parts hold the *same* `items` labels (a self-join duplicates the
/// relation) and the truth marks `(i, j)` matching iff `i % clusters ==
/// j % clusters`. Because truth is a partition of the labels, the recorded
/// answers are transitively consistent — exactly the workload where the
/// answer-reuse cache's entailment layer (cross-query and cross-run) can
/// resolve tasks without dispatch.
pub fn selfjoin_jobs(n_queries: u64, items: usize, clusters: usize) -> Vec<cdb_runtime::QueryJob> {
    use cdb_core::model::PartKind;
    assert!(clusters >= 1);
    (0..n_queries)
        .map(|id| {
            let mut g = QueryGraph::new();
            let a = g.add_part(PartKind::Table { name: "R".into() });
            let b = g.add_part(PartKind::Table { name: "R_dup".into() });
            let an: Vec<NodeId> =
                (0..items).map(|i| g.add_node(a, None, format!("item {i}"))).collect();
            let bn: Vec<NodeId> =
                (0..items).map(|i| g.add_node(b, None, format!("item {i}"))).collect();
            let p = g.add_predicate(a, b, true, "R.v~R.v");
            let mut truth = EdgeTruth::new();
            for (i, &x) in an.iter().enumerate() {
                for (j, &y) in bn.iter().enumerate() {
                    let e = g.add_edge(x, y, p, 0.5);
                    truth.insert(e, i % clusters == j % clusters);
                }
            }
            cdb_runtime::QueryJob { id, graph: g, truth }
        })
        .collect()
}

fn platform(cfg: &ExpConfig) -> SimulatedPlatform {
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
    let pool = WorkerPool::gaussian(cfg.pool_size, cfg.worker_quality, 0.1, &mut rng);
    SimulatedPlatform::new(Market::Amt, pool, cfg.seed)
}

/// Run one method on a prepared graph. `cfg.max_rounds` is the latency
/// constraint (Figure 22): graph methods use the executor's native
/// constraint, tree and ER methods their flush variants.
pub fn run_method(method: Method, g: &QueryGraph, truth: &EdgeTruth, cfg: &ExpConfig) -> RunResult {
    let reference: BTreeSet<Vec<NodeId>> =
        true_answers(g, truth).into_iter().map(|c| c.binding).collect();
    let mut p = platform(cfg);
    let mut crowd = SimCrowd::new(&mut p, truth);
    match method {
        Method::Trans => {
            let stats = run_er_constrained(g, &mut crowd, cfg.redundancy, cfg.max_rounds);
            RunResult {
                tasks: stats.tasks_asked,
                rounds: stats.rounds,
                metrics: precision_recall(&stats.answer_bindings(), &reference),
            }
        }
        Method::CrowdDb | Method::Qurk | Method::Deco | Method::OptTree => {
            let order = match method {
                Method::CrowdDb => crowddb_order(g),
                Method::Qurk => qurk_order(g),
                Method::Deco => deco_order(g),
                Method::OptTree => opt_tree_order(g, truth),
                _ => unreachable!(),
            };
            let stats = run_tree_constrained(g, &mut crowd, cfg.redundancy, &order, cfg.max_rounds);
            RunResult {
                tasks: stats.tasks_asked,
                rounds: stats.rounds,
                metrics: precision_recall(&stats.answer_bindings(), &reference),
            }
        }
        Method::MinCut | Method::Cdb | Method::CdbPlus => {
            let exec_cfg = ExecutorConfig {
                redundancy: cfg.redundancy,
                selection: if method == Method::MinCut {
                    SelectionStrategy::MinCutSampling { samples: cfg.mincut_samples }
                } else {
                    SelectionStrategy::Expectation
                },
                quality: if method == Method::CdbPlus {
                    QualityStrategy::EmBayes
                } else {
                    QualityStrategy::MajorityVote
                },
                use_task_assignment: method == Method::CdbPlus,
                parallel_rounds: true,
                budget: None,
                max_rounds: cfg.max_rounds,
                flat_difficulty: cfg.flat_errors,
                seed: cfg.seed,
            };
            let stats = Executor::new(g.clone(), &mut crowd, exec_cfg).run();
            RunResult {
                tasks: stats.tasks_asked,
                rounds: stats.rounds,
                metrics: precision_recall(&stats.answer_bindings(), &reference),
            }
        }
    }
}

/// Budget experiments (Figures 18/19): precision/recall of the CDB budget
/// executor (`plus` toggles CDB+ quality control) or the DFS baseline.
pub fn run_budget(
    method_is_baseline: bool,
    plus: bool,
    g: &QueryGraph,
    truth: &EdgeTruth,
    budget: usize,
    cfg: &ExpConfig,
) -> PrMetrics {
    let reference: BTreeSet<Vec<NodeId>> =
        true_answers(g, truth).into_iter().map(|c| c.binding).collect();
    let mut p = platform(cfg);
    let mut crowd = SimCrowd::new(&mut p, truth);
    if method_is_baseline {
        let stats = budget_baseline(g, &mut crowd, cfg.redundancy, budget);
        precision_recall(&stats.answers, &reference)
    } else {
        let exec_cfg = ExecutorConfig {
            redundancy: cfg.redundancy,
            budget: Some(budget),
            quality: if plus { QualityStrategy::EmBayes } else { QualityStrategy::MajorityVote },
            use_task_assignment: plus,
            flat_difficulty: cfg.flat_errors,
            seed: cfg.seed,
            ..ExecutorConfig::default()
        };
        let stats = Executor::new(g.clone(), &mut crowd, exec_cfg).run();
        precision_recall(&stats.answer_bindings(), &reference)
    }
}

/// Average several runs of a method with different seeds.
pub fn run_method_avg(
    method: Method,
    g: &QueryGraph,
    truth: &EdgeTruth,
    cfg: &ExpConfig,
    reps: usize,
) -> RunResult {
    assert!(reps > 0);
    let mut tasks = 0usize;
    let mut rounds = 0usize;
    let mut f = 0.0;
    let mut prec = 0.0;
    let mut rec = 0.0;
    for r in 0..reps {
        let run = run_method(method, g, truth, &ExpConfig { seed: cfg.seed + r as u64, ..*cfg });
        tasks += run.tasks;
        rounds += run.rounds;
        f += run.metrics.f_measure;
        prec += run.metrics.precision;
        rec += run.metrics.recall;
    }
    let n = reps as f64;
    RunResult {
        tasks: tasks / reps,
        rounds: rounds / reps,
        metrics: PrMetrics { precision: prec / n, recall: rec / n, f_measure: f / n },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_datagen::{paper_dataset, queries_for, DatasetScale};

    fn tiny() -> Dataset {
        paper_dataset(DatasetScale::paper_full().scaled(40), 7)
    }

    #[test]
    fn all_methods_run_on_2j() {
        let ds = tiny();
        let q = &queries_for("paper")[0];
        let cfg = ExpConfig::default();
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        for m in Method::all() {
            let r = run_method(m, &g, &truth, &cfg);
            assert!(r.tasks > 0, "{}: no tasks", m.name());
            assert!(r.rounds > 0, "{}: no rounds", m.name());
            assert!((0.0..=1.0).contains(&r.metrics.f_measure));
        }
    }

    #[test]
    fn graph_methods_cost_less_than_tree_methods() {
        let ds = tiny();
        let q = &queries_for("paper")[0];
        let cfg = ExpConfig { worker_quality: 0.95, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let cdb = run_method_avg(Method::Cdb, &g, &truth, &cfg, 3);
        let crowddb = run_method_avg(Method::CrowdDb, &g, &truth, &cfg, 3);
        assert!(
            cdb.tasks < crowddb.tasks,
            "CDB {} should beat CrowdDB {}",
            cdb.tasks,
            crowddb.tasks
        );
    }

    #[test]
    fn opt_tree_at_most_written_order() {
        let ds = tiny();
        let q = &queries_for("paper")[1]; // 2J1S
        let cfg = ExpConfig { worker_quality: 1.0, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let opt = run_method(Method::OptTree, &g, &truth, &cfg);
        let qurk = run_method(Method::Qurk, &g, &truth, &cfg);
        assert!(opt.tasks <= qurk.tasks, "OptTree {} > Qurk {}", opt.tasks, qurk.tasks);
    }

    #[test]
    fn selfjoin_jobs_have_consistent_clustered_truth() {
        let jobs = selfjoin_jobs(2, 6, 3);
        assert_eq!(jobs.len(), 2);
        for job in &jobs {
            assert_eq!(job.graph.edge_count(), 36);
            // Truth is an equivalence: i ~ j iff i % 3 == j % 3.
            for e in 0..job.graph.edge_count() {
                let e = cdb_core::model::EdgeId(e);
                let (u, v) = job.graph.edge_endpoints(e);
                let same = (u.0 % 6) % 3 == (v.0 % 6) % 3;
                assert_eq!(job.truth.get(&e), Some(&same));
            }
        }
    }

    #[test]
    fn budget_recall_grows_with_budget() {
        let ds = tiny();
        let q = &queries_for("paper")[0];
        let cfg = ExpConfig { worker_quality: 0.95, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let small = run_budget(false, false, &g, &truth, 10, &cfg);
        let large = run_budget(false, false, &g, &truth, 400, &cfg);
        assert!(large.recall >= small.recall);
    }

    #[test]
    fn cdb_budget_beats_baseline_on_recall() {
        let ds = tiny();
        let q = &queries_for("paper")[0];
        let cfg = ExpConfig { worker_quality: 0.95, ..Default::default() };
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        let budget = 30;
        let mut cdb_rec = 0.0;
        let mut base_rec = 0.0;
        for s in 0..3 {
            let c = ExpConfig { seed: s, ..cfg };
            cdb_rec += run_budget(false, false, &g, &truth, budget, &c).recall;
            base_rec += run_budget(true, false, &g, &truth, budget, &c).recall;
        }
        assert!(cdb_rec >= base_rec, "CDB recall {cdb_rec} should be at least baseline {base_rec}");
    }
}
