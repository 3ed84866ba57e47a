//! Turn a [`ScenarioSpec`] into executable material: query jobs with
//! ground truth, and the runtime configuration for the environment.
//! Everything here is a pure function of the spec, so a replayed repro
//! file rebuilds the identical world.

use cdb_core::executor::EdgeTruth;
use cdb_core::model::{NodeId, PartKind};
use cdb_core::{plan_select, GraphBuildConfig, QueryGraph};
use cdb_crowd::stream_key;
use cdb_datagen::{
    award_dataset, cluster_labels, paper_dataset, queries_for, DatasetScale, DirtConfig,
};
use cdb_obsv::Trace;
use cdb_runtime::{FaultPlan, QueryJob, RetryPolicy, RuntimeConfig};
use rand::Rng;

use crate::scenario::{QueryShape, ScenarioSpec};

/// Stream salts: every randomized ingredient of a scenario draws from its
/// own `(spec.seed, salt)` stream, so ingredients never perturb each
/// other when the shrinker removes one.
pub mod salt {
    /// Entity labels for `Cluster` queries.
    pub const LABELS: u64 = 0x1ABE1;
    /// Worker-accuracy distribution.
    pub const ACCURACY: u64 = 0x0ACC;
    /// Fault-plan stream root.
    pub const FAULTS: u64 = 0xFA_17;
    /// Generated-dataset stream root.
    pub const DATASET: u64 = 0xDA_7A;
    /// FILL auxiliary workload.
    pub const FILL: u64 = 0xF1_11;
    /// COLLECT auxiliary workload.
    pub const COLLECT: u64 = 0xC0_11;
}

/// The shared predicate description of every `Cluster` query: all of them
/// ask the same question of the same label space, so they share one reuse
/// measure — the workload that stresses cross-query entailment hardest.
pub const CLUSTER_MEASURE: &str = "sim.entity~entity";

/// The scenario's workload, materialized.
pub struct World {
    /// One job per `QueryShape`, ids `0..n` in spec order.
    pub jobs: Vec<QueryJob>,
    /// True when every query is a `Cluster` shape (the label → entity map
    /// is total, enabling the label-level soundness check).
    pub all_cluster: bool,
}

/// Label of cluster item `i` — a pure function of `(seed, i, clusters)`.
/// Left and right sides share the label space on purpose: repeated pairs
/// across queries are what give the reuse cache something to entail.
#[cfg(test)]
fn item_label(spec: &ScenarioSpec, i: usize) -> String {
    let max = spec
        .queries
        .iter()
        .map(|q| match q {
            QueryShape::Cluster { left, right } => *left.max(right),
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    // cluster_labels is prefix-stable, so asking for the scenario-wide
    // maximum and indexing is equivalent to per-query pools.
    let pool = cluster_labels(
        max,
        spec.clusters,
        stream_key(spec.seed, &[salt::LABELS]),
        &DirtConfig::default(),
    );
    pool[i].clone()
}

/// Build every query job in the spec, in id order.
pub fn build_world(spec: &ScenarioSpec) -> World {
    let label_seed = stream_key(spec.seed, &[salt::LABELS]);
    let max_items = spec
        .queries
        .iter()
        .map(|q| match q {
            QueryShape::Cluster { left, right } => *left.max(right),
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let labels = cluster_labels(max_items, spec.clusters, label_seed, &DirtConfig::default());
    let mut jobs = Vec::with_capacity(spec.queries.len());
    let mut all_cluster = true;
    for (id, shape) in spec.queries.iter().enumerate() {
        let job = match shape {
            QueryShape::Cluster { left, right } => {
                cluster_job(id as u64, *left, *right, spec.clusters, &labels)
            }
            QueryShape::Dataset { paper, scale, query } => {
                all_cluster = false;
                dataset_job(id as u64, spec, *paper, *scale, *query)
            }
        };
        jobs.push(job);
    }
    World { jobs, all_cluster }
}

fn cluster_job(id: u64, left: usize, right: usize, clusters: usize, labels: &[String]) -> QueryJob {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: "L".into() });
    let b = g.add_part(PartKind::Table { name: "R".into() });
    let an: Vec<NodeId> = (0..left).map(|i| g.add_node(a, None, labels[i].clone())).collect();
    let bn: Vec<NodeId> = (0..right).map(|j| g.add_node(b, None, labels[j].clone())).collect();
    let p = g.add_predicate(a, b, true, CLUSTER_MEASURE);
    let mut truth = EdgeTruth::new();
    for (i, &x) in an.iter().enumerate() {
        for (j, &y) in bn.iter().enumerate() {
            let e = g.add_edge(x, y, p, 0.5);
            truth.insert(e, i % clusters == j % clusters);
        }
    }
    QueryJob { id, graph: g, truth }
}

fn dataset_job(id: u64, spec: &ScenarioSpec, paper: bool, scale: usize, query: usize) -> QueryJob {
    let ds_seed = stream_key(spec.seed, &[salt::DATASET]);
    let (ds, name) = if paper {
        (paper_dataset(DatasetScale::paper_full().scaled(scale.max(1)), ds_seed), "paper")
    } else {
        (award_dataset(DatasetScale::award_full().scaled(scale.max(1)), ds_seed), "award")
    };
    let specs = queries_for(name);
    let cql = &specs[query % specs.len()].cql;
    let (_, g) =
        plan_select(&ds.db, cql, &GraphBuildConfig::default()).expect("table-4 query plans");
    let truth = ds.truth.edge_truth(&g);
    QueryJob { id, graph: g, truth }
}

/// The environment half of the spec, as a runtime configuration. `trace`
/// lets the checker attach an event ring; pass [`Trace::off`] otherwise.
pub fn runtime_config(
    spec: &ScenarioSpec,
    reuse: Option<std::sync::Arc<cdb_core::ReuseCache>>,
    trace: Trace,
) -> RuntimeConfig {
    let mut fault_plan =
        FaultPlan::uniform(stream_key(spec.seed, &[salt::FAULTS]), spec.fault_rate);
    for &(w, at) in &spec.forced_drops {
        fault_plan = fault_plan.drop_worker(cdb_crowd::WorkerId(w), at);
    }
    RuntimeConfig {
        threads: spec.threads,
        seed: spec.seed,
        worker_accuracies: worker_accuracies(spec),
        fault_plan,
        retry: RetryPolicy { deadline_ms: spec.deadline_ms, max_retries: spec.max_retries },
        exec: cdb_core::executor::ExecutorConfig {
            redundancy: spec.redundancy,
            budget: spec.budget,
            ..Default::default()
        },
        trace,
        reuse,
        ..RuntimeConfig::default()
    }
}

/// Per-worker accuracies: all 1.0 when perfect, else a ±0.1 band around
/// the spec's mean quality, each worker drawn from its own stream.
pub fn worker_accuracies(spec: &ScenarioSpec) -> Vec<f64> {
    if spec.perfect {
        return vec![1.0; spec.workers];
    }
    (0..spec.workers)
        .map(|i| {
            let mut r = cdb_crowd::stream_rng(spec.seed, &[salt::ACCURACY, i as u64]);
            (spec.quality + 0.2 * (r.gen::<f64>() - 0.5)).clamp(0.55, 0.99)
        })
        .collect()
}

/// Entity id of a normalized cluster label (`… #k` suffix), if it has
/// one. Crowd answers about two suffixed labels have ground truth
/// `entity(a) == entity(b)` — the hook for the soundness invariant.
pub fn entity_of(normalized_label: &str) -> Option<usize> {
    let (_, k) = normalized_label.rsplit_once('#')?;
    k.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_reproducible() {
        let spec = ScenarioSpec::from_seed(3);
        let a = build_world(&spec);
        let b = build_world(&spec);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.truth, y.truth);
            assert_eq!(x.graph.node_count(), y.graph.node_count());
            assert_eq!(x.graph.edge_count(), y.graph.edge_count());
        }
    }

    #[test]
    fn item_labels_carry_their_entity() {
        let mut spec = ScenarioSpec::from_seed(5);
        spec.queries = vec![QueryShape::Cluster { left: 6, right: 4 }];
        spec.clusters = 3;
        for i in 0..6 {
            let label = item_label(&spec, i);
            let norm = cdb_core::normalize(&label);
            assert_eq!(entity_of(&norm), Some(i % 3), "label `{label}`");
        }
    }
}
