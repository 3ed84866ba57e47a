//! The shard executor: place execution units (one per connected
//! component) onto worker shards, run the shards concurrently, and merge
//! outcomes back in deterministic `(query, component)` order.
//!
//! Determinism: a unit's id is `stream_key(0x5AAD, [query, component])`,
//! and [`cdb_runtime::execute_query`] keys *all* of a job's randomness
//! off that id — so a unit's outcome is a pure function of
//! `(runtime config, unit job, reuse snapshot)`. Placement, shard count
//! and thread count decide only *where and when* a unit runs, never what
//! it computes. Consequently an N-shard run is byte-identical to the
//! 1-shard oracle: same bindings, same merged metrics JSON.

use std::time::{Duration, Instant};

use cdb_core::model::NodeId;
use cdb_crowd::{stream_key, SimTime};
use cdb_runtime::{
    execute_query, run_units, MetricsSnapshot, QueryJob, QueryResult, RuntimeConfig, RuntimeError,
};

use crate::memory::{component_bytes, Arena, MemoryConfig, ShardError};
use crate::merge::{merge_query, remap_bindings, sum_snapshots};
use crate::partition::{component_job, partition, Partition};

/// Stream-key salt for unit ids: `unit = stream_key(SHARD_STREAM,
/// [query, component])`. Distinct from every other salt in the workspace
/// so sharded units never collide with whole-query seed streams.
pub const SHARD_STREAM: u64 = 0x5AAD;

/// The deterministic id of one execution unit — query `query`'s
/// component `component`. Used as the unit's `QueryJob::id`, which in
/// turn keys its platform, executor and fault streams.
pub fn unit_seed(query: u64, component: usize) -> u64 {
    stream_key(SHARD_STREAM, &[query, component as u64])
}

/// Sharded-execution configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker shards. Each shard runs `runtime.threads` worker threads
    /// over its own unit queue, with its own metrics collector and arena.
    pub shards: usize,
    /// Per-shard runtime configuration (seed, market, workers, faults,
    /// reuse, settle hook). The `threads` field is the *intra-shard*
    /// thread count.
    pub runtime: RuntimeConfig,
    /// Memory policy: plan-time component ceiling and streaming mode.
    pub memory: MemoryConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            runtime: RuntimeConfig::default(),
            memory: MemoryConfig::default(),
        }
    }
}

/// One execution unit's outcome.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The owning query.
    pub query: u64,
    /// The component id within the query's partition.
    pub component: usize,
    /// The deterministic unit seed ([`unit_seed`]).
    pub unit: u64,
    /// The shard the unit ran on (telemetry — does not affect results).
    pub shard: usize,
    /// The unit's estimated footprint, in bytes.
    pub bytes: u64,
    /// The unit's result with bindings remapped to *global* node ids.
    pub result: Result<QueryResult, RuntimeError>,
}

/// Per-shard execution statistics.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Units the placement assigned to this shard.
    pub units: usize,
    /// Total estimated bytes assigned.
    pub assigned_bytes: u64,
    /// Arena high-water mark: bytes of simultaneously materialized
    /// components. Deterministic at `threads == 1`; telemetry at higher
    /// thread counts (depends on overlap timing).
    pub peak_bytes: u64,
    /// The shard's virtual makespan: the sum of its units' simulated
    /// crowd time (units on one shard share its worker capacity).
    pub virtual_ms: SimTime,
    /// The shard-local metrics collector's snapshot.
    pub metrics: MetricsSnapshot,
}

/// The merged report of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Per-query merged results ([`merge_query`]), in query-id order.
    pub results: Vec<(u64, Result<QueryResult, RuntimeError>)>,
    /// Every execution unit's outcome, in `(query, component)` order.
    pub units: Vec<UnitOutcome>,
    /// Per-shard statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Fleet-wide metrics: the field-wise sum of the shard-local
    /// snapshots — byte-identical to a single shared collector.
    pub metrics: MetricsSnapshot,
    /// Host wall-clock for the whole run (nondeterministic; telemetry).
    pub wall: Duration,
}

impl ShardReport {
    /// Queries that completed.
    pub fn ok_count(&self) -> usize {
        cdb_runtime::ok_count(&self.results)
    }

    /// Queries that failed.
    pub fn failed_count(&self) -> usize {
        cdb_runtime::failed_count(&self.results)
    }

    /// Canonical text rendering of every query's answer set
    /// ([`cdb_runtime::bindings_text`]), so the sharded path can be
    /// compared byte-for-byte against the oracle.
    pub fn bindings_text(&self) -> String {
        cdb_runtime::bindings_text(&self.results)
    }

    /// End-to-end virtual makespan: shards run concurrently, so the run
    /// finishes when the slowest shard does. This is the deterministic
    /// scale-out signal (host wall-clock on a small machine is not).
    pub fn virtual_makespan(&self) -> SimTime {
        self.shards.iter().map(|s| s.virtual_ms).max().unwrap_or(0)
    }

    /// The largest per-shard arena high-water mark.
    pub fn peak_bytes_max(&self) -> u64 {
        self.shards.iter().map(|s| s.peak_bytes).max().unwrap_or(0)
    }
}

/// One planned execution unit.
#[derive(Debug, Clone)]
struct UnitPlan {
    query: u64,
    component: usize,
    unit: u64,
    bytes: u64,
    job_idx: usize,
}

/// Deterministic LPT (longest-processing-time) placement: units sorted
/// by estimated bytes descending — ties broken by `(query, component)`
/// ascending — each go to the currently least-loaded shard, ties to the
/// lowest index. Returns per-shard lists of plan indices.
fn place(plans: &[UnitPlan], shards: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by(|&a, &b| {
        plans[b]
            .bytes
            .cmp(&plans[a].bytes)
            .then(plans[a].query.cmp(&plans[b].query))
            .then(plans[a].component.cmp(&plans[b].component))
    });
    let mut load = vec![0u64; shards];
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for pi in order {
        let s = (0..shards).min_by_key(|&s| (load[s], s)).expect("shards >= 1");
        load[s] += plans[pi].bytes;
        assigned[s].push(pi);
    }
    assigned
}

/// Runs query fleets sharded by connected component.
pub struct ShardExecutor {
    cfg: ShardConfig,
}

impl ShardExecutor {
    /// Build an executor from its configuration.
    pub fn new(cfg: ShardConfig) -> Self {
        ShardExecutor { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Plan, place and run every job; merge per-component outcomes back
    /// into per-query results in query-id order.
    ///
    /// Fails at *plan* time — before anything is materialized — if a
    /// component's estimated footprint exceeds the memory ceiling, or if
    /// the config has zero shards.
    pub fn run(&self, mut jobs: Vec<QueryJob>) -> Result<ShardReport, ShardError> {
        let start = Instant::now();
        if self.cfg.shards == 0 {
            return Err(ShardError::NoShards);
        }
        jobs.sort_by_key(|j| j.id);
        // Plan: partition each query, estimate each component, gate on
        // the ceiling. Plans come out in (query, component) order.
        let parts: Vec<Partition> = jobs.iter().map(|j| partition(&j.graph)).collect();
        let mut plans: Vec<UnitPlan> = Vec::new();
        for (ji, (job, part)) in jobs.iter().zip(&parts).enumerate() {
            for comp in &part.components {
                let bytes = component_bytes(&job.graph, comp);
                if let Some(ceiling) = self.cfg.memory.ceiling_bytes {
                    if bytes > ceiling {
                        return Err(ShardError::ComponentTooLarge {
                            query: job.id,
                            component: comp.id,
                            bytes,
                            ceiling,
                        });
                    }
                }
                plans.push(UnitPlan {
                    query: job.id,
                    component: comp.id,
                    unit: unit_seed(job.id, comp.id),
                    bytes,
                    job_idx: ji,
                });
            }
        }
        let assigned = place(&plans, self.cfg.shards);
        let mut shard_of = vec![0usize; plans.len()];
        for (s, list) in assigned.iter().enumerate() {
            for &pi in list {
                shard_of[pi] = s;
            }
        }
        // Non-streaming: materialize every unit's sub-graph up front —
        // the whole-graph baseline memory profile.
        let streaming = self.cfg.memory.streaming;
        let materialize = |p: &UnitPlan| {
            let job = &jobs[p.job_idx];
            component_job(&job.graph, &job.truth, &parts[p.job_idx].components[p.component], p.unit)
        };
        let premade: Option<Vec<(QueryJob, Vec<NodeId>)>> =
            (!streaming).then(|| plans.iter().map(materialize).collect());
        let arenas: Vec<Arena> = (0..self.cfg.shards).map(|_| Arena::new()).collect();
        if premade.is_some() {
            for (pi, p) in plans.iter().enumerate() {
                arenas[shard_of[pi]].acquire(p.bytes);
            }
        }
        // One lane per shard; the fleet protocol (one reuse snapshot per
        // unit, settle-then-absorb in (query, component) order keyed by
        // unit seed) is the runtime's, shared with RuntimeExecutor.
        let unit_ids: Vec<u64> = plans.iter().map(|p| p.unit).collect();
        let (ran, shard_metrics) =
            run_units(&self.cfg.runtime, &unit_ids, &assigned, |pi, metrics, session| {
                let p = &plans[pi];
                let (unit_job, to_global) = match &premade {
                    Some(pre) => pre[pi].clone(),
                    None => materialize(p),
                };
                let arena = &arenas[shard_of[pi]];
                if streaming {
                    arena.acquire(p.bytes);
                }
                let (_, result) = execute_query(&self.cfg.runtime, metrics, unit_job, session);
                if streaming {
                    arena.release(p.bytes);
                }
                (result, to_global)
            });
        let outcomes: Vec<UnitOutcome> = plans
            .iter()
            .zip(ran)
            .enumerate()
            .map(|(pi, (p, (result, to_global)))| UnitOutcome {
                query: p.query,
                component: p.component,
                unit: p.unit,
                shard: shard_of[pi],
                bytes: p.bytes,
                result: result.map(|mut q| {
                    q.bindings = remap_bindings(&q.bindings, &to_global);
                    q
                }),
            })
            .collect();
        // Merge per query, in query-id order. A query whose graph
        // partitioned into zero components (no edges, no nodes that
        // could bind) merges to the empty answer set.
        let mut results: Vec<(u64, Result<QueryResult, RuntimeError>)> = Vec::new();
        for job in &jobs {
            let per: Vec<(usize, &Result<QueryResult, RuntimeError>)> = outcomes
                .iter()
                .filter(|o| o.query == job.id)
                .map(|o| (o.component, &o.result))
                .collect();
            results.push((job.id, merge_query(job.id, &per)));
        }
        let shards: Vec<ShardStats> = shard_metrics
            .into_iter()
            .enumerate()
            .map(|(s, metrics)| {
                let mine: Vec<&UnitOutcome> = outcomes.iter().filter(|o| o.shard == s).collect();
                ShardStats {
                    shard: s,
                    units: mine.len(),
                    assigned_bytes: mine.iter().map(|o| o.bytes).sum(),
                    peak_bytes: arenas[s].peak(),
                    virtual_ms: mine
                        .iter()
                        .map(|o| o.result.as_ref().map(|q| q.virtual_ms).unwrap_or(0))
                        .sum(),
                    metrics,
                }
            })
            .collect();
        let metrics = sum_snapshots(shards.iter().map(|s| &s.metrics));
        Ok(ShardReport { results, units: outcomes, shards, metrics, wall: start.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use cdb_core::executor::EdgeTruth;
    use cdb_core::model::PartKind;
    use cdb_core::{QueryGraph, ReuseCache, SettleSink, SettledFact};
    use cdb_obsv::attr::{keys, names};
    use cdb_obsv::{Event, Ring, Trace};
    use cdb_runtime::{FaultPlan, RetryPolicy, SettleHook};

    /// Two independent joins in one graph: `a_i ~ b_i` pairs (2 comps)
    /// with known truth.
    fn two_component_job(id: u64) -> QueryJob {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let p = g.add_predicate(a, b, true, "A~B");
        let mut truth = EdgeTruth::new();
        for i in 0..2 {
            let x = g.add_node(a, None, format!("a{i}"));
            let y = g.add_node(b, None, format!("b{i}"));
            let e = g.add_edge(x, y, p, 0.5);
            truth.insert(e, true);
        }
        QueryJob { id, graph: g, truth }
    }

    /// A two-join chain `A~B~C` whose graph splits into one component per
    /// entry of `comps`: component `(n, matches)` joins its `n` nodes per
    /// part completely, and `a_i ~ b_j ~ c_l` truly match iff `matches`
    /// and `i == j == l`.
    fn chain_components_job(id: u64, comps: &[(usize, bool)]) -> QueryJob {
        let mut g = QueryGraph::new();
        let parts = ["A", "B", "C"].map(|name| g.add_part(PartKind::Table { name: name.into() }));
        let ab = g.add_predicate(parts[0], parts[1], true, "A~B");
        let bc = g.add_predicate(parts[1], parts[2], true, "B~C");
        let mut truth = EdgeTruth::new();
        for (k, &(n, matches)) in comps.iter().enumerate() {
            let nodes = parts.map(|p| {
                (0..n).map(|i| g.add_node(p, None, format!("{p:?} {k}.{i}"))).collect::<Vec<_>>()
            });
            for (pred, l, r) in [(ab, 0, 1), (bc, 1, 2)] {
                for (i, &x) in nodes[l].iter().enumerate() {
                    for (j, &y) in nodes[r].iter().enumerate() {
                        truth.insert(g.add_edge(x, y, pred, 0.5), matches && i == j);
                    }
                }
            }
        }
        QueryJob { id, graph: g, truth }
    }

    #[test]
    fn merged_result_takes_the_slowest_component_and_sums_the_rest() {
        // Component 0 needs two rounds; component 1's only chain is refuted
        // by its first answer, which prunes the other edge after one.
        let runtime = RuntimeConfig {
            threads: 1,
            seed: 5,
            worker_accuracies: vec![1.0; 20],
            reuse: Some(Arc::new(ReuseCache::new())),
            ..RuntimeConfig::default()
        };
        let exec = ShardExecutor::new(ShardConfig { shards: 2, runtime, ..Default::default() });
        let job = chain_components_job(0, &[(3, true), (1, false)]);
        let report = exec.run(vec![job.clone()]).expect("runs");
        let warm = exec.run(vec![job]).expect("runs");
        let units: Vec<&QueryResult> =
            report.units.iter().map(|u| u.result.as_ref().expect("unit ok")).collect();
        let rounds: Vec<usize> = units.iter().map(|u| u.rounds).collect();
        assert_eq!(rounds, [2, 1], "the components take different round counts");
        let q = report.results[0].1.as_ref().expect("query ok");
        assert_eq!(q.rounds, 2, "rounds: the slowest component");
        assert_eq!((q.tasks_asked, q.assignments), (18 + 1, 54 + 3), "tasks: the sum");
        assert_eq!(Some(q.virtual_ms), units.iter().map(|u| u.virtual_ms).max());
        assert_eq!(q.bindings.len(), 3);
        assert!(!q.cancelled);
        // Warm, every component answers from the cache: saved tasks sum.
        let q = warm.results[0].1.as_ref().expect("warm query ok");
        assert_eq!((q.tasks_saved, q.tasks_asked, q.rounds), (18 + 1, 0, 0));
        assert_eq!(q.bindings, report.results[0].1.as_ref().expect("query ok").bindings);
    }

    #[test]
    fn placement_is_deterministic_and_balanced() {
        let plans: Vec<UnitPlan> = (0..4)
            .map(|i| UnitPlan {
                query: 0,
                component: i,
                unit: unit_seed(0, i),
                bytes: (4 - i as u64) * 100,
                job_idx: 0,
            })
            .collect();
        let placed = place(&plans, 2);
        // LPT: 400→s0, 300→s1, 200→s1(? loads 400 vs 300 → s1), 100→s0? loads 400 vs 500 → s0
        assert_eq!(placed[0], vec![0, 3]);
        assert_eq!(placed[1], vec![1, 2]);
    }

    #[test]
    fn sharded_matches_single_shard_oracle() {
        let jobs: Vec<QueryJob> = (0..4).map(two_component_job).collect();
        let runtime = RuntimeConfig { threads: 1, seed: 7, ..RuntimeConfig::default() };
        let oracle = ShardExecutor::new(ShardConfig {
            shards: 1,
            runtime: runtime.clone(),
            memory: MemoryConfig::default(),
        })
        .run(jobs.clone())
        .expect("oracle runs");
        let sharded =
            ShardExecutor::new(ShardConfig { shards: 3, runtime, memory: MemoryConfig::default() })
                .run(jobs)
                .expect("sharded runs");
        assert_eq!(oracle.bindings_text(), sharded.bindings_text());
        assert_eq!(oracle.metrics, sharded.metrics);
        assert_eq!(oracle.metrics.to_json(), sharded.metrics.to_json());
    }

    #[test]
    fn oversized_component_fails_at_plan_time() {
        let jobs = vec![two_component_job(0)];
        let err = ShardExecutor::new(ShardConfig {
            shards: 2,
            runtime: RuntimeConfig { threads: 1, ..RuntimeConfig::default() },
            memory: MemoryConfig { ceiling_bytes: Some(10), streaming: true },
        })
        .run(jobs)
        .expect_err("ceiling must trip");
        assert!(matches!(err, ShardError::ComponentTooLarge { ceiling: 10, .. }));
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let err = ShardExecutor::new(ShardConfig { shards: 0, ..ShardConfig::default() })
            .run(vec![])
            .expect_err("zero shards");
        assert_eq!(err, ShardError::NoShards);
    }

    #[test]
    fn streaming_peak_is_below_upfront_materialization() {
        let jobs: Vec<QueryJob> = (0..6).map(two_component_job).collect();
        let runtime = RuntimeConfig { threads: 1, seed: 3, ..RuntimeConfig::default() };
        let streaming = ShardExecutor::new(ShardConfig {
            shards: 1,
            runtime: runtime.clone(),
            memory: MemoryConfig { ceiling_bytes: None, streaming: true },
        })
        .run(jobs.clone())
        .expect("runs");
        let upfront = ShardExecutor::new(ShardConfig {
            shards: 1,
            runtime,
            memory: MemoryConfig { ceiling_bytes: None, streaming: false },
        })
        .run(jobs)
        .expect("runs");
        assert_eq!(streaming.bindings_text(), upfront.bindings_text());
        assert!(streaming.peak_bytes_max() < upfront.peak_bytes_max());
    }

    #[test]
    fn zero_threads_runs_as_one() {
        let run = |threads| {
            let runtime = RuntimeConfig { threads, seed: 7, ..RuntimeConfig::default() };
            let report =
                ShardExecutor::new(ShardConfig { shards: 2, runtime, ..Default::default() })
                    .run((0..4).map(two_component_job).collect())
                    .expect("runs");
            (report.bindings_text(), report.metrics)
        };
        assert_eq!(run(0), run(1));
    }

    /// One settle call: `(unit, facts, cents)`.
    type Settled = (u64, usize, u64);

    /// A settle sink that records its calls.
    #[derive(Debug, Default)]
    struct RecordingSink(Mutex<Vec<Settled>>);

    impl SettleSink for RecordingSink {
        fn settle(&self, unit: u64, facts: &[SettledFact]) -> Result<(), String> {
            let cents = facts.iter().map(|f| f.cents).sum();
            self.0.lock().expect("sink poisoned").push((unit, facts.len(), cents));
            Ok(())
        }
    }

    /// A two-shard durable run: its report, sink calls, `store.settle`
    /// events and the cache it fed.
    fn durable_run(
        runtime: RuntimeConfig,
        jobs: Vec<QueryJob>,
    ) -> (ShardReport, Vec<Settled>, Vec<Event>, Arc<ReuseCache>) {
        let cache = Arc::new(ReuseCache::new());
        let sink = Arc::new(RecordingSink::default());
        let ring = Arc::new(Ring::with_capacity(1 << 12));
        let runtime = RuntimeConfig {
            threads: 2,
            worker_accuracies: vec![1.0; 20],
            reuse: Some(Arc::clone(&cache)),
            settle: Some(SettleHook::new(Arc::clone(&sink) as Arc<dyn SettleSink>)),
            trace: Trace::collector(ring.clone()),
            ..runtime
        };
        let report = ShardExecutor::new(ShardConfig { shards: 2, runtime, ..Default::default() })
            .run(jobs)
            .expect("runs");
        let settled = sink.0.lock().unwrap().clone();
        let mut events = ring.drain();
        events.retain(|e| e.name == names::STORE_SETTLE);
        (report, settled, events, cache)
    }

    #[test]
    fn settle_runs_before_absorb_in_unit_order_with_one_event_per_unit() {
        let (report, settled, events, cache) =
            durable_run(RuntimeConfig::default(), (0..4).map(two_component_job).collect());
        assert_eq!(report.ok_count(), 4);
        assert!(!cache.is_empty(), "absorb still feeds the cache when settling succeeds");
        let ids: Vec<u64> = settled.iter().map(|&(unit, _, _)| unit).collect();
        let units: Vec<u64> = report.units.iter().map(|u| u.unit).collect();
        assert_eq!(ids, units, "settled under the unit seed, in (query, component) order");
        let total: usize = settled.iter().map(|&(_, n, _)| n).sum();
        assert!(total >= cache.len(), "settled {total} < cached {}", cache.len());
        // The event stream tells the same story as the sink.
        assert_eq!(events.len(), settled.len());
        for (ev, &(unit, n, cents)) in events.iter().zip(&settled) {
            assert_eq!(ev.get_u64(keys::QUERY), Some(unit));
            assert_eq!(ev.get_u64(keys::N), Some(n as u64));
            assert_eq!(ev.get_u64(keys::CENTS), Some(cents));
        }
    }

    #[test]
    fn a_failed_component_neither_settles_nor_absorbs_but_its_sibling_does() {
        // A quarter of assignments drop out and one retry is allowed: with
        // these seeds component 0 exhausts its budget and component 1 does
        // not (4 of the 1,600 runtime × fault-plan seed pairs in 0..40 do
        // that, since a decided task stops waiting on dropped workers). The
        // query fails as a whole, yet the healthy unit's answers are real
        // crowd evidence and still become durable and reusable.
        let runtime = RuntimeConfig {
            seed: 16,
            fault_plan: FaultPlan::uniform(10, 0.0).with_dropout(0.25),
            retry: RetryPolicy { deadline_ms: 300_000, max_retries: 1 },
            ..RuntimeConfig::default()
        };
        let (report, settled, events, cache) = durable_run(runtime, vec![two_component_job(0)]);
        assert_eq!(report.failed_count(), 1);
        let ok: Vec<bool> = report.units.iter().map(|u| u.result.is_ok()).collect();
        assert_eq!(ok, vec![false, true]);
        let ids: Vec<u64> = settled.iter().map(|&(unit, _, _)| unit).collect();
        assert_eq!(ids, vec![report.units[1].unit], "only the successful unit settles");
        assert_eq!(events.len(), 1);
        // The components share no label, so absorb had nothing to dedup:
        // the cache holds the sibling's facts and not one more.
        assert_eq!(cache.len(), settled[0].1, "the failed unit's colors leaked into the cache");
    }
}
