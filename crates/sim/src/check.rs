//! Differential invariant checks: run a scenario on the real concurrent
//! runtime and on the reference oracle, and verify every whole-system
//! property the seed is supposed to pin down.

use std::collections::BTreeSet;
use std::sync::Arc;

use cdb_core::executor::true_answers;
use cdb_core::fillcollect::{execute_collect, execute_fill, CollectConfig, FillConfig};
use cdb_core::SettleSink;
use cdb_core::{ReuseCache, ReuseOutcome};
use cdb_crowd::{stream_key, stream_rng, Market, SimulatedPlatform, WorkerPool};
use cdb_obsv::{Attribution, ConservationTotals, Ring, Trace};
use cdb_runtime::{RuntimeExecutor, RuntimeReport, SettleHook};
use cdb_shard::{
    partition as shard_partition, sum_snapshots, verify_partition, Component, MemoryConfig,
    ShardConfig, ShardExecutor,
};
use cdb_store::{DurableReuseCache, ScratchDir};

use crate::oracle::run_sequential;
use crate::scenario::ScenarioSpec;
use crate::world::{build_world, entity_of, runtime_config, salt, worker_accuracies};

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke (stable kebab-case name).
    pub invariant: String,
    /// What was expected vs observed.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, detail: impl Into<String>) -> Violation {
        let mut detail = detail.into();
        // Keep repro files and soak logs readable.
        if detail.len() > 600 {
            detail.truncate(600);
            detail.push('…');
        }
        Violation { invariant: invariant.into(), detail }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Test-only corruption, injected between execution and checking, to
/// prove the detector and shrinker catch a break end to end. `None` in
/// every production path; the soak command and regression tests arm the
/// others deliberately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// No corruption (the only production value).
    #[default]
    None,
    /// Drop one answer binding from the real runtime's report — a lost
    /// result the oracle still has.
    FlipBinding,
    /// Flip the `same` bit of the first crowd-recorded reuse answer — an
    /// entailed color now contradicts a crowd-decided one.
    FlipEntailment,
    /// Count one extra dispatched task in the aggregate counters — a
    /// money/task accounting leak.
    LeakTask,
    /// Corrupt the tail of the durable answer log between the simulated
    /// crash and recovery — a torn write the kill-and-recover check must
    /// surface as lost settled answers.
    TornTail,
    /// Split one connected component of the first query's tuple graph
    /// across two shard units — a partition the shard-integrity verifier
    /// must reject (a candidate could span shards and be lost).
    LeakCrossShard,
}

impl Sabotage {
    /// Stable name for repro files and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Sabotage::None => "none",
            Sabotage::FlipBinding => "flip-binding",
            Sabotage::FlipEntailment => "flip-entailment",
            Sabotage::LeakTask => "leak-task",
            Sabotage::TornTail => "torn-tail",
            Sabotage::LeakCrossShard => "leak-cross-shard",
        }
    }

    /// Parse a stable name back.
    pub fn parse(s: &str) -> Option<Sabotage> {
        match s {
            "none" => Some(Sabotage::None),
            "flip-binding" => Some(Sabotage::FlipBinding),
            "flip-entailment" => Some(Sabotage::FlipEntailment),
            "leak-task" => Some(Sabotage::LeakTask),
            "torn-tail" => Some(Sabotage::TornTail),
            "leak-cross-shard" => Some(Sabotage::LeakCrossShard),
            _ => None,
        }
    }
}

/// Run every check for one scenario. Deterministic: equal specs (and
/// equal sabotage) produce equal violation lists.
pub fn check(spec: &ScenarioSpec, sabotage: Sabotage) -> Vec<Violation> {
    let mut v = Vec::new();
    let world = build_world(spec);
    let jobs = world.jobs;

    // --- The real (concurrent) run, with the event ring attached.
    let ring = Arc::new(Ring::with_capacity(1 << 16));
    let trace = Trace::collector(Arc::clone(&ring) as Arc<dyn cdb_obsv::Collector>);
    let cache = spec.reuse.then(|| Arc::new(ReuseCache::new()));
    let cfg = runtime_config(spec, cache.clone(), trace);
    let mut real = RuntimeExecutor::new(cfg).run(jobs.clone());
    if sabotage == Sabotage::FlipBinding {
        flip_one_binding(&mut real);
    }

    // --- Replay: the same scenario again (fresh cache) must be
    // byte-identical — the determinism invariant.
    let replay_cfg =
        runtime_config(spec, spec.reuse.then(|| Arc::new(ReuseCache::new())), Trace::off());
    let replay = RuntimeExecutor::new(replay_cfg).run(jobs.clone());
    if real.answers() != replay.answers() {
        v.push(Violation::new(
            "replay-divergence",
            format!("first run:\n{}\nsecond run:\n{}", real.answers(), replay.answers()),
        ));
    }

    // --- The oracle: naive single-threaded execution must match the
    // concurrent scheduler byte-for-byte, counters included.
    let oracle_cfg =
        runtime_config(spec, spec.reuse.then(|| Arc::new(ReuseCache::new())), Trace::off());
    let oracle = run_sequential(&oracle_cfg, jobs.clone());
    if real.answers() != oracle.answers() {
        v.push(Violation::new(
            "oracle-divergence",
            format!(
                "threads={} vs sequential oracle\nreal:\n{}\noracle:\n{}",
                spec.threads,
                real.answers(),
                oracle.answers()
            ),
        ));
    }
    if real.metrics.to_json() != oracle.metrics.to_json() {
        v.push(Violation::new(
            "oracle-metrics-divergence",
            format!("real:\n{}\noracle:\n{}", real.metrics.to_json(), oracle.metrics.to_json()),
        ));
    }

    // --- Task/money accounting: fold the event stream into per-query
    // attribution and compare its conservation totals against the
    // runtime's aggregate counters, field by field.
    let events = ring.drain();
    if ring.dropped() == 0 {
        let m = &real.metrics;
        let mut counters = ConservationTotals {
            dispatched: m.tasks_dispatched,
            retries: m.retries,
            reassignments: m.reassignments,
            timeouts: m.timeouts,
            faults: m.dropouts + m.abandons + m.slowdowns,
            rounds: m.rounds,
            queries: real.results.len() as u64,
            queries_ok: m.queries_ok,
            virtual_ms: m.virtual_ms_total,
            cost_cents: m.cost_cents,
            tasks_saved: m.tasks_saved,
            money_saved_cents: m.money_saved_cents,
        };
        if sabotage == Sabotage::LeakTask {
            counters.dispatched += 1;
        }
        let totals = Attribution::from_events(&events).conservation();
        for mismatch in totals.mismatches(&counters) {
            v.push(Violation::new("accounting", mismatch));
        }
        if m.queries_ok as usize != real.ok_count()
            || m.queries_failed as usize != real.failed_count()
        {
            v.push(Violation::new(
                "accounting",
                format!(
                    "query counters: metrics ok={}/failed={} report ok={}/failed={}",
                    m.queries_ok,
                    m.queries_failed,
                    real.ok_count(),
                    real.failed_count()
                ),
            ));
        }
        if real.failed_count() == 0 {
            let rounds: u64 = per_query_sum(&real, |q| q.rounds as u64);
            if rounds != m.rounds {
                v.push(Violation::new(
                    "round-accounting",
                    format!("per-query rounds sum {} != metrics.rounds {}", rounds, m.rounds),
                ));
            }
            let saved: u64 = per_query_sum(&real, |q| q.tasks_saved as u64);
            if saved != m.tasks_saved {
                v.push(Violation::new(
                    "round-accounting",
                    format!("per-query tasks_saved sum {} != metrics {}", saved, m.tasks_saved),
                ));
            }
        }
    }

    // --- Ground truth: perfect workers and no budget cap must recover
    // exactly the true answers on every query that completed.
    if spec.perfect && spec.budget.is_none() {
        for (id, r) in &real.results {
            let Ok(q) = r else { continue };
            let job = &jobs[*id as usize];
            let truth: BTreeSet<Vec<cdb_core::model::NodeId>> =
                true_answers(&job.graph, &job.truth).into_iter().map(|c| c.binding).collect();
            if q.bindings != truth {
                v.push(Violation::new(
                    "truth-divergence",
                    format!(
                        "q{id}: got {} bindings, ground truth has {}",
                        q.bindings.len(),
                        truth.len()
                    ),
                ));
            }
        }
    }

    // --- Reuse must change cost, never answers: under perfect workers the
    // entailed colors equal the crowd's, so any query that completes both
    // with and without the cache must report identical bindings. Gated on
    // no budget cap: under a cap the tasks reuse saves buy extra edges, so
    // the cache legitimately changes which bindings are reached.
    if spec.reuse && spec.perfect && spec.budget.is_none() {
        let fresh_cfg = runtime_config(spec, None, Trace::off());
        let fresh = RuntimeExecutor::new(fresh_cfg).run(jobs.clone());
        for ((id, a), (_, b)) in real.results.iter().zip(&fresh.results) {
            if let (Ok(a), Ok(b)) = (a, b) {
                if a.bindings != b.bindings {
                    v.push(Violation::new(
                        "reuse-divergence",
                        format!(
                            "q{id}: reuse-on bindings {:?} != reuse-off {:?}",
                            a.bindings, b.bindings
                        ),
                    ));
                }
            }
        }
    }

    // --- Reuse-entailment soundness: every crowd-recorded answer must
    // still resolve to itself through the final entailment closure (no
    // inferred color may contradict a crowd-decided one), and under
    // perfect workers the crowd never contradicts itself (zero conflicts)
    // or ground truth (entity suffixes must agree with `same`).
    if let Some(cache) = &cache {
        let mut recorded = cache.recorded();
        if sabotage == Sabotage::FlipEntailment {
            if let Some(first) = recorded.first_mut() {
                first.3 = !first.3;
            }
        }
        for (measure, a, b, same) in &recorded {
            match cache.resolve(measure, a, b) {
                ReuseOutcome::Hit { same: inferred, .. } if inferred == *same => {}
                other => {
                    v.push(Violation::new(
                        "reuse-soundness",
                        format!(
                            "crowd decided ({measure}, `{a}`, `{b}`) = {same}, closure says {other:?}"
                        ),
                    ));
                }
            }
            // The entity-suffix ground truth only speaks for the cluster
            // measure; dataset values carry a per-table `#row` suffix in
            // an unrelated namespace.
            if spec.perfect && measure == crate::world::CLUSTER_MEASURE {
                if let (Some(ka), Some(kb)) = (entity_of(a), entity_of(b)) {
                    if *same != (ka == kb) {
                        v.push(Violation::new(
                            "reuse-soundness",
                            format!(
                                "recorded ({measure}, `{a}`, `{b}`) = {same} but entities are {ka} and {kb}"
                            ),
                        ));
                    }
                }
            }
        }
        // Zero-conflict only holds when ground truth is a function of the
        // value pair scenario-wide. Two dataset queries of the same family
        // at different scales reuse the same measure and `#row` values
        // with independently generated truth, so their absorbed answers
        // may legitimately collide.
        let mut paper_scales = BTreeSet::new();
        let mut award_scales = BTreeSet::new();
        for q in &spec.queries {
            if let crate::scenario::QueryShape::Dataset { paper, scale, .. } = q {
                if *paper {
                    paper_scales.insert(*scale);
                } else {
                    award_scales.insert(*scale);
                }
            }
        }
        let value_determined = paper_scales.len() <= 1 && award_scales.len() <= 1;
        if spec.perfect && value_determined && cache.conflicts() > 0 {
            v.push(Violation::new(
                "reuse-soundness",
                format!("perfect workers produced {} cache conflicts", cache.conflicts()),
            ));
        }
    }

    // --- Sharded execution: partition integrity for every query's tuple
    // graph, sharded-vs-oracle byte-equality, and cross-shard task/money
    // conservation.
    check_shard(spec, &jobs, &replay, sabotage, &mut v);

    // --- Kill and recover: crash after `kill_after` queries, rebuild the
    // reuse cache from the durable answer log, resume, and require the
    // outcome to be byte-identical to a process that never died.
    check_recovery(spec, &jobs, sabotage, &mut v);

    // --- Auxiliary FILL / COLLECT workloads: deterministic and sane.
    check_fill(spec, &mut v);
    check_collect(spec, &mut v);
    v
}

/// The kill-and-recover differential. Two runs of the same split fleet:
///
/// * **Variant A** (never dies): `jobs[..k]` then `jobs[k..]`, both fed
///   by one shared in-memory [`ReuseCache`].
/// * **Variant B** (crashes): the same split, but the cache is a
///   [`DurableReuseCache`] wired in as the runtime's settle hook. After
///   the first fleet every handle is dropped — the process-state
///   equivalent of `kill -9` — and the second fleet runs against a cache
///   rebuilt purely from the on-disk answer log.
///
/// Recovery is correct iff B is indistinguishable from A: identical
/// answer bindings and metrics for both fleets (`recovery-divergence` —
/// equal metrics also prove no answer was re-bought), the rebuilt cache
/// matching A's mid-point cache exactly (`recovery-loss`), every settled
/// cent surviving the crash (`recovery-conservation`), and a final
/// reopen after clean shutdown reproducing A's end state
/// (`recovery-not-idempotent`). [`Sabotage::TornTail`] corrupts the log
/// tail between crash and reopen to prove the loss detectors fire.
fn check_recovery(
    spec: &ScenarioSpec,
    jobs: &[cdb_runtime::QueryJob],
    sabotage: Sabotage,
    v: &mut Vec<Violation>,
) {
    if !spec.reuse || spec.kill_after == 0 || spec.kill_after >= jobs.len() {
        return;
    }
    let (fleet1, fleet2) = jobs.split_at(spec.kill_after);

    // Variant A: one process, one in-memory cache, no crash.
    let cache_a = Arc::new(ReuseCache::new());
    let a1 = RuntimeExecutor::new(runtime_config(spec, Some(Arc::clone(&cache_a)), Trace::off()))
        .run(fleet1.to_vec());
    let recorded_mid = cache_a.recorded();
    let a2 = RuntimeExecutor::new(runtime_config(spec, Some(Arc::clone(&cache_a)), Trace::off()))
        .run(fleet2.to_vec());
    let recorded_end = cache_a.recorded();

    // Variant B, phase 1: durable cache, crash after the first fleet.
    let dir = ScratchDir::new("recover");
    let io = |v: &mut Vec<Violation>, stage: &str, e: &dyn std::fmt::Display| {
        v.push(Violation::new("recovery-io", format!("{stage}: {e}")));
    };
    let durable = match DurableReuseCache::open(dir.path()) {
        Ok(d) => Arc::new(d),
        Err(e) => return io(v, "initial open", &e),
    };
    let durable_config = |d: &Arc<DurableReuseCache>| {
        let mut cfg = runtime_config(spec, Some(d.cache()), Trace::off());
        cfg.settle = Some(SettleHook::new(Arc::clone(d) as Arc<dyn SettleSink>));
        cfg
    };
    let b1 = RuntimeExecutor::new(durable_config(&durable)).run(fleet1.to_vec());
    let settled_cents = durable.logged_cents();
    drop(durable); // the crash: every in-memory structure is gone

    if sabotage == Sabotage::TornTail {
        if let Err(e) = tear_log_tail(dir.path()) {
            return io(v, "tearing log tail", &e);
        }
    }

    // Variant B, phase 2: recover from the log alone and resume.
    let durable = match DurableReuseCache::open(dir.path()) {
        Ok(d) => Arc::new(d),
        Err(e) => return io(v, "reopen after crash", &e),
    };
    if durable.cache().recorded() != recorded_mid {
        v.push(Violation::new(
            "recovery-loss",
            format!(
                "rebuilt cache has {} recorded answers, uninterrupted run had {} \
                 at the kill point (torn tail: {:?})",
                durable.cache().recorded().len(),
                recorded_mid.len(),
                durable.recovery().wal.torn.is_some(),
            ),
        ));
    }
    if durable.recovery().settled_cents() != settled_cents {
        v.push(Violation::new(
            "recovery-conservation",
            format!(
                "{} cents were settled before the crash, recovery found {}",
                settled_cents,
                durable.recovery().settled_cents()
            ),
        ));
    }
    let b2 = RuntimeExecutor::new(durable_config(&durable)).run(fleet2.to_vec());
    drop(durable);

    for (fleet, a, b) in [("pre-kill", &a1, &b1), ("post-recovery", &a2, &b2)] {
        if a.answers() != b.answers() {
            v.push(Violation::new(
                "recovery-divergence",
                format!(
                    "{fleet} fleet: uninterrupted:\n{}\nkill-and-recover:\n{}",
                    a.answers(),
                    b.answers()
                ),
            ));
        } else if a.metrics.to_json() != b.metrics.to_json() {
            v.push(Violation::new(
                "recovery-divergence",
                format!(
                    "{fleet} fleet answers match but metrics differ (re-bought answers?):\n\
                     uninterrupted: {}\nkill-and-recover: {}",
                    a.metrics.to_json(),
                    b.metrics.to_json()
                ),
            ));
        }
    }

    // A clean shutdown and reopen must land exactly on A's end state.
    match DurableReuseCache::open(dir.path()) {
        Ok(d) => {
            if d.cache().recorded() != recorded_end {
                v.push(Violation::new(
                    "recovery-not-idempotent",
                    format!(
                        "final reopen rebuilt {} recorded answers, uninterrupted end state \
                         has {}",
                        d.cache().recorded().len(),
                        recorded_end.len()
                    ),
                ));
            }
        }
        Err(e) => io(v, "final reopen", &e),
    }
}

/// Flip the last byte of the newest answer-log segment — the torn-write
/// injection behind [`Sabotage::TornTail`]. A no-op on an empty log.
fn tear_log_tail(dir: &std::path::Path) -> Result<(), String> {
    let segments = cdb_store::wal::segment_paths(dir).map_err(|e| e.to_string())?;
    let Some(last) = segments.last() else { return Ok(()) };
    let mut bytes = std::fs::read(last).map_err(|e| e.to_string())?;
    let Some(tail) = bytes.last_mut() else { return Ok(()) };
    *tail ^= 0xFF;
    std::fs::write(last, &bytes).map_err(|e| e.to_string())
}

/// Sharded-execution invariants.
///
/// 1. **Partition integrity**: every query's component partition must
///    pass [`cdb_shard::verify_partition`] — each edge in exactly one
///    unit, no node overlap, internal connectivity, canonical order.
///    [`Sabotage::LeakCrossShard`] splits the first query's component
///    across two units to prove this detector fires: a candidate would
///    span shards and silently vanish from the answer set.
/// 2. **Sharded vs single-shard oracle** (when the spec drew more than
///    one shard): byte-identical bindings and byte-identical merged
///    metrics JSON — placement adds concurrency, never behavior.
/// 3. **Cross-shard conservation**: the merged snapshot equals the
///    field-wise sum of the shard-local collectors.
/// 4. **Perfect-workers bridge**: with perfect workers and no
///    faults/budget, the sharded path recovers the same ground-truth
///    bindings as the monolithic runtime.
fn check_shard(
    spec: &ScenarioSpec,
    jobs: &[cdb_runtime::QueryJob],
    plain: &RuntimeReport,
    sabotage: Sabotage,
    v: &mut Vec<Violation>,
) {
    if spec.queries.is_empty() {
        return;
    }
    for job in jobs {
        let mut p = shard_partition(&job.graph);
        if sabotage == Sabotage::LeakCrossShard && job.id == 0 {
            leak_component_across_units(&job.graph, &mut p);
        }
        if let Err(e) = verify_partition(&job.graph, &p) {
            v.push(Violation::new("shard-partition", format!("q{}: {e}", job.id)));
        }
    }
    if spec.shard_count <= 1 {
        return;
    }
    let shard_cfg = |shards: usize| ShardConfig {
        shards,
        runtime: runtime_config(
            spec,
            spec.reuse.then(|| Arc::new(ReuseCache::new())),
            Trace::off(),
        ),
        memory: MemoryConfig::default(),
    };
    let sharded = ShardExecutor::new(shard_cfg(spec.shard_count)).run(jobs.to_vec());
    let oracle = ShardExecutor::new(shard_cfg(1)).run(jobs.to_vec());
    let (sharded, oracle) = match (sharded, oracle) {
        (Ok(s), Ok(o)) => (s, o),
        (s, o) => {
            if s.is_err() != o.is_err() {
                v.push(Violation::new(
                    "shard-divergence",
                    format!(
                        "plan outcome differs: {} shards err={} vs 1 shard err={}",
                        spec.shard_count,
                        s.is_err(),
                        o.is_err()
                    ),
                ));
            }
            return;
        }
    };
    if sharded.bindings_text() != oracle.bindings_text() {
        v.push(Violation::new(
            "shard-divergence",
            format!(
                "{} shards:\n{}\n1 shard:\n{}",
                spec.shard_count,
                sharded.bindings_text(),
                oracle.bindings_text()
            ),
        ));
    }
    if sharded.metrics.to_json() != oracle.metrics.to_json() {
        v.push(Violation::new(
            "shard-metrics-divergence",
            format!(
                "{} shards: {}\n1 shard: {}",
                spec.shard_count,
                sharded.metrics.to_json(),
                oracle.metrics.to_json()
            ),
        ));
    }
    let summed = sum_snapshots(sharded.shards.iter().map(|s| &s.metrics));
    if summed != sharded.metrics {
        v.push(Violation::new(
            "shard-conservation",
            format!(
                "shard-local collectors sum to {} but the merged snapshot is {}",
                summed.to_json(),
                sharded.metrics.to_json()
            ),
        ));
    }
    // Per query that completed in *both* engines: a timing-tail retry
    // exhaustion (scenario deadlines can be tight) may fail a query in
    // one engine and not the other — task numbering and latency draws
    // differ legitimately between the unit-level and query-level
    // streams — but any answer either engine does produce must be the
    // ground truth, so completed answers must agree.
    if spec.perfect
        && spec.budget.is_none()
        && spec.fault_rate == 0.0
        && spec.forced_drops.is_empty()
    {
        for ((sid, sr), (pid, pr)) in sharded.results.iter().zip(plain.results.iter()) {
            debug_assert_eq!(sid, pid);
            if let (Ok(s), Ok(p)) = (sr, pr) {
                if s.bindings != p.bindings {
                    v.push(Violation::new(
                        "shard-truth-divergence",
                        format!(
                            "perfect workers, q{sid}: sharded bindings {:?} != monolithic {:?}",
                            s.bindings, p.bindings
                        ),
                    ));
                }
            }
        }
    }
}

/// The corruption behind [`Sabotage::LeakCrossShard`]: pop one edge off
/// the first component with at least two and append it as a unit of its
/// own. The edge's endpoints now appear in two units — exactly what a
/// buggy partitioner splitting a component across shards would produce.
/// A no-op when every component has a single edge.
fn leak_component_across_units(g: &cdb_core::QueryGraph, p: &mut cdb_shard::Partition) {
    let Some(ci) = p.components.iter().position(|c| c.edges.len() >= 2) else { return };
    let moved = p.components[ci].edges.pop().expect("component has >= 2 edges");
    let (a, b) = g.edge_endpoints(moved);
    let id = p.components.len();
    p.components.push(Component { id, nodes: vec![a.min(b), a.max(b)], edges: vec![moved] });
}

fn per_query_sum(report: &RuntimeReport, f: impl Fn(&cdb_runtime::QueryResult) -> u64) -> u64 {
    report.results.iter().filter_map(|(_, r)| r.as_ref().ok()).map(f).sum()
}

fn flip_one_binding(report: &mut RuntimeReport) {
    for (_, r) in report.results.iter_mut() {
        if let Ok(q) = r {
            if let Some(first) = q.bindings.iter().next().cloned() {
                q.bindings.remove(&first);
                return;
            }
        }
    }
}

fn check_fill(spec: &ScenarioSpec, v: &mut Vec<Violation>) {
    if spec.fill_slots == 0 {
        return;
    }
    let truths = cdb_datagen::entity_pool(spec.fill_slots, stream_key(spec.seed, &[salt::FILL, 1]));
    let run = || {
        let pool = WorkerPool::with_accuracies(&worker_accuracies(spec));
        let mut platform =
            SimulatedPlatform::new(Market::Amt, pool, stream_key(spec.seed, &[salt::FILL]));
        execute_fill(&truths, &mut platform, &FillConfig::default())
    };
    let (a, b) = (run(), run());
    if a.questions != b.questions || a.values != b.values || a.correct != b.correct {
        v.push(Violation::new(
            "fill-nondeterminism",
            format!("({}, {:?}) vs ({}, {:?})", a.questions, a.values, b.questions, b.values),
        ));
    }
    if a.values.len() != spec.fill_slots || a.questions < spec.fill_slots {
        v.push(Violation::new(
            "fill-sanity",
            format!(
                "{} slots gave {} values from {} questions",
                spec.fill_slots,
                a.values.len(),
                a.questions
            ),
        ));
    }
}

fn check_collect(spec: &ScenarioSpec, v: &mut Vec<Violation>) {
    let Some((universe_n, target)) = spec.collect else { return };
    let universe = cdb_datagen::entity_pool(universe_n, stream_key(spec.seed, &[salt::COLLECT, 1]));
    let cfg = CollectConfig { target, max_questions: 5_000, ..CollectConfig::default() };
    let run = || {
        let mut rng = stream_rng(spec.seed, &[salt::COLLECT]);
        execute_collect(&universe, &mut rng, &cfg)
    };
    let (a, b) = (run(), run());
    if a.questions != b.questions || a.distinct != b.distinct || a.curve != b.curve {
        v.push(Violation::new(
            "collect-nondeterminism",
            format!("({}, {}) vs ({}, {})", a.questions, a.distinct, b.questions, b.distinct),
        ));
    }
    if a.distinct > target || a.questions != a.curve.len() {
        v.push(Violation::new(
            "collect-sanity",
            format!(
                "distinct {} (target {target}), questions {} curve {}",
                a.distinct,
                a.questions,
                a.curve.len()
            ),
        ));
    }
    if a.curve.windows(2).any(|w| w[1].1 < w[0].1 || w[1].0 != w[0].0 + 1) {
        v.push(Violation::new("collect-sanity", "curve is not monotone".to_string()));
    }
}
