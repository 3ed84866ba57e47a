//! Answer-reuse integration: the cross-query cache must change *cost*,
//! never *answers* — and must not cost the runtime its deterministic
//! replay guarantee at any thread count.

use std::collections::HashMap;
use std::sync::Arc;

use cdb_core::model::{NodeId, PartKind};
use cdb_core::{QueryGraph, ReuseCache};
use cdb_obsv::attr::names;
use cdb_obsv::{Ring, Trace};
use cdb_runtime::{QueryJob, RetryPolicy, RuntimeConfig, RuntimeExecutor, RuntimeReport};
use proptest::prelude::*;

/// A self-join query over a clustered label universe: both parts hold the
/// same `items` labels and the truth marks `(i, j)` matching iff they
/// share a cluster — a partition, so recorded answers are transitively
/// consistent and entailment can only ever infer *true* facts.
fn selfjoin(id: u64, items: usize, clusters: usize) -> QueryJob {
    let mut g = QueryGraph::new();
    let a = g.add_part(PartKind::Table { name: "R".into() });
    let b = g.add_part(PartKind::Table { name: "R_dup".into() });
    let an: Vec<NodeId> = (0..items).map(|i| g.add_node(a, None, format!("item {i}"))).collect();
    let bn: Vec<NodeId> = (0..items).map(|i| g.add_node(b, None, format!("item {i}"))).collect();
    let p = g.add_predicate(a, b, true, "R.v~R.v");
    let mut truth = HashMap::new();
    for (i, &x) in an.iter().enumerate() {
        for (j, &y) in bn.iter().enumerate() {
            let e = g.add_edge(x, y, p, 0.5);
            truth.insert(e, i % clusters == j % clusters);
        }
    }
    QueryJob { id, graph: g, truth }
}

fn fleet(n: u64) -> Vec<QueryJob> {
    (0..n).map(|i| selfjoin(i, 6, 3)).collect()
}

fn config(
    threads: usize,
    seed: u64,
    accuracy: f64,
    reuse: Option<Arc<ReuseCache>>,
) -> RuntimeConfig {
    RuntimeConfig {
        threads,
        seed,
        worker_accuracies: vec![accuracy; 25],
        // Generous retry budget: under the default policy the all-pairs
        // batches occasionally exhaust retries on latency tails alone,
        // and a query that fails cache-OFF but dispatches less (and so
        // succeeds) cache-ON would make the modes legitimately disagree.
        retry: RetryPolicy { deadline_ms: 300_000, max_retries: 8 },
        reuse,
        ..RuntimeConfig::default()
    }
}

fn run(threads: usize, seed: u64, accuracy: f64, reuse: Option<Arc<ReuseCache>>) -> RuntimeReport {
    RuntimeExecutor::new(config(threads, seed, accuracy, reuse)).run(fleet(5))
}

/// Perfect workers + transitively consistent truth: every entailed answer
/// is a true answer, so enabling the cache cannot change any binding.
#[test]
fn cache_on_and_off_agree_on_bindings_at_1_4_and_8_threads() {
    let baseline = run(1, 11, 1.0, None).bindings_text();
    assert!(!baseline.is_empty());
    for &threads in &[1usize, 4, 8] {
        let off = run(threads, 11, 1.0, None);
        let on = run(threads, 11, 1.0, Some(Arc::new(ReuseCache::new())));
        assert_eq!(off.bindings_text(), baseline, "threads={threads}");
        assert_eq!(on.bindings_text(), baseline, "threads={threads}");
        assert_eq!(on.ok_count(), 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// With the cache ON and noisy workers, the full `answers()` artifact
    /// (task counts included) is still byte-identical across thread
    /// counts, over TWO fleet passes sharing one cache: the snapshot is
    /// taken before the scatter and sessions absorb in query-id order, so
    /// nothing a query sees depends on scheduling.
    #[test]
    fn cached_replay_is_byte_identical_across_thread_counts(seed in 0u64..5_000) {
        let passes = |threads: usize| {
            let cache = Arc::new(ReuseCache::new());
            let first = run(threads, seed, 0.85, Some(Arc::clone(&cache)));
            let second = run(threads, seed, 0.85, Some(Arc::clone(&cache)));
            format!("{}{}", first.answers(), second.answers())
        };
        let one = passes(1);
        prop_assert!(!one.is_empty());
        prop_assert_eq!(&one, &passes(4));
        prop_assert_eq!(&one, &passes(8));
    }
}

/// Cross-run reuse on the self-join workload: a warm cache resolves
/// (almost) everything by entailment, cutting dispatch by far more than
/// the 20% acceptance bar, and per-query `tasks_saved` accounts for it.
/// Every saved task is one `reuse.hit` event from the core round loop —
/// the only place a task is answered from the cache — so the per-query
/// stats, the metrics fold and the raw event count are the same number.
#[test]
fn warm_cache_saves_tasks_and_reports_per_query() {
    let cache = Arc::new(ReuseCache::new());
    let cold = run(4, 3, 1.0, Some(Arc::clone(&cache)));
    assert!(!cache.is_empty(), "first pass fed the cache");
    let ring = Arc::new(Ring::with_capacity(1 << 16));
    let cfg = RuntimeConfig {
        trace: Trace::collector(ring.clone()),
        ..config(4, 3, 1.0, Some(Arc::clone(&cache)))
    };
    let per_task_cents = cfg.exec.redundancy as u64 * cfg.market.task_price_cents();
    let warm = RuntimeExecutor::new(cfg).run(fleet(5));
    assert_eq!(cold.bindings_text(), warm.bindings_text());
    assert!(
        (warm.metrics.tasks_dispatched as f64) <= 0.8 * cold.metrics.tasks_dispatched as f64,
        "warm pass must dispatch >= 20% less: {} -> {}",
        cold.metrics.tasks_dispatched,
        warm.metrics.tasks_dispatched
    );
    assert!(warm.metrics.tasks_saved > 0);
    let mut per_query_saved = 0u64;
    for (_, r) in &warm.results {
        let saved = r.as_ref().unwrap().tasks_saved;
        assert!(saved > 0, "every query hits the warm cache");
        per_query_saved += saved as u64;
    }
    assert_eq!(warm.metrics.tasks_saved, per_query_saved);
    assert_eq!(ring.dropped(), 0, "ring too small for the warm fleet");
    let hits = ring.drain().iter().filter(|e| e.name == names::REUSE_HIT).count() as u64;
    assert_eq!(hits, per_query_saved, "one emitter: no hit is counted twice");
    assert_eq!(warm.metrics.money_saved_cents, per_query_saved * per_task_cents);
}
