//! Runtime counters, shared across worker threads.
//!
//! All counters are atomics so query jobs on different threads update one
//! [`RuntimeMetrics`] without locks; [`RuntimeMetrics::snapshot`] freezes
//! them into a plain value that serializes to JSON (via `cdb-obsv`'s
//! shared `json` module — the workspace is std-only).
//!
//! Since the observability layer landed, `RuntimeMetrics` is a *consumer
//! of the event stream*: it implements [`cdb_obsv::Collector`] and folds
//! `crowd.*` / `runtime.*` events into its counters, so the engine emits
//! each fact exactly once and every sink — aggregate counters, ring
//! buffers, trace files — derives from the same stream. The `add_*`
//! methods remain public for direct use in tests and ad-hoc tooling.

use std::sync::atomic::{AtomicU64, Ordering};

use cdb_crowd::SimTime;
use cdb_obsv::attr::{keys, names};
use cdb_obsv::{Collector, Event, EventKind};

/// Number of power-of-two buckets in the round-latency histogram.
pub const HISTOGRAM_BUCKETS: usize = 20;

/// Live counters, updated concurrently by query jobs.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    tasks_dispatched: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    reassignments: AtomicU64,
    dropouts: AtomicU64,
    abandons: AtomicU64,
    slowdowns: AtomicU64,
    rounds: AtomicU64,
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    virtual_ms_total: AtomicU64,
    round_ms_total: AtomicU64,
    cost_cents: AtomicU64,
    tasks_saved: AtomicU64,
    money_saved_cents: AtomicU64,
    entailment_depth_sum: AtomicU64,
    /// Bucket `i` counts rounds whose virtual latency was in
    /// `[2^i, 2^(i+1))` ms (last bucket open-ended).
    round_latency: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl RuntimeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        RuntimeMetrics::default()
    }

    /// `n` assignments handed to workers.
    pub fn add_dispatched(&self, n: u64) {
        self.tasks_dispatched.fetch_add(n, Ordering::Relaxed);
    }

    /// Money spent on assignments, in cents.
    pub fn add_cost(&self, cents: u64) {
        self.cost_cents.fetch_add(cents, Ordering::Relaxed);
    }

    /// One redispatch attempt after a miss.
    pub fn add_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// One assignment missed its deadline.
    pub fn add_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// One task moved to a different worker.
    pub fn add_reassignment(&self) {
        self.reassignments.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an injected fault.
    pub fn add_fault(&self, fault: crate::fault::Fault) {
        match fault {
            crate::fault::Fault::Dropout => {
                self.dropouts.fetch_add(1, Ordering::Relaxed);
            }
            crate::fault::Fault::Abandoned => {
                self.abandons.fetch_add(1, Ordering::Relaxed);
            }
            crate::fault::Fault::Slow => {
                self.slowdowns.fetch_add(1, Ordering::Relaxed);
            }
            crate::fault::Fault::None => {}
        }
    }

    /// One crowd round completed in `latency_ms` of virtual time.
    pub fn add_round(&self, latency_ms: SimTime) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.round_ms_total.fetch_add(latency_ms, Ordering::Relaxed);
        let bucket = (u64::BITS - latency_ms.leading_zeros()).saturating_sub(1) as usize;
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.round_latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// One task resolved from the answer-reuse cache instead of being
    /// dispatched, saving `cents` and chaining through `depth` prior
    /// answers.
    pub fn add_reuse_hit(&self, cents: u64, depth: u64) {
        self.tasks_saved.fetch_add(1, Ordering::Relaxed);
        self.money_saved_cents.fetch_add(cents, Ordering::Relaxed);
        self.entailment_depth_sum.fetch_add(depth, Ordering::Relaxed);
    }

    /// One query finished; `ok` tells success from typed failure, and
    /// `virtual_ms` is its simulated makespan.
    pub fn add_query(&self, ok: bool, virtual_ms: SimTime) {
        if ok {
            self.queries_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.queries_failed.fetch_add(1, Ordering::Relaxed);
        }
        self.virtual_ms_total.fetch_add(virtual_ms, Ordering::Relaxed);
    }

    /// Freeze the counters into a plain value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_dispatched: self.tasks_dispatched.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            dropouts: self.dropouts.load(Ordering::Relaxed),
            abandons: self.abandons.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            virtual_ms_total: self.virtual_ms_total.load(Ordering::Relaxed),
            round_ms_total: self.round_ms_total.load(Ordering::Relaxed),
            cost_cents: self.cost_cents.load(Ordering::Relaxed),
            tasks_saved: self.tasks_saved.load(Ordering::Relaxed),
            money_saved_cents: self.money_saved_cents.load(Ordering::Relaxed),
            entailment_depth_sum: self.entailment_depth_sum.load(Ordering::Relaxed),
            round_latency_buckets: self
                .round_latency
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The event-stream consumer: every `crowd.*` / `runtime.*` fact the
/// engine emits folds into exactly one counter update. Unknown event
/// names are ignored, so richer instrumentation downstream never breaks
/// the aggregates.
impl Collector for RuntimeMetrics {
    fn record(&self, ev: &Event) {
        match ev.name {
            names::DISPATCH => {
                self.add_dispatched(1);
                self.add_cost(ev.get_u64(keys::CENTS).unwrap_or(0));
            }
            names::RETRY => self.add_retry(),
            names::REUSE_HIT => self.add_reuse_hit(
                ev.get_u64(keys::CENTS).unwrap_or(0),
                ev.get_u64(keys::DEPTH).unwrap_or(0),
            ),
            names::TIMEOUT => self.add_timeout(),
            names::REASSIGN => self.add_reassignment(),
            names::FAULT => {
                let fault = match ev.get(keys::KIND).and_then(|v| v.as_str()) {
                    Some("dropout") => crate::fault::Fault::Dropout,
                    Some("abandoned") => crate::fault::Fault::Abandoned,
                    Some("slow") => crate::fault::Fault::Slow,
                    _ => crate::fault::Fault::None,
                };
                self.add_fault(fault);
            }
            names::ROUND if ev.kind == EventKind::Exit => {
                self.add_round(ev.get_u64(keys::MS).unwrap_or(0))
            }
            names::QUERY => {
                let ok = ev.get(keys::OK) == Some(cdb_obsv::Value::Bool(true));
                self.add_query(ok, ev.get_u64(keys::MS).unwrap_or(0));
            }
            _ => {}
        }
    }
}

/// A frozen copy of [`RuntimeMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Assignments handed to workers (originals + redispatches).
    pub tasks_dispatched: u64,
    /// Redispatch attempts after deadline misses.
    pub retries: u64,
    /// Assignments that missed their deadline.
    pub timeouts: u64,
    /// Tasks moved to a different worker.
    pub reassignments: u64,
    /// Injected dropout faults.
    pub dropouts: u64,
    /// Injected abandoned-HIT faults.
    pub abandons: u64,
    /// Injected slow-response faults.
    pub slowdowns: u64,
    /// Crowd rounds completed.
    pub rounds: u64,
    /// Queries that finished cleanly.
    pub queries_ok: u64,
    /// Queries that failed with a typed error.
    pub queries_failed: u64,
    /// Sum of per-query virtual makespans, in ms.
    pub virtual_ms_total: u64,
    /// Sum of per-round virtual latencies, in ms (the histogram's `_sum`).
    pub round_ms_total: u64,
    /// Money spent on dispatched assignments, in cents.
    pub cost_cents: u64,
    /// Tasks resolved from the answer-reuse cache instead of dispatched.
    pub tasks_saved: u64,
    /// Money not spent thanks to answer reuse, in cents.
    pub money_saved_cents: u64,
    /// Sum of entailment depths over reuse hits.
    pub entailment_depth_sum: u64,
    /// Power-of-two round-latency histogram: bucket `i` counts rounds in
    /// `[2^i, 2^(i+1))` virtual ms.
    pub round_latency_buckets: Vec<u64>,
}

/// All zeros, with [`HISTOGRAM_BUCKETS`] histogram buckets — the identity
/// of [`MetricsSnapshot::add`].
impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            tasks_dispatched: 0,
            retries: 0,
            timeouts: 0,
            reassignments: 0,
            dropouts: 0,
            abandons: 0,
            slowdowns: 0,
            rounds: 0,
            queries_ok: 0,
            queries_failed: 0,
            virtual_ms_total: 0,
            round_ms_total: 0,
            cost_cents: 0,
            tasks_saved: 0,
            money_saved_cents: 0,
            entailment_depth_sum: 0,
            round_latency_buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl MetricsSnapshot {
    /// Field-wise `self += other`. Every counter is a sum over events, so
    /// adding up shard-local collectors reconstructs exactly the snapshot
    /// one fleet-wide collector would have produced — the cross-shard
    /// conservation identity the simulation checks.
    pub fn add(&mut self, other: &MetricsSnapshot) {
        self.tasks_dispatched += other.tasks_dispatched;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.reassignments += other.reassignments;
        self.dropouts += other.dropouts;
        self.abandons += other.abandons;
        self.slowdowns += other.slowdowns;
        self.rounds += other.rounds;
        self.queries_ok += other.queries_ok;
        self.queries_failed += other.queries_failed;
        self.virtual_ms_total += other.virtual_ms_total;
        self.round_ms_total += other.round_ms_total;
        self.cost_cents += other.cost_cents;
        self.tasks_saved += other.tasks_saved;
        self.money_saved_cents += other.money_saved_cents;
        self.entailment_depth_sum += other.entailment_depth_sum;
        for (mine, theirs) in
            self.round_latency_buckets.iter_mut().zip(&other.round_latency_buckets)
        {
            *mine += theirs;
        }
    }

    /// Serialize as a single JSON object (stable field order), via the
    /// shared `cdb-obsv` json emitter.
    pub fn to_json(&self) -> String {
        let mut buckets = cdb_obsv::json::JsonArray::new();
        for &b in &self.round_latency_buckets {
            buckets = buckets.u64(b);
        }
        cdb_obsv::json::JsonObject::new()
            .u64("tasks_dispatched", self.tasks_dispatched)
            .u64("retries", self.retries)
            .u64("timeouts", self.timeouts)
            .u64("reassignments", self.reassignments)
            .u64("dropouts", self.dropouts)
            .u64("abandons", self.abandons)
            .u64("slowdowns", self.slowdowns)
            .u64("rounds", self.rounds)
            .u64("queries_ok", self.queries_ok)
            .u64("queries_failed", self.queries_failed)
            .u64("virtual_ms_total", self.virtual_ms_total)
            .u64("round_ms_total", self.round_ms_total)
            .u64("cost_cents", self.cost_cents)
            .u64("tasks_saved", self.tasks_saved)
            .u64("money_saved_cents", self.money_saved_cents)
            .u64("entailment_depth_sum", self.entailment_depth_sum)
            .raw("round_latency_buckets", &buckets.finish())
            .finish()
    }

    /// Render as Prometheus text-format exposition. Counter names carry
    /// the `cdb_` prefix and `_total` suffix per convention; the
    /// round-latency histogram keeps its power-of-two buckets (bucket `i`
    /// covers `[2^i, 2^(i+1))` ms, so its inclusive `le` is `2^(i+1)-1`;
    /// the final open-ended bucket folds into `+Inf`).
    pub fn to_prometheus(&self) -> String {
        let mut p = cdb_obsv::prom::PromText::new();
        p.counter(
            "cdb_tasks_dispatched_total",
            "Assignments handed to workers (originals + redispatches).",
            self.tasks_dispatched,
        );
        p.counter("cdb_retries_total", "Redispatch attempts after deadline misses.", self.retries);
        p.counter("cdb_timeouts_total", "Assignments that missed their deadline.", self.timeouts);
        p.counter(
            "cdb_reassignments_total",
            "Tasks moved to a different worker.",
            self.reassignments,
        );
        p.counter_family(
            "cdb_faults_total",
            "Injected faults by kind.",
            &[
                (vec![("kind", "dropout")], self.dropouts),
                (vec![("kind", "abandoned")], self.abandons),
                (vec![("kind", "slow")], self.slowdowns),
            ],
        );
        p.counter_family(
            "cdb_queries_total",
            "Queries finished, by outcome.",
            &[
                (vec![("outcome", "ok")], self.queries_ok),
                (vec![("outcome", "failed")], self.queries_failed),
            ],
        );
        p.counter(
            "cdb_virtual_ms_total",
            "Sum of per-query virtual makespans in ms.",
            self.virtual_ms_total,
        );
        p.counter("cdb_cost_cents_total", "Money spent on assignments in cents.", self.cost_cents);
        p.counter(
            "cdb_tasks_saved_total",
            "Tasks resolved by answer reuse instead of dispatch.",
            self.tasks_saved,
        );
        p.counter(
            "cdb_money_saved_cents_total",
            "Money not spent thanks to answer reuse, in cents.",
            self.money_saved_cents,
        );
        p.counter(
            "cdb_entailment_depth_total",
            "Sum of entailment depths over reuse hits.",
            self.entailment_depth_sum,
        );
        let n = self.round_latency_buckets.len();
        // Finite uppers for all but the open-ended last bucket.
        let mut uppers: Vec<f64> =
            (0..n.saturating_sub(1)).map(|i| (1u64 << (i + 1)).wrapping_sub(1) as f64).collect();
        uppers.push(f64::INFINITY);
        p.histogram(
            "cdb_round_latency_ms",
            "Crowd round latency in virtual ms.",
            &uppers,
            &self.round_latency_buckets,
            self.round_ms_total as f64,
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use cdb_obsv::span::SpanId;
    use cdb_obsv::{kv, Event, EventKind};

    #[test]
    fn counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.add_dispatched(10);
        m.add_dispatched(5);
        m.add_retry();
        m.add_timeout();
        m.add_reassignment();
        m.add_fault(Fault::Dropout);
        m.add_fault(Fault::Slow);
        m.add_fault(Fault::None);
        m.add_query(true, 500);
        m.add_query(false, 300);
        m.add_cost(25);
        let s = m.snapshot();
        assert_eq!(s.tasks_dispatched, 15);
        assert_eq!(s.retries, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.reassignments, 1);
        assert_eq!(s.dropouts, 1);
        assert_eq!(s.slowdowns, 1);
        assert_eq!(s.abandons, 0);
        assert_eq!((s.queries_ok, s.queries_failed), (1, 1));
        assert_eq!(s.virtual_ms_total, 800);
        assert_eq!(s.cost_cents, 25);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let m = RuntimeMetrics::new();
        m.add_round(0); // bucket 0
        m.add_round(1); // bucket 0
        m.add_round(2); // bucket 1
        m.add_round(3); // bucket 1
        m.add_round(1024); // bucket 10
        m.add_round(u64::MAX); // clamped to the last bucket
        let s = m.snapshot();
        assert_eq!(s.rounds, 6);
        assert_eq!(s.round_latency_buckets[0], 2);
        assert_eq!(s.round_latency_buckets[1], 2);
        assert_eq!(s.round_latency_buckets[10], 1);
        assert_eq!(s.round_latency_buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_edges_land_on_bucket_boundaries() {
        // Exact powers of two start a new bucket; their predecessors
        // close the previous one; the last bucket is open-ended.
        let m = RuntimeMetrics::new();
        for i in 1..HISTOGRAM_BUCKETS {
            m.add_round(1u64 << i); // lower edge of bucket i
            m.add_round((1u64 << i) - 1); // upper edge of bucket i-1
        }
        let s = m.snapshot();
        // Bucket 0 got {1}; buckets 1..18 got {2^i} and {2^(i+1)-1};
        // bucket 19 got {2^19} and every value the loop put past it.
        assert_eq!(s.round_latency_buckets[0], 1);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(s.round_latency_buckets[i], 2, "bucket {i}");
        }
        assert_eq!(s.round_latency_buckets[HISTOGRAM_BUCKETS - 1], 1);
        // Values far past the last bucket clamp instead of panicking.
        m.add_round(u64::MAX);
        m.add_round(1u64 << 40);
        let s = m.snapshot();
        assert_eq!(s.round_latency_buckets[HISTOGRAM_BUCKETS - 1], 3);
        // The histogram always sums to the round count.
        assert_eq!(s.round_latency_buckets.iter().sum::<u64>(), s.rounds);
        assert_eq!(s.round_ms_total, {
            let edges: u64 =
                (1..HISTOGRAM_BUCKETS as u64).map(|i| (1u64 << i) + ((1u64 << i) - 1)).sum();
            edges.wrapping_add(u64::MAX).wrapping_add(1u64 << 40)
        });
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        use std::sync::Arc;
        let m = Arc::new(RuntimeMetrics::new());
        let threads = 6;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..per {
                        m.add_dispatched(1);
                        m.add_round(i % 4096);
                        if i % 3 == 0 {
                            m.add_retry();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.tasks_dispatched, threads * per);
        assert_eq!(s.rounds, threads * per);
        assert_eq!(s.retries, threads * per.div_ceil(3));
        assert_eq!(s.round_latency_buckets.iter().sum::<u64>(), s.rounds);
        assert_eq!(s.round_ms_total, threads * (0..per).map(|i| i % 4096).sum::<u64>());
    }

    #[test]
    fn json_is_wellformed_and_stable() {
        let m = RuntimeMetrics::new();
        m.add_dispatched(3);
        m.add_round(100);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"tasks_dispatched\":3"));
        assert!(j.contains("\"rounds\":1"));
        assert!(j.contains("\"round_ms_total\":100"));
        assert!(j.contains("\"round_latency_buckets\":["));
        assert_eq!(j, m.snapshot().to_json());
        cdb_obsv::json::check_balanced(&j).unwrap();
    }

    #[test]
    fn prometheus_exposition_validates_and_carries_the_histogram() {
        let m = RuntimeMetrics::new();
        m.add_dispatched(7);
        m.add_cost(35);
        m.add_round(3);
        m.add_round(1000);
        m.add_query(true, 1003);
        let text = m.snapshot().to_prometheus();
        cdb_obsv::prom::validate_exposition(&text).unwrap();
        assert!(text.contains("cdb_tasks_dispatched_total 7"));
        assert!(text.contains("cdb_cost_cents_total 35"));
        assert!(text.contains("cdb_round_latency_ms_count 2"));
        assert!(text.contains("cdb_round_latency_ms_sum 1003"));
        assert!(text.contains("cdb_queries_total{outcome=\"ok\"} 1"));
        // le bounds are inclusive: bucket 1 covers [2,3] so le="3".
        assert!(text.contains("cdb_round_latency_ms_bucket{le=\"3\"} 1"));
        assert!(text.contains("cdb_round_latency_ms_bucket{le=\"+Inf\"} 2"));
        // Exactly one +Inf bucket despite the open-ended 20th bucket.
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1);
    }

    #[test]
    fn metrics_consume_the_event_stream() {
        let m = RuntimeMetrics::new();
        let span = SpanId::root();
        let record = |name, kind, at: u64, kvs| m.record(&Event { span, name, kind, at, kv: kvs });
        use cdb_obsv::attr::names;
        record(names::DISPATCH, EventKind::Instant, 0, kv![task => 1u64, cents => 5u64]);
        record(names::DISPATCH, EventKind::Instant, 0, kv![task => 2u64, cents => 4u64]);
        record(names::TIMEOUT, EventKind::Instant, 9, kv![task => 1u64]);
        record(names::RETRY, EventKind::Instant, 9, kv![task => 1u64]);
        record(
            names::REUSE_HIT,
            EventKind::Instant,
            9,
            kv![task => 3u64, kind => "transitive", depth => 2u64, cents => 15u64],
        );
        record(names::REASSIGN, EventKind::Instant, 9, kv![task => 1u64]);
        record(names::FAULT, EventKind::Instant, 3, kv![kind => "dropout"]);
        record(names::FAULT, EventKind::Instant, 3, kv![kind => "slow"]);
        // Round spans count only on Exit (with the closing latency).
        record(names::ROUND, EventKind::Enter, 0, kv![round => 0u64]);
        record(names::ROUND, EventKind::Exit, 120, kv![ms => 120u64]);
        record(names::QUERY, EventKind::Instant, 120, kv![ok => true, ms => 120u64]);
        record(names::QUERY, EventKind::Instant, 80, kv![ok => false, ms => 80u64]);
        // Unknown names are ignored.
        record("exotic.event", EventKind::Instant, 0, kv![]);
        let s = m.snapshot();
        assert_eq!(s.tasks_dispatched, 2);
        assert_eq!(s.cost_cents, 9);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.reassignments, 1);
        assert_eq!(s.dropouts, 1);
        assert_eq!(s.slowdowns, 1);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.round_ms_total, 120);
        assert_eq!((s.queries_ok, s.queries_failed), (1, 1));
        assert_eq!(s.virtual_ms_total, 200);
        assert_eq!(s.tasks_saved, 1);
        assert_eq!(s.money_saved_cents, 15);
        assert_eq!(s.entailment_depth_sum, 2);
        assert!(s.to_json().contains("\"tasks_saved\":1"));
        assert!(s.to_prometheus().contains("cdb_tasks_saved_total 1"));
        assert!(s.to_prometheus().contains("cdb_money_saved_cents_total 15"));
    }
}
