//! Runtime counters, shared across worker threads.
//!
//! `RuntimeMetrics` is *only* a consumer of the event stream: it
//! implements [`cdb_obsv::Collector`] and folds `crowd.*` / `runtime.*` /
//! `reuse.hit` events into its counters, so each fact is emitted exactly
//! once and every sink — aggregate counters, ring buffers, trace files —
//! derives from the same stream. [`Collector::record`] is the one writer;
//! there is no other way to move a counter.
//!
//! The counters are atomics so query jobs on different threads update one
//! `RuntimeMetrics` without locks; the round-latency [`Hist`] sits behind
//! a mutex taken once per crowd round. [`RuntimeMetrics::snapshot`]
//! freezes everything into a plain value that serializes to JSON (via
//! `cdb-obsv`'s shared `json` module — the workspace is std-only).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cdb_obsv::attr::{keys, names};
use cdb_obsv::{Collector, Event, EventKind, Hist};

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
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    virtual_ms_total: AtomicU64,
    cost_cents: AtomicU64,
    tasks_saved: AtomicU64,
    money_saved_cents: AtomicU64,
    entailment_depth_sum: AtomicU64,
    /// Virtual latency of every completed crowd round, in ms; its count
    /// is the number of rounds.
    round_latency: Mutex<Hist>,
}

impl RuntimeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        RuntimeMetrics::default()
    }

    /// Freeze the counters into a plain value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let round_latency = self.round_latency.lock().expect("round histogram poisoned").clone();
        MetricsSnapshot {
            tasks_dispatched: self.tasks_dispatched.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            dropouts: self.dropouts.load(Ordering::Relaxed),
            abandons: self.abandons.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
            rounds: round_latency.count(),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            virtual_ms_total: self.virtual_ms_total.load(Ordering::Relaxed),
            cost_cents: self.cost_cents.load(Ordering::Relaxed),
            tasks_saved: self.tasks_saved.load(Ordering::Relaxed),
            money_saved_cents: self.money_saved_cents.load(Ordering::Relaxed),
            entailment_depth_sum: self.entailment_depth_sum.load(Ordering::Relaxed),
            round_latency,
        }
    }
}

/// The event-stream consumer: every `crowd.*` / `runtime.*` / `reuse.hit`
/// fact folds into exactly one counter update. Unknown event names (and
/// unknown fault kinds) are ignored, so richer instrumentation downstream
/// never breaks the aggregates.
impl Collector for RuntimeMetrics {
    fn record(&self, ev: &Event) {
        let bump = |counter: &AtomicU64, n: u64| {
            counter.fetch_add(n, Ordering::Relaxed);
        };
        let arg = |key| ev.get_u64(key).unwrap_or(0);
        match ev.name {
            names::DISPATCH => {
                bump(&self.tasks_dispatched, 1);
                bump(&self.cost_cents, arg(keys::CENTS));
            }
            names::RETRY => bump(&self.retries, 1),
            names::REUSE_HIT => {
                bump(&self.tasks_saved, 1);
                bump(&self.money_saved_cents, arg(keys::CENTS));
                bump(&self.entailment_depth_sum, arg(keys::DEPTH));
            }
            names::TIMEOUT => bump(&self.timeouts, 1),
            names::REASSIGN => bump(&self.reassignments, 1),
            names::FAULT => match ev.get(keys::KIND).and_then(|v| v.as_str()) {
                Some("dropout") => bump(&self.dropouts, 1),
                Some("abandoned") => bump(&self.abandons, 1),
                Some("slow") => bump(&self.slowdowns, 1),
                _ => {}
            },
            names::ROUND if ev.kind == EventKind::Exit => {
                self.round_latency.lock().expect("round histogram poisoned").record(arg(keys::MS));
            }
            names::QUERY => {
                let ok = ev.get(keys::OK) == Some(cdb_obsv::Value::Bool(true));
                bump(if ok { &self.queries_ok } else { &self.queries_failed }, 1);
                bump(&self.virtual_ms_total, arg(keys::MS));
            }
            _ => {}
        }
    }
}

/// A frozen copy of [`RuntimeMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// Money spent on dispatched assignments, in cents.
    pub cost_cents: u64,
    /// Tasks resolved from the answer-reuse cache instead of dispatched.
    pub tasks_saved: u64,
    /// Money not spent thanks to answer reuse, in cents.
    pub money_saved_cents: u64,
    /// Sum of entailment depths over reuse hits.
    pub entailment_depth_sum: u64,
    /// Virtual latency of every completed crowd round, in ms; its
    /// `sum()` is the total round time.
    pub round_latency: Hist,
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
        self.cost_cents += other.cost_cents;
        self.tasks_saved += other.tasks_saved;
        self.money_saved_cents += other.money_saved_cents;
        self.entailment_depth_sum += other.entailment_depth_sum;
        self.round_latency.merge(&other.round_latency);
    }

    /// Serialize as a single JSON object (stable field order), via the
    /// shared `cdb-obsv` json emitter.
    pub fn to_json(&self) -> String {
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
            .u64("cost_cents", self.cost_cents)
            .u64("tasks_saved", self.tasks_saved)
            .u64("money_saved_cents", self.money_saved_cents)
            .u64("entailment_depth_sum", self.entailment_depth_sum)
            .raw("round_latency", &self.round_latency.to_json(1.0))
            .finish()
    }

    /// Render as Prometheus text-format exposition. Counter names carry
    /// the `cdb_` prefix and `_total` suffix per convention; the
    /// round-latency histogram carries [`Hist`]'s octave buckets.
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
        self.round_latency.prom(
            &mut p,
            "cdb_round_latency_ms",
            "Crowd round latency in virtual ms.",
            1.0,
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_obsv::kv;
    use cdb_obsv::span::SpanId;

    fn feed(m: &RuntimeMetrics, name: &'static str, kind: EventKind, kv: cdb_obsv::KvList) {
        m.record(&Event { span: SpanId::root(), name, kind, at: 0, kv });
    }

    fn round(m: &RuntimeMetrics, ms: u64) {
        feed(m, names::ROUND, EventKind::Exit, kv![ms => ms]);
    }

    #[test]
    fn round_latency_is_a_hist_of_the_same_values_in_any_order() {
        // Bucket edges, both ends of the u64 range, and a repeated value.
        let mut values: Vec<u64> = vec![0, 1, u64::MAX, 1 << 40, 1024, 1024];
        for i in 1..20 {
            values.push(1 << i);
            values.push((1 << i) - 1);
        }
        let m = RuntimeMetrics::new();
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len().div_ceil(8)) {
                let m = &m;
                s.spawn(move || chunk.iter().for_each(|&v| round(m, v)));
            }
        });
        let mut expected = Hist::new();
        values.iter().rev().for_each(|&v| expected.record(v));
        let s = m.snapshot();
        assert_eq!(s.round_latency, expected);
        assert_eq!(s.round_latency.count(), s.rounds);
        assert_eq!(s.round_latency.max(), u64::MAX);
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let m = RuntimeMetrics::new();
        let threads = 6;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per {
                        feed(&m, names::DISPATCH, EventKind::Instant, kv![cents => 1u64]);
                        round(&m, i % 4096);
                        if i % 3 == 0 {
                            feed(&m, names::RETRY, EventKind::Instant, kv![]);
                        }
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.tasks_dispatched, threads * per);
        assert_eq!(s.rounds, threads * per);
        assert_eq!(s.retries, threads * per.div_ceil(3));
        assert_eq!(s.round_latency.count(), s.rounds);
        let sum = threads * (0..per).map(|i| i % 4096).sum::<u64>();
        assert_eq!(s.round_latency.sum(), u128::from(sum));
    }

    #[test]
    fn json_is_wellformed_and_stable() {
        let m = RuntimeMetrics::new();
        for _ in 0..3 {
            feed(&m, names::DISPATCH, EventKind::Instant, kv![cents => 5u64]);
        }
        round(&m, 100);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"tasks_dispatched\":3"));
        assert!(j.contains("\"rounds\":1"));
        assert!(j.contains("\"round_latency\":{\"count\":1,\"sum\":100,"));
        assert_eq!(j, m.snapshot().to_json());
        cdb_obsv::json::parse(&j).unwrap();
    }

    #[test]
    fn prometheus_exposition_validates_and_carries_the_histogram() {
        let empty = RuntimeMetrics::new().snapshot().to_prometheus();
        cdb_obsv::prom::validate_exposition(&empty).unwrap();
        assert!(empty.contains("cdb_round_latency_ms_bucket{le=\"+Inf\"} 0"));
        assert!(empty.contains("cdb_round_latency_ms_sum 0"));
        assert!(empty.contains("cdb_round_latency_ms_count 0"));

        let m = RuntimeMetrics::new();
        for _ in 0..7 {
            feed(&m, names::DISPATCH, EventKind::Instant, kv![cents => 5u64]);
        }
        round(&m, 3);
        round(&m, 1000);
        feed(&m, names::QUERY, EventKind::Instant, kv![ok => true, ms => 1003u64]);
        let text = m.snapshot().to_prometheus();
        cdb_obsv::prom::validate_exposition(&text).unwrap();
        assert!(text.contains("cdb_tasks_dispatched_total 7"));
        assert!(text.contains("cdb_cost_cents_total 35"));
        assert!(text.contains("cdb_round_latency_ms_count 2"));
        assert!(text.contains("cdb_round_latency_ms_sum 1003"));
        assert!(text.contains("cdb_queries_total{outcome=\"ok\"} 1"));
        // Octave bounds: 3 sits under le="4", 1000 under le="1024".
        assert!(text.contains("cdb_round_latency_ms_bucket{le=\"4\"} 1"));
        assert!(text.contains("cdb_round_latency_ms_bucket{le=\"1024\"} 2"));
        assert!(text.contains("cdb_round_latency_ms_bucket{le=\"+Inf\"} 2"));
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1);
    }

    #[test]
    fn metrics_consume_the_event_stream() {
        let m = RuntimeMetrics::new();
        feed(&m, names::DISPATCH, EventKind::Instant, kv![task => 1u64, cents => 5u64]);
        feed(&m, names::DISPATCH, EventKind::Instant, kv![task => 2u64, cents => 4u64]);
        feed(&m, names::TIMEOUT, EventKind::Instant, kv![task => 1u64]);
        feed(&m, names::RETRY, EventKind::Instant, kv![task => 1u64]);
        feed(
            &m,
            names::REUSE_HIT,
            EventKind::Instant,
            kv![task => 3u64, kind => "transitive", depth => 2u64, cents => 15u64],
        );
        feed(&m, names::REASSIGN, EventKind::Instant, kv![task => 1u64]);
        feed(&m, names::FAULT, EventKind::Instant, kv![kind => "dropout"]);
        feed(&m, names::FAULT, EventKind::Instant, kv![kind => "slow"]);
        // Unknown fault kinds move no counter.
        feed(&m, names::FAULT, EventKind::Instant, kv![kind => "gremlin"]);
        // Round spans count only on Exit (with the closing latency).
        feed(&m, names::ROUND, EventKind::Enter, kv![round => 0u64]);
        feed(&m, names::ROUND, EventKind::Exit, kv![ms => 120u64]);
        feed(&m, names::QUERY, EventKind::Instant, kv![ok => true, ms => 120u64]);
        feed(&m, names::QUERY, EventKind::Instant, kv![ok => false, ms => 80u64]);
        // Unknown names are ignored.
        feed(&m, "exotic.event", EventKind::Instant, kv![]);
        let s = m.snapshot();
        assert_eq!(s.tasks_dispatched, 2);
        assert_eq!(s.cost_cents, 9);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.reassignments, 1);
        assert_eq!((s.dropouts, s.abandons, s.slowdowns), (1, 0, 1));
        assert_eq!(s.rounds, 1);
        assert_eq!(s.round_latency.sum(), 120);
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
