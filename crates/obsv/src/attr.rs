//! Per-query attribution: folding the event stream into rollups of
//! money, virtual latency and quality along the plan tree.
//!
//! The paper's optimizer trades three currencies — monetary cost (task
//! price × assignments), latency (rounds of virtual time) and quality
//! (confidence of inferred truth). [`Attribution::from_events`] charges
//! every dispatched assignment, retry, reassignment and truth-inference
//! decision to its `(query, plan-node, round)` coordinates, using the
//! [`names::PLAN_EDGE`] events to map crowd tasks back to the plan node
//! (predicate) that asked them. [`Attribution::conservation`] then checks
//! the books: summed per-span charges must equal the run totals the
//! runtime's aggregate counters report.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;

/// Canonical kv keys used by the instrumentation. String literals —
/// centralizing them here keeps emitters and the rollup in agreement.
pub mod keys {
    /// Query id.
    pub const QUERY: &str = "q";
    /// Round number within a query.
    pub const ROUND: &str = "round";
    /// Crowd task id.
    pub const TASK: &str = "task";
    /// Worker id.
    pub const WORKER: &str = "worker";
    /// Plan node (predicate index) a task belongs to.
    pub const NODE: &str = "node";
    /// Dispatch attempt number (0 = original, >0 = retry/reassign).
    pub const ATTEMPT: &str = "attempt";
    /// Milliseconds of virtual time.
    pub const MS: &str = "ms";
    /// Success flag.
    pub const OK: &str = "ok";
    /// Discriminator tag (fault kind, market name, …).
    pub const KIND: &str = "kind";
    /// Price of one assignment, in cents.
    pub const CENTS: &str = "cents";
    /// Generic count.
    pub const N: &str = "n";
    /// Decision confidence (majority share, 0..=1).
    pub const CONF: &str = "conf";
    /// Vote entropy in bits.
    pub const ENTROPY: &str = "entropy";
    /// Decided choice index.
    pub const CHOICE: &str = "choice";
    /// Entailment depth of a reuse hit (answers chained through).
    pub const DEPTH: &str = "depth";
}

/// Canonical event names. The `crowd.*` / `exec.*` / `runtime.*` families
/// mirror the crate that emits them.
pub mod names {
    /// One assignment handed to a worker (costs money).
    pub const DISPATCH: &str = "crowd.dispatch";
    /// An answer arrived.
    pub const ARRIVAL: &str = "crowd.arrival";
    /// A fault was injected (kv `kind`: dropout/abandoned/slow/…).
    pub const FAULT: &str = "crowd.fault";
    /// An assignment passed its deadline.
    pub const TIMEOUT: &str = "crowd.timeout";
    /// A timed-out assignment was retried with the same worker.
    pub const RETRY: &str = "crowd.retry";
    /// A timed-out assignment was reassigned to a new worker.
    pub const REASSIGN: &str = "crowd.reassign";
    /// In-flight assignments cancelled by early termination.
    pub const CANCEL: &str = "crowd.cancel";
    /// A round span (Enter/Exit pair; Exit carries kv `ms`).
    pub const ROUND: &str = "crowd.round";
    /// One whole query (kv `ok`, `ms`).
    pub const QUERY: &str = "runtime.query";
    /// A plan edge (tuple pair) first asked (kv `task`, `node`): the
    /// task → plan-node mapping the rollup joins against.
    pub const PLAN_EDGE: &str = "exec.edge";
    /// One optimizer round in the core executor.
    pub const EXEC_ROUND: &str = "exec.round";
    /// Truth inference colored an edge (kv `conf`, `entropy`).
    pub const COLOR: &str = "exec.color";
    /// Early-termination decision on a task (kv `conf`, `entropy`).
    pub const DECIDE: &str = "quality.decide";
    /// Optimizer selected a predicate order (kv `node` sequence events).
    pub const PLAN_SELECT: &str = "plan.select";
    /// A cost estimate was produced (kv `n` = expected answers).
    pub const COST_ESTIMATE: &str = "cost.estimate";
    /// A task resolved from the answer-reuse cache instead of dispatch
    /// (kv `task`, `node`, `kind` = cached/transitive/negative, `depth`,
    /// `cents` = money saved).
    pub const REUSE_HIT: &str = "reuse.hit";
    /// A query's fresh crowd answers were durably settled (fsync'd) by
    /// the storage layer before entering the shared reuse cache (kv `q`,
    /// `ok`, `n` = facts, `cents` = money now on stable storage). Not
    /// folded into conservation totals: settlement mirrors spend already
    /// attributed by `crowd.dispatch`.
    pub const STORE_SETTLE: &str = "store.settle";
}

/// Money/latency/count rollup for one plan node of one query.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NodeAttribution {
    /// Assignments dispatched for this node's tasks.
    pub dispatches: u64,
    /// Money spent, in cents.
    pub cost_cents: u64,
    /// Answers that arrived.
    pub arrivals: u64,
    /// Truth-inference decisions on this node's tasks.
    pub decisions: u64,
    /// Sum of decision confidences (divide by `decisions` for the mean).
    pub confidence_sum: f64,
    /// Sum of vote entropies.
    pub entropy_sum: f64,
    /// Tasks resolved from the reuse cache instead of dispatched.
    pub tasks_saved: u64,
    /// Money not spent thanks to reuse, in cents.
    pub money_saved_cents: u64,
}

/// Full rollup for one query.
#[derive(Debug, Default, Clone)]
pub struct QueryAttribution {
    /// Assignments dispatched.
    pub dispatches: u64,
    /// Money spent, in cents.
    pub cost_cents: u64,
    /// Answers that arrived.
    pub arrivals: u64,
    /// Retries after timeout.
    pub retries: u64,
    /// Reassignments to fresh workers.
    pub reassignments: u64,
    /// Deadline misses.
    pub timeouts: u64,
    /// Injected faults by observed count.
    pub faults: u64,
    /// Assignments cancelled by early termination.
    pub cancels: u64,
    /// Rounds completed (closed `crowd.round` spans).
    pub rounds: u64,
    /// Sum of round latencies in virtual ms.
    pub round_ms: u64,
    /// End-to-end virtual latency reported by the `runtime.query` event.
    pub virtual_ms: u64,
    /// Whether the query succeeded.
    pub ok: bool,
    /// Truth-inference decisions.
    pub decisions: u64,
    /// Sum of decision confidences.
    pub confidence_sum: f64,
    /// Sum of vote entropies.
    pub entropy_sum: f64,
    /// Tasks resolved from the reuse cache instead of dispatched.
    pub tasks_saved: u64,
    /// Money not spent thanks to reuse, in cents.
    pub money_saved_cents: u64,
    /// Sum of entailment depths over reuse hits.
    pub entailment_depth_sum: u64,
    /// Per-plan-node breakdown (key: predicate index; `u64::MAX` holds
    /// charges for tasks with no known plan edge).
    pub per_node: BTreeMap<u64, NodeAttribution>,
    /// Dispatches per round.
    pub per_round: BTreeMap<u64, u64>,
}

impl QueryAttribution {
    /// Mean decision confidence, if any decisions were made.
    pub fn mean_confidence(&self) -> Option<f64> {
        if self.decisions == 0 {
            None
        } else {
            Some(self.confidence_sum / self.decisions as f64)
        }
    }
}

/// Node key used when a task has no recorded plan edge.
pub const UNATTRIBUTED_NODE: u64 = u64::MAX;

/// Run totals, for checking against the runtime's aggregate counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ConservationTotals {
    /// Total assignments dispatched across queries.
    pub dispatched: u64,
    /// Total retries.
    pub retries: u64,
    /// Total reassignments.
    pub reassignments: u64,
    /// Total timeouts.
    pub timeouts: u64,
    /// Total faults.
    pub faults: u64,
    /// Total rounds.
    pub rounds: u64,
    /// Total queries.
    pub queries: u64,
    /// Queries that succeeded.
    pub queries_ok: u64,
    /// Total virtual latency (sum of per-query end-to-end ms).
    pub virtual_ms: u64,
    /// Total money spent, in cents.
    pub cost_cents: u64,
    /// Total tasks resolved by answer reuse instead of dispatch.
    pub tasks_saved: u64,
    /// Total money saved by reuse, in cents.
    pub money_saved_cents: u64,
}

impl ConservationTotals {
    /// Invariant accessor: compare these totals field-by-field against an
    /// independently-maintained set (e.g. one built from the runtime's
    /// aggregate counters) and name every field that disagrees. An empty
    /// result is the conservation invariant; a non-empty one tells a
    /// checker exactly which counter leaked.
    pub fn mismatches(&self, other: &ConservationTotals) -> Vec<String> {
        let mut out = Vec::new();
        let mut cmp = |name: &str, a: u64, b: u64| {
            if a != b {
                out.push(format!("{name}: events={a} counters={b}"));
            }
        };
        cmp("dispatched", self.dispatched, other.dispatched);
        cmp("retries", self.retries, other.retries);
        cmp("reassignments", self.reassignments, other.reassignments);
        cmp("timeouts", self.timeouts, other.timeouts);
        cmp("faults", self.faults, other.faults);
        cmp("rounds", self.rounds, other.rounds);
        cmp("queries", self.queries, other.queries);
        cmp("queries_ok", self.queries_ok, other.queries_ok);
        cmp("virtual_ms", self.virtual_ms, other.virtual_ms);
        cmp("cost_cents", self.cost_cents, other.cost_cents);
        cmp("tasks_saved", self.tasks_saved, other.tasks_saved);
        cmp("money_saved_cents", self.money_saved_cents, other.money_saved_cents);
        out
    }
}

/// The attribution table: per-query rollups built from an event stream.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Rollup per query id.
    pub queries: BTreeMap<u64, QueryAttribution>,
}

impl Attribution {
    /// Fold an event stream (any order) into per-query rollups.
    pub fn from_events(events: &[Event]) -> Attribution {
        // Pass 1: task → plan-node map per query, from exec.edge events.
        let mut node_of: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for ev in events {
            if ev.name == names::PLAN_EDGE {
                if let (Some(q), Some(task), Some(node)) =
                    (ev.get_u64(keys::QUERY), ev.get_u64(keys::TASK), ev.get_u64(keys::NODE))
                {
                    node_of.insert((q, task), node);
                }
            }
        }

        let mut out = Attribution::default();
        for ev in events {
            let q = match ev.get_u64(keys::QUERY) {
                Some(q) => q,
                None => continue, // unattributed events
            };
            let qa = out.queries.entry(q).or_default();
            let node = || {
                ev.get_u64(keys::NODE)
                    .or_else(|| ev.get_u64(keys::TASK).and_then(|t| node_of.get(&(q, t)).copied()))
            };
            match ev.name {
                names::DISPATCH => {
                    qa.dispatches += 1;
                    let cents = ev.get_u64(keys::CENTS).unwrap_or(0);
                    qa.cost_cents += cents;
                    let na = qa.per_node.entry(node().unwrap_or(UNATTRIBUTED_NODE)).or_default();
                    na.dispatches += 1;
                    na.cost_cents += cents;
                    if let Some(r) = ev.get_u64(keys::ROUND) {
                        *qa.per_round.entry(r).or_default() += 1;
                    }
                }
                names::ARRIVAL => {
                    qa.arrivals += 1;
                    qa.per_node.entry(node().unwrap_or(UNATTRIBUTED_NODE)).or_default().arrivals +=
                        1;
                }
                names::REUSE_HIT => {
                    qa.tasks_saved += 1;
                    let cents = ev.get_u64(keys::CENTS).unwrap_or(0);
                    qa.money_saved_cents += cents;
                    qa.entailment_depth_sum += ev.get_u64(keys::DEPTH).unwrap_or(0);
                    let na = qa.per_node.entry(node().unwrap_or(UNATTRIBUTED_NODE)).or_default();
                    na.tasks_saved += 1;
                    na.money_saved_cents += cents;
                }
                names::RETRY => qa.retries += 1,
                names::REASSIGN => qa.reassignments += 1,
                names::TIMEOUT => qa.timeouts += 1,
                names::FAULT => qa.faults += 1,
                names::CANCEL => qa.cancels += ev.get_u64(keys::N).unwrap_or(1),
                names::ROUND if ev.kind == EventKind::Exit => {
                    qa.rounds += 1;
                    qa.round_ms += ev.get_u64(keys::MS).unwrap_or(0);
                }
                names::QUERY => {
                    qa.virtual_ms = ev.get_u64(keys::MS).unwrap_or(0);
                    qa.ok = ev
                        .get(keys::OK)
                        .map(|v| v == crate::event::Value::Bool(true) || v.as_u64() == Some(1))
                        .unwrap_or(false);
                }
                names::DECIDE | names::COLOR => {
                    qa.decisions += 1;
                    let conf = ev.get(keys::CONF).and_then(|v| v.as_f64()).unwrap_or(0.0);
                    let ent = ev.get(keys::ENTROPY).and_then(|v| v.as_f64()).unwrap_or(0.0);
                    qa.confidence_sum += conf;
                    qa.entropy_sum += ent;
                    let na = qa.per_node.entry(node().unwrap_or(UNATTRIBUTED_NODE)).or_default();
                    na.decisions += 1;
                    na.confidence_sum += conf;
                    na.entropy_sum += ent;
                }
                _ => {}
            }
        }
        out
    }

    /// Sum per-query rollups into run totals. The conservation check is:
    /// these must equal the runtime's aggregate counters for the same run
    /// (`tasks_dispatched`, `retries`, `virtual_ms_total`, …).
    pub fn conservation(&self) -> ConservationTotals {
        let mut t = ConservationTotals::default();
        for qa in self.queries.values() {
            t.dispatched += qa.dispatches;
            t.retries += qa.retries;
            t.reassignments += qa.reassignments;
            t.timeouts += qa.timeouts;
            t.faults += qa.faults;
            t.rounds += qa.rounds;
            t.queries += 1;
            t.queries_ok += qa.ok as u64;
            t.virtual_ms += qa.virtual_ms;
            t.cost_cents += qa.cost_cents;
            t.tasks_saved += qa.tasks_saved;
            t.money_saved_cents += qa.money_saved_cents;
        }
        t
    }

    /// Render the rollups as a JSON document (shares the
    /// [`crate::json`] emitter with `RuntimeMetrics`).
    pub fn to_json(&self) -> String {
        let mut arr = crate::json::JsonArray::new();
        for (q, qa) in &self.queries {
            let mut nodes = crate::json::JsonArray::new();
            for (node, na) in &qa.per_node {
                let o = crate::json::JsonObject::new()
                    .i64("node", if *node == UNATTRIBUTED_NODE { -1 } else { *node as i64 })
                    .u64("dispatches", na.dispatches)
                    .u64("cost_cents", na.cost_cents)
                    .u64("arrivals", na.arrivals)
                    .u64("decisions", na.decisions)
                    .f64("confidence_sum", na.confidence_sum)
                    .f64("entropy_sum", na.entropy_sum)
                    .u64("tasks_saved", na.tasks_saved)
                    .u64("money_saved_cents", na.money_saved_cents)
                    .finish();
                nodes = nodes.raw(&o);
            }
            let o = crate::json::JsonObject::new()
                .u64("query", *q)
                .bool("ok", qa.ok)
                .u64("dispatches", qa.dispatches)
                .u64("cost_cents", qa.cost_cents)
                .u64("arrivals", qa.arrivals)
                .u64("retries", qa.retries)
                .u64("reassignments", qa.reassignments)
                .u64("timeouts", qa.timeouts)
                .u64("faults", qa.faults)
                .u64("cancels", qa.cancels)
                .u64("rounds", qa.rounds)
                .u64("round_ms", qa.round_ms)
                .u64("virtual_ms", qa.virtual_ms)
                .u64("decisions", qa.decisions)
                .f64("mean_confidence", qa.mean_confidence().unwrap_or(f64::NAN))
                .f64("entropy_sum", qa.entropy_sum)
                .u64("tasks_saved", qa.tasks_saved)
                .u64("money_saved_cents", qa.money_saved_cents)
                .u64("entailment_depth_sum", qa.entailment_depth_sum)
                .raw("per_node", &nodes.finish())
                .finish();
            arr = arr.raw(&o);
        }
        crate::json::JsonObject::new().raw("queries", &arr.finish()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::kv;
    use crate::span::SpanId;

    fn instant(name: &'static str, at: u64, kv: crate::event::KvList) -> Event {
        Event::instant(SpanId::root(), name, at, kv)
    }

    fn sample_stream() -> Vec<Event> {
        let round_span = SpanId::root().child("round", &[0]);
        vec![
            // Plan: task 1 and 2 belong to node 0, task 3 to node 1.
            instant(names::PLAN_EDGE, 0, kv![q => 1u64, task => 1u64, node => 0u64]),
            instant(names::PLAN_EDGE, 0, kv![q => 1u64, task => 2u64, node => 0u64]),
            instant(names::PLAN_EDGE, 0, kv![q => 1u64, task => 3u64, node => 1u64]),
            Event {
                span: round_span,
                name: names::ROUND,
                kind: EventKind::Enter,
                at: 0,
                kv: kv![q => 1u64, round => 0u64],
            },
            instant(names::DISPATCH, 0, kv![q => 1u64, round => 0u64, task => 1u64, cents => 5u64]),
            instant(names::DISPATCH, 0, kv![q => 1u64, round => 0u64, task => 2u64, cents => 5u64]),
            instant(names::DISPATCH, 0, kv![q => 1u64, round => 0u64, task => 3u64, cents => 5u64]),
            instant(names::ARRIVAL, 60, kv![q => 1u64, task => 1u64]),
            instant(names::TIMEOUT, 90, kv![q => 1u64, task => 2u64]),
            instant(names::RETRY, 90, kv![q => 1u64, task => 2u64]),
            instant(
                names::DISPATCH,
                90,
                kv![q => 1u64, round => 0u64, task => 2u64, cents => 5u64, attempt => 1u64],
            ),
            instant(names::ARRIVAL, 120, kv![q => 1u64, task => 2u64]),
            instant(names::ARRIVAL, 130, kv![q => 1u64, task => 3u64]),
            instant(
                names::COLOR,
                130,
                kv![q => 1u64, task => 1u64, conf => 1.0f64, entropy => 0.0f64],
            ),
            instant(
                names::COLOR,
                130,
                kv![q => 1u64, task => 3u64, conf => 0.75f64, entropy => 0.5f64],
            ),
            Event {
                span: round_span,
                name: names::ROUND,
                kind: EventKind::Exit,
                at: 130,
                kv: kv![q => 1u64, round => 0u64, ms => 130u64],
            },
            // Task 4 (node 1) resolved from the reuse cache: no dispatch,
            // 5 cents saved, entailed through a depth-2 positive chain.
            instant(names::PLAN_EDGE, 130, kv![q => 1u64, task => 4u64, node => 1u64]),
            instant(
                names::REUSE_HIT,
                130,
                kv![q => 1u64, task => 4u64, node => 1u64, kind => "transitive", depth => 2u64, cents => 5u64],
            ),
            instant(names::QUERY, 130, kv![q => 1u64, ok => true, ms => 130u64]),
            // A second, failed query with no plan edges.
            instant(names::DISPATCH, 0, kv![q => 2u64, round => 0u64, task => 9u64, cents => 3u64]),
            instant(names::QUERY, 50, kv![q => 2u64, ok => false, ms => 50u64]),
        ]
    }

    #[test]
    fn rollup_charges_money_latency_quality_per_query() {
        let a = Attribution::from_events(&sample_stream());
        assert_eq!(a.queries.len(), 2);
        let q1 = &a.queries[&1];
        assert_eq!(q1.dispatches, 4);
        assert_eq!(q1.cost_cents, 20);
        assert_eq!(q1.arrivals, 3);
        assert_eq!(q1.retries, 1);
        assert_eq!(q1.timeouts, 1);
        assert_eq!(q1.rounds, 1);
        assert_eq!(q1.round_ms, 130);
        assert_eq!(q1.virtual_ms, 130);
        assert!(q1.ok);
        assert_eq!(q1.decisions, 2);
        assert!((q1.mean_confidence().unwrap() - 0.875).abs() < 1e-9);
        assert!((q1.entropy_sum - 0.5).abs() < 1e-9);
        let q2 = &a.queries[&2];
        assert!(!q2.ok);
        assert_eq!(q2.cost_cents, 3);
    }

    #[test]
    fn plan_edges_route_charges_to_nodes() {
        let a = Attribution::from_events(&sample_stream());
        let q1 = &a.queries[&1];
        // Node 0 owns tasks 1 and 2: 3 dispatches (one retry), 15 cents.
        assert_eq!(q1.per_node[&0].dispatches, 3);
        assert_eq!(q1.per_node[&0].cost_cents, 15);
        assert_eq!(q1.per_node[&1].dispatches, 1);
        // Query 2's task has no plan edge: charged to the sentinel node.
        let q2 = &a.queries[&2];
        assert_eq!(q2.per_node[&UNATTRIBUTED_NODE].dispatches, 1);
    }

    #[test]
    fn conservation_sums_the_books() {
        let a = Attribution::from_events(&sample_stream());
        let t = a.conservation();
        assert_eq!(t.dispatched, 5);
        assert_eq!(t.retries, 1);
        assert_eq!(t.timeouts, 1);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.queries, 2);
        assert_eq!(t.queries_ok, 1);
        assert_eq!(t.virtual_ms, 180);
        assert_eq!(t.cost_cents, 23);
    }

    #[test]
    fn reuse_hits_roll_up_saved_cost_and_depth() {
        let a = Attribution::from_events(&sample_stream());
        let q1 = &a.queries[&1];
        assert_eq!(q1.tasks_saved, 1);
        assert_eq!(q1.money_saved_cents, 5);
        assert_eq!(q1.entailment_depth_sum, 2);
        assert_eq!(q1.per_node[&1].tasks_saved, 1);
        assert_eq!(q1.per_node[&1].money_saved_cents, 5);
        // Saved money is not spent money.
        assert_eq!(q1.cost_cents, 20);
        let t = a.conservation();
        assert_eq!(t.tasks_saved, 1);
        assert_eq!(t.money_saved_cents, 5);
        let json = a.to_json();
        assert!(json.contains(r#""tasks_saved":1"#));
        assert!(json.contains(r#""money_saved_cents":5"#));
    }

    #[test]
    fn per_round_counts_dispatches() {
        let a = Attribution::from_events(&sample_stream());
        assert_eq!(a.queries[&1].per_round[&0], 4);
    }

    #[test]
    fn rollup_json_is_well_formed() {
        let a = Attribution::from_events(&sample_stream());
        let json = a.to_json();
        crate::json::parse(&json).unwrap();
        assert!(json.contains(r#""query":1"#));
        assert!(json.contains(r#""per_node""#));
    }

    #[test]
    fn events_without_query_key_are_skipped() {
        let evs = vec![instant(names::COST_ESTIMATE, 0, kv![n => 1u64])];
        let a = Attribution::from_events(&evs);
        assert!(a.queries.is_empty());
    }
}
