//! The tree (table-level join order) model and its order-selection
//! policies.
//!
//! Execution: predicates run in a fixed order. The first predicate asks
//! every live edge; each later predicate asks exactly the edges consistent
//! with at least one surviving partial binding. All prior systems share
//! this executor — only the order differs. Every predicate is one crowd
//! round, so latency = number of predicates (§6.2.1).

use std::collections::{HashMap, HashSet};

use cdb_core::model::{EdgeId, NodeId, PartId, QueryGraph};
use cdb_core::{Candidate, EdgeTruth, SimCrowd};
use cdb_crowd::{Market, Question, SimulatedPlatform, WorkerPool};

use crate::{ask_majority, edge_question, live_edges_per_predicate};

/// Execution result of a tree-model or ER run.
#[derive(Debug, Clone)]
pub struct TreeStats {
    /// Tasks asked (the cost metric).
    pub tasks_asked: usize,
    /// Crowd rounds (tree model: predicates executed, unless a prefix
    /// empties out).
    pub rounds: usize,
    /// Complete bindings that survived every predicate.
    pub answers: Vec<Candidate>,
}

impl TreeStats {
    /// Answer bindings as a comparable set.
    pub fn answer_bindings(&self) -> std::collections::BTreeSet<Vec<NodeId>> {
        self.answers.iter().map(|c| c.binding.clone()).collect()
    }
}

/// Check that an order is a connected expansion (each predicate after the
/// first shares a part with an earlier one).
fn order_is_connected(g: &QueryGraph, order: &[usize]) -> bool {
    if order.is_empty() {
        return false;
    }
    let preds = g.predicates();
    let mut bound: HashSet<PartId> = HashSet::new();
    bound.insert(preds[order[0]].a);
    bound.insert(preds[order[0]].b);
    for &i in &order[1..] {
        let p = &preds[i];
        if !bound.contains(&p.a) && !bound.contains(&p.b) {
            return false;
        }
        bound.insert(p.a);
        bound.insert(p.b);
    }
    true
}

/// Partial bindings after executing a prefix of predicates (the tree
/// model's and ER's survivors).
#[derive(Debug, Clone)]
pub(crate) struct Partials {
    /// Which parts are bound so far.
    bound: Vec<PartId>,
    /// Each row binds `bound[i]` to `rows[r][i]`.
    rows: Vec<Vec<NodeId>>,
}

/// Join the survivors (`None` before the first predicate) with predicate
/// `pi`'s blue edges: each row extends with every edge that agrees with it.
pub(crate) fn join_survivors(
    g: &QueryGraph,
    partials: Option<Partials>,
    pi: usize,
    blue_edges: &[EdgeId],
) -> Partials {
    let pred = &g.predicates()[pi];
    // No predicate yet: one empty row, which every edge extends.
    let mut p = partials.unwrap_or(Partials { bound: Vec::new(), rows: vec![Vec::new()] });
    let ia = p.bound.iter().position(|&x| x == pred.a);
    let ib = p.bound.iter().position(|&x| x == pred.b);
    let mut new_rows = Vec::new();
    for row in &p.rows {
        for &e in blue_edges {
            let (mut u, mut v) = g.edge_endpoints(e);
            if g.node_part(u) != pred.a {
                std::mem::swap(&mut u, &mut v);
            }
            if ia.is_none_or(|i| row[i] == u) && ib.is_none_or(|i| row[i] == v) {
                let mut nr = row.clone();
                nr.extend(ia.is_none().then_some(u));
                nr.extend(ib.is_none().then_some(v));
                new_rows.push(nr);
            }
        }
    }
    p.bound.extend(ia.is_none().then_some(pred.a));
    p.bound.extend(ib.is_none().then_some(pred.b));
    Partials { bound: p.bound, rows: new_rows }
}

/// The surviving rows as candidates with part-indexed bindings, once every
/// predicate's parts are bound.
pub(crate) fn survivor_answers(g: &QueryGraph, partials: &Option<Partials>) -> Vec<Candidate> {
    match partials {
        Some(p) if p.bound.len() == bound_part_count(g) => p
            .rows
            .iter()
            .map(|row| {
                let mut binding = vec![NodeId(usize::MAX); g.part_count()];
                for (i, part) in p.bound.iter().enumerate() {
                    binding[part.0] = row[i];
                }
                Candidate { binding, edges: Vec::new() }
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Run the tree model with a given predicate order against the crowd.
pub fn run_tree(
    g: &QueryGraph,
    crowd: &mut SimCrowd,
    redundancy: usize,
    order: &[usize],
) -> TreeStats {
    run_tree_constrained(g, crowd, redundancy, order, None)
}

/// [`run_tree`] with a latency constraint (Figure 22): the first
/// `max_rounds − 1` predicates run normally; then every edge that might
/// still be needed (consistent with the survivors for every remaining
/// predicate) is crowdsourced in one final round.
pub fn run_tree_constrained(
    g: &QueryGraph,
    crowd: &mut SimCrowd,
    redundancy: usize,
    order: &[usize],
    max_rounds: Option<usize>,
) -> TreeStats {
    assert!(order_is_connected(g, order), "order must be a connected expansion");
    assert_eq!(order.len(), g.predicate_count(), "order must cover all predicates");

    let per_pred = live_edges_per_predicate(g);
    let mut tasks_asked = 0usize;
    let mut rounds = 0usize;
    let mut partials: Option<Partials> = None;
    // Cache of resolved edges: edge -> blue?
    let mut resolved: HashMap<EdgeId, bool> = HashMap::new();

    for (step, &pi) in order.iter().enumerate() {
        // Latency constraint: if this would be the last permitted round and
        // predicates remain after it, flush — resolve every edge of every
        // remaining predicate that is consistent with current survivors, in
        // one crowd round.
        let flush = max_rounds.is_some_and(|r| rounds + 1 >= r && step + 1 < order.len());
        if flush {
            let mut union: Vec<EdgeId> = Vec::new();
            for &pj in &order[step..] {
                union.extend(consistent_edges(g, &partials, &per_pred[pj]));
            }
            union.sort_unstable();
            union.dedup();
            let need: Vec<EdgeId> = union
                .into_iter()
                .filter(|&e| {
                    g.edge_color(e) == cdb_core::Color::Unknown && !resolved.contains_key(&e)
                })
                .collect();
            if !need.is_empty() {
                tasks_asked += need.len();
                rounds += 1;
                resolve_edges(g, crowd, redundancy, &need, &mut resolved);
            }
        }
        // Which edges of this predicate are consistent with survivors?
        let askable: Vec<EdgeId> = consistent_edges(g, &partials, &per_pred[pi]);

        // Ask the crowd about each unresolved edge. Edges Blue by
        // construction (traditional predicates) are free.
        let need_crowd: Vec<EdgeId> = askable
            .iter()
            .copied()
            .filter(|&e| g.edge_color(e) == cdb_core::Color::Unknown && !resolved.contains_key(&e))
            .collect();
        if !need_crowd.is_empty() {
            tasks_asked += need_crowd.len();
            rounds += 1;
            resolve_edges(g, crowd, redundancy, &need_crowd, &mut resolved);
        }

        let is_blue = |e: EdgeId| -> bool {
            g.edge_color(e) == cdb_core::Color::Blue || resolved.get(&e).copied().unwrap_or(false)
        };
        let blue_edges: Vec<EdgeId> = askable.into_iter().filter(|&e| is_blue(e)).collect();

        partials = Some(join_survivors(g, partials.take(), pi, &blue_edges));
        if partials.as_ref().is_some_and(|p| p.rows.is_empty()) {
            // Everything pruned: remaining predicates ask nothing.
            break;
        }
    }

    TreeStats { tasks_asked, rounds, answers: survivor_answers(g, &partials) }
}

/// Edges of one predicate that are consistent with the current survivors.
pub(crate) fn consistent_edges(
    g: &QueryGraph,
    partials: &Option<Partials>,
    pred_edges: &[EdgeId],
) -> Vec<EdgeId> {
    match partials {
        None => pred_edges.to_vec(),
        Some(p) => {
            // For each edge, the endpoint in an already-bound part must
            // appear in some partial row.
            let mut present: HashMap<PartId, HashSet<NodeId>> = HashMap::new();
            for (i, part) in p.bound.iter().enumerate() {
                let set = present.entry(*part).or_default();
                for row in &p.rows {
                    set.insert(row[i]);
                }
            }
            pred_edges
                .iter()
                .copied()
                .filter(|&e| {
                    let (u, v) = g.edge_endpoints(e);
                    let ok_u = present.get(&g.node_part(u)).is_none_or(|s| s.contains(&u));
                    let ok_v = present.get(&g.node_part(v)).is_none_or(|s| s.contains(&v));
                    ok_u && ok_v
                })
                .collect()
        }
    }
}

/// Resolve a batch of edges by majority voting over `redundancy` crowd
/// answers.
fn resolve_edges(
    g: &QueryGraph,
    crowd: &mut SimCrowd,
    redundancy: usize,
    edges: &[EdgeId],
    resolved: &mut HashMap<EdgeId, bool>,
) {
    let questions: Vec<Question> = edges.iter().map(|&e| edge_question(g, e)).collect();
    resolved.extend(edges.iter().copied().zip(ask_majority(crowd, &questions, redundancy)));
}

/// Number of parts that participate in at least one predicate.
fn bound_part_count(g: &QueryGraph) -> usize {
    let mut parts = HashSet::new();
    for p in g.predicates() {
        parts.insert(p.a);
        parts.insert(p.b);
    }
    parts.len()
}

/// CrowdDB's rule-based order: selection predicates first (push-down),
/// then joins in the order they were written.
pub fn crowddb_order(g: &QueryGraph) -> Vec<usize> {
    let preds = g.predicates();
    let selections: Vec<usize> = (0..preds.len()).filter(|&i| is_selection(g, i)).collect();
    let joins: Vec<usize> = (0..preds.len()).filter(|&i| !is_selection(g, i)).collect();
    let mut order: Vec<usize> = selections.into_iter().chain(joins).collect();
    make_connected(g, &mut order);
    order
}

/// Qurk's rule-based order: predicates exactly as written (it optimizes
/// the execution of a single join but not the inter-join order).
pub fn qurk_order(g: &QueryGraph) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.predicate_count()).collect();
    make_connected(g, &mut order);
    order
}

/// Deco's cost-based greedy order: repeatedly pick the connected predicate
/// with the smallest estimated surviving-edge cost (edge count weighted by
/// expected selectivity).
pub fn deco_order(g: &QueryGraph) -> Vec<usize> {
    let preds = g.predicates();
    let mut per_pred_cost = vec![0.0f64; preds.len()];
    for i in 0..g.edge_count() {
        let e = EdgeId(i);
        if g.edge_live(e) {
            per_pred_cost[g.edge_predicate(e)] += 1.0;
        }
    }
    let mut order = Vec::new();
    let mut used = vec![false; preds.len()];
    let mut bound: HashSet<PartId> = HashSet::new();
    while order.len() < preds.len() {
        let next = (0..preds.len())
            .filter(|&i| !used[i])
            .filter(|&i| {
                order.is_empty() || bound.contains(&preds[i].a) || bound.contains(&preds[i].b)
            })
            .min_by(|&a, &b| per_pred_cost[a].total_cmp(&per_pred_cost[b]).then(a.cmp(&b)))
            .expect("connected predicate available");
        used[next] = true;
        bound.insert(preds[next].a);
        bound.insert(preds[next].b);
        order.push(next);
    }
    order
}

/// OptTree: enumerate every connected predicate order, cost each against a
/// crowd of one perfect worker answering from `truth`, and return the
/// cheapest — the lower bound of the tree model. A declared oracle: a
/// worker of accuracy 1.0 is always right, since its answer draw is in
/// `[0, 1)`.
pub fn opt_tree_order(g: &QueryGraph, truth: &EdgeTruth) -> Vec<usize> {
    let mut perfect = SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0]), 0);
    let mut crowd = SimCrowd::new(&mut perfect, truth);
    let n = g.predicate_count();
    let mut best: Option<(usize, Vec<usize>)> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    permute(&mut perm, 0, &mut |order| {
        if !order_is_connected(g, order) {
            return;
        }
        let cost = run_tree(g, &mut crowd, 1, order).tasks_asked;
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, order.to_vec()));
        }
    });
    best.expect("at least one connected order").1
}

fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

fn is_selection(g: &QueryGraph, pred: usize) -> bool {
    let p = &g.predicates()[pred];
    matches!(g.part_kind(p.a), cdb_core::PartKind::Constant { .. })
        || matches!(g.part_kind(p.b), cdb_core::PartKind::Constant { .. })
}

/// Stable-repair an order into a connected expansion, preserving relative
/// positions where possible.
pub(crate) fn make_connected(g: &QueryGraph, order: &mut Vec<usize>) {
    let preds = g.predicates();
    let mut result: Vec<usize> = Vec::with_capacity(order.len());
    let mut remaining: Vec<usize> = order.clone();
    let mut bound: HashSet<PartId> = HashSet::new();
    while !remaining.is_empty() {
        let idx = remaining
            .iter()
            .position(|&i| {
                result.is_empty() || bound.contains(&preds[i].a) || bound.contains(&preds[i].b)
            })
            .unwrap_or(0);
        let i = remaining.remove(idx);
        bound.insert(preds[i].a);
        bound.insert(preds[i].b);
        result.push(i);
    }
    *order = result;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::model::PartKind;

    /// One worker who is always right: the oracle crowd tests cost orders with.
    fn perfect() -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0]), 0)
    }

    /// Figure-1-like graph: 3 parts, bipartite edges, one blue chain.
    fn fixture() -> (QueryGraph, EdgeTruth) {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let an: Vec<_> = (0..3).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<_> = (0..3).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let cn: Vec<_> = (0..3).map(|i| g.add_node(c, None, format!("c{i}"))).collect();
        let p_ab = g.add_predicate(a, b, true, "A~B");
        let p_bc = g.add_predicate(b, c, true, "B~C");
        let mut truth = EdgeTruth::new();
        for &x in &an {
            for &y in &bn {
                let e = g.add_edge(x, y, p_ab, 0.5);
                truth.insert(e, x == an[0] && y == bn[0]);
            }
        }
        for &y in &bn {
            for &z in &cn {
                let e = g.add_edge(y, z, p_bc, 0.5);
                truth.insert(e, y == bn[0] && z == cn[0]);
            }
        }
        (g, truth)
    }

    #[test]
    fn oracle_tree_counts_tasks_per_order() {
        let (g, truth) = fixture();
        // Order [AB, BC]: ask 9 AB edges; survivors (a0,b0); then b0's 3
        // BC edges -> 12 tasks.
        let stats = run_tree(&g, &mut SimCrowd::new(&mut perfect(), &truth), 1, &[0, 1]);
        assert_eq!(stats.tasks_asked, 12);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.answers.len(), 1);
    }

    #[test]
    fn opt_tree_picks_cheapest_order() {
        let (g, truth) = fixture();
        let order = opt_tree_order(&g, &truth);
        let cost = run_tree(&g, &mut SimCrowd::new(&mut perfect(), &truth), 1, &order).tasks_asked;
        // Both orders cost 12 here by symmetry.
        assert_eq!(cost, 12);
    }

    #[test]
    fn crowd_execution_with_perfect_workers_matches_oracle() {
        let (g, truth) = fixture();
        let mut p = SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), 1);
        let stats = run_tree(&g, &mut SimCrowd::new(&mut p, &truth), 5, &[0, 1]);
        assert_eq!(stats.tasks_asked, 12);
        assert_eq!(stats.answers.len(), 1);
    }

    #[test]
    fn orders_are_connected_expansions() {
        let (g, truth) = fixture();
        for order in [crowddb_order(&g), qurk_order(&g), deco_order(&g), opt_tree_order(&g, &truth)]
        {
            assert!(order_is_connected(&g, &order), "{order:?}");
            assert_eq!(order.len(), 2);
        }
    }

    #[test]
    fn crowddb_pushes_selections_first() {
        // Add a selection to the fixture; CrowdDB must run it first.
        let (mut g, mut truth) = fixture();
        let cpart = g.add_part(PartKind::Constant { value: "x".into() });
        let cnode = g.add_node(cpart, None, "x");
        let a0 = NodeId(0);
        let psel = g.add_predicate(PartId(0), cpart, true, "A CROWDEQUAL x");
        let e = g.add_edge(a0, cnode, psel, 0.5);
        truth.insert(e, true);
        let order = crowddb_order(&g);
        assert_eq!(order[0], psel);
    }

    #[test]
    fn deco_prefers_cheap_predicates() {
        // Make predicate BC much smaller than AB: Deco starts with BC.
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let an: Vec<_> = (0..4).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let b0 = g.add_node(b, None, "b0");
        let c0 = g.add_node(c, None, "c0");
        let p_ab = g.add_predicate(a, b, true, "A~B");
        let p_bc = g.add_predicate(b, c, true, "B~C");
        for &x in &an {
            g.add_edge(x, b0, p_ab, 0.5);
        }
        g.add_edge(b0, c0, p_bc, 0.5);
        assert_eq!(deco_order(&g), vec![p_bc, p_ab]);
    }

    #[test]
    fn empty_partial_short_circuits() {
        // All edges red: after the first predicate nothing survives, the
        // second predicate asks nothing.
        let (g, _) = fixture();
        let truth: EdgeTruth = (0..g.edge_count()).map(|i| (EdgeId(i), false)).collect();
        let stats = run_tree(&g, &mut SimCrowd::new(&mut perfect(), &truth), 1, &[0, 1]);
        assert_eq!(stats.tasks_asked, 9);
        assert_eq!(stats.rounds, 1);
        assert!(stats.answers.is_empty());
    }

    #[test]
    fn constrained_run_flushes_in_final_round() {
        let (g, truth) = fixture();
        // r = 1: everything must go in one round.
        let stats = run_tree_constrained(
            &g,
            &mut SimCrowd::new(&mut perfect(), &truth),
            1,
            &[0, 1],
            Some(1),
        );
        assert_eq!(stats.rounds, 1);
        // The flush asks the union of everything consistent up front: all
        // 9 AB edges + all 9 BC edges.
        assert_eq!(stats.tasks_asked, 18);
        assert_eq!(stats.answers.len(), 1, "answers still computed from the flushed results");
    }

    #[test]
    fn constrained_run_with_enough_rounds_matches_unconstrained() {
        let (g, truth) = fixture();
        let free = run_tree(&g, &mut SimCrowd::new(&mut perfect(), &truth), 1, &[0, 1]);
        let constrained = run_tree_constrained(
            &g,
            &mut SimCrowd::new(&mut perfect(), &truth),
            1,
            &[0, 1],
            Some(10),
        );
        assert_eq!(free.tasks_asked, constrained.tasks_asked);
        assert_eq!(free.rounds, constrained.rounds);
    }

    #[test]
    fn constrained_cost_decreases_with_rounds() {
        let (g, truth) = fixture();
        let r1 = run_tree_constrained(
            &g,
            &mut SimCrowd::new(&mut perfect(), &truth),
            1,
            &[0, 1],
            Some(1),
        )
        .tasks_asked;
        let r2 = run_tree_constrained(
            &g,
            &mut SimCrowd::new(&mut perfect(), &truth),
            1,
            &[0, 1],
            Some(2),
        )
        .tasks_asked;
        assert!(r2 <= r1, "more rounds should never cost more ({r2} > {r1})");
    }

    #[test]
    #[should_panic(expected = "connected expansion")]
    fn disconnected_order_rejected() {
        // Build 4 parts A-B, C-D: order starting with both is fine but an
        // order [AB, CD] is disconnected.
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let d = g.add_part(PartKind::Table { name: "D".into() });
        let a0 = g.add_node(a, None, "a0");
        let b0 = g.add_node(b, None, "b0");
        let c0 = g.add_node(c, None, "c0");
        let d0 = g.add_node(d, None, "d0");
        let p1 = g.add_predicate(a, b, true, "1");
        let p2 = g.add_predicate(c, d, true, "2");
        let mut truth = EdgeTruth::new();
        truth.insert(g.add_edge(a0, b0, p1, 0.5), true);
        truth.insert(g.add_edge(c0, d0, p2, 0.5), true);
        run_tree(&g, &mut SimCrowd::new(&mut perfect(), &truth), 1, &[0, 1]);
    }
}
