//! The budget baseline of Figures 18/19.
//!
//! "The baseline method first selects the edge with large probability in
//! the first table (with respect to the best table order) and then uses a
//! depth-first traversal to find answers joined with the other table"
//! (§6.3.3). Concretely: fix the Deco table order; repeatedly take the
//! highest-weight unasked edge of the first predicate, and depth-first
//! extend it across the remaining predicates — asking along the way —
//! until the budget is exhausted.

use std::collections::{BTreeSet, HashMap};

use cdb_core::model::{EdgeId, NodeId, QueryGraph};
use cdb_core::SimCrowd;

use crate::tree::deco_order;
use crate::{ask_majority, edge_question, live_edges_per_predicate};

/// Budget baseline result.
#[derive(Debug, Clone)]
pub struct BudgetStats {
    /// Tasks asked (≤ budget).
    pub tasks_asked: usize,
    /// Complete answers found within the budget.
    pub answers: BTreeSet<Vec<NodeId>>,
}

/// Run the baseline within `budget` tasks.
pub fn budget_baseline(
    g: &QueryGraph,
    crowd: &mut SimCrowd,
    redundancy: usize,
    budget: usize,
) -> BudgetStats {
    let order = deco_order(g);
    let per_pred = live_edges_per_predicate(g);
    // First-predicate edges by weight descending.
    let mut first_edges = per_pred[order[0]].clone();
    first_edges.sort_by(|&a, &b| g.edge_weight(b).total_cmp(&g.edge_weight(a)).then(a.cmp(&b)));

    let mut state =
        State { g, crowd, redundancy, budget, asked: HashMap::new(), answers: BTreeSet::new() };

    for &e0 in &first_edges {
        if state.asked.len() >= state.budget {
            break;
        }
        if !state.ask(e0) {
            continue;
        }
        // Depth-first: extend the binding across remaining predicates.
        let mut binding: HashMap<usize, NodeId> = HashMap::new();
        let (u, v) = g.edge_endpoints(e0);
        binding.insert(g.node_part(u).0, u);
        binding.insert(g.node_part(v).0, v);
        state.dfs(&order, 1, &mut binding, &per_pred);
    }

    BudgetStats { tasks_asked: state.asked.len(), answers: state.answers }
}

struct State<'a, 'k> {
    g: &'a QueryGraph,
    crowd: &'a mut SimCrowd<'k>,
    redundancy: usize,
    budget: usize,
    /// edge -> inferred blue?
    asked: HashMap<EdgeId, bool>,
    answers: BTreeSet<Vec<NodeId>>,
}

impl State<'_, '_> {
    /// Ask (or recall) an edge; returns inferred blue. Free for edges Blue
    /// by construction. Returns false without asking when the budget is
    /// exhausted.
    fn ask(&mut self, e: EdgeId) -> bool {
        if self.g.edge_color(e) == cdb_core::Color::Blue {
            return true;
        }
        if let Some(&b) = self.asked.get(&e) {
            return b;
        }
        if self.asked.len() >= self.budget {
            return false;
        }
        let yes = ask_majority(self.crowd, &[edge_question(self.g, e)], self.redundancy)[0];
        self.asked.insert(e, yes);
        yes
    }

    fn dfs(
        &mut self,
        order: &[usize],
        depth: usize,
        binding: &mut HashMap<usize, NodeId>,
        per_pred: &[Vec<EdgeId>],
    ) {
        if depth == order.len() {
            // Complete binding: record the answer.
            let mut full = vec![NodeId(usize::MAX); self.g.part_count()];
            for (&part, &node) in binding.iter() {
                full[part] = node;
            }
            self.answers.insert(full);
            return;
        }
        let pred_idx = order[depth];
        let _pred = &self.g.predicates()[pred_idx];
        let mut edges: Vec<EdgeId> = per_pred[pred_idx]
            .iter()
            .copied()
            .filter(|&e| {
                let (u, v) = self.g.edge_endpoints(e);
                let ok_u = binding.get(&self.g.node_part(u).0).is_none_or(|&x| x == u);
                let ok_v = binding.get(&self.g.node_part(v).0).is_none_or(|&x| x == v);
                ok_u && ok_v
            })
            .collect();
        edges.sort_by(|&a, &b| {
            self.g.edge_weight(b).total_cmp(&self.g.edge_weight(a)).then(a.cmp(&b))
        });
        for e in edges {
            if self.asked.len() >= self.budget && !self.asked.contains_key(&e) {
                return;
            }
            if !self.ask(e) {
                continue;
            }
            let (u, v) = self.g.edge_endpoints(e);
            let mut inserted: Vec<usize> = Vec::with_capacity(2);
            for n in [u, v] {
                let part = self.g.node_part(n).0;
                if let std::collections::hash_map::Entry::Vacant(slot) = binding.entry(part) {
                    slot.insert(n);
                    inserted.push(part);
                }
            }
            self.dfs(order, depth + 1, binding, per_pred);
            for part in inserted {
                binding.remove(&part);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::model::PartKind;
    use cdb_core::EdgeTruth;
    use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};

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
        for (i, &x) in an.iter().enumerate() {
            for (j, &y) in bn.iter().enumerate() {
                let e = g.add_edge(x, y, p_ab, if i == j { 0.8 } else { 0.4 });
                truth.insert(e, i == j);
            }
        }
        for (i, &y) in bn.iter().enumerate() {
            for (j, &z) in cn.iter().enumerate() {
                let e = g.add_edge(y, z, p_bc, if i == j { 0.8 } else { 0.4 });
                truth.insert(e, i == j);
            }
        }
        (g, truth)
    }

    fn platform(seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), seed)
    }

    #[test]
    fn respects_budget() {
        let (g, truth) = fixture();
        let mut p = platform(1);
        let stats = budget_baseline(&g, &mut SimCrowd::new(&mut p, &truth), 5, 4);
        assert!(stats.tasks_asked <= 4);
    }

    #[test]
    fn finds_answers_with_enough_budget() {
        let (g, truth) = fixture();
        let mut p = platform(2);
        let stats = budget_baseline(&g, &mut SimCrowd::new(&mut p, &truth), 5, 100);
        assert_eq!(stats.answers.len(), 3);
    }

    #[test]
    fn zero_budget_asks_nothing() {
        let (g, truth) = fixture();
        let mut p = platform(3);
        let stats = budget_baseline(&g, &mut SimCrowd::new(&mut p, &truth), 5, 0);
        assert_eq!(stats.tasks_asked, 0);
        assert!(stats.answers.is_empty());
    }

    #[test]
    fn small_budget_finds_fewer_answers_than_large() {
        let (g, truth) = fixture();
        let mut p1 = platform(4);
        let small = budget_baseline(&g, &mut SimCrowd::new(&mut p1, &truth), 5, 3);
        let mut p2 = platform(4);
        let large = budget_baseline(&g, &mut SimCrowd::new(&mut p2, &truth), 5, 50);
        assert!(small.answers.len() <= large.answers.len());
    }
}
