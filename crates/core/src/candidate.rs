//! Candidate enumeration (Definitions 2–4 of the paper).
//!
//! A *candidate* is a connected substructure with exactly one edge per
//! query predicate; a candidate whose edges are all BLUE is an *answer*.
//! Enumeration is a backtracking search over predicates in a connected
//! expansion order, binding one vertex per part. The same search core
//! answers the membership questions the optimizer needs: "is this edge in
//! any candidate?" (invalid-edge detection, Definition 3) and "are these
//! two edges in a common candidate?" (the conflict test of the latency
//! controller, §5.2).

use crate::model::{Color, EdgeId, NodeId, PartId, QueryGraph};

/// Which edges may participate in a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateFilter {
    /// Any edge that is not Red and not invalid — the *potential*
    /// candidates that could still become answers.
    Live,
    /// Blue edges only — actual answers (Definition 4).
    BlueOnly,
}

impl CandidateFilter {
    fn admits(self, g: &QueryGraph, e: EdgeId) -> bool {
        match self {
            CandidateFilter::Live => g.edge_live(e),
            CandidateFilter::BlueOnly => g.edge_color(e) == Color::Blue,
        }
    }
}

/// One candidate: a vertex binding per part and the edge chosen for each
/// predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// `binding[p]` is the vertex bound for part `p`.
    pub binding: Vec<NodeId>,
    /// `edges[i]` is the edge satisfying predicate `i`.
    pub edges: Vec<EdgeId>,
}

impl Candidate {
    /// Product of the edge weights: the probability this candidate is an
    /// answer (§5.1.3), under edge independence.
    pub fn probability(&self, g: &QueryGraph) -> f64 {
        self.edges
            .iter()
            .map(|&e| match g.edge_color(e) {
                Color::Blue => 1.0,
                Color::Red => 0.0,
                Color::Unknown => g.edge_weight(e),
            })
            .product()
    }
}

/// A connected expansion order of the predicates: each predicate after the
/// first shares a part with an earlier one. Panics if the predicate graph
/// is disconnected (CQL queries must be connected joins).
fn expansion_order(g: &QueryGraph) -> Vec<usize> {
    let n = g.predicate_count();
    if n == 0 {
        return Vec::new();
    }
    let preds = g.predicates();
    let mut order = vec![0usize];
    let mut used = vec![false; n];
    used[0] = true;
    let mut bound_parts: Vec<PartId> = vec![preds[0].a, preds[0].b];
    while order.len() < n {
        let next = (0..n).find(|&i| {
            !used[i] && (bound_parts.contains(&preds[i].a) || bound_parts.contains(&preds[i].b))
        });
        let i = next.expect("query predicates must form a connected structure");
        used[i] = true;
        order.push(i);
        if !bound_parts.contains(&preds[i].a) {
            bound_parts.push(preds[i].a);
        }
        if !bound_parts.contains(&preds[i].b) {
            bound_parts.push(preds[i].b);
        }
    }
    order
}

/// Backtracking search over candidates. `fixed[i]` optionally pins the
/// edge used for predicate `i`. The visitor returns `true` to continue,
/// `false` to stop the search.
fn search(
    g: &QueryGraph,
    filter: CandidateFilter,
    fixed: &[Option<EdgeId>],
    visit: &mut dyn FnMut(&Candidate) -> bool,
) {
    let n = g.predicate_count();
    if n == 0 {
        return;
    }
    // Pre-index edges per predicate.
    let mut per_pred: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    for i in 0..g.edge_count() {
        let e = EdgeId(i);
        if filter.admits(g, e) {
            per_pred[g.edge_predicate(e)].push(e);
        }
    }
    // Pinned edges must pass the filter too.
    for (i, f) in fixed.iter().enumerate() {
        if let Some(e) = f {
            if !filter.admits(g, *e) || g.edge_predicate(*e) != i {
                return;
            }
        }
    }
    let order = expansion_order(g);
    let mut binding: Vec<Option<NodeId>> = vec![None; g.part_count()];
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(n);
    rec(g, filter, fixed, &order, 0, &per_pred, &mut binding, &mut chosen, visit);
}

#[allow(clippy::too_many_arguments)]
fn rec(
    g: &QueryGraph,
    filter: CandidateFilter,
    fixed: &[Option<EdgeId>],
    order: &[usize],
    depth: usize,
    per_pred: &[Vec<EdgeId>],
    binding: &mut Vec<Option<NodeId>>,
    chosen: &mut Vec<EdgeId>,
    visit: &mut dyn FnMut(&Candidate) -> bool,
) -> bool {
    if depth == order.len() {
        let cand = Candidate {
            binding: binding.iter().map(|b| b.expect("all parts bound")).collect(),
            edges: {
                // chosen is in expansion order; restore predicate order.
                let mut edges = vec![EdgeId(usize::MAX); order.len()];
                for (d, &p) in order.iter().enumerate() {
                    edges[p] = chosen[d];
                }
                edges
            },
        };
        return visit(&cand);
    }
    let pred = order[depth];
    let info = &g.predicates()[pred];
    let candidates: &[EdgeId] = match &fixed[pred] {
        Some(e) => std::slice::from_ref(e),
        None => &per_pred[pred],
    };
    for &e in candidates {
        if !filter.admits(g, e) {
            continue;
        }
        let (mut u, mut v) = g.edge_endpoints(e);
        // Normalize: u belongs to info.a, v to info.b.
        if g.node_part(u) != info.a {
            std::mem::swap(&mut u, &mut v);
        }
        debug_assert_eq!(g.node_part(u), info.a);
        debug_assert_eq!(g.node_part(v), info.b);
        // Consistency with current binding.
        let (ba, bb) = (binding[info.a.0], binding[info.b.0]);
        if ba.is_some_and(|x| x != u) || bb.is_some_and(|x| x != v) {
            continue;
        }
        let (seta, setb) = (ba.is_none(), bb.is_none());
        binding[info.a.0] = Some(u);
        binding[info.b.0] = Some(v);
        chosen.push(e);
        let cont = rec(g, filter, fixed, order, depth + 1, per_pred, binding, chosen, visit);
        chosen.pop();
        if seta {
            binding[info.a.0] = None;
        }
        if setb {
            binding[info.b.0] = None;
        }
        if !cont {
            return false;
        }
    }
    true
}

/// Existence-only search: is there any candidate honouring the pins?
///
/// Unlike [`search`] this never builds the per-predicate edge index (an
/// O(edges) scan per call — ruinous inside the latency controller's
/// pairwise conflict test). The expansion order starts at the first
/// pinned predicate, preferring pinned predicates while growing, so every
/// unpinned predicate is entered with at least one part already bound and
/// its edges stream straight from the bound node's adjacency list.
/// Existence is independent of enumeration order, so the answer matches
/// `search`-and-stop exactly.
fn exists(g: &QueryGraph, filter: CandidateFilter, fixed: &[Option<EdgeId>]) -> bool {
    let n = g.predicate_count();
    if n == 0 {
        return false;
    }
    // Pinned edges must pass the filter too.
    for (i, f) in fixed.iter().enumerate() {
        if let Some(e) = f {
            if !filter.admits(g, *e) || g.edge_predicate(*e) != i {
                return false;
            }
        }
    }
    let preds = g.predicates();
    let first = fixed.iter().position(|f| f.is_some()).unwrap_or(0);
    let mut order = vec![first];
    let mut used = vec![false; n];
    used[first] = true;
    let mut bound = vec![false; g.part_count()];
    bound[preds[first].a.0] = true;
    bound[preds[first].b.0] = true;
    while order.len() < n {
        let next = (0..n)
            .filter(|&i| !used[i] && (bound[preds[i].a.0] || bound[preds[i].b.0]))
            .min_by_key(|&i| (fixed[i].is_none(), i));
        let i = next.expect("query predicates must form a connected structure");
        used[i] = true;
        order.push(i);
        bound[preds[i].a.0] = true;
        bound[preds[i].b.0] = true;
    }
    let mut binding: Vec<Option<NodeId>> = vec![None; g.part_count()];
    exists_rec(g, filter, fixed, &order, 0, &mut binding)
}

fn exists_rec(
    g: &QueryGraph,
    filter: CandidateFilter,
    fixed: &[Option<EdgeId>],
    order: &[usize],
    depth: usize,
    binding: &mut Vec<Option<NodeId>>,
) -> bool {
    if depth == order.len() {
        return true;
    }
    let pred = order[depth];
    let info = &g.predicates()[pred];
    let step = |binding: &mut Vec<Option<NodeId>>, e: EdgeId| -> bool {
        if g.edge_predicate(e) != pred || !filter.admits(g, e) {
            return false;
        }
        let (mut u, mut v) = g.edge_endpoints(e);
        // Normalize: u belongs to info.a, v to info.b.
        if g.node_part(u) != info.a {
            std::mem::swap(&mut u, &mut v);
        }
        // Consistency with current binding.
        let (ba, bb) = (binding[info.a.0], binding[info.b.0]);
        if ba.is_some_and(|x| x != u) || bb.is_some_and(|x| x != v) {
            return false;
        }
        let (seta, setb) = (ba.is_none(), bb.is_none());
        binding[info.a.0] = Some(u);
        binding[info.b.0] = Some(v);
        let found = exists_rec(g, filter, fixed, order, depth + 1, binding);
        if seta {
            binding[info.a.0] = None;
        }
        if setb {
            binding[info.b.0] = None;
        }
        found
    };
    if let Some(e) = fixed[pred] {
        return step(binding, e);
    }
    match binding[info.a.0].or(binding[info.b.0]) {
        Some(anchor) => {
            // A consistent edge must touch the bound endpoint: walk its
            // adjacency list instead of every edge of the predicate.
            for &e in g.incident_edges(anchor) {
                if step(binding, e) {
                    return true;
                }
            }
        }
        None => {
            // Only reachable when nothing is pinned at all.
            for i in 0..g.edge_count() {
                if step(binding, EdgeId(i)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Enumerate every candidate under the filter.
pub fn enumerate_candidates(g: &QueryGraph, filter: CandidateFilter) -> Vec<Candidate> {
    let mut out = Vec::new();
    let fixed = vec![None; g.predicate_count()];
    search(g, filter, &fixed, &mut |c| {
        out.push(c.clone());
        true
    });
    out
}

/// Answers: candidates whose edges are all Blue (Definition 4).
pub fn answers(g: &QueryGraph) -> Vec<Candidate> {
    enumerate_candidates(g, CandidateFilter::BlueOnly)
}

/// Is this edge contained in at least one candidate? (An edge that is not
/// is *invalid*, Definition 3.)
pub fn edge_in_some_candidate(g: &QueryGraph, e: EdgeId, filter: CandidateFilter) -> bool {
    let mut fixed = vec![None; g.predicate_count()];
    fixed[g.edge_predicate(e)] = Some(e);
    exists(g, filter, &fixed)
}

/// Do two edges appear together in some candidate? (The *conflict* test of
/// the latency controller: conflicting edges cannot be asked in the same
/// round because one answer might prune the other task.)
pub fn edges_in_same_candidate(
    g: &QueryGraph,
    e1: EdgeId,
    e2: EdgeId,
    filter: CandidateFilter,
) -> bool {
    let (p1, p2) = (g.edge_predicate(e1), g.edge_predicate(e2));
    if p1 == p2 {
        // A candidate has exactly one edge per predicate.
        return e1 == e2;
    }
    let mut fixed = vec![None; g.predicate_count()];
    fixed[p1] = Some(e1);
    fixed[p2] = Some(e2);
    exists(g, filter, &fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testgraph::chain_2x3;
    use crate::model::{PartKind, QueryGraph};
    use cdb_storage::TupleId;

    #[test]
    fn full_bipartite_chain_has_eight_candidates() {
        let (g, _) = chain_2x3(0.5);
        // 2 choices in A x 2 in B x 2 in C = 8 candidates.
        assert_eq!(enumerate_candidates(&g, CandidateFilter::Live).len(), 8);
    }

    #[test]
    fn red_edge_removes_candidates() {
        let (mut g, _) = chain_2x3(0.5);
        g.set_color(EdgeId(0), Color::Red); // kills A0-B0, affects 2 candidates
        assert_eq!(enumerate_candidates(&g, CandidateFilter::Live).len(), 6);
    }

    #[test]
    fn answers_require_all_blue() {
        let (mut g, nodes) = chain_2x3(0.5);
        assert!(answers(&g).is_empty());
        // Color A0-B0 and B0-C0 blue.
        for i in 0..g.edge_count() {
            let e = EdgeId(i);
            let (u, v) = g.edge_endpoints(e);
            if (u == nodes[0][0] && v == nodes[1][0]) || (u == nodes[1][0] && v == nodes[2][0]) {
                g.set_color(e, Color::Blue);
            }
        }
        let ans = answers(&g);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].binding, vec![nodes[0][0], nodes[1][0], nodes[2][0]]);
    }

    #[test]
    fn candidate_probability_is_product_of_weights() {
        let (g, _) = chain_2x3(0.5);
        let c = &enumerate_candidates(&g, CandidateFilter::Live)[0];
        assert!((c.probability(&g) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probability_uses_colors() {
        let (mut g, _) = chain_2x3(0.5);
        let c = enumerate_candidates(&g, CandidateFilter::Live)[0].clone();
        g.set_color(c.edges[0], Color::Blue);
        assert!((c.probability(&g) - 0.5).abs() < 1e-12);
        g.set_color(c.edges[1], Color::Red);
        assert_eq!(c.probability(&g), 0.0);
    }

    #[test]
    fn every_edge_in_full_graph_is_in_a_candidate() {
        let (g, _) = chain_2x3(0.5);
        for i in 0..g.edge_count() {
            assert!(edge_in_some_candidate(&g, EdgeId(i), CandidateFilter::Live));
        }
    }

    #[test]
    fn disconnecting_reds_make_edges_invalid() {
        let (mut g, nodes) = chain_2x3(0.5);
        // Kill both edges from B0 to C: B0 can no longer reach part C.
        for i in 0..g.edge_count() {
            let e = EdgeId(i);
            let (u, v) = g.edge_endpoints(e);
            if u == nodes[1][0] && g.node_part(v) == crate::model::PartId(2) {
                g.set_color(e, Color::Red);
            }
        }
        // Now A*-B0 edges are in no candidate.
        let ab0: Vec<EdgeId> = (0..g.edge_count())
            .map(EdgeId)
            .filter(|&e| {
                let (u, v) = g.edge_endpoints(e);
                v == nodes[1][0] || u == nodes[1][0]
            })
            .filter(|&e| g.edge_live(e))
            .collect();
        for e in ab0 {
            assert!(!edge_in_some_candidate(&g, e, CandidateFilter::Live), "{e:?}");
        }
    }

    #[test]
    fn same_predicate_edges_never_share_a_candidate() {
        let (g, _) = chain_2x3(0.5);
        assert!(!edges_in_same_candidate(&g, EdgeId(0), EdgeId(1), CandidateFilter::Live));
        assert!(edges_in_same_candidate(&g, EdgeId(0), EdgeId(0), CandidateFilter::Live));
    }

    #[test]
    fn cross_predicate_conflict_detection() {
        let (g, nodes) = chain_2x3(0.5);
        // Edge A0-B0 and edge B0-C0 share binding B0: conflict.
        let e_ab = g
            .incident_edges(nodes[0][0])
            .iter()
            .copied()
            .find(|&e| g.other_endpoint(e, nodes[0][0]) == nodes[1][0])
            .unwrap();
        let e_bc = g
            .incident_edges(nodes[2][0])
            .iter()
            .copied()
            .find(|&e| g.other_endpoint(e, nodes[2][0]) == nodes[1][0])
            .unwrap();
        assert!(edges_in_same_candidate(&g, e_ab, e_bc, CandidateFilter::Live));
        // Edge A0-B0 and B1-C0 bind different B tuples: non-conflict.
        let e_b1c = g
            .incident_edges(nodes[2][0])
            .iter()
            .copied()
            .find(|&e| g.other_endpoint(e, nodes[2][0]) == nodes[1][1])
            .unwrap();
        assert!(!edges_in_same_candidate(&g, e_ab, e_b1c, CandidateFilter::Live));
    }

    /// Existence via the full enumerating search — oracle for `exists`.
    fn exists_oracle(g: &QueryGraph, filter: CandidateFilter, fixed: &[Option<EdgeId>]) -> bool {
        let mut found = false;
        search(g, filter, fixed, &mut |_| {
            found = true;
            false
        });
        found
    }

    #[test]
    fn existence_search_matches_enumeration_oracle() {
        let (mut g, _) = chain_2x3(0.5);
        // Exercise live, colored and pruned edges across the checks.
        g.set_color(EdgeId(0), Color::Red);
        g.set_color(EdgeId(3), Color::Blue);
        g.set_invalid(EdgeId(5));
        for filter in [CandidateFilter::Live, CandidateFilter::BlueOnly] {
            for i in 0..g.edge_count() {
                let e1 = EdgeId(i);
                let mut fixed = vec![None; g.predicate_count()];
                fixed[g.edge_predicate(e1)] = Some(e1);
                assert_eq!(
                    exists(&g, filter, &fixed),
                    exists_oracle(&g, filter, &fixed),
                    "single pin {e1:?} {filter:?}"
                );
                for j in 0..g.edge_count() {
                    let e2 = EdgeId(j);
                    if g.edge_predicate(e2) == g.edge_predicate(e1) {
                        continue;
                    }
                    let mut fixed = fixed.clone();
                    fixed[g.edge_predicate(e2)] = Some(e2);
                    assert_eq!(
                        exists(&g, filter, &fixed),
                        exists_oracle(&g, filter, &fixed),
                        "pair {e1:?},{e2:?} {filter:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn star_structure_candidates() {
        // Star: center B joined to A and C (both predicates incident to B).
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let b0 = g.add_node(b, Some(TupleId::new("B", 0)), "b0");
        let a0 = g.add_node(a, Some(TupleId::new("A", 0)), "a0");
        let a1 = g.add_node(a, Some(TupleId::new("A", 1)), "a1");
        let c0 = g.add_node(c, Some(TupleId::new("C", 0)), "c0");
        let p_ba = g.add_predicate(b, a, true, "B~A");
        let p_bc = g.add_predicate(b, c, true, "B~C");
        g.add_edge(b0, a0, p_ba, 0.5);
        g.add_edge(b0, a1, p_ba, 0.5);
        g.add_edge(b0, c0, p_bc, 0.5);
        assert_eq!(enumerate_candidates(&g, CandidateFilter::Live).len(), 2);
    }

    #[test]
    fn empty_graph_has_no_candidates() {
        let g = QueryGraph::new();
        assert!(enumerate_candidates(&g, CandidateFilter::Live).is_empty());
    }

    #[test]
    fn cyclic_predicate_structure() {
        // Triangle A-B, B-C, C-A.
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let a0 = g.add_node(a, None, "a0");
        let b0 = g.add_node(b, None, "b0");
        let b1 = g.add_node(b, None, "b1");
        let c0 = g.add_node(c, None, "c0");
        let p_ab = g.add_predicate(a, b, true, "A~B");
        let p_bc = g.add_predicate(b, c, true, "B~C");
        let p_ca = g.add_predicate(c, a, true, "C~A");
        g.add_edge(a0, b0, p_ab, 0.5);
        g.add_edge(a0, b1, p_ab, 0.5);
        g.add_edge(b0, c0, p_bc, 0.5);
        g.add_edge(c0, a0, p_ca, 0.5);
        // Only the binding (a0, b0, c0) closes the triangle.
        let cands = enumerate_candidates(&g, CandidateFilter::Live);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].binding, vec![a0, b0, c0]);
        // The A-B edge through b1 is invalid: b1 has no B~C edge.
        assert!(!edge_in_some_candidate(&g, EdgeId(1), CandidateFilter::Live));
    }
}
