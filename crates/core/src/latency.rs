//! Latency control (§5.2): batch non-conflicting tasks into rounds.
//!
//! Two edges *conflict* when they appear in a common candidate — asking
//! one may prune the other, so asking both in the same round can waste
//! money. CDB's rules: edges in different connected components never
//! conflict; edges containing two different tuples of the same table never
//! conflict; otherwise run the exact shared-candidate check. Per
//! component, the round greedily collects a maximal set of pairwise
//! non-conflicting edges in expectation order (not the paper's literal
//! longest-prefix rule; see DESIGN.md deviation 2); the union over
//! components is asked in parallel.
//!
//! A round is one linear pass. On an acyclic predicate structure whose
//! nodes are arc consistent (what `prune_invalid_edges` leaves behind),
//! every live path along the predicate tree extends to a full candidate,
//! so the edges conflicting with a chosen edge `e` are exactly its
//! *candidate cone*: from each endpoint, the live edges of every other
//! predicate, and recursively outward from their far ends. Accepting an
//! edge marks its cone as blocked; later edges are accepted iff unblocked.
//! Any other graph (cyclic structure, or an unpruned caller) is batched by
//! the pairwise [`edges_conflict`] search instead. The choice is read off
//! the graph alone, and where the cone walk runs it yields the pairwise round.

use cdb_graph::connected_components;

use crate::candidate::{edges_in_same_candidate, CandidateFilter};
use crate::model::{EdgeId, NodeId, QueryGraph};
use crate::prune::{arc_consistent, predicate_structure_cyclic};

/// Exact conflict test between two edges: do they share a live candidate?
pub fn edges_conflict(g: &QueryGraph, e1: EdgeId, e2: EdgeId) -> bool {
    if e1 == e2 {
        return false;
    }
    // Rule: two different tuples from the same part cannot co-occur in a
    // candidate, so such edges never conflict.
    let (u1, v1) = g.edge_endpoints(e1);
    let (u2, v2) = g.edge_endpoints(e2);
    for a in [u1, v1] {
        for b in [u2, v2] {
            if a != b && g.node_part(a) == g.node_part(b) {
                return false;
            }
        }
    }
    edges_in_same_candidate(g, e1, e2, CandidateFilter::Live)
}

/// Component id per node over the *live* edges.
fn live_components(g: &QueryGraph) -> Vec<usize> {
    let edges: Vec<(usize, usize)> = (0..g.edge_count())
        .map(EdgeId)
        .filter(|&e| g.edge_live(e))
        .map(|e| {
            let (u, v) = g.edge_endpoints(e);
            (u.0, v.0)
        })
        .collect();
    connected_components(g.node_count(), &edges)
}

/// True when cone marking is exact for `g`; see the module docs.
fn cone_exact(g: &QueryGraph) -> bool {
    !predicate_structure_cyclic(g) && arc_consistent(g)
}

/// Block every live edge reachable from `n` without going back through
/// predicate `via`. `expanded[n * predicates + via]` memoises the walk, so
/// each direction is expanded once per round however many cones share it;
/// the structure is a tree here, so the recursion is as deep as its diameter.
fn mark_cone(g: &QueryGraph, n: NodeId, via: usize, blocked: &mut [bool], expanded: &mut [bool]) {
    let slot = n.0 * g.predicate_count() + via;
    if std::mem::replace(&mut expanded[slot], true) {
        return;
    }
    for &f in g.incident_edges(n) {
        let q = g.edge_predicate(f);
        if q != via && g.edge_live(f) {
            blocked[f.0] = true;
            mark_cone(g, g.other_endpoint(f, n), q, blocked, expanded);
        }
    }
}

/// Given the expectation-ordered open edges, select the subset to ask in
/// the next round: per live component, a maximal set of pairwise
/// non-conflicting edges collected greedily in order (the §5.2 goal of
/// "simultaneously ask the tasks that cannot be inferred by others in the
/// same round"). Unlike the paper's literal longest-prefix rule, scanning
/// does not stop at a component's first conflicting edge; no task of a
/// round can prune another task of the same round either way.
pub fn parallel_round(g: &QueryGraph, ordered: &[EdgeId]) -> Vec<EdgeId> {
    let mut ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::SELECT_CANDIDATES);
    ph.set(cdb_obsv::attr::keys::N, ordered.len() as u64);
    let comp = live_components(g);
    // Group the ordered list per component (an edge's component is its
    // endpoints' — both endpoints share one by construction); the sort is
    // stable, so expectation order survives inside each group.
    let comp_of = |e: EdgeId| comp[g.edge_endpoints(e).0 .0];
    let mut edges = ordered.to_vec();
    edges.sort_by_key(|&e| comp_of(e));
    // `blocked[e]`: `e` lies in the cone of a chosen edge. `None` searches
    // every (edge, chosen edge of its component) pair instead.
    let mut cone = cone_exact(g)
        .then(|| (vec![false; g.edge_count()], vec![false; g.node_count() * g.predicate_count()]));
    let mut round: Vec<EdgeId> = Vec::new();
    // Where the current component's chosen edges start in `round`.
    let (mut group, mut group_start) = (usize::MAX, 0);
    for e in edges {
        let c = comp_of(e);
        if c != group {
            (group, group_start) = (c, round.len());
        }
        let conflict = match &cone {
            Some((blocked, _)) => blocked[e.0],
            None => round[group_start..].iter().any(|&e2| edges_conflict(g, e, e2)),
        };
        if conflict {
            continue;
        }
        round.push(e);
        if let Some((blocked, expanded)) = &mut cone {
            // A non-live edge is in no candidate and blocks nothing.
            if g.edge_live(e) {
                let (u, v) = g.edge_endpoints(e);
                let p = g.edge_predicate(e);
                mark_cone(g, u, p, blocked, expanded);
                mark_cone(g, v, p, blocked, expanded);
            }
        }
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::expectation::expectation_order;
    use crate::model::testgraph::chain_2x3;
    use crate::model::{Color, PartId, PartKind, QueryGraph};

    #[test]
    fn same_table_rule_makes_edges_non_conflicting() {
        let (g, nodes) = chain_2x3(0.5);
        // (A0,B0) and (A0,B1): contain B0 and B1, different tuples of B.
        let e1 = g
            .incident_edges(nodes[0][0])
            .iter()
            .copied()
            .find(|&e| g.other_endpoint(e, nodes[0][0]) == nodes[1][0])
            .unwrap();
        let e2 = g
            .incident_edges(nodes[0][0])
            .iter()
            .copied()
            .find(|&e| g.other_endpoint(e, nodes[0][0]) == nodes[1][1])
            .unwrap();
        assert!(!edges_conflict(&g, e1, e2));
    }

    #[test]
    fn chained_edges_conflict() {
        let (g, nodes) = chain_2x3(0.5);
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
        assert!(edges_conflict(&g, e_ab, e_bc));
    }

    #[test]
    fn different_components_never_conflict() {
        // Two disjoint 2-part graphs.
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let a0 = g.add_node(a, None, "a0");
        let a1 = g.add_node(a, None, "a1");
        let b0 = g.add_node(b, None, "b0");
        let b1 = g.add_node(b, None, "b1");
        let p = g.add_predicate(a, b, true, "A~B");
        let e1 = g.add_edge(a0, b0, p, 0.5);
        let e2 = g.add_edge(a1, b1, p, 0.5);
        assert!(!edges_conflict(&g, e1, e2));
        let round = parallel_round(&g, &[e1, e2]);
        assert_eq!(round.len(), 2);
    }

    #[test]
    fn round_takes_longest_non_conflicting_prefix() {
        let (g, _) = chain_2x3(0.5);
        let order = expectation_order(&g);
        let round = parallel_round(&g, &order);
        assert!(!round.is_empty());
        // Round edges are pairwise non-conflicting.
        for (i, &e1) in round.iter().enumerate() {
            for &e2 in &round[i + 1..] {
                assert!(!edges_conflict(&g, e1, e2), "{e1:?} conflicts {e2:?}");
            }
        }
    }

    #[test]
    fn rounds_cover_everything_eventually() {
        // Simulate the executor loop: ask a round, color the edges, repeat;
        // every open edge must be asked within a bounded number of rounds.
        let (mut g, _) = chain_2x3(0.5);
        let mut rounds = 0;
        while !g.open_edges().is_empty() {
            let order = expectation_order(&g);
            let round = parallel_round(&g, &order);
            assert!(!round.is_empty(), "progress must be made");
            for e in round {
                g.set_color(e, Color::Blue);
            }
            rounds += 1;
            assert!(rounds <= 16, "too many rounds");
        }
        assert!(rounds >= 2, "a chain cannot finish in one conflict-free round");
    }

    #[test]
    fn empty_order_gives_empty_round() {
        let (g, _) = chain_2x3(0.5);
        assert!(parallel_round(&g, &[]).is_empty());
    }

    /// `parallel_round` gives `expected`, and so does the pairwise greedy
    /// loop (written for a single-component graph).
    fn assert_round(g: &QueryGraph, ordered: &[EdgeId], expected: &[EdgeId]) {
        assert_eq!(parallel_round(g, ordered), expected);
        let mut chosen: Vec<EdgeId> = Vec::new();
        for &e in ordered {
            if !chosen.iter().any(|&e2| edges_conflict(g, e, e2)) {
                chosen.push(e);
            }
        }
        assert_eq!(chosen, expected, "pairwise");
    }

    /// A graph with one part per name and one crowd predicate per
    /// `(left, right)` part pair, to be filled with `add_node` and `add_edge`.
    fn structure(parts: &[&str], preds: &[(usize, usize)]) -> (QueryGraph, Vec<PartId>) {
        let mut g = QueryGraph::new();
        let ids: Vec<PartId> =
            parts.iter().map(|n| g.add_part(PartKind::Table { name: n.to_string() })).collect();
        for &(a, b) in preds {
            g.add_predicate(ids[a], ids[b], true, format!("{}~{}", parts[a], parts[b]));
        }
        (g, ids)
    }

    #[test]
    fn cyclic_structure_takes_the_pairwise_path() {
        // The triangle of `candidate::tests::cyclic_predicate_structure`.
        let (mut g, p) = structure(&["A", "B", "C"], &[(0, 1), (1, 2), (2, 0)]);
        let (a0, b0) = (g.add_node(p[0], None, "a0"), g.add_node(p[1], None, "b0"));
        let (b1, c0) = (g.add_node(p[1], None, "b1"), g.add_node(p[2], None, "c0"));
        let e_a0b0 = g.add_edge(a0, b0, 0, 0.5);
        let e_a0b1 = g.add_edge(a0, b1, 0, 0.5);
        let e_b0c0 = g.add_edge(b0, c0, 1, 0.5);
        let e_c0a0 = g.add_edge(c0, a0, 2, 0.5);
        assert!(!cone_exact(&g));
        // Walking the cycle from `a0b0` would come back around to block
        // `a0b1`, which is in no candidate and conflicts with nothing.
        let order = [e_a0b0, e_a0b1, e_b0c0, e_c0a0];
        assert_round(&g, &order, &[e_a0b0, e_a0b1]);
    }

    #[test]
    fn unpruned_dead_end_takes_the_pairwise_path() {
        // Chain Z—A—B—C where b1 has live support for A~B and none for B~C.
        let (mut g, p) = structure(&["Z", "A", "B", "C"], &[(0, 1), (1, 2), (2, 3)]);
        let (z0, a0) = (g.add_node(p[0], None, "z0"), g.add_node(p[1], None, "a0"));
        let (b0, b1) = (g.add_node(p[2], None, "b0"), g.add_node(p[2], None, "b1"));
        let c0 = g.add_node(p[3], None, "c0");
        let e_z0a0 = g.add_edge(z0, a0, 0, 0.5);
        let e_a0b0 = g.add_edge(a0, b0, 1, 0.5);
        let e_a0b1 = g.add_edge(a0, b1, 1, 0.5);
        let e_b0c0 = g.add_edge(b0, c0, 2, 0.5);
        assert!(!cone_exact(&g));
        // A cone walk from `z0a0` would block `a0b1` through a0, although no
        // candidate holds `a0b1` at all: the round would shrink to one task.
        let order = [e_z0a0, e_a0b1, e_a0b0, e_b0c0];
        assert_round(&g, &order, &[e_z0a0, e_a0b1]);
        // Pruned, the same graph is batched by the cone walk, identically.
        crate::prune::prune_invalid_edges(&mut g);
        assert!(cone_exact(&g));
        assert_round(&g, &order, &[e_z0a0, e_a0b1]);
    }

    #[test]
    fn star_cone_blocks_the_other_predicate_through_the_centre() {
        let (mut g, p) = structure(&["A", "B", "C"], &[(1, 0), (1, 2)]);
        let (a0, a1) = (g.add_node(p[0], None, "a0"), g.add_node(p[0], None, "a1"));
        let (b0, c0) = (g.add_node(p[1], None, "b0"), g.add_node(p[2], None, "c0"));
        let e_b0a0 = g.add_edge(b0, a0, 0, 0.5);
        let e_b0a1 = g.add_edge(b0, a1, 0, 0.5);
        let e_b0c0 = g.add_edge(b0, c0, 1, 0.5);
        assert!(cone_exact(&g));
        let order = [e_b0a0, e_b0c0, e_b0a1];
        assert_round(&g, &order, &[e_b0a0, e_b0a1]);
    }

    #[test]
    fn disjoint_edges_conflict_only_through_a_live_middle_edge() {
        // Chain A—B—C—D with candidates (a0,b0,c0,d0), (a0,b0,c1,d1) and
        // (a1,b1,c0,d0): `a0b0` and `c0d0` meet only through `b0c0`.
        let (mut g, p) = structure(&["A", "B", "C", "D"], &[(0, 1), (1, 2), (2, 3)]);
        let n: Vec<[NodeId; 2]> = p
            .iter()
            .map(|&part| [g.add_node(part, None, "0"), g.add_node(part, None, "1")])
            .collect();
        let e_a0b0 = g.add_edge(n[0][0], n[1][0], 0, 0.5);
        g.add_edge(n[0][1], n[1][1], 0, 0.5);
        let e_b0c0 = g.add_edge(n[1][0], n[2][0], 1, 0.5);
        g.add_edge(n[1][0], n[2][1], 1, 0.5);
        g.add_edge(n[1][1], n[2][0], 1, 0.5);
        let e_c0d0 = g.add_edge(n[2][0], n[3][0], 2, 0.5);
        g.add_edge(n[2][1], n[3][1], 2, 0.5);
        assert!(cone_exact(&g));
        let order = [e_a0b0, e_c0d0];
        assert_round(&g, &order, &[e_a0b0]);
        g.set_color(e_b0c0, Color::Red);
        assert!(crate::prune::prune_invalid_edges(&mut g).is_empty());
        assert!(cone_exact(&g));
        assert_round(&g, &order, &[e_a0b0, e_c0d0]);
    }

    #[test]
    fn chosen_edge_never_blocks_its_own_predicate() {
        let (g, _) = chain_2x3(0.5);
        assert!(cone_exact(&g));
        let a_b: Vec<EdgeId> =
            (0..g.edge_count()).map(EdgeId).filter(|&e| g.edge_predicate(e) == 0).collect();
        assert_eq!(a_b.len(), 4);
        assert_eq!(parallel_round(&g, &a_b), a_b);
    }
}
