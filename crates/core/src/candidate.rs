//! Candidate enumeration (Definitions 2–4 of the paper).
//!
//! A *candidate* is a connected substructure with exactly one edge per
//! query predicate; a candidate whose edges are all BLUE is an *answer*.
//!
//! One anchored depth-first search finds them. It takes the predicates in
//! a connected expansion order, binding one vertex per part, and draws
//! each predicate's edges from the narrowest source:
//!
//! - a pinned predicate tries only its pinned edge;
//! - the first predicate, when nothing is pinned, scans the edge ids in
//!   order;
//! - every later predicate shares a part that is already bound, and an
//!   edge consistent with the binding must touch that bound vertex (the
//!   *anchor*), so it walks the anchor's adjacency list, not every edge
//!   of the predicate.
//!
//! Which edges may take part is an edge predicate: a [`CandidateFilter`]
//! for the public calls, and "live and truly Blue" for the F1 reference
//! `truth::true_answers`, which so enumerates only the true answers
//! instead of filtering every live candidate.
//!
//! **Order.** `QueryGraph::add_edge` is the only writer of adjacency
//! lists and appends each new edge id to both endpoints' lists, so every
//! list is in ascending id order. The anchor's list therefore yields a
//! predicate's consistent edges in the same ascending order as a scan of
//! all that predicate's edges, and candidates come out in lexicographic
//! order of their edge ids taken in expansion order. A stricter filter
//! only prunes subtrees, so its enumeration is the looser one's
//! subsequence: `true_answers` lists exactly the live candidates whose
//! edges are all true, in the same order. The oracle proptest in this
//! module pins both against a per-predicate scan.
//!
//! The same search answers the membership questions the optimizer needs,
//! with a visitor that stops at the first leaf: "is this edge in any
//! candidate?" (invalid-edge detection, Definition 3) and "are these two
//! edges in a common candidate?" (the conflict test of the latency
//! controller, §5.2). A pinned search starts at a pinned predicate, so it
//! never scans the whole edge list.

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

/// The search's expansion order: the first pinned predicate (else
/// predicate 0), then repeatedly the lowest-index unused predicate that
/// shares a bound part, pinned ones first. With nothing pinned that is
/// plain lowest-index-connected order. Panics if the predicate graph is
/// disconnected (CQL queries must be connected joins).
fn expansion_order(g: &QueryGraph, fixed: &[Option<EdgeId>]) -> Vec<usize> {
    let preds = g.predicates();
    let n = preds.len();
    let mut order = Vec::with_capacity(n);
    order.push(fixed.iter().position(Option::is_some).unwrap_or(0));
    let bound =
        |order: &[usize], p: PartId| order.iter().any(|&j| preds[j].a == p || preds[j].b == p);
    while order.len() < n {
        let next = (0..n)
            .filter(|&i| {
                !order.contains(&i) && (bound(&order, preds[i].a) || bound(&order, preds[i].b))
            })
            .min_by_key(|&i| (fixed[i].is_none(), i))
            .expect("query predicates must form a connected structure");
        order.push(next);
    }
    order
}

/// A leaf visitor: the binding (every part bound) and the edge chosen for
/// each predicate, both borrowed. Returns `true` to continue, `false` to
/// stop the search.
type Visit<'v> = dyn FnMut(&[Option<NodeId>], &[EdgeId]) -> bool + 'v;

/// Depth-first search over the candidates whose edges all pass `admits`.
/// `fixed[i]` optionally pins the edge used for predicate `i`.
fn search(
    g: &QueryGraph,
    admits: &dyn Fn(EdgeId) -> bool,
    fixed: &[Option<EdgeId>],
    visit: &mut Visit<'_>,
) {
    let n = g.predicate_count();
    if n == 0 {
        return;
    }
    // Pinned edges must pass the filter and belong to their predicate.
    let misfit = |(i, f): (usize, &Option<EdgeId>)| {
        f.is_some_and(|e| g.edge_predicate(e) != i || !admits(e))
    };
    if fixed.iter().enumerate().any(misfit) {
        return;
    }
    let mut search = Search {
        g,
        admits,
        fixed,
        order: expansion_order(g, fixed),
        binding: vec![None; g.part_count()],
        chosen: vec![EdgeId(usize::MAX); n],
        visit,
    };
    search.descend(0);
}

struct Search<'a, 'v> {
    g: &'a QueryGraph,
    admits: &'a dyn Fn(EdgeId) -> bool,
    fixed: &'a [Option<EdgeId>],
    order: Vec<usize>,
    binding: Vec<Option<NodeId>>,
    /// `chosen[i]` is the edge bound for predicate `i`.
    chosen: Vec<EdgeId>,
    visit: &'v mut Visit<'v>,
}

impl Search<'_, '_> {
    /// Bind the predicates from `depth` on; `false` once the visitor stops.
    fn descend(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return (self.visit)(&self.binding, &self.chosen);
        }
        let g = self.g;
        let pred = self.order[depth];
        if let Some(e) = self.fixed[pred] {
            return self.bind(depth, pred, e);
        }
        let info = &g.predicates()[pred];
        match self.binding[info.a.0].or(self.binding[info.b.0]) {
            // A consistent edge touches the bound endpoint; its list is in
            // ascending id order (see the module docs).
            Some(anchor) => g.incident_edges(anchor).iter().all(|&e| self.bind(depth, pred, e)),
            // Only the first predicate of an unpinned search.
            None => (0..g.edge_count()).all(|i| self.bind(depth, pred, EdgeId(i))),
        }
    }

    /// Use `e` for `pred` if it is admitted and fits the binding, and
    /// descend; `false` once the visitor stops.
    fn bind(&mut self, depth: usize, pred: usize, e: EdgeId) -> bool {
        let g = self.g;
        if g.edge_predicate(e) != pred || !(self.admits)(e) {
            return true;
        }
        let info = &g.predicates()[pred];
        let (mut u, mut v) = g.edge_endpoints(e);
        // Normalize: u belongs to info.a, v to info.b.
        if g.node_part(u) != info.a {
            std::mem::swap(&mut u, &mut v);
        }
        let (ba, bb) = (self.binding[info.a.0], self.binding[info.b.0]);
        if ba.is_some_and(|x| x != u) || bb.is_some_and(|x| x != v) {
            return true;
        }
        self.binding[info.a.0] = Some(u);
        self.binding[info.b.0] = Some(v);
        self.chosen[pred] = e;
        let cont = self.descend(depth + 1);
        self.binding[info.a.0] = ba;
        self.binding[info.b.0] = bb;
        cont
    }
}

/// Is there a candidate under the filter that honours the pins?
fn any_candidate(g: &QueryGraph, filter: CandidateFilter, fixed: &[Option<EdgeId>]) -> bool {
    let mut found = false;
    search(g, &|e| filter.admits(g, e), fixed, &mut |_, _| {
        found = true;
        false
    });
    found
}

/// Every candidate whose edges all pass `admits`, in enumeration order.
pub(crate) fn candidates_where(g: &QueryGraph, admits: &dyn Fn(EdgeId) -> bool) -> Vec<Candidate> {
    let mut out = Vec::new();
    search(g, admits, &vec![None; g.predicate_count()], &mut |binding, edges| {
        let binding = binding.iter().map(|b| b.expect("all parts bound")).collect();
        out.push(Candidate { binding, edges: edges.to_vec() });
        true
    });
    out
}

/// Enumerate every candidate under the filter.
pub fn enumerate_candidates(g: &QueryGraph, filter: CandidateFilter) -> Vec<Candidate> {
    candidates_where(g, &|e| filter.admits(g, e))
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
    any_candidate(g, filter, &fixed)
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
    any_candidate(g, filter, &fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testgraph::chain_2x3;
    use crate::model::{PartKind, QueryGraph};
    use crate::truth::{true_answers, EdgeTruth};
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

    /// The per-predicate-scan enumerator the anchored search replaced,
    /// kept as its oracle: index every admitted edge by predicate, expand
    /// in lowest-index-connected order, and at every depth try each
    /// indexed edge of the predicate (or its pin) against the binding.
    fn reference(
        g: &QueryGraph,
        admits: &dyn Fn(EdgeId) -> bool,
        fixed: &[Option<EdgeId>],
    ) -> Vec<Candidate> {
        let n = g.predicate_count();
        let mut out = Vec::new();
        if n == 0
            || fixed
                .iter()
                .enumerate()
                .any(|(i, f)| f.is_some_and(|e| !admits(e) || g.edge_predicate(e) != i))
        {
            return out;
        }
        let mut per_pred: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for e in (0..g.edge_count()).map(EdgeId).filter(|&e| admits(e)) {
            per_pred[g.edge_predicate(e)].push(e);
        }
        let preds = g.predicates();
        let mut order = vec![0usize];
        let mut bound = vec![preds[0].a, preds[0].b];
        while order.len() < n {
            let i = (0..n)
                .find(|&i| {
                    !order.contains(&i)
                        && (bound.contains(&preds[i].a) || bound.contains(&preds[i].b))
                })
                .unwrap();
            order.push(i);
            bound.extend([preds[i].a, preds[i].b]);
        }
        #[allow(clippy::too_many_arguments)]
        fn rec(
            g: &QueryGraph,
            fixed: &[Option<EdgeId>],
            order: &[usize],
            depth: usize,
            per_pred: &[Vec<EdgeId>],
            binding: &mut Vec<Option<NodeId>>,
            chosen: &mut Vec<EdgeId>,
            out: &mut Vec<Candidate>,
        ) {
            if depth == order.len() {
                let binding = binding.iter().map(|b| b.unwrap()).collect();
                out.push(Candidate { binding, edges: chosen.clone() });
                return;
            }
            let pred = order[depth];
            let info = &g.predicates()[pred];
            let edges = match &fixed[pred] {
                Some(e) => std::slice::from_ref(e),
                None => &per_pred[pred][..],
            };
            for &e in edges {
                let (mut u, mut v) = g.edge_endpoints(e);
                if g.node_part(u) != info.a {
                    std::mem::swap(&mut u, &mut v);
                }
                let (ba, bb) = (binding[info.a.0], binding[info.b.0]);
                if ba.is_some_and(|x| x != u) || bb.is_some_and(|x| x != v) {
                    continue;
                }
                binding[info.a.0] = Some(u);
                binding[info.b.0] = Some(v);
                chosen[pred] = e;
                rec(g, fixed, order, depth + 1, per_pred, binding, chosen, out);
                binding[info.a.0] = ba;
                binding[info.b.0] = bb;
            }
        }
        let mut binding = vec![None; g.part_count()];
        let mut chosen = vec![EdgeId(usize::MAX); n];
        rec(g, fixed, &order, 0, &per_pred, &mut binding, &mut chosen, &mut out);
        out
    }

    /// A random graph over a connected predicate structure — `shape` 0 a
    /// chain, 1 a star, 2 a cycle, 3 a chain with a parallel predicate
    /// between one part pair — over `parts` parts of 1–3 vertices. The
    /// predicates are registered in a random order with random
    /// orientation, edges join random vertex pairs in a random id order,
    /// and each edge is randomly colored, maybe invalid, and given a
    /// random truth.
    fn random_graph(shape: usize, parts: usize, seed: u64) -> (QueryGraph, EdgeTruth) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
            for i in (1..xs.len()).rev() {
                xs.swap(i, rng.gen_range(0..=i));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(usize, usize)> = match shape {
            0 => (1..parts).map(|i| (i - 1, i)).collect(),
            1 => (1..parts).map(|i| (0, i)).collect(),
            2 => (0..parts).map(|i| (i, (i + 1) % parts)).collect(),
            _ => {
                let mut chain: Vec<_> = (1..parts).map(|i| (i - 1, i)).collect();
                chain.push(chain[rng.gen_range(0..chain.len())]);
                chain
            }
        };
        shuffle(&mut rng, &mut pairs);
        let mut g = QueryGraph::new();
        let ids: Vec<PartId> =
            (0..parts).map(|p| g.add_part(PartKind::Table { name: format!("P{p}") })).collect();
        let nodes: Vec<Vec<NodeId>> = ids
            .iter()
            .map(|&p| {
                (0..rng.gen_range(1..=3)).map(|i| g.add_node(p, None, format!("{i}"))).collect()
            })
            .collect();
        let mut edges = Vec::new();
        for &(a, b) in &pairs {
            let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            let pred = g.add_predicate(ids[a], ids[b], true, "p");
            for &u in &nodes[a] {
                for &v in &nodes[b] {
                    if rng.gen_bool(0.7) {
                        edges.push(if rng.gen_bool(0.5) { (u, v, pred) } else { (v, u, pred) });
                    }
                }
            }
        }
        shuffle(&mut rng, &mut edges);
        let mut truth = EdgeTruth::new();
        for (u, v, pred) in edges {
            let e = g.add_edge(u, v, pred, 0.5);
            match rng.gen_range(0..4) {
                0 => g.set_color(e, Color::Blue),
                1 => g.set_color(e, Color::Red),
                _ => {}
            }
            if rng.gen_bool(0.1) {
                g.set_invalid(e);
            }
            truth.insert(e, rng.gen_bool(0.7));
        }
        (g, truth)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]
        #[test]
        fn anchored_search_matches_the_per_predicate_scan(
            shape in 0usize..4,
            parts in 2usize..5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (g, truth) = random_graph(shape, parts, seed);
            let unpinned = vec![None; g.predicate_count()];
            for filter in [CandidateFilter::Live, CandidateFilter::BlueOnly] {
                let admits = |e| filter.admits(&g, e);
                // (a) Same candidates, in the same order.
                let found = enumerate_candidates(&g, filter);
                proptest::prop_assert_eq!(&found, &reference(&g, &admits, &unpinned), "{:?}", filter);
                // (c) Existence under one pin and under two.
                for e1 in (0..g.edge_count()).map(EdgeId) {
                    let mut fixed = unpinned.clone();
                    fixed[g.edge_predicate(e1)] = Some(e1);
                    let expect = !reference(&g, &admits, &fixed).is_empty();
                    proptest::prop_assert_eq!(edge_in_some_candidate(&g, e1, filter), expect);
                    for e2 in (0..g.edge_count()).map(EdgeId) {
                        let expect = if g.edge_predicate(e2) == g.edge_predicate(e1) {
                            e1 == e2
                        } else {
                            let mut fixed = fixed.clone();
                            fixed[g.edge_predicate(e2)] = Some(e2);
                            !reference(&g, &admits, &fixed).is_empty()
                        };
                        proptest::prop_assert_eq!(edges_in_same_candidate(&g, e1, e2, filter), expect);
                    }
                }
            }
            // (b) The truth pushed into the search equals enumerate-then-filter.
            let filtered: Vec<Candidate> = enumerate_candidates(&g, CandidateFilter::Live)
                .into_iter()
                .filter(|c| c.edges.iter().all(|e| truth[e]))
                .collect();
            proptest::prop_assert_eq!(true_answers(&g, &truth), filtered);
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
