//! Expectation-based task selection (§5.1.2, Eq. 1).
//!
//! For an edge `e = (t, t′)`, consider the *bundle* of edges from `t` to
//! all tuples of `t′`'s part under the same predicate. Cutting the whole
//! bundle certainly invalidates edges (everything that needed `t`); the
//! probability of cutting it is `∏ (1 − ω)` over the bundle. The pruning
//! expectation of `e` is that probability times the number of invalidated
//! edges, shared equally among the bundle's `x` edges — plus the symmetric
//! term for `t′`:
//!
//! ```text
//! E(t, t′) = ∏ᵢ(1 − ω(t, tᵢ)) / x · α  +  ∏ᵢ(1 − ω(tᵢ, t′)) / y · β
//! ```
//!
//! Edges are asked in descending expectation order. Computing α (the
//! cascade size) uses the same support-propagation as invalid-edge pruning,
//! simulated without mutating the graph.
//!
//! # Incremental maintenance
//!
//! The expectation of an edge depends only on its endpoints' bundles, and
//! a bundle's product and cascade count depend only on the live subgraph
//! of the node's connected component. A round's answers (colors, pruned
//! edges) therefore leave every score outside the touched components
//! untouched. [`SelectionState`] exploits this: it consumes the
//! [`QueryGraph`] change log, floods the affected pre-change components to
//! build a dirty-node set, drops only those nodes' cached bundle effects,
//! and rescores only open edges with a dirty endpoint. Cascade simulation
//! runs on reusable word-bitsets with per-(node, predicate) dead-support
//! counters against the graph's live-support counters, so one support
//! check is two counter reads instead of an adjacency scan.
//!
//! The from-scratch implementation is kept in [`mod@reference`] as the
//! correctness oracle: proptests pin the incremental ordering byte-for-
//! byte against it.

use std::cmp::Reverse;
use std::collections::HashMap;

use crate::model::{Color, EdgeId, NodeId, QueryGraph};

/// Pruning expectation of every open edge (one-shot; equals
/// [`reference::pruning_expectations`] bit-for-bit).
pub fn pruning_expectations(g: &QueryGraph) -> Vec<(EdgeId, f64)> {
    SelectionState::new().expectations(g)
}

/// Open edges in descending pruning-expectation order (ties by weight
/// ascending — a less likely edge is the better cut — then id).
pub fn expectation_order(g: &QueryGraph) -> Vec<EdgeId> {
    SelectionState::new().order(g)
}

/// Sort scored open edges into ask order. Shared by the incremental and
/// reference paths so the tie-breaking is identical by construction.
/// Edge ids are unique, so the key is a total order and an unstable sort
/// is deterministic.
fn sort_scored(g: &QueryGraph, scored: &mut [(EdgeId, f64)]) {
    scored.sort_unstable_by_key(|&(e, score)| {
        (Reverse(total_order_bits(score)), total_order_bits(g.edge_weight(e)), e)
    });
}

/// `x` as an integer whose order is [`f64::total_cmp`]'s.
fn total_order_bits(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Incrementally maintained expectation scores, carried across rounds.
///
/// After each round the executor recolors/prunes some edges; `order`
/// re-reads the graph's change log and rescores only the affected
/// components. The produced ordering is byte-identical to recomputing
/// from scratch ([`reference::expectation_order`]) — see the module docs
/// for why the dirty region bounds every possible score change.
#[derive(Debug, Default)]
pub struct SelectionState {
    /// Consumed prefix of the graph's change log.
    cursor: usize,
    initialized: bool,
    /// Score per edge id; only open edges' entries are meaningful.
    scores: Vec<f64>,
    /// Cached bundle effect per `node * predicate_count + predicate`:
    /// (bundle size, ∏(1 − ω), cascade count).
    bundles: Vec<Option<(usize, f64, usize)>>,
    predicate_count: usize,
    scratch: CascadeScratch,
}

impl SelectionState {
    /// Empty state; caches fill on the first `order`/`expectations` call.
    pub fn new() -> SelectionState {
        SelectionState::default()
    }

    /// Current pruning expectation of every open edge.
    pub fn expectations(&mut self, g: &QueryGraph) -> Vec<(EdgeId, f64)> {
        self.refresh(g);
        g.open_edges().into_iter().map(|e| (e, self.scores[e.0])).collect()
    }

    /// Open edges in descending pruning-expectation order.
    pub fn order(&mut self, g: &QueryGraph) -> Vec<EdgeId> {
        let mut ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::SELECT_EXPECTATION);
        let mut scored = self.expectations(g);
        ph.set(cdb_obsv::attr::keys::N, scored.len() as u64);
        sort_scored(g, &mut scored);
        scored.into_iter().map(|(e, _)| e).collect()
    }

    fn refresh(&mut self, g: &QueryGraph) {
        if !self.initialized
            || self.scores.len() != g.edge_count()
            || self.bundles.len() != g.node_count() * g.predicate_count()
        {
            self.rebuild(g);
            return;
        }
        let end = g.change_log_len();
        if end == self.cursor {
            return;
        }
        // Deduplicate the new log suffix.
        let mut changed = BitSet::new(g.edge_count());
        let mut changed_edges: Vec<EdgeId> = Vec::new();
        for &e in g.changes_since(self.cursor) {
            if changed.insert(e.0) {
                changed_edges.push(e);
            }
        }
        self.cursor = end;
        // Dirty region: flood from the changed edges' endpoints over edges
        // that are live now *or* just changed. Pre-change live edges are a
        // subset of that union, so the flood covers every pre-change
        // component containing a transition; bundle products and cascade
        // counts never reach past a component boundary, so scores of nodes
        // outside the region cannot have moved.
        let mut dirty = BitSet::new(g.node_count());
        let mut dirty_nodes: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &e in &changed_edges {
            let (u, v) = g.edge_endpoints(e);
            for n in [u, v] {
                if dirty.insert(n.0) {
                    dirty_nodes.push(n);
                    stack.push(n);
                }
            }
        }
        while let Some(n) = stack.pop() {
            for &e in g.incident_edges(n) {
                if !g.edge_live(e) && !changed.contains(e.0) {
                    continue;
                }
                let w = g.other_endpoint(e, n);
                if dirty.insert(w.0) {
                    dirty_nodes.push(w);
                    stack.push(w);
                }
            }
        }
        let pc = self.predicate_count;
        for &n in &dirty_nodes {
            self.bundles[n.0 * pc..(n.0 + 1) * pc].fill(None);
        }
        for e in g.open_edges() {
            let (u, v) = g.edge_endpoints(e);
            if dirty.contains(u.0) || dirty.contains(v.0) {
                self.scores[e.0] = self.score(g, e);
            }
        }
    }

    fn rebuild(&mut self, g: &QueryGraph) {
        self.scores.clear();
        self.scores.resize(g.edge_count(), 0.0);
        self.predicate_count = g.predicate_count();
        self.bundles.clear();
        self.bundles.resize(g.node_count() * self.predicate_count, None);
        for e in g.open_edges() {
            self.scores[e.0] = self.score(g, e);
        }
        self.cursor = g.change_log_len();
        self.initialized = true;
    }

    /// Eq. 1 — arithmetic kept expression-for-expression identical to the
    /// reference so the resulting f64 is bit-equal.
    fn score(&mut self, g: &QueryGraph, e: EdgeId) -> f64 {
        let (u, v) = g.edge_endpoints(e);
        let p = g.edge_predicate(e);
        let (x, prod_x, alpha) = self.bundle(g, u, p);
        let (y, prod_y, beta) = self.bundle(g, v, p);
        let mut ex = 0.0;
        if x > 0 {
            ex += prod_x / x as f64 * alpha as f64;
        }
        if y > 0 {
            ex += prod_y / y as f64 * beta as f64;
        }
        ex
    }

    fn bundle(&mut self, g: &QueryGraph, n: NodeId, p: usize) -> (usize, f64, usize) {
        let slot = n.0 * self.predicate_count + p;
        if let Some(cached) = self.bundles[slot] {
            return cached;
        }
        let effect = bundle_effect(g, n, p, &mut self.scratch);
        self.bundles[slot] = Some(effect);
        effect
    }
}

/// Effect of cutting the whole bundle of `node`'s live edges under
/// `predicate`: `(bundle size x, ∏(1 − ω), #edges invalidated α)`.
///
/// α counts the live edges that become invalid *besides* the bundle
/// itself, via the death cascade. If the bundle contains a Blue edge it
/// cannot be cut (`∏ = 0`).
fn bundle_effect(
    g: &QueryGraph,
    node: NodeId,
    predicate: usize,
    scratch: &mut CascadeScratch,
) -> (usize, f64, usize) {
    scratch.bundle.clear();
    scratch.bundle.extend(g.live_edges_for_predicate_iter(node, predicate));
    let x = scratch.bundle.len();
    if x == 0 {
        return (0, 0.0, 0);
    }
    let mut prod = 1.0f64;
    for &e in &scratch.bundle {
        prod *= match g.edge_color(e) {
            Color::Blue => 0.0,
            Color::Red => 1.0, // unreachable for live edges, defensive
            Color::Unknown => 1.0 - g.edge_weight(e),
        };
    }
    if prod == 0.0 {
        return (x, 0.0, 0);
    }
    let bundle = std::mem::take(&mut scratch.bundle);
    let alpha = simulate_cascade(g, node, &bundle, scratch);
    scratch.bundle = bundle;
    (x, prod, alpha)
}

/// Count how many live edges die if `bundle` (all live edges of `start`
/// for one predicate) is removed, excluding the bundle itself.
///
/// Same traversal as [`reference::simulate_cascade`], but dead edges/nodes
/// live in reusable word-bitsets and the "does `w` still have live
/// support?" test compares the graph's live-support counter against a
/// dead-support counter bumped as edges die — two array reads instead of
/// an adjacency scan. Reset cost is proportional to the touched region.
fn simulate_cascade(
    g: &QueryGraph,
    start: NodeId,
    bundle: &[EdgeId],
    s: &mut CascadeScratch,
) -> usize {
    let _ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::SELECT_CASCADE);
    s.ensure(g);
    let pc = s.pred_count;
    debug_assert!(s.queue.is_empty());
    if bit_insert(&mut s.dead_node, start.0) {
        s.touched_nodes.push(start);
    }
    s.queue.push(start);
    for &e in bundle {
        if bit_insert(&mut s.dead_edge, e.0) {
            s.touched_edges.push(e);
            let (u, v) = g.edge_endpoints(e);
            let p = g.edge_predicate(e);
            for n in [u, v] {
                let idx = n.0 * pc + p;
                s.dead_support[idx] += 1;
                s.touched_support.push(idx);
            }
        }
    }
    // The far endpoints of the removed bundle may lose their only support
    // for this predicate: seed them into the cascade.
    for &e in bundle {
        let w = g.other_endpoint(e, start);
        if bit_contains(&s.dead_node, w.0) {
            continue;
        }
        let p = g.edge_predicate(e);
        if g.live_support(w, p) <= s.dead_support[w.0 * pc + p] as usize {
            bit_insert(&mut s.dead_node, w.0);
            s.touched_nodes.push(w);
            s.queue.push(w);
        }
    }
    let mut invalidated = 0usize;
    while let Some(v) = s.queue.pop() {
        for &e in g.incident_edges(v) {
            if !g.edge_live(e) || bit_contains(&s.dead_edge, e.0) {
                continue;
            }
            bit_insert(&mut s.dead_edge, e.0);
            s.touched_edges.push(e);
            invalidated += 1;
            let p = g.edge_predicate(e);
            let (eu, ev) = g.edge_endpoints(e);
            for n in [eu, ev] {
                let idx = n.0 * pc + p;
                s.dead_support[idx] += 1;
                s.touched_support.push(idx);
            }
            let w = g.other_endpoint(e, v);
            if bit_contains(&s.dead_node, w.0) {
                continue;
            }
            // Does w still have a live edge for this predicate?
            if g.live_support(w, p) <= s.dead_support[w.0 * pc + p] as usize {
                bit_insert(&mut s.dead_node, w.0);
                s.touched_nodes.push(w);
                s.queue.push(w);
            }
        }
    }
    for e in s.touched_edges.drain(..) {
        s.dead_edge[e.0 >> 6] &= !(1u64 << (e.0 & 63));
    }
    for n in s.touched_nodes.drain(..) {
        s.dead_node[n.0 >> 6] &= !(1u64 << (n.0 & 63));
    }
    for idx in s.touched_support.drain(..) {
        s.dead_support[idx] = 0;
    }
    invalidated
}

/// Reusable cascade workspace: zeroed bitsets plus touched-lists so a
/// simulation's cleanup is O(touched region), not O(graph).
#[derive(Debug, Default)]
struct CascadeScratch {
    dead_edge: Vec<u64>,
    dead_node: Vec<u64>,
    /// Dead-support counter per `node * pred_count + predicate`.
    dead_support: Vec<u32>,
    touched_edges: Vec<EdgeId>,
    touched_nodes: Vec<NodeId>,
    touched_support: Vec<usize>,
    queue: Vec<NodeId>,
    /// Bundle collection buffer for [`bundle_effect`].
    bundle: Vec<EdgeId>,
    pred_count: usize,
}

impl CascadeScratch {
    fn ensure(&mut self, g: &QueryGraph) {
        let pc = g.predicate_count();
        let support = g.node_count() * pc;
        if self.pred_count != pc || self.dead_support.len() < support {
            self.pred_count = pc;
            self.dead_support.clear();
            self.dead_support.resize(support, 0);
        }
        let ew = g.edge_count().div_ceil(64);
        if self.dead_edge.len() < ew {
            self.dead_edge.resize(ew, 0);
        }
        let nw = g.node_count().div_ceil(64);
        if self.dead_node.len() < nw {
            self.dead_node.resize(nw, 0);
        }
    }
}

/// Set bit `i`; true when it was newly set.
#[inline]
fn bit_insert(words: &mut [u64], i: usize) -> bool {
    let w = &mut words[i >> 6];
    let m = 1u64 << (i & 63);
    let fresh = *w & m == 0;
    *w |= m;
    fresh
}

#[inline]
fn bit_contains(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Growable word-bitset for the dirty-region flood.
#[derive(Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(capacity: usize) -> BitSet {
        BitSet { words: vec![0; capacity.div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) -> bool {
        bit_insert(&mut self.words, i)
    }

    fn contains(&self, i: usize) -> bool {
        bit_contains(&self.words, i)
    }
}

pub mod reference {
    //! The from-scratch implementation, kept as the correctness oracle:
    //! recomputes every open edge's expectation with per-call `HashSet`
    //! cascades. Proptests and benches pin the incremental
    //! [`SelectionState`] ordering byte-for-byte
    //! against [`expectation_order`] here; it is not wired into any
    //! production path.

    use super::*;

    /// Pruning expectation of every open edge, recomputed from scratch.
    pub fn pruning_expectations(g: &QueryGraph) -> Vec<(EdgeId, f64)> {
        // Cache bundle effects per (node, predicate).
        let mut cache: HashMap<(NodeId, usize), (usize, f64, usize)> = HashMap::new();
        g.open_edges()
            .into_iter()
            .map(|e| {
                let (u, v) = g.edge_endpoints(e);
                let p = g.edge_predicate(e);
                let (x, prod_x, alpha) =
                    *cache.entry((u, p)).or_insert_with(|| bundle_effect(g, u, p));
                let (y, prod_y, beta) =
                    *cache.entry((v, p)).or_insert_with(|| bundle_effect(g, v, p));
                let mut ex = 0.0;
                if x > 0 {
                    ex += prod_x / x as f64 * alpha as f64;
                }
                if y > 0 {
                    ex += prod_y / y as f64 * beta as f64;
                }
                (e, ex)
            })
            .collect()
    }

    /// Open edges in ask order, recomputed from scratch.
    pub fn expectation_order(g: &QueryGraph) -> Vec<EdgeId> {
        let mut scored = pruning_expectations(g);
        sort_scored(g, &mut scored);
        scored.into_iter().map(|(e, _)| e).collect()
    }

    fn bundle_effect(g: &QueryGraph, node: NodeId, predicate: usize) -> (usize, f64, usize) {
        let bundle = g.live_edges_for_predicate(node, predicate);
        let x = bundle.len();
        if x == 0 {
            return (0, 0.0, 0);
        }
        let mut prod = 1.0f64;
        for &e in &bundle {
            prod *= match g.edge_color(e) {
                Color::Blue => 0.0,
                Color::Red => 1.0, // unreachable for live edges, defensive
                Color::Unknown => 1.0 - g.edge_weight(e),
            };
        }
        if prod == 0.0 {
            return (x, 0.0, 0);
        }
        (x, prod, simulate_cascade(g, node, &bundle))
    }

    /// Count how many live edges die if `bundle` (all live edges of
    /// `start` for one predicate) is removed, excluding the bundle itself.
    pub fn simulate_cascade(g: &QueryGraph, start: NodeId, bundle: &[EdgeId]) -> usize {
        let removed: std::collections::HashSet<EdgeId> = bundle.iter().copied().collect();
        let mut dead_edges: std::collections::HashSet<EdgeId> = removed.clone();
        let mut dead_nodes: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        let mut queue = vec![start];
        dead_nodes.insert(start);
        let mut invalidated = 0usize;
        // The far endpoints of the removed bundle may lose their only
        // support for this predicate: seed them into the cascade.
        for &e in bundle {
            let w = g.other_endpoint(e, start);
            if dead_nodes.contains(&w) {
                continue;
            }
            let p = g.edge_predicate(e);
            if !g.has_live_support(w, p, |e2| dead_edges.contains(&e2)) {
                dead_nodes.insert(w);
                queue.push(w);
            }
        }
        while let Some(v) = queue.pop() {
            for &e in g.incident_edges(v) {
                if !g.edge_live(e) || dead_edges.contains(&e) {
                    continue;
                }
                dead_edges.insert(e);
                invalidated += 1;
                let w = g.other_endpoint(e, v);
                if dead_nodes.contains(&w) {
                    continue;
                }
                // Does w still have a live edge for this predicate?
                let p = g.edge_predicate(e);
                if !g.has_live_support(w, p, |e2| dead_edges.contains(&e2)) {
                    dead_nodes.insert(w);
                    queue.push(w);
                }
            }
        }
        invalidated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PartKind, QueryGraph};

    /// Rebuild the paper's running-example neighbourhood around p1:
    /// Citation {c1} — Paper {p1} — Researcher {r1, r2, r3} — University
    /// {u1, u2, u3}, with the weights from Figure 4.
    fn paper_p1_neighbourhood() -> (QueryGraph, EdgeId) {
        let mut g = QueryGraph::new();
        let uni = g.add_part(PartKind::Table { name: "University".into() });
        let res = g.add_part(PartKind::Table { name: "Researcher".into() });
        let pap = g.add_part(PartKind::Table { name: "Paper".into() });
        let cit = g.add_part(PartKind::Table { name: "Citation".into() });
        let u1 = g.add_node(uni, None, "u1");
        let u2 = g.add_node(uni, None, "u2");
        let u3 = g.add_node(uni, None, "u3");
        let r1 = g.add_node(res, None, "r1");
        let r2 = g.add_node(res, None, "r2");
        let r3 = g.add_node(res, None, "r3");
        let p1 = g.add_node(pap, None, "p1");
        let c1 = g.add_node(cit, None, "c1");
        let p_ur = g.add_predicate(uni, res, true, "U~R");
        let p_rp = g.add_predicate(res, pap, true, "R~P");
        let p_pc = g.add_predicate(pap, cit, true, "P~C");
        // University-Researcher edges (weights arbitrary but plausible).
        g.add_edge(u1, r1, p_ur, 0.8);
        g.add_edge(u2, r1, p_ur, 0.7);
        g.add_edge(u1, r2, p_ur, 0.6);
        g.add_edge(u2, r2, p_ur, 0.9);
        g.add_edge(u3, r3, p_ur, 0.85);
        // Researcher-Paper edges with the paper's weights.
        let e_p1r1 = g.add_edge(r1, p1, p_rp, 0.42);
        g.add_edge(r2, p1, p_rp, 0.41);
        g.add_edge(r3, p1, p_rp, 0.83);
        // Paper-Citation.
        g.add_edge(p1, c1, p_pc, 0.5);
        (g, e_p1r1)
    }

    #[test]
    fn expectation_matches_paper_example() {
        // E(p1, r1) = (1-0.42)*2 + (1-0.42)(1-0.41)(1-0.83)*6/3 = 1.276.
        let (g, e) = paper_p1_neighbourhood();
        let scores: HashMap<EdgeId, f64> = pruning_expectations(&g).into_iter().collect();
        let expected = (1.0 - 0.42) * 2.0 + (1.0 - 0.42) * (1.0 - 0.41) * (1.0 - 0.83) * 6.0 / 3.0;
        assert!((scores[&e] - expected).abs() < 1e-9, "E = {}, expected {expected}", scores[&e]);
    }

    #[test]
    fn bundle_with_blue_edge_cannot_prune() {
        let (mut g, e) = paper_p1_neighbourhood();
        // Make one edge of p1's researcher bundle Blue: cutting impossible.
        g.set_color(e, Color::Blue);
        let scores: HashMap<EdgeId, f64> = pruning_expectations(&g).into_iter().collect();
        // The other researcher-paper edges now get zero contribution from
        // the p1-side bundle (prod = 0), leaving only their researcher-side
        // term.
        let r2p1 = EdgeId(6);
        let r1_side_only = 1.0 - 0.41; // bundle {r2->p1}, alpha = 2 (u1,u2 edges)
        assert!((scores[&r2p1] - r1_side_only * 2.0).abs() < 1e-9, "{}", scores[&r2p1]);
    }

    #[test]
    fn singleton_cut_edge_ranks_first() {
        // (p1, c1) is the only Paper-Citation edge: cutting it kills the
        // entire left side (8 edges) — it must rank first, like the paper's
        // example order that asks (p1, c1) first.
        let (g, _) = paper_p1_neighbourhood();
        let order = expectation_order(&g);
        let (u, v) = g.edge_endpoints(order[0]);
        let labels = [g.node_label(u), g.node_label(v)];
        assert!(labels.contains(&"p1") && labels.contains(&"c1"), "{labels:?}");
    }

    #[test]
    fn cascade_counts_transitive_invalidation() {
        let (g, _) = paper_p1_neighbourhood();
        // Cutting p1's researcher bundle: kills (p1,c1) and all 5 U~R edges.
        let p1 = NodeId(6);
        let bundle = g.live_edges_for_predicate(p1, 1);
        assert_eq!(bundle.len(), 3);
        assert_eq!(reference::simulate_cascade(&g, p1, &bundle), 6);
        let mut scratch = CascadeScratch::default();
        assert_eq!(simulate_cascade(&g, p1, &bundle, &mut scratch), 6);
    }

    #[test]
    fn bitset_cascade_matches_reference_under_coloring() {
        let (mut g, _) = paper_p1_neighbourhood();
        let mut scratch = CascadeScratch::default();
        let colorings =
            [(EdgeId(0), Color::Red), (EdgeId(5), Color::Blue), (EdgeId(2), Color::Red)];
        for (e, c) in colorings {
            g.set_color(e, c);
            for i in 0..g.node_count() {
                let n = NodeId(i);
                for p in g.part_predicates(g.node_part(n)) {
                    let bundle = g.live_edges_for_predicate(n, p);
                    if bundle.is_empty() {
                        continue;
                    }
                    assert_eq!(
                        simulate_cascade(&g, n, &bundle, &mut scratch),
                        reference::simulate_cascade(&g, n, &bundle),
                        "{n:?} pred {p} after {e:?} -> {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn expectations_empty_when_everything_colored() {
        let (mut g, _) = paper_p1_neighbourhood();
        for i in 0..g.edge_count() {
            g.set_color(EdgeId(i), Color::Blue);
        }
        assert!(pruning_expectations(&g).is_empty());
    }

    #[test]
    fn order_is_deterministic() {
        let (g, _) = paper_p1_neighbourhood();
        assert_eq!(expectation_order(&g), expectation_order(&g));
    }

    #[test]
    fn one_shot_order_matches_reference() {
        let (g, _) = paper_p1_neighbourhood();
        assert_eq!(expectation_order(&g), reference::expectation_order(&g));
        let fast: Vec<(EdgeId, u64)> =
            pruning_expectations(&g).into_iter().map(|(e, s)| (e, s.to_bits())).collect();
        let slow: Vec<(EdgeId, u64)> = reference::pruning_expectations(&g)
            .into_iter()
            .map(|(e, s)| (e, s.to_bits()))
            .collect();
        assert_eq!(fast, slow); // bit-equal scores, not just close
    }

    #[test]
    fn carried_state_matches_reference_across_rounds() {
        // Simulate executor rounds: color a few edges, prune, reorder —
        // the carried state must track the from-scratch oracle exactly.
        let (mut g, _) = paper_p1_neighbourhood();
        let mut state = SelectionState::new();
        assert_eq!(state.order(&g), reference::expectation_order(&g));
        let script = [
            vec![(EdgeId(8), Color::Blue)],
            vec![(EdgeId(5), Color::Red), (EdgeId(6), Color::Blue)],
            vec![(EdgeId(0), Color::Red), (EdgeId(4), Color::Red)],
        ];
        for round in script {
            for (e, c) in round {
                g.set_color(e, c);
            }
            crate::prune::prune_invalid_edges(&mut g);
            assert_eq!(state.order(&g), reference::expectation_order(&g));
        }
    }
}
