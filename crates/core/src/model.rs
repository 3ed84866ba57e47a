//! The graph query model (Definition 1 of the paper).
//!
//! Given a CQL query and a database, the model is a graph `G(V, E)` where
//! every tuple of every queried table is a vertex and every predicate
//! contributes edges between the tuples it could join, weighted by the
//! matching probability. Selection predicates add a single *constant*
//! vertex (the compared literal) connected to the candidate tuples
//! (§4.2). Edges start [`Color::Unknown`]; crowdsourcing turns them
//! [`Color::Blue`] (values match) or [`Color::Red`] (they don't).

use cdb_storage::TupleId;

/// Index of a *part* — one queried table occurrence or one selection
/// constant. A candidate binds exactly one vertex per part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartId(pub usize);

/// Index of a vertex (a tuple, or a selection constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of an edge (one potential crowd task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// What a part stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartKind {
    /// A table from the `FROM` clause.
    Table {
        /// Catalog table name.
        name: String,
    },
    /// The literal of a selection predicate (`CROWDEQUAL "sigmod"`).
    Constant {
        /// The literal value, rendered as a string.
        value: String,
    },
}

/// The state of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Not yet asked and not yet deducible.
    Unknown,
    /// The two values join (solid edge).
    Blue,
    /// The two values do not join (dotted edge).
    Red,
}

#[derive(Debug, Clone)]
pub(crate) struct PartInfo {
    pub kind: PartKind,
    /// Vertices belonging to this part.
    pub nodes: Vec<NodeId>,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeInfo {
    pub part: PartId,
    /// Stored tuple for table parts; `None` for constants.
    pub tuple: Option<TupleId>,
    /// The cell value (or literal) shown to workers.
    pub label: String,
    /// Edges incident to this node.
    pub adj: Vec<EdgeId>,
    /// Per incident predicate, the count of live edges — maintained on
    /// every color/invalidate transition so a support check is a counter
    /// read, not an adjacency scan. Slots appear on first incident edge.
    pub support: Vec<(usize, u32)>,
}

#[derive(Debug, Clone)]
pub(crate) struct EdgeInfo {
    pub u: NodeId,
    pub v: NodeId,
    pub predicate: usize,
    pub weight: f64,
    pub color: Color,
    /// True once pruned as invalid (not in any candidate); invalid edges
    /// are never asked.
    pub invalid: bool,
}

/// One predicate of the query at the *part* level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateInfo {
    /// Left part.
    pub a: PartId,
    /// Right part.
    pub b: PartId,
    /// True for CROWDJOIN / CROWDEQUAL, false for traditional predicates.
    pub crowd: bool,
    /// Human-readable description, e.g. `Paper.title CROWDJOIN
    /// Citation.title`.
    pub description: String,
}

/// The graph query model.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    pub(crate) parts: Vec<PartInfo>,
    pub(crate) nodes: Vec<NodeInfo>,
    pub(crate) edges: Vec<EdgeInfo>,
    pub(crate) predicates: Vec<PredicateInfo>,
    /// Append-only log of edges whose color/validity/existence changed.
    /// Incremental consumers (`cost::expectation::SelectionState`) keep a
    /// cursor into it and re-examine only the affected region.
    pub(crate) change_log: Vec<EdgeId>,
}

impl QueryGraph {
    /// An empty graph; parts, nodes and edges are added by the builder.
    pub fn new() -> Self {
        QueryGraph {
            parts: Vec::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
            predicates: Vec::new(),
            change_log: Vec::new(),
        }
    }

    /// Add a part; returns its id.
    pub fn add_part(&mut self, kind: PartKind) -> PartId {
        let id = PartId(self.parts.len());
        self.parts.push(PartInfo { kind, nodes: Vec::new() });
        id
    }

    /// Add a vertex to a part.
    pub fn add_node(
        &mut self,
        part: PartId,
        tuple: Option<TupleId>,
        label: impl Into<String>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeInfo {
            part,
            tuple,
            label: label.into(),
            adj: Vec::new(),
            support: Vec::new(),
        });
        self.parts[part.0].nodes.push(id);
        id
    }

    /// Register a predicate between two parts; returns its index.
    pub fn add_predicate(
        &mut self,
        a: PartId,
        b: PartId,
        crowd: bool,
        description: impl Into<String>,
    ) -> usize {
        assert_ne!(a, b, "predicate must connect two different parts");
        self.predicates.push(PredicateInfo { a, b, crowd, description: description.into() });
        self.predicates.len() - 1
    }

    /// Add an edge for a predicate with a matching probability. Weight 1.0
    /// (a traditional predicate match) is colored Blue immediately — no
    /// crowdsourcing needed (§4.2 Remark).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, predicate: usize, weight: f64) -> EdgeId {
        assert!((0.0..=1.0).contains(&weight), "weight must be a probability");
        assert!(predicate < self.predicates.len(), "unknown predicate {predicate}");
        let p = &self.predicates[predicate];
        let (pu, pv) = (self.nodes[u.0].part, self.nodes[v.0].part);
        assert!(
            (pu, pv) == (p.a, p.b) || (pu, pv) == (p.b, p.a),
            "edge endpoints must belong to the predicate's parts"
        );
        let id = EdgeId(self.edges.len());
        let color = if weight == 1.0 { Color::Blue } else { Color::Unknown };
        self.edges.push(EdgeInfo { u, v, predicate, weight, color, invalid: false });
        self.nodes[u.0].adj.push(id);
        self.nodes[v.0].adj.push(id);
        // A fresh edge is live (Blue or Unknown, never invalid).
        self.bump_support(u, predicate, 1);
        self.bump_support(v, predicate, 1);
        self.change_log.push(id);
        id
    }

    fn bump_support(&mut self, n: NodeId, predicate: usize, delta: i64) {
        let slots = &mut self.nodes[n.0].support;
        match slots.iter_mut().find(|(p, _)| *p == predicate) {
            Some((_, count)) => {
                let next = *count as i64 + delta;
                debug_assert!(next >= 0, "live-support underflow at {n:?} pred {predicate}");
                *count = next as u32;
            }
            None => {
                debug_assert!(delta > 0, "first support touch must be an increment");
                slots.push((predicate, delta as u32));
            }
        }
    }

    /// Number of parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of predicates (N in the paper: a candidate has N edges).
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// The predicates.
    pub fn predicates(&self) -> &[PredicateInfo] {
        &self.predicates
    }

    /// Kind of a part.
    pub fn part_kind(&self, p: PartId) -> &PartKind {
        &self.parts[p.0].kind
    }

    /// Vertices of a part.
    pub fn part_nodes(&self, p: PartId) -> &[NodeId] {
        &self.parts[p.0].nodes
    }

    /// Part of a vertex.
    pub fn node_part(&self, n: NodeId) -> PartId {
        self.nodes[n.0].part
    }

    /// Stored tuple behind a vertex (None for constants).
    pub fn node_tuple(&self, n: NodeId) -> Option<&TupleId> {
        self.nodes[n.0].tuple.as_ref()
    }

    /// Worker-visible label of a vertex.
    pub fn node_label(&self, n: NodeId) -> &str {
        &self.nodes[n.0].label
    }

    /// Edges incident to a vertex (including invalid/colored ones).
    pub fn incident_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.nodes[n.0].adj
    }

    /// Endpoints of an edge.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let info = &self.edges[e.0];
        (info.u, info.v)
    }

    /// The endpoint of `e` that is not `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeId, n: NodeId) -> NodeId {
        let (u, v) = self.edge_endpoints(e);
        if u == n {
            v
        } else {
            assert_eq!(v, n, "node {n:?} is not an endpoint of {e:?}");
            u
        }
    }

    /// Predicate index of an edge.
    pub fn edge_predicate(&self, e: EdgeId) -> usize {
        self.edges[e.0].predicate
    }

    /// Matching probability ω(e).
    pub fn edge_weight(&self, e: EdgeId) -> f64 {
        self.edges[e.0].weight
    }

    /// Current color.
    pub fn edge_color(&self, e: EdgeId) -> Color {
        self.edges[e.0].color
    }

    /// True once the edge was pruned as invalid.
    pub fn edge_invalid(&self, e: EdgeId) -> bool {
        self.edges[e.0].invalid
    }

    /// Color an edge (the outcome of crowdsourcing it, or of inference).
    pub fn set_color(&mut self, e: EdgeId, color: Color) {
        let info = &mut self.edges[e.0];
        if info.color == color {
            return;
        }
        let was_live = !info.invalid && info.color != Color::Red;
        let now_live = !info.invalid && color != Color::Red;
        info.color = color;
        let (u, v, p) = (info.u, info.v, info.predicate);
        if was_live != now_live {
            let delta = if now_live { 1 } else { -1 };
            self.bump_support(u, p, delta);
            self.bump_support(v, p, delta);
        }
        self.change_log.push(e);
    }

    /// Mark an edge invalid (not contained in any candidate).
    pub fn set_invalid(&mut self, e: EdgeId) {
        let info = &mut self.edges[e.0];
        if info.invalid {
            return;
        }
        let was_live = info.color != Color::Red;
        info.invalid = true;
        let (u, v, p) = (info.u, info.v, info.predicate);
        if was_live {
            self.bump_support(u, p, -1);
            self.bump_support(v, p, -1);
        }
        self.change_log.push(e);
    }

    /// An edge is *live* when it still matters: neither invalid nor Red.
    /// Live Unknown edges are the remaining potential tasks.
    pub fn edge_live(&self, e: EdgeId) -> bool {
        let info = &self.edges[e.0];
        !info.invalid && info.color != Color::Red
    }

    /// All edges that still need crowdsourcing: Unknown, valid.
    pub fn open_edges(&self) -> Vec<EdgeId> {
        (0..self.edges.len())
            .map(EdgeId)
            .filter(|&e| self.edge_color(e) == Color::Unknown && !self.edge_invalid(e))
            .collect()
    }

    /// Live edges of `n` for one predicate.
    pub fn live_edges_for_predicate(&self, n: NodeId, predicate: usize) -> Vec<EdgeId> {
        self.live_edges_for_predicate_iter(n, predicate).collect()
    }

    /// Iterator form of [`live_edges_for_predicate`]: same edges in the
    /// same (adjacency) order, without allocating.
    ///
    /// [`live_edges_for_predicate`]: QueryGraph::live_edges_for_predicate
    pub fn live_edges_for_predicate_iter(
        &self,
        n: NodeId,
        predicate: usize,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        self.nodes[n.0]
            .adj
            .iter()
            .copied()
            .filter(move |&e| self.edges[e.0].predicate == predicate && self.edge_live(e))
    }

    /// Count of `n`'s live edges for one predicate — an O(#incident
    /// predicates) counter read, maintained on every transition.
    pub fn live_support(&self, n: NodeId, predicate: usize) -> usize {
        self.nodes[n.0]
            .support
            .iter()
            .find(|(p, _)| *p == predicate)
            .map_or(0, |&(_, count)| count as usize)
    }

    /// Does `n` keep at least one live edge for `predicate` outside the
    /// excluded set? Allocation-free replacement for collecting
    /// [`live_edges_for_predicate`] just to test emptiness.
    ///
    /// [`live_edges_for_predicate`]: QueryGraph::live_edges_for_predicate
    pub fn has_live_support(
        &self,
        n: NodeId,
        predicate: usize,
        exclude: impl Fn(EdgeId) -> bool,
    ) -> bool {
        self.live_edges_for_predicate_iter(n, predicate).any(|e| !exclude(e))
    }

    /// Length of the edge-change log (a cursor for [`changes_since`]).
    ///
    /// [`changes_since`]: QueryGraph::changes_since
    pub fn change_log_len(&self) -> usize {
        self.change_log.len()
    }

    /// Edges whose color/validity changed since `cursor` (a previous
    /// [`change_log_len`] value), in transition order; may repeat an edge.
    ///
    /// [`change_log_len`]: QueryGraph::change_log_len
    pub fn changes_since(&self, cursor: usize) -> &[EdgeId] {
        &self.change_log[cursor..]
    }

    /// The predicates incident to a part.
    pub fn part_predicates(&self, p: PartId) -> Vec<usize> {
        self.predicates
            .iter()
            .enumerate()
            .filter(|(_, info)| info.a == p || info.b == p)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Default for QueryGraph {
    fn default() -> Self {
        QueryGraph::new()
    }
}

#[cfg(test)]
pub(crate) mod testgraph {
    //! Shared test fixtures: small hand-built graphs.

    use super::*;

    /// A 3-part chain A—B—C with two tuples per part and all 4 edges per
    /// predicate, every weight `w`.
    pub fn chain_2x3(w: f64) -> (QueryGraph, Vec<Vec<NodeId>>) {
        let mut g = QueryGraph::new();
        let parts: Vec<PartId> = ["A", "B", "C"]
            .iter()
            .map(|n| g.add_part(PartKind::Table { name: n.to_string() }))
            .collect();
        let mut nodes = Vec::new();
        for (pi, &p) in parts.iter().enumerate() {
            let mut row = Vec::new();
            for t in 0..2 {
                row.push(g.add_node(
                    p,
                    Some(TupleId::new(format!("T{pi}"), t)),
                    format!("{pi}:{t}"),
                ));
            }
            nodes.push(row);
        }
        let p_ab = g.add_predicate(parts[0], parts[1], true, "A~B");
        let p_bc = g.add_predicate(parts[1], parts[2], true, "B~C");
        for &a in &nodes[0] {
            for &b in &nodes[1] {
                g.add_edge(a, b, p_ab, w);
            }
        }
        for &b in &nodes[1] {
            for &c in &nodes[2] {
                g.add_edge(b, c, p_bc, w);
            }
        }
        (g, nodes)
    }

    #[test]
    fn chain_fixture_shape() {
        let (g, nodes) = chain_2x3(0.5);
        assert_eq!(g.part_count(), 3);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.predicate_count(), 2);
        assert_eq!(g.incident_edges(nodes[1][0]).len(), 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_one_edges_are_blue_immediately() {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let na = g.add_node(a, Some(TupleId::new("A", 0)), "x");
        let nb = g.add_node(b, Some(TupleId::new("B", 0)), "x");
        let p = g.add_predicate(a, b, false, "A.x = B.x");
        let e = g.add_edge(na, nb, p, 1.0);
        assert_eq!(g.edge_color(e), Color::Blue);
        let e2 = g.add_edge(na, nb, p, 0.7);
        assert_eq!(g.edge_color(e2), Color::Unknown);
    }

    #[test]
    fn open_edges_excludes_colored_and_invalid() {
        let (mut g, _) = super::testgraph::chain_2x3(0.5);
        assert_eq!(g.open_edges().len(), 8);
        g.set_color(EdgeId(0), Color::Red);
        g.set_invalid(EdgeId(1));
        assert_eq!(g.open_edges().len(), 6);
    }

    #[test]
    fn edge_live_semantics() {
        let (mut g, _) = super::testgraph::chain_2x3(0.5);
        assert!(g.edge_live(EdgeId(0)));
        g.set_color(EdgeId(0), Color::Blue);
        assert!(g.edge_live(EdgeId(0))); // blue edges stay live
        g.set_color(EdgeId(1), Color::Red);
        assert!(!g.edge_live(EdgeId(1)));
        g.set_invalid(EdgeId(2));
        assert!(!g.edge_live(EdgeId(2)));
    }

    #[test]
    fn other_endpoint() {
        let (g, nodes) = super::testgraph::chain_2x3(0.5);
        let e = g.incident_edges(nodes[0][0])[0];
        let (u, v) = g.edge_endpoints(e);
        assert_eq!(g.other_endpoint(e, u), v);
        assert_eq!(g.other_endpoint(e, v), u);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_panics_for_foreign_node() {
        let (g, nodes) = super::testgraph::chain_2x3(0.5);
        // An edge between parts A and B; node from part C is foreign.
        let e = g.incident_edges(nodes[0][0])[0];
        g.other_endpoint(e, nodes[2][0]);
    }

    #[test]
    fn part_predicates_lists_incident_predicates() {
        let (g, _) = super::testgraph::chain_2x3(0.5);
        assert_eq!(g.part_predicates(PartId(0)), vec![0]);
        assert_eq!(g.part_predicates(PartId(1)), vec![0, 1]);
        assert_eq!(g.part_predicates(PartId(2)), vec![1]);
    }

    /// Recount live support the slow way, for cross-checking the counters.
    fn recount(g: &QueryGraph, n: NodeId, p: usize) -> usize {
        g.incident_edges(n).iter().filter(|&&e| g.edge_predicate(e) == p && g.edge_live(e)).count()
    }

    #[test]
    fn live_support_tracks_every_transition() {
        let (mut g, nodes) = super::testgraph::chain_2x3(0.5);
        let b0 = nodes[1][0];
        assert_eq!(g.live_support(b0, 0), 2);
        assert_eq!(g.live_support(b0, 1), 2);
        let e = g.incident_edges(b0)[0];
        let p = g.edge_predicate(e);
        g.set_color(e, Color::Red);
        assert_eq!(g.live_support(b0, p), 1);
        // Blue keeps the edge live; recoloring Red -> Blue revives it
        // (the EmBayes final pass can flip asked edges).
        g.set_color(e, Color::Blue);
        assert_eq!(g.live_support(b0, p), 2);
        g.set_invalid(e);
        assert_eq!(g.live_support(b0, p), 1);
        // Invalidating twice must not double-decrement.
        g.set_invalid(e);
        assert_eq!(g.live_support(b0, p), 1);
        for i in 0..g.node_count() {
            let n = NodeId(i);
            for p in g.part_predicates(g.node_part(n)) {
                assert_eq!(g.live_support(n, p), recount(&g, n, p), "{n:?} pred {p}");
            }
        }
    }

    #[test]
    fn has_live_support_honours_exclusions() {
        let (g, nodes) = super::testgraph::chain_2x3(0.5);
        let b0 = nodes[1][0];
        let bundle = g.live_edges_for_predicate(b0, 0);
        assert!(g.has_live_support(b0, 0, |e| e == bundle[0]));
        assert!(!g.has_live_support(b0, 0, |e| bundle.contains(&e)));
    }

    #[test]
    fn change_log_records_real_transitions_only() {
        let (mut g, _) = super::testgraph::chain_2x3(0.5);
        let built = g.change_log_len();
        assert_eq!(built, g.edge_count()); // one entry per added edge
        g.set_color(EdgeId(0), Color::Unknown); // no-op: already Unknown
        assert_eq!(g.change_log_len(), built);
        g.set_color(EdgeId(0), Color::Red);
        g.set_invalid(EdgeId(1));
        g.set_invalid(EdgeId(1)); // no-op: already invalid
        assert_eq!(g.changes_since(built), &[EdgeId(0), EdgeId(1)]);
    }

    #[test]
    #[should_panic(expected = "weight must be a probability")]
    fn invalid_weight_rejected() {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let na = g.add_node(a, None, "x");
        let nb = g.add_node(b, None, "y");
        let p = g.add_predicate(a, b, true, "p");
        g.add_edge(na, nb, p, 1.5);
    }

    #[test]
    #[should_panic(expected = "predicate's parts")]
    fn edge_between_wrong_parts_rejected() {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let na = g.add_node(a, None, "x");
        let nc = g.add_node(c, None, "z");
        let p = g.add_predicate(a, b, true, "p");
        g.add_edge(na, nc, p, 0.5);
    }
}
