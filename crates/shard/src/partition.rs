//! Connected-component partitioning of a [`QueryGraph`].
//!
//! The partition rule rests on a structural fact of the graph model: a
//! candidate (and hence an answer) is a *connected* substructure — its
//! vertices are linked through its own edges — so every candidate lies
//! entirely inside one connected component of the tuple graph.
//! Transitivity/entailment inference likewise never crosses components
//! (Wang et al., *Leveraging Transitive Relations for Crowdsourced
//! Joins*). Components are therefore independent work units: the answer
//! set of the whole graph is the disjoint union of the answer sets of its
//! components.
//!
//! Component ids are assigned by ascending minimum global [`NodeId`], so
//! the numbering depends only on the node/edge *sets*, never on edge
//! insertion order. Nodes with no incident edges belong to no candidate
//! (a candidate must use one edge per predicate) and are dropped — except
//! in the degenerate edge-free graph, which becomes a single component so
//! the sharded path stays defined for every input.

use std::collections::HashMap;

use cdb_core::executor::EdgeTruth;
use cdb_core::model::{EdgeId, NodeId};
use cdb_core::QueryGraph;
use cdb_graph::UnionFind;
use cdb_runtime::QueryJob;

/// One connected component of a query graph: an independent work unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component id: position in the partition's ascending-min-node order.
    pub id: usize,
    /// Member vertices, ascending by global [`NodeId`].
    pub nodes: Vec<NodeId>,
    /// Member edges, ascending by global [`EdgeId`].
    pub edges: Vec<EdgeId>,
}

impl Component {
    /// The component's smallest global node id — the stable sort key the
    /// component numbering is defined by.
    pub fn min_node(&self) -> NodeId {
        *self.nodes.first().expect("components are never empty")
    }
}

/// A query graph split into connected components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Components in ascending-min-node order; `components[i].id == i`.
    pub components: Vec<Component>,
    /// Node count of the source graph (for validity checking).
    pub source_nodes: usize,
    /// Edge count of the source graph (for validity checking).
    pub source_edges: usize,
}

/// A reason a [`Partition`] fails validation — the cross-shard leak
/// detector. Each variant names the smallest piece of evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionViolation {
    /// An edge appears in no component (work silently dropped) or in more
    /// than one (work double-bought).
    EdgeCoverage {
        /// The offending edge.
        edge: EdgeId,
        /// How many components claim it.
        claims: usize,
    },
    /// A component claims an edge whose endpoints are not both members —
    /// the signature of a component split (leaked) across shards.
    ForeignEdge {
        /// The claiming component.
        component: usize,
        /// The edge whose endpoints escape the component.
        edge: EdgeId,
    },
    /// A node appears in more than one component.
    NodeOverlap {
        /// The duplicated node.
        node: NodeId,
    },
    /// A component's member set is not connected through its own edges.
    Disconnected {
        /// The offending component.
        component: usize,
    },
    /// Component ids are not the ascending-min-node numbering.
    BadOrder {
        /// The first out-of-place component.
        component: usize,
    },
}

impl std::fmt::Display for PartitionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionViolation::EdgeCoverage { edge, claims } => {
                write!(f, "edge {edge:?} claimed by {claims} components (want exactly 1)")
            }
            PartitionViolation::ForeignEdge { component, edge } => {
                write!(f, "component {component} claims edge {edge:?} with a foreign endpoint")
            }
            PartitionViolation::NodeOverlap { node } => {
                write!(f, "node {node:?} appears in more than one component")
            }
            PartitionViolation::Disconnected { component } => {
                write!(f, "component {component} is not connected through its own edges")
            }
            PartitionViolation::BadOrder { component } => {
                write!(f, "component {component} breaks the ascending-min-node numbering")
            }
        }
    }
}

/// Split `g` into connected components.
///
/// Deterministic and insertion-order independent: the result depends only
/// on the graph's node and edge sets. Edge-free graphs collapse to a
/// single component holding every node (nothing to shard, but the
/// component-wise execution path stays total).
pub fn partition(g: &QueryGraph) -> Partition {
    let n = g.node_count();
    let m = g.edge_count();
    if m == 0 {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let components =
            if n == 0 { Vec::new() } else { vec![Component { id: 0, nodes, edges: Vec::new() }] };
        return Partition { components, source_nodes: n, source_edges: m };
    }
    let mut dsu = UnionFind::new(n);
    for e in 0..m {
        let (u, v) = g.edge_endpoints(EdgeId(e));
        dsu.union(u.0, v.0);
    }
    // Group nodes by root. Scanning nodes in ascending id order makes each
    // group's node list sorted and keys each root by its minimum node.
    let mut by_root: HashMap<usize, usize> = HashMap::new(); // root -> slot
    let mut comps: Vec<Component> = Vec::new();
    for node in 0..n {
        if g.incident_edges(NodeId(node)).is_empty() {
            continue; // isolated: in no candidate, in no component
        }
        let root = dsu.find(node);
        let slot = *by_root.entry(root).or_insert_with(|| {
            comps.push(Component { id: comps.len(), nodes: Vec::new(), edges: Vec::new() });
            comps.len() - 1
        });
        comps[slot].nodes.push(NodeId(node));
    }
    // Slots were created in ascending-min-node order already (first visit
    // of each root is its minimum node), so ids are final. Attach edges in
    // ascending id order.
    for e in 0..m {
        let (u, _) = g.edge_endpoints(EdgeId(e));
        let slot = by_root[&dsu.find(u.0)];
        comps[slot].edges.push(EdgeId(e));
    }
    Partition { components: comps, source_nodes: n, source_edges: m }
}

/// Validate a partition against its source graph — the checker the
/// `leak-cross-shard` sabotage mode must trip. Verifies that every edge is
/// claimed exactly once, no edge's endpoints escape its component, no node
/// is shared, every component is internally connected, and the numbering
/// is the canonical ascending-min-node order.
pub fn verify_partition(g: &QueryGraph, p: &Partition) -> Result<(), PartitionViolation> {
    let mut edge_claims = vec![0usize; g.edge_count()];
    let mut node_owner: HashMap<NodeId, usize> = HashMap::new();
    for comp in &p.components {
        for &node in &comp.nodes {
            if node_owner.insert(node, comp.id).is_some() {
                return Err(PartitionViolation::NodeOverlap { node });
            }
        }
    }
    for comp in &p.components {
        for &edge in &comp.edges {
            if edge.0 >= edge_claims.len() {
                return Err(PartitionViolation::ForeignEdge { component: comp.id, edge });
            }
            edge_claims[edge.0] += 1;
            let (u, v) = g.edge_endpoints(edge);
            if node_owner.get(&u) != Some(&comp.id) || node_owner.get(&v) != Some(&comp.id) {
                return Err(PartitionViolation::ForeignEdge { component: comp.id, edge });
            }
        }
    }
    for (e, &claims) in edge_claims.iter().enumerate() {
        if claims != 1 {
            return Err(PartitionViolation::EdgeCoverage { edge: EdgeId(e), claims });
        }
    }
    // Connectivity: BFS over each component's own edges must reach every
    // member node. (Skip the degenerate edge-free single component.)
    for comp in &p.components {
        if comp.edges.is_empty() {
            if g.edge_count() > 0 {
                return Err(PartitionViolation::Disconnected { component: comp.id });
            }
            continue;
        }
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &e in &comp.edges {
            let (u, v) = g.edge_endpoints(e);
            adj.entry(u).or_default().push(v);
            adj.entry(v).or_default().push(u);
        }
        let start = comp.min_node();
        let mut seen: HashMap<NodeId, ()> = HashMap::new();
        let mut queue = vec![start];
        seen.insert(start, ());
        while let Some(x) = queue.pop() {
            for &y in adj.get(&x).into_iter().flatten() {
                if seen.insert(y, ()).is_none() {
                    queue.push(y);
                }
            }
        }
        if comp.nodes.iter().any(|n| !seen.contains_key(n)) {
            return Err(PartitionViolation::Disconnected { component: comp.id });
        }
    }
    // Canonical numbering.
    for (i, comp) in p.components.iter().enumerate() {
        let in_order = comp.id == i
            && (i == 0 || p.components[i - 1].min_node() < comp.min_node())
            && comp.nodes.windows(2).all(|w| w[0] < w[1])
            && comp.edges.windows(2).all(|w| w[0] < w[1]);
        if !in_order {
            return Err(PartitionViolation::BadOrder { component: i });
        }
    }
    Ok(())
}

/// Materialize one component as a self-contained [`QueryJob`].
///
/// The sub-graph copies *all* parts and *all* predicates of the source
/// (so part/predicate indices — and with them reuse measures and plan
/// shapes — are identical to the monolithic graph), then only the
/// component's nodes and edges. Nodes are added in ascending global-id
/// order, so the local numbering is a monotone relabeling: any
/// node-id-sorted structure (answer bindings in particular) maps back to
/// the global order unchanged.
///
/// Returns the job (with `unit_id` as its id — the seed stream key) and
/// the local→global node map (`map[local.0] == global`).
pub fn component_job(
    g: &QueryGraph,
    truth: &EdgeTruth,
    comp: &Component,
    unit_id: u64,
) -> (QueryJob, Vec<NodeId>) {
    let mut sub = QueryGraph::new();
    for p in 0..g.part_count() {
        sub.add_part(g.part_kind(cdb_core::model::PartId(p)).clone());
    }
    for info in g.predicates() {
        sub.add_predicate(info.a, info.b, info.crowd, &info.description);
    }
    let mut to_local: HashMap<NodeId, NodeId> = HashMap::with_capacity(comp.nodes.len());
    let mut to_global: Vec<NodeId> = Vec::with_capacity(comp.nodes.len());
    for &node in &comp.nodes {
        let local = sub.add_node(
            g.node_part(node),
            g.node_tuple(node).cloned(),
            g.node_label(node).to_string(),
        );
        to_local.insert(node, local);
        to_global.push(node);
    }
    let mut local_truth = EdgeTruth::with_capacity(comp.edges.len());
    for &edge in &comp.edges {
        let (u, v) = g.edge_endpoints(edge);
        let local =
            sub.add_edge(to_local[&u], to_local[&v], g.edge_predicate(edge), g.edge_weight(edge));
        let t = *truth.get(&edge).expect("every edge of the graph has a truth color");
        local_truth.insert(local, t);
    }
    (QueryJob { id: unit_id, graph: sub, truth: local_truth }, to_global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::model::PartKind;

    /// Two disjoint joins in one graph: `{a0,b0}` and `{a1,a2,b1}`.
    fn two_component_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let an: Vec<NodeId> = (0..3).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<NodeId> = (0..2).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let p = g.add_predicate(a, b, true, "A~B");
        g.add_edge(an[0], bn[0], p, 0.5);
        g.add_edge(an[1], bn[1], p, 0.5);
        g.add_edge(an[2], bn[1], p, 0.5);
        g
    }

    #[test]
    fn splits_disjoint_joins_into_two_components() {
        let g = two_component_graph();
        let p = partition(&g);
        assert_eq!(p.components.len(), 2);
        assert_eq!(p.components[0].nodes, vec![NodeId(0), NodeId(3)]);
        assert_eq!(p.components[1].nodes, vec![NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(p.components[0].edges, vec![EdgeId(0)]);
        assert_eq!(p.components[1].edges, vec![EdgeId(1), EdgeId(2)]);
        verify_partition(&g, &p).expect("canonical partition verifies");
    }

    #[test]
    fn edge_free_graph_is_one_component() {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        g.add_node(a, None, "a0");
        let p = partition(&g);
        assert_eq!(p.components.len(), 1);
        assert!(p.components[0].edges.is_empty());
        verify_partition(&g, &p).expect("degenerate partition verifies");
    }

    #[test]
    fn verifier_catches_a_leaked_edge() {
        let g = two_component_graph();
        let mut p = partition(&g);
        // Leak: move component 1's first edge into component 0 — the
        // cross-shard split the sabotage mode simulates.
        let e = p.components[1].edges.remove(0);
        p.components[0].edges.push(e);
        assert!(matches!(
            verify_partition(&g, &p),
            Err(PartitionViolation::ForeignEdge { component: 0, .. })
        ));
    }

    #[test]
    fn verifier_catches_a_dropped_edge() {
        let g = two_component_graph();
        let mut p = partition(&g);
        p.components[1].edges.pop();
        assert!(matches!(verify_partition(&g, &p), Err(PartitionViolation::EdgeCoverage { .. })));
    }

    #[test]
    fn component_job_maps_back_to_global_ids() {
        let g = two_component_graph();
        let mut truth = EdgeTruth::new();
        for e in 0..g.edge_count() {
            truth.insert(EdgeId(e), true);
        }
        let p = partition(&g);
        let (job, map) = component_job(&g, &truth, &p.components[1], 7);
        assert_eq!(job.id, 7);
        assert_eq!(job.graph.node_count(), 3);
        assert_eq!(job.graph.edge_count(), 2);
        assert_eq!(job.graph.part_count(), g.part_count());
        assert_eq!(job.graph.predicates().len(), g.predicates().len());
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(4)]);
        // Labels survive the relabeling.
        assert_eq!(job.graph.node_label(NodeId(0)), g.node_label(NodeId(1)));
    }
}
