//! Graph algorithm substrate for CDB.
//!
//! The cost-control component of CDB (Section 5.1 of the paper) reduces
//! optimal task selection with known edge colors to an *s–t min-cut*
//! (Lemma 1): BLUE-chain edges get capacity ∞, RED edges capacity 1, and the
//! RED edges crossing the minimum cut are exactly the tasks that must be
//! asked. This crate provides the max-flow/min-cut machinery (Dinic's
//! algorithm), union-find connected components for the latency controller,
//! and the one entailment closure over crowd equality answers: the Trans
//! baseline, `GROUP BY CROWD` and cross-query answer reuse all run on
//! [`EntailmentGraph`], whose clones share its elements copy-on-write.

mod dsu;
mod entail;
mod maxflow;

pub use dsu::UnionFind;
pub use entail::{Assertion, Entailment, EntailmentGraph};
pub use maxflow::{Dinic, INF_CAPACITY};

/// Connected components of an undirected graph given as an edge list over
/// vertices `0..n`. Returns a component id per vertex, with ids compacted to
/// `0..k` in order of first appearance.
pub fn connected_components(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut dsu = UnionFind::new(n);
    for &(u, v) in edges {
        dsu.union(u, v);
    }
    let mut next = 0usize;
    let mut map = vec![usize::MAX; n];
    let mut out = vec![0usize; n];
    for (v, slot) in out.iter_mut().enumerate() {
        let root = dsu.find(v);
        if map[root] == usize::MAX {
            map[root] = next;
            next += 1;
        }
        *slot = map[root];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_empty_graph_are_singletons() {
        assert_eq!(connected_components(3, &[]), vec![0, 1, 2]);
    }

    #[test]
    fn components_merge_across_edges() {
        let cc = connected_components(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(cc[0], cc[1]);
        assert_eq!(cc[1], cc[2]);
        assert_eq!(cc[3], cc[4]);
        assert_ne!(cc[0], cc[3]);
    }

    #[test]
    fn component_ids_are_compact() {
        let cc = connected_components(4, &[(2, 3)]);
        let max = *cc.iter().max().unwrap();
        assert_eq!(max, 2);
    }

    #[test]
    fn zero_vertices() {
        assert!(connected_components(0, &[]).is_empty());
    }
}
