//! Entailment over crowd equality answers: positive transitive closure plus
//! negative edge propagation (Wang et al., "Leveraging Transitive Relations
//! for Crowdsourced Joins").
//!
//! Positive answers (`a = b`) merge DSU components; negative answers
//! (`a ≠ b`) are stored as adjacency between *current roots* and re-homed on
//! every union (small-to-large), so a later `find` never consults a stale
//! root — the bug class this module exists to eliminate (see
//! `cdb-core::ops::crowd_group`, which previously keyed its negative set by
//! roots frozen at insertion time). Contradictory answers are detected, not
//! silently absorbed: asserting `a = b` while a negative edge connects their
//! components (or `a ≠ b` while connected) is rejected.
//!
//! A proof forest over the recorded positive edges yields an *entailment
//! depth* per derived fact — the number of crowd answers the inference
//! chains through — used by the answer-reuse layer for provenance.
//! A clone shares storage with the original and copies only what it writes
//! (see [`LayeredVec`]); the union-find is copied whole on its first write.

use crate::{LayeredVec, UnionFind};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Result of asserting one crowd answer into the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assertion {
    /// The fact was new and is now part of the closure.
    Inserted,
    /// The fact was already entailed; nothing changed.
    Redundant,
    /// The fact contradicts the existing closure and was rejected.
    Contradiction,
}

/// What the closure knows about a pair of elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entailment {
    /// Entailed equal; depth = number of recorded answers chained through.
    Same { depth: usize },
    /// Entailed distinct; depth counts the negative edge plus the positive
    /// paths connecting each endpoint to the negative edge's endpoints.
    Different { depth: usize },
    /// Not determined by the recorded answers.
    Unknown,
}

/// DSU-backed positive/negative entailment graph over elements `0..len()`.
#[derive(Debug, Clone, Default)]
pub struct EntailmentGraph {
    dsu: Arc<UnionFind>,
    /// Negative edges keyed by current component root: `neg[r]` holds, for
    /// each adversary root `s`, one witness pair `(a, b)` with `a` in `r`'s
    /// component and `b` in `s`'s. Kept symmetric and re-homed on union.
    neg: LayeredVec<HashMap<usize, (usize, usize)>>,
    /// Proof forest: spanning adjacency over *recorded* positive answers.
    pos_adj: LayeredVec<Vec<usize>>,
}

impl EntailmentGraph {
    /// An empty graph over `n` elements.
    pub fn new(n: usize) -> Self {
        EntailmentGraph {
            dsu: Arc::new(UnionFind::new(n)),
            neg: vec![HashMap::new(); n].into(),
            pos_adj: vec![Vec::new(); n].into(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.dsu.len()
    }

    /// True when the graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.dsu.is_empty()
    }

    /// Append a fresh element and return its id.
    pub fn push(&mut self) -> usize {
        self.neg.push(HashMap::new());
        self.pos_adj.push(Vec::new());
        Arc::make_mut(&mut self.dsu).push()
    }

    /// Base addresses of the negative-edge and proof-forest layers.
    pub fn base_addrs(&self) -> [usize; 2] {
        [self.neg.base_addr(), self.pos_adj.base_addr()]
    }

    /// Record a crowd answer `a = b`. Rejects the union (returning
    /// [`Assertion::Contradiction`]) when a negative edge already separates
    /// the two components.
    pub fn assert_same(&mut self, a: usize, b: usize) -> Assertion {
        let (ra, rb) = (self.dsu.find_ro(a), self.dsu.find_ro(b));
        if ra == rb {
            return Assertion::Redundant;
        }
        if self.neg[ra].contains_key(&rb) {
            return Assertion::Contradiction;
        }
        self.pos_adj[a].push(b);
        self.pos_adj[b].push(a);
        let dsu = Arc::make_mut(&mut self.dsu);
        dsu.union(a, b);
        let root = dsu.find(a);
        let (winner, loser) = if root == ra { (ra, rb) } else { (rb, ra) };
        if self.neg[loser].is_empty() {
            // Nothing to re-home; draining would copy a shared entry.
            return Assertion::Inserted;
        }
        // Re-home the loser's negative adjacency onto the winner, updating
        // the reverse entries so every key stays a live root. When both the
        // winner and the loser already held a negative edge to the same
        // adversary, the winner's witness survives on BOTH sides — the map
        // must stay symmetric or `entails(a, b)` and `entails(b, a)` would
        // report different proof depths.
        let moved: Vec<(usize, (usize, usize))> = self.neg[loser].drain().collect();
        for (adversary, witness) in moved {
            self.neg[adversary].remove(&loser);
            self.neg[adversary].entry(winner).or_insert(witness);
            self.neg[winner].entry(adversary).or_insert(witness);
        }
        Assertion::Inserted
    }

    /// Record a crowd answer `a ≠ b`. Rejects it when `a` and `b` are
    /// already entailed equal.
    pub fn assert_different(&mut self, a: usize, b: usize) -> Assertion {
        let (ra, rb) = (self.dsu.find_ro(a), self.dsu.find_ro(b));
        if ra == rb {
            return Assertion::Contradiction;
        }
        if self.neg[ra].contains_key(&rb) {
            return Assertion::Redundant;
        }
        self.neg[ra].insert(rb, (a, b));
        self.neg[rb].insert(ra, (a, b));
        Assertion::Inserted
    }

    /// What the recorded answers entail about `(a, b)`. Takes `&self`
    /// (finds skip path compression), so a clone sharing this graph's
    /// storage answers lookups without copying anything.
    pub fn entails(&self, a: usize, b: usize) -> Entailment {
        if a == b {
            return Entailment::Same { depth: 0 };
        }
        let (ra, rb) = (self.dsu.find_ro(a), self.dsu.find_ro(b));
        if ra == rb {
            return Entailment::Same { depth: self.proof_depth(a, b) };
        }
        if let Some(&(wa, wb)) = self.neg[ra].get(&rb) {
            // Orient the witness pair so `wa` sits in `a`'s component.
            let (wa, wb) = if self.dsu.find_ro(wa) == ra { (wa, wb) } else { (wb, wa) };
            let depth = 1 + self.proof_depth(a, wa) + self.proof_depth(b, wb);
            return Entailment::Different { depth };
        }
        Entailment::Unknown
    }

    /// Current representative of `x`'s positive component. Stable only
    /// until the next [`assert_same`](Self::assert_same) — use for
    /// scheduling/grouping, never as a persistent key (persisting roots
    /// across unions is exactly the stale-root bug this type prevents).
    pub fn root(&mut self, x: usize) -> usize {
        Arc::make_mut(&mut self.dsu).find(x)
    }

    /// BFS distance through the recorded positive answers; 0 when `a == b`.
    /// Both endpoints are in the same component, so a path always exists.
    fn proof_depth(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        let mut dist: HashMap<usize, usize> = HashMap::new();
        dist.insert(a, 0);
        let mut queue = VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            for &v in &self.pos_adj[u] {
                if v == b {
                    return du + 1;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(du + 1);
                    queue.push_back(v);
                }
            }
        }
        // Unreachable for same-component queries; be defensive anyway.
        usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn same(g: &EntailmentGraph, a: usize, b: usize) -> bool {
        matches!(g.entails(a, b), Entailment::Same { .. })
    }

    fn different(g: &EntailmentGraph, a: usize, b: usize) -> bool {
        matches!(g.entails(a, b), Entailment::Different { .. })
    }

    #[test]
    fn positive_transitivity_with_depth() {
        let mut g = EntailmentGraph::new(4);
        assert_eq!(g.assert_same(0, 1), Assertion::Inserted);
        assert_eq!(g.assert_same(1, 2), Assertion::Inserted);
        assert_eq!(g.entails(0, 2), Entailment::Same { depth: 2 });
        assert_eq!(g.entails(0, 1), Entailment::Same { depth: 1 });
        assert_eq!(g.entails(0, 3), Entailment::Unknown);
        assert_eq!(g.assert_same(2, 0), Assertion::Redundant);
    }

    #[test]
    fn negative_entailment_propagates_through_unions() {
        let mut g = EntailmentGraph::new(4);
        g.assert_different(0, 2);
        // These unions re-root both components; the negative edge must
        // follow the live roots (the stale-root bug this module fixes).
        g.assert_same(0, 1);
        g.assert_same(2, 3);
        assert_eq!(g.entails(1, 3), Entailment::Different { depth: 3 });
        assert_eq!(g.entails(0, 2), Entailment::Different { depth: 1 });
        assert_eq!(g.assert_different(1, 3), Assertion::Redundant);
    }

    #[test]
    fn rehomed_negative_witnesses_stay_symmetric() {
        // Both 0 (the union winner) and 1 (the loser) hold negative edges
        // to 4 before they merge. Re-homing must keep the winner's witness
        // on BOTH sides of the symmetric map, or the two query directions
        // would report different depths.
        let mut g = EntailmentGraph::new(5);
        g.assert_different(0, 4);
        g.assert_different(1, 4);
        g.assert_same(0, 1);
        assert_eq!(g.entails(0, 4), Entailment::Different { depth: 1 });
        assert_eq!(g.entails(4, 0), g.entails(0, 4));
        assert_eq!(g.entails(1, 4), Entailment::Different { depth: 2 });
        assert_eq!(g.entails(4, 1), g.entails(1, 4));
    }

    #[test]
    fn contradictions_are_rejected_not_absorbed() {
        let mut g = EntailmentGraph::new(3);
        g.assert_same(0, 1);
        assert_eq!(g.assert_different(0, 1), Assertion::Contradiction);
        g.assert_different(1, 2);
        assert_eq!(g.assert_same(0, 2), Assertion::Contradiction);
        // Rejected facts leave the closure untouched.
        assert!(same(&g, 0, 1));
        assert!(different(&g, 0, 2));
    }

    #[test]
    fn push_extends_the_universe() {
        let mut g = EntailmentGraph::new(1);
        let v = g.push();
        assert_eq!(v, 1);
        g.assert_same(0, 1);
        assert!(same(&g, 0, 1));
    }

    /// Random answer sequences drawn from a random ground-truth partition:
    /// the closure must agree with the partition wherever it claims
    /// knowledge, stay contradiction-free, and be transitively closed.
    fn truth_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize)>)> {
        (
            prop::collection::vec(0usize..4, 12),
            prop::collection::vec((0usize..12, 0usize..12), 0..60),
        )
    }

    proptest! {
        #[test]
        fn closure_is_sound_and_contradiction_free((labels, pairs) in truth_strategy()) {
            let mut g = EntailmentGraph::new(labels.len());
            for (a, b) in pairs {
                if a == b {
                    continue;
                }
                // Answer according to ground truth; consistent truth must
                // never produce a contradiction.
                let r = if labels[a] == labels[b] {
                    g.assert_same(a, b)
                } else {
                    g.assert_different(a, b)
                };
                prop_assert_ne!(r, Assertion::Contradiction);
            }
            for a in 0..labels.len() {
                for b in 0..labels.len() {
                    match g.entails(a, b) {
                        Entailment::Same { .. } => prop_assert_eq!(labels[a], labels[b]),
                        Entailment::Different { .. } => prop_assert_ne!(labels[a], labels[b]),
                        Entailment::Unknown => {}
                    }
                }
            }
            // Transitive closure: Same is an equivalence relation and
            // Different propagates across it.
            for a in 0..labels.len() {
                for b in 0..labels.len() {
                    for c in 0..labels.len() {
                        if same(&g, a, b) && same(&g, b, c) {
                            prop_assert!(same(&g, a, c));
                        }
                        if same(&g, a, b) && different(&g, b, c) {
                            prop_assert!(different(&g, a, c));
                        }
                    }
                }
            }
        }
    }
}
