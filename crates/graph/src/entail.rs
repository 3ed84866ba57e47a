//! Entailment over crowd equality answers: positive transitive closure plus
//! negative edge propagation (Wang et al., "Leveraging Transitive Relations
//! for Crowdsourced Joins").
//!
//! Positive answers (`a = b`) merge union-find components; negative answers
//! (`a ≠ b`) are stored as adjacency between *current roots* and re-homed on
//! every union (small-to-large), so a later `find` never consults a stale
//! root — the bug class this module exists to eliminate (see
//! `cdb-core::ops::crowd_group` and the Trans baseline, which each once
//! kept a negative set keyed by roots frozen at insertion time).
//! Contradictory answers are detected, not silently absorbed: asserting
//! `a = b` while a negative edge connects their components (or `a ≠ b`
//! while connected) is rejected.
//!
//! A proof forest over the recorded positive answers yields an *entailment
//! depth* per derived fact — the number of crowd answers the inference
//! chains through — used by the answer-reuse layer for provenance.
//!
//! # Copy-on-write
//!
//! Each element is one [`Node`] (its parent, component size, negative
//! edges and proof-forest neighbours) in an `Arc<Vec<Node>>` that clones
//! share, so a clone costs O(its private nodes). A clone copies a node into
//! its private map on its first write to it, and its new elements live
//! there too. A graph that is the only owner of its `Arc` folds its private
//! nodes in and writes in place. Finds walk parents without path
//! compression — union by size keeps every tree O(log n) deep — so every
//! lookup takes `&self` and never copies.

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

/// One element of the graph.
#[derive(Debug, Clone, Default)]
struct Node {
    /// Union-find parent; a root is its own parent.
    parent: u32,
    /// Component size; meaningful at a root only.
    size: u32,
    /// Negative edges of a root: for each adversary root `s`, one witness
    /// pair `(a, b)` with `a` in this component and `b` in `s`'s. Kept
    /// symmetric and re-homed on union.
    neg: HashMap<u32, (u32, u32)>,
    /// Proof forest: the elements this one was *recorded* equal to.
    adj: Vec<u32>,
}

impl Node {
    fn singleton(id: u32) -> Node {
        Node { parent: id, size: 1, ..Node::default() }
    }
}

/// Positive/negative entailment graph over elements `0..len()`.
#[derive(Debug, Clone, Default)]
pub struct EntailmentGraph {
    /// Nodes shared with every clone.
    base: Arc<Vec<Node>>,
    /// This graph's private nodes: copies of base nodes it wrote, and the
    /// elements it added past the end of the base.
    own: HashMap<u32, Node>,
    len: usize,
}

impl EntailmentGraph {
    /// An empty graph over `n` elements.
    pub fn new(n: usize) -> Self {
        let base = (0..n).map(|x| Node::singleton(id(x))).collect();
        EntailmentGraph { base: Arc::new(base), own: HashMap::new(), len: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a fresh element and return its id.
    pub fn push(&mut self) -> usize {
        let x = self.len;
        let node = Node::singleton(id(x));
        match self.unique() {
            Some(base) => base.push(node),
            None => {
                self.own.insert(id(x), node);
            }
        }
        self.len += 1;
        x
    }

    /// Address of the node storage shared with clones: equal addresses
    /// mean shared storage.
    pub fn base_addr(&self) -> usize {
        Arc::as_ptr(&self.base) as *const u8 as usize
    }

    /// The base with the private nodes folded in, if this graph is its
    /// only owner.
    fn unique(&mut self) -> Option<&mut Vec<Node>> {
        let base = Arc::get_mut(&mut self.base)?;
        if !self.own.is_empty() {
            base.resize_with(self.len, Node::default);
            for (x, node) in self.own.drain() {
                base[x as usize] = node;
            }
        }
        Some(base)
    }

    fn node(&self, x: usize) -> &Node {
        match self.own.is_empty() {
            true => &self.base[x],
            false => self.own.get(&id(x)).unwrap_or_else(|| &self.base[x]),
        }
    }

    fn node_mut(&mut self, x: usize) -> &mut Node {
        if self.unique().is_some() {
            return &mut Arc::get_mut(&mut self.base).expect("unique above")[x];
        }
        let base = &self.base;
        self.own.entry(id(x)).or_insert_with(|| base[x].clone())
    }

    /// Record a crowd answer `a = b`. Rejects the union (returning
    /// [`Assertion::Contradiction`]) when a negative edge already separates
    /// the two components.
    pub fn assert_same(&mut self, a: usize, b: usize) -> Assertion {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return Assertion::Redundant;
        }
        if self.node(ra).neg.contains_key(&id(rb)) {
            return Assertion::Contradiction;
        }
        self.node_mut(a).adj.push(id(b));
        self.node_mut(b).adj.push(id(a));
        // Union by size; a tie keeps `a`'s root.
        let (winner, loser) =
            if self.node(ra).size < self.node(rb).size { (rb, ra) } else { (ra, rb) };
        let loser_node = self.node_mut(loser);
        loser_node.parent = id(winner);
        let (size, moved) = (loser_node.size, std::mem::take(&mut loser_node.neg));
        self.node_mut(winner).size += size;
        // Re-home the loser's negative adjacency onto the winner, updating
        // the reverse entries so every key stays a live root. When both the
        // winner and the loser already held a negative edge to the same
        // adversary, the winner's witness survives on BOTH sides — the map
        // must stay symmetric or `entails(a, b)` and `entails(b, a)` would
        // report different proof depths.
        for (adversary, witness) in moved {
            let node = self.node_mut(adversary as usize);
            node.neg.remove(&id(loser));
            node.neg.entry(id(winner)).or_insert(witness);
            self.node_mut(winner).neg.entry(adversary).or_insert(witness);
        }
        Assertion::Inserted
    }

    /// Record a crowd answer `a ≠ b`. Rejects it when `a` and `b` are
    /// already entailed equal.
    pub fn assert_different(&mut self, a: usize, b: usize) -> Assertion {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return Assertion::Contradiction;
        }
        if self.node(ra).neg.contains_key(&id(rb)) {
            return Assertion::Redundant;
        }
        let witness = (id(a), id(b));
        self.node_mut(ra).neg.insert(id(rb), witness);
        self.node_mut(rb).neg.insert(id(ra), witness);
        Assertion::Inserted
    }

    /// What the recorded answers entail about `(a, b)`. Takes `&self`, so
    /// a clone sharing this graph's storage answers lookups without
    /// copying anything.
    pub fn entails(&self, a: usize, b: usize) -> Entailment {
        if a == b {
            return Entailment::Same { depth: 0 };
        }
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return Entailment::Same { depth: self.proof_depth(a, b) };
        }
        if let Some(&(wa, wb)) = self.node(ra).neg.get(&id(rb)) {
            // Orient the witness pair so `wa` sits in `a`'s component.
            let (wa, wb) = (wa as usize, wb as usize);
            let (wa, wb) = if self.root(wa) == ra { (wa, wb) } else { (wb, wa) };
            let depth = 1 + self.proof_depth(a, wa) + self.proof_depth(b, wb);
            return Entailment::Different { depth };
        }
        Entailment::Unknown
    }

    /// Current representative of `x`'s positive component. Stable only
    /// until the next [`assert_same`](Self::assert_same) — use for
    /// scheduling/grouping, never as a persistent key (persisting roots
    /// across unions is exactly the stale-root bug this type prevents).
    pub fn root(&self, mut x: usize) -> usize {
        loop {
            let parent = self.node(x).parent as usize;
            if parent == x {
                return x;
            }
            x = parent;
        }
    }

    /// BFS distance through the recorded positive answers; 0 when `a == b`.
    /// Both endpoints are in the same component, so a path always exists.
    fn proof_depth(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        let (a, b) = (id(a), id(b));
        let mut dist: HashMap<u32, usize> = HashMap::new();
        dist.insert(a, 0);
        let mut queue = VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            for &v in &self.node(u as usize).adj {
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

/// An element index as stored in a [`Node`].
fn id(x: usize) -> u32 {
    u32::try_from(x).expect("entailment graph elements fit in u32")
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

    #[test]
    fn a_sole_owner_folds_its_private_nodes_and_writes_in_place() {
        let mut g = EntailmentGraph::new(3);
        g.assert_same(0, 1);
        let mut h = g.clone();
        h.assert_different(1, 2);
        let x = h.push();
        h.assert_same(2, x);
        assert_eq!(h.base_addr(), g.base_addr());
        assert_eq!(h.own.len(), 3, "two written nodes and one new one");
        assert_eq!(g.entails(0, 2), Entailment::Unknown);
        drop(g);
        assert_eq!(h.entails(0, x), Entailment::Different { depth: 3 });
        assert_eq!(h.assert_same(1, x), Assertion::Contradiction);
        let addr = h.base_addr();
        h.push();
        assert!(h.own.is_empty());
        assert_eq!((h.base_addr(), h.base.len()), (addr, 5));
        assert_eq!(h.entails(0, x), Entailment::Different { depth: 3 });
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

    /// One recorded answer: `(a, b, same)`.
    type Answer = (usize, usize, bool);

    fn assert_all(g: &mut EntailmentGraph, answers: &[Answer]) -> Vec<Assertion> {
        let assert = |g: &mut EntailmentGraph, &(a, b, same): &Answer| match same {
            true => g.assert_same(a, b),
            false => g.assert_different(a, b),
        };
        answers.iter().map(|answer| assert(g, answer)).collect()
    }

    /// Every pair's entailment, depth included.
    fn closure(g: &EntailmentGraph) -> Vec<Entailment> {
        let n = g.len();
        (0..n * n).map(|i| g.entails(i / n, i % n)).collect()
    }

    fn answers(n: usize, max: usize) -> impl Strategy<Value = Vec<Answer>> {
        prop::collection::vec((0..n, 0..n, any::<bool>()), 0..max)
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

        /// A clone's private nodes give the answers a graph built in one
        /// piece gives, and leave the original untouched.
        #[test]
        fn a_clone_answers_as_a_replay_and_leaves_the_original_unchanged(
            first in answers(10, 30),
            pushes in 0usize..4,
            then in answers(14, 30),
        ) {
            let mut g = EntailmentGraph::new(10);
            assert_all(&mut g, &first);
            let before = closure(&g);
            let mut h = g.clone();
            let mut replay = EntailmentGraph::new(10);
            assert_all(&mut replay, &first);
            for _ in 0..pushes {
                prop_assert_eq!(h.push(), replay.push());
            }
            let then: Vec<Answer> =
                then.into_iter().filter(|&(a, b, _)| a.max(b) < h.len()).collect();
            prop_assert_eq!(assert_all(&mut h, &then), assert_all(&mut replay, &then));
            prop_assert_eq!(closure(&h), closure(&replay));
            prop_assert_eq!(closure(&g), before);
            prop_assert_eq!(h.base_addr(), g.base_addr(), "the clone copied the base");
            drop(h);
            let addr = g.base_addr();
            g.assert_different(0, 9);
            g.assert_same(1, 8);
            prop_assert_eq!(g.base_addr(), addr, "the sole owner copied its base");
        }
    }
}
