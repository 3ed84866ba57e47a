//! Union-find (disjoint set union) with path halving and union by size.

/// Disjoint-set forest over elements `0..n`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<u32>,
}

impl UnionFind {
    /// A forest of `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n] }
    }

    /// Representative of the set containing `x` (path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge the sets containing `a` and `b`; returns true if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_are_disconnected() {
        let mut d = UnionFind::new(3);
        assert!(!d.connected(0, 1));
    }

    #[test]
    fn union_connects_and_counts() {
        let mut d = UnionFind::new(4);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0)); // already merged
        assert!(d.connected(0, 1));
        assert!(!d.connected(0, 2));
        assert!(d.union(1, 2));
        assert!(d.connected(0, 3));
    }

    proptest! {
        #[test]
        fn transitivity(ops in prop::collection::vec((0usize..20, 0usize..20), 0..60)) {
            let mut d = UnionFind::new(20);
            for (a, b) in ops {
                d.union(a, b);
            }
            // connected is an equivalence relation: transitive via representatives
            for a in 0..20 {
                for b in 0..20 {
                    for c in 0..20 {
                        if d.connected(a, b) && d.connected(b, c) {
                            prop_assert!(d.connected(a, c));
                        }
                    }
                }
            }
        }
    }
}
