//! Per-element copy-on-write. A clone of a [`LayeredVec`] or [`LayeredMap`]
//! shares one `Arc` base with the original and keeps its own writes in
//! private layers, so a clone costs O(private layers) and writing k
//! elements copies k elements. A write whose owner holds the only
//! reference folds the private layers in and goes to the base in place.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// A vector whose clones share storage and copy single elements on write.
#[derive(Debug, Clone, Default)]
pub struct LayeredVec<T> {
    base: Arc<Vec<T>>,
    /// Private copies of base elements, by index.
    edits: HashMap<usize, T>,
    /// Private elements past the end of the base.
    tail: Vec<T>,
}

impl<T> From<Vec<T>> for LayeredVec<T> {
    fn from(base: Vec<T>) -> Self {
        LayeredVec { base: Arc::new(base), edits: HashMap::new(), tail: Vec::new() }
    }
}

impl<T> LayeredVec<T> {
    /// Address of the shared base: equal addresses mean shared storage.
    pub fn base_addr(&self) -> usize {
        Arc::as_ptr(&self.base) as usize
    }

    /// The base with the private layers folded in, if this is its only owner.
    fn unique(&mut self) -> Option<&mut Vec<T>> {
        let base = Arc::get_mut(&mut self.base)?;
        for (i, value) in self.edits.drain() {
            base[i] = value;
        }
        base.append(&mut self.tail);
        Some(base)
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        match self.unique() {
            Some(base) => base.push(value),
            None => self.tail.push(value),
        }
    }
}

impl<T> Index<usize> for LayeredVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match i.checked_sub(self.base.len()) {
            Some(t) => &self.tail[t],
            None if self.edits.is_empty() => &self.base[i],
            None => self.edits.get(&i).unwrap_or(&self.base[i]),
        }
    }
}

impl<T: Clone> IndexMut<usize> for LayeredVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        if self.unique().is_some() {
            return &mut Arc::get_mut(&mut self.base).expect("unique above")[i];
        }
        match i.checked_sub(self.base.len()) {
            Some(t) => &mut self.tail[t],
            None => self.edits.entry(i).or_insert_with(|| self.base[i].clone()),
        }
    }
}

/// A map whose clones share storage and copy single entries on write.
#[derive(Debug, Clone, Default)]
pub struct LayeredMap<K, V> {
    base: Arc<HashMap<K, V>>,
    /// Private entries; they shadow the base.
    added: HashMap<K, V>,
}

impl<K: Eq + Hash, V: Clone + Default> LayeredMap<K, V> {
    /// Address of the shared base: equal addresses mean shared storage.
    pub fn base_addr(&self) -> usize {
        Arc::as_ptr(&self.base) as usize
    }

    /// The value stored under `key`.
    pub fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        match self.added.is_empty() {
            true => self.base.get(key),
            false => self.added.get(key).or_else(|| self.base.get(key)),
        }
    }

    /// The value under `key` for writing, inserted as `V::default()` if
    /// absent.
    pub fn get_mut_or_default(&mut self, key: K) -> &mut V {
        if let Some(base) = Arc::get_mut(&mut self.base) {
            base.extend(self.added.drain());
            return Arc::get_mut(&mut self.base).expect("unique above").entry(key).or_default();
        }
        let base = &self.base;
        self.added.entry(key).or_insert_with_key(|key| base.get(key).cloned().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_the_base() {
        let v = LayeredVec::from(vec![1, 2, 3]);
        let w = v.clone();
        assert_eq!(v.base_addr(), w.base_addr());
        assert_eq!((w[0], w[2]), (1, 3));
    }

    #[test]
    fn a_shared_write_copies_one_element() {
        let v = LayeredVec::from(vec![vec![1], vec![2], vec![3]]);
        let mut w = v.clone();
        w[1].push(20);
        assert_eq!(w.edits.len(), 1);
        assert_eq!(w.base_addr(), v.base_addr());
        assert_eq!((&w[1], &v[1]), (&vec![2, 20], &vec![2]));
        assert_eq!(w[0], vec![1]);
    }

    #[test]
    fn a_unique_write_folds_the_edits() {
        let v = LayeredVec::from(vec![1, 2, 3]);
        let mut w = v.clone();
        w[0] = 10;
        w.push(4);
        drop(v);
        let addr = w.base_addr();
        w[1] = 20;
        assert!(w.edits.is_empty() && w.tail.is_empty());
        assert_eq!(w.base_addr(), addr, "written in place");
        assert_eq!(*w.base, vec![10, 20, 3, 4]);
    }

    #[test]
    fn a_push_onto_a_shared_vector_stays_index_consistent() {
        let v = LayeredVec::from(vec![0, 1]);
        let mut w = v.clone();
        w.push(2);
        w.push(3);
        w[3] = 30;
        w[0] = 5;
        assert_eq!(*v.base, vec![0, 1]);
        assert_eq!((w[0], w[1], w[2], w[3]), (5, 1, 2, 30));
        assert_eq!(w.edits.len(), 1, "tail writes stay in the tail");
        drop(v);
        w.push(4);
        assert_eq!(*w.base, vec![5, 1, 2, 30, 4]);
    }

    #[test]
    fn a_map_clone_keeps_its_writes_private() {
        let mut m = LayeredMap::default();
        *m.get_mut_or_default("a".to_string()) = 1;
        *m.get_mut_or_default("b".to_string()) = 2;
        let mut n = m.clone();
        *n.get_mut_or_default("b".to_string()) += 20;
        *n.get_mut_or_default("c".to_string()) = 3;
        assert_eq!((n.get("a"), n.get("b"), n.get("c")), (Some(&1), Some(&22), Some(&3)));
        assert_eq!((m.get("b"), m.get("c")), (Some(&2), None));
        assert_eq!(n.added.len(), 2);
        assert_eq!(m.base_addr(), n.base_addr());
        drop(m);
        *n.get_mut_or_default("d".to_string()) = 4;
        assert!(n.added.is_empty());
        assert_eq!(n.base.len(), 4);
    }
}
