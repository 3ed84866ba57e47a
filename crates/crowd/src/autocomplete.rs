//! Autocompletion store for COLLECT tasks.
//!
//! CDB controls duplicates in crowd-collected data with an autocompletion
//! interface (§3, §5.3.1): as a worker types, values already contributed by
//! other workers are suggested, so the worker either picks the canonical
//! representation or learns how existing values are written. This is the
//! mechanism behind Figure 17(a), where CDB needs ~5x fewer questions than
//! Deco to collect the same number of distinct tuples.

use std::collections::BTreeMap;

use cdb_similarity::{SimilarityFn, SimilarityMeasure};

/// The set of values contributed so far, with prefix lookup and
/// similarity-based canonicalization.
#[derive(Debug, Clone, Default)]
pub struct AutocompleteStore {
    /// Canonical value -> number of times contributed.
    values: BTreeMap<String, usize>,
}

impl AutocompleteStore {
    /// Empty store.
    pub fn new() -> Self {
        AutocompleteStore::default()
    }

    /// Number of distinct canonical values collected.
    pub fn distinct_count(&self) -> usize {
        self.values.len()
    }

    /// Values starting with `prefix` (case-insensitive), in sorted order —
    /// what the UI shows as the worker types.
    pub fn suggest(&self, prefix: &str, limit: usize) -> Vec<&str> {
        let p = prefix.to_lowercase();
        self.values
            .keys()
            .filter(|v| v.to_lowercase().starts_with(&p))
            .take(limit)
            .map(String::as_str)
            .collect()
    }

    /// Record a contribution. If an existing value is similar enough
    /// (`sim >= dedup_threshold` under `f`), the contribution is counted
    /// against that canonical value and `false` ("not new") is returned;
    /// otherwise the value is inserted as a new canonical entry.
    pub fn contribute(&mut self, value: &str, f: SimilarityFn, dedup_threshold: f64) -> bool {
        // Exact match fast path.
        if let Some(count) = self.values.get_mut(value) {
            *count += 1;
            return false;
        }
        // Similarity-based canonicalization (crowd/machine ER stand-in).
        let canonical = self
            .values
            .keys()
            .map(|v| (v.clone(), f.similarity(v, value)))
            .filter(|(_, s)| *s >= dedup_threshold)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(v, _)| v);
        match canonical {
            Some(v) => {
                *self.values.get_mut(&v).expect("key exists") += 1;
                false
            }
            None => {
                self.values.insert(value.to_string(), 1);
                true
            }
        }
    }

    /// All canonical values.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contribute_counts_new_and_duplicate() {
        let mut s = AutocompleteStore::new();
        let f = SimilarityFn::default();
        assert!(s.contribute("MIT", f, 0.8));
        assert!(!s.contribute("MIT", f, 0.8));
        assert_eq!(s.distinct_count(), 1);
    }

    #[test]
    fn near_duplicates_are_canonicalized() {
        let mut s = AutocompleteStore::new();
        let f = SimilarityFn::QGramJaccard { q: 2 };
        assert!(s.contribute("University of California", f, 0.6));
        // A dirty variant folds into the existing canonical value.
        assert!(!s.contribute("Universty of California", f, 0.6));
        assert_eq!(s.distinct_count(), 1);
    }

    #[test]
    fn distinct_values_stay_distinct() {
        let mut s = AutocompleteStore::new();
        let f = SimilarityFn::QGramJaccard { q: 2 };
        assert!(s.contribute("MIT", f, 0.6));
        assert!(s.contribute("Stanford University", f, 0.6));
        assert_eq!(s.distinct_count(), 2);
    }

    #[test]
    fn suggestions_filter_by_prefix() {
        let mut s = AutocompleteStore::new();
        let f = SimilarityFn::default();
        s.contribute("MIT", f, 0.9);
        s.contribute("Michigan", f, 0.9);
        s.contribute("Stanford", f, 0.9);
        assert_eq!(s.suggest("mi", 10), vec!["MIT", "Michigan"]);
        assert_eq!(s.suggest("mi", 1).len(), 1);
        assert!(s.suggest("zz", 10).is_empty());
    }

    #[test]
    fn empty_store() {
        let s = AutocompleteStore::new();
        assert_eq!(s.distinct_count(), 0);
        assert!(s.suggest("a", 5).is_empty());
    }
}
