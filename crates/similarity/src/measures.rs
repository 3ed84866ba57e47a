//! Similarity measures: edit distance, Jaccard, cosine, overlap.

/// Levenshtein edit distance between two strings (unit costs).
///
/// Collects both strings' chars and runs [`edit_distance_chars`].
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance_chars(&a, &b)
}

/// Levenshtein edit distance between two char slices (unit costs) — the core
/// of [`edit_distance`], for callers that compare one string against many
/// and collect its chars once.
///
/// Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))` space using the
/// classic two-row dynamic program.
pub fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension to minimise memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized edit-distance similarity: `1 - ed(a, b) / max(|a|, |b|)`.
///
/// Returns `1.0` for two empty strings (they are identical).
pub fn normalized_edit_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    normalized_edit_chars(&a, &b)
}

/// [`normalized_edit_similarity`] on chars already collected.
pub(crate) fn normalized_edit_chars(a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - edit_distance_chars(a, b) as f64 / max_len as f64
}

/// Jaccard similarity of two *sorted, deduplicated* token slices:
/// `|A ∩ B| / |A ∪ B|`.
///
/// Returns `1.0` when both sets are empty.
pub fn jaccard_tokens(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = overlap_tokens(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Cosine similarity of two *sorted, deduplicated* token slices (set
/// semantics): `|A ∩ B| / sqrt(|A| * |B|)`.
pub fn cosine_tokens(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = overlap_tokens(a, b);
    inter as f64 / ((a.len() as f64) * (b.len() as f64)).sqrt()
}

/// Size of the intersection of two sorted, deduplicated token slices.
pub fn overlap_tokens(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(v: &[&str]) -> Vec<String> {
        let mut v: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn edit_distance_classic_cases() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn edit_distance_unicode() {
        assert_eq!(edit_distance("café", "cafe"), 1);
    }

    #[test]
    fn normalized_edit_similarity_bounds() {
        assert_eq!(normalized_edit_similarity("", ""), 1.0);
        assert_eq!(normalized_edit_similarity("abc", "abc"), 1.0);
        assert_eq!(normalized_edit_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard_tokens(&toks(&["a", "b"]), &toks(&["a", "b"])), 1.0);
        assert_eq!(jaccard_tokens(&toks(&["a"]), &toks(&["b"])), 0.0);
        assert_eq!(jaccard_tokens(&toks(&["a", "b"]), &toks(&["b", "c"])), 1.0 / 3.0);
        assert_eq!(jaccard_tokens(&[], &[]), 1.0);
        assert_eq!(jaccard_tokens(&toks(&["a"]), &[]), 0.0);
    }

    #[test]
    fn cosine_basics() {
        assert_eq!(cosine_tokens(&toks(&["a", "b"]), &toks(&["a", "b"])), 1.0);
        assert_eq!(cosine_tokens(&toks(&["a"]), &toks(&["b"])), 0.0);
        let c = cosine_tokens(&toks(&["a", "b"]), &toks(&["b"]));
        assert!((c - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn overlap_counts_common_tokens() {
        assert_eq!(overlap_tokens(&toks(&["a", "b", "c"]), &toks(&["b", "c", "d"])), 2);
    }

    proptest! {
        #[test]
        fn edit_distance_symmetric(a in ".{0,20}", b in ".{0,20}") {
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        }

        #[test]
        fn edit_distance_triangle_inequality(a in "[a-c]{0,10}", b in "[a-c]{0,10}", c in "[a-c]{0,10}") {
            prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
        }

        #[test]
        fn edit_distance_identity(a in ".{0,20}") {
            prop_assert_eq!(edit_distance(&a, &a), 0);
        }

        #[test]
        fn edit_distance_bounded_by_longer(a in ".{0,20}", b in ".{0,20}") {
            let d = edit_distance(&a, &b);
            prop_assert!(d <= a.chars().count().max(b.chars().count()));
        }

        #[test]
        fn normalized_edit_similarity_in_unit_interval(a in ".{0,20}", b in ".{0,20}") {
            let s = normalized_edit_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn jaccard_in_unit_interval_and_symmetric(
            a in prop::collection::btree_set("[a-e]{1,3}", 0..8),
            b in prop::collection::btree_set("[a-e]{1,3}", 0..8),
        ) {
            let a: Vec<String> = a.into_iter().collect();
            let b: Vec<String> = b.into_iter().collect();
            let s = jaccard_tokens(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert_eq!(s, jaccard_tokens(&b, &a));
        }

        #[test]
        fn cosine_at_least_jaccard(
            a in prop::collection::btree_set("[a-e]{1,3}", 1..8),
            b in prop::collection::btree_set("[a-e]{1,3}", 1..8),
        ) {
            // cosine >= jaccard for set semantics: |I|/sqrt(|A||B|) >= |I|/|A∪B|
            let a: Vec<String> = a.into_iter().collect();
            let b: Vec<String> = b.into_iter().collect();
            prop_assert!(cosine_tokens(&a, &b) + 1e-12 >= jaccard_tokens(&a, &b));
        }
    }
}
