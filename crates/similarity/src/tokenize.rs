//! Tokenizers: whitespace/punctuation tokens and character q-grams.

use std::collections::BTreeSet;

/// Calls `f` with every lowercase alphanumeric token of `s`, in string
/// order and with repeats. This is the one definition of a token: [`tokens`]
/// collects it into a set and the similarity join interns it, so the two
/// cannot disagree. Each token is lowercased on its own — `Σ` lowercases by
/// its position in the *word*, so lowering the whole string first differs.
pub(crate) fn for_each_token(s: &str, mut f: impl FnMut(String)) {
    for t in s.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()) {
        f(t.to_lowercase());
    }
}

/// Calls `f` with every character q-gram of the lowercased `s`, in string
/// order and with repeats, as slices of one lowercased copy. A string of at
/// most `q` chars is its own single gram; the empty string has none. The one
/// definition of a q-gram, shared by [`qgrams`] and the similarity join.
pub(crate) fn for_each_qgram(s: &str, q: usize, mut f: impl FnMut(&str)) {
    assert!(q >= 1, "q-gram length must be at least 1");
    let lower = s.to_lowercase();
    let bounds: Vec<usize> = lower.char_indices().map(|(at, _)| at).chain([lower.len()]).collect();
    match bounds.len() - 1 {
        0 => {}
        chars if chars <= q => f(&lower),
        _ => bounds.windows(q + 1).for_each(|w| f(&lower[w[0]..w[q]])),
    }
}

/// Split a string into lowercase alphanumeric tokens.
///
/// Punctuation and whitespace are separators; the result is a *set* (sorted,
/// deduplicated) because the Jaccard and cosine measures in the paper operate
/// on token sets.
pub fn tokens(s: &str) -> Vec<String> {
    let mut set = BTreeSet::new();
    for_each_token(s, |t| {
        set.insert(t);
    });
    set.into_iter().collect()
}

/// The set of character q-grams of a string (lowercased).
///
/// The paper's default probability estimator splits each value into 2-grams
/// and computes Jaccard over the 2-gram sets. Strings shorter than `q`
/// contribute themselves as a single gram so that short values still compare
/// meaningfully.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let mut set = BTreeSet::new();
    for_each_qgram(s, q, |g| {
        set.insert(g.to_owned());
    });
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook definitions the visitors must reproduce.
    fn tokens_reference(s: &str) -> Vec<String> {
        let set: BTreeSet<String> = s
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(|t| t.to_lowercase())
            .collect();
        set.into_iter().collect()
    }

    fn qgrams_reference(s: &str, q: usize) -> Vec<String> {
        let lower = s.to_lowercase();
        let chars: Vec<char> = lower.chars().collect();
        if chars.is_empty() {
            return Vec::new();
        }
        if chars.len() <= q {
            return vec![lower];
        }
        let set: BTreeSet<String> = chars.windows(q).map(|w| w.iter().collect()).collect();
        set.into_iter().collect()
    }

    #[test]
    fn lowercase_that_expands_or_depends_on_position() {
        // `İ` lowercases to two chars; `Σ` to `ς` only at the end of its own
        // token — "ΑΣ.Β" lowered as one string would give `σ`.
        assert_eq!(tokens("ΑΣ.Β"), vec!["ας", "β"]);
        assert_eq!(qgrams("ΑΣ.Β", 2), vec![".β", "ασ", "σ."]);
        assert_eq!(qgrams("İ", 2), vec!["i\u{307}"]);
        assert_eq!(qgrams("İß", 2), vec!["i\u{307}", "\u{307}ß"]);
    }

    proptest! {
        #[test]
        fn visitors_match_the_reference_definitions(s in "[abABİßΣ .']{0,7}", q in 1usize..4) {
            prop_assert_eq!(tokens(&s), tokens_reference(&s));
            prop_assert_eq!(qgrams(&s, q), qgrams_reference(&s, q));
        }
    }

    #[test]
    fn tokens_splits_on_punctuation_and_lowercases() {
        assert_eq!(tokens("Univ. of California"), vec!["california", "of", "univ"]);
    }

    #[test]
    fn tokens_of_empty_string_is_empty() {
        assert!(tokens("").is_empty());
        assert!(tokens(" .,;").is_empty());
    }

    #[test]
    fn tokens_deduplicates() {
        assert_eq!(tokens("a b a"), vec!["a", "b"]);
    }

    #[test]
    fn qgrams_basic() {
        assert_eq!(qgrams("abc", 2), vec!["ab", "bc"]);
    }

    #[test]
    fn qgrams_short_string_is_whole_string() {
        assert_eq!(qgrams("ab", 2), vec!["ab"]);
        assert_eq!(qgrams("a", 2), vec!["a"]);
    }

    #[test]
    fn qgrams_empty() {
        assert!(qgrams("", 2).is_empty());
    }

    #[test]
    fn qgrams_are_sorted_and_unique() {
        let g = qgrams("banana", 2);
        assert_eq!(g, vec!["an", "ba", "na"]);
    }

    #[test]
    fn qgrams_handles_unicode() {
        // multi-byte chars must not panic or split mid-codepoint
        let g = qgrams("café", 2);
        assert!(g.contains(&"fé".to_string()));
    }

    #[test]
    #[should_panic(expected = "q-gram length")]
    fn qgrams_rejects_zero_q() {
        qgrams("abc", 0);
    }
}
