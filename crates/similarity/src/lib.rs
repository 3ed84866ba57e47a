//! String similarity substrate for CDB.
//!
//! CDB estimates the *matching probability* of a crowd edge from the string
//! similarity of the two joined cell values (Section 4.1 of the paper). This
//! crate provides the similarity measures used in the paper's evaluation —
//! normalized edit distance (`ED`), token Jaccard (`JAC`), 2-gram Jaccard
//! (the paper's default, `CDB` in Figures 23/24), cosine similarity, and the
//! `NoSim` ablation — together with an efficient prefix-filter similarity
//! join that finds all pairs above a threshold without enumerating the cross
//! product (following Bayardo et al., "Scaling up all pairs similarity
//! search").
//!
//! # Example
//!
//! ```
//! use cdb_similarity::{SimilarityMeasure, SimilarityFn};
//!
//! let f = SimilarityFn::QGramJaccard { q: 2 };
//! let s = f.similarity("Univ. of California", "University of California");
//! assert!(s > 0.5);
//! ```

mod join;
mod measures;
mod tokenize;

pub use join::{similarity_join, similarity_join_self, SimJoinPair};
pub use measures::{
    cosine_tokens, edit_distance, edit_distance_chars, jaccard_tokens, normalized_edit_similarity,
    overlap_tokens,
};
pub use tokenize::{qgrams, tokens};

/// A similarity measure mapping two strings to `[0, 1]`.
///
/// CDB treats the similarity as the matching probability ω(e) of a crowd
/// edge, so every implementation must return values in `[0, 1]`, with `1.0`
/// for identical strings.
pub trait SimilarityMeasure {
    /// Similarity of `a` and `b` in `[0, 1]`.
    fn similarity(&self, a: &str, b: &str) -> f64;
}

/// The concrete similarity functions evaluated in the paper (Appendix D,
/// Figures 23 and 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimilarityFn {
    /// No similarity estimation: every candidate edge gets probability 0.5.
    NoSim,
    /// Normalized edit-distance similarity: `1 - ed(a, b) / max(|a|, |b|)`.
    EditDistance,
    /// Jaccard over whitespace/punctuation tokens.
    TokenJaccard,
    /// Jaccard over the q-gram sets of the two strings (paper default: q=2).
    QGramJaccard {
        /// Gram length; the paper uses 2.
        q: usize,
    },
    /// Cosine similarity over token sets.
    Cosine,
}

impl Default for SimilarityFn {
    /// The paper's default: 2-gram Jaccard.
    fn default() -> Self {
        SimilarityFn::QGramJaccard { q: 2 }
    }
}

impl SimilarityMeasure for SimilarityFn {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        match *self {
            SimilarityFn::NoSim => {
                if a == b {
                    1.0
                } else {
                    0.5
                }
            }
            SimilarityFn::EditDistance => normalized_edit_similarity(a, b),
            SimilarityFn::TokenJaccard => jaccard_tokens(&tokens(a), &tokens(b)),
            SimilarityFn::QGramJaccard { q } => jaccard_tokens(&qgrams(a, q), &qgrams(b, q)),
            SimilarityFn::Cosine => cosine_tokens(&tokens(a), &tokens(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_2gram_jaccard() {
        assert_eq!(SimilarityFn::default(), SimilarityFn::QGramJaccard { q: 2 });
    }

    #[test]
    fn identical_strings_are_similarity_one() {
        for f in [
            SimilarityFn::NoSim,
            SimilarityFn::EditDistance,
            SimilarityFn::TokenJaccard,
            SimilarityFn::QGramJaccard { q: 2 },
            SimilarityFn::Cosine,
        ] {
            assert_eq!(f.similarity("sigmod", "sigmod"), 1.0, "{f:?}");
        }
    }

    #[test]
    fn nosim_is_half_for_different_strings() {
        assert_eq!(SimilarityFn::NoSim.similarity("a", "b"), 0.5);
    }

    #[test]
    fn qgram_jaccard_on_paper_example() {
        // The running example in the paper matches abbreviations like
        // "Univ. of California" with "University of California".
        let f = SimilarityFn::QGramJaccard { q: 2 };
        let close = f.similarity("Univ. of California", "University of California");
        let far = f.similarity("Univ. of California", "Microsoft Cambridge");
        assert!(close > far);
        assert!(close > 0.3, "close = {close}");
        assert!(far < 0.3, "far = {far}");
    }
}
