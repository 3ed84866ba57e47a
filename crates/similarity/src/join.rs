//! Prefix-filter similarity join.
//!
//! Building the CDB query graph requires all pairs `(x, y)` with
//! `sim(x, y) >= ε`. Enumerating the cross product is quadratic; the paper
//! instead uses prefix filtering (Bayardo et al. [10], Wang et al. [56]).
//! For a Jaccard threshold ε, any two sets with `J(A, B) >= ε` must share a
//! token within the first `|A| - ceil(ε * |A|) + 1` tokens of `A` under a
//! global token order — so only pairs sharing a prefix token are verified.
//!
//! Every record is tokenised exactly once, into a sorted `u32` signature;
//! candidates and verification read only the signatures. The contract with
//! [`SimilarityMeasure::similarity`] is bit-identity: the join tokenises
//! through the same `tokenize` visitors and divides the same two integers,
//! so every emitted `sim` has the bits `similarity` returns for that pair.

use std::collections::HashMap;

use crate::measures::normalized_edit_chars;
use crate::tokenize::{for_each_qgram, for_each_token};
use crate::{SimilarityFn, SimilarityMeasure};

/// One pair produced by a similarity join: indexes into the two input slices
/// plus the verified similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJoinPair {
    /// Index into the left input.
    pub left: usize,
    /// Index into the right input.
    pub right: usize,
    /// Verified similarity in `[0, 1]`, at least the join threshold.
    pub sim: f64,
}

/// Every record's token set as sorted `u32` ids, in one flat buffer. An id
/// is the token's rank in a global rarest-first order, so the front of a
/// signature holds its rarest tokens and prefix posting lists stay short.
struct Signatures {
    ids: Vec<u32>,
    bounds: Vec<usize>,
    vocab: usize,
}

impl Signatures {
    fn build(values: &[&str], f: SimilarityFn) -> Self {
        let mut vocab: HashMap<Box<str>, u32> = HashMap::new();
        let mut freq: Vec<u32> = Vec::new(); // records holding the token, by first-seen id
        let (mut ids, mut bounds, mut record) = (Vec::new(), vec![0], Vec::new());
        for v in values {
            let mut intern = |t: &str| match vocab.get(t) {
                Some(&id) => record.push(id),
                None => {
                    let id = u32::try_from(freq.len()).expect("fewer than 2^32 distinct tokens");
                    record.push(id);
                    vocab.insert(t.into(), id);
                    freq.push(0);
                }
            };
            match f {
                SimilarityFn::QGramJaccard { q } => for_each_qgram(v, q, intern),
                _ => for_each_token(v, |t| intern(&t)),
            }
            record.sort_unstable();
            record.dedup();
            record.iter().for_each(|&id| freq[id as usize] += 1);
            ids.append(&mut record);
            bounds.push(ids.len());
        }
        let mut rarest_first: Vec<u32> = (0..freq.len() as u32).collect();
        rarest_first.sort_unstable_by_key(|&id| (freq[id as usize], id));
        let mut rank = vec![0; freq.len()];
        for (r, &id) in (0..).zip(&rarest_first) {
            rank[id as usize] = r;
        }
        for w in bounds.windows(2) {
            let sig = &mut ids[w[0]..w[1]];
            sig.iter_mut().for_each(|t| *t = rank[*t as usize]);
            sig.sort_unstable();
        }
        Signatures { ids, bounds, vocab: freq.len() }
    }

    fn get(&self, record: usize) -> &[u32] {
        &self.ids[self.bounds[record]..self.bounds[record + 1]]
    }
}

/// `ceil(x)` for a required-overlap bound `x`, nudged down by a relative
/// epsilon first: such a bound is frequently integral in exact arithmetic
/// but lands just above the integer in f64 (e.g.
/// `0.8 * 20 == 16.000000000000004`), and a raw ceil then demands one more
/// overlapping token than the threshold actually requires — silently
/// dropping true pairs before verification. Biasing downward is always
/// safe: an undersized requirement only admits extra work that the exact
/// `sim >= eps` comparison rejects.
fn biased_ceil(x: f64) -> usize {
    (x - x * 1e-9 - f64::EPSILON).ceil() as usize
}

/// Prefix length for Jaccard threshold `eps` on a set of size `len`:
/// `len - ceil(eps * len) + 1`, at most `len`, with the ceil biased as in
/// [`biased_ceil`] (a shorter required overlap only lengthens the prefix).
fn jaccard_prefix_len(len: usize, eps: f64) -> usize {
    (len - biased_ceil(eps * len as f64).min(len) + 1).min(len)
}

/// Exact set similarity of two signatures, or `None` as soon as the overlap
/// can no longer reach what `eps` requires (`J >= eps` needs
/// `|A ∩ B| >= eps (|A| + |B|) / (1 + eps)`, cosine `eps sqrt(|A| |B|)`).
/// The first check, before any token is compared, is the length filter
/// `eps |A| <= |B| <= |A| / eps`. The requirement is biased downward, so the
/// exit only skips pairs the caller's `sim >= eps` would reject; the
/// arithmetic is that of `jaccard_tokens` / `cosine_tokens`.
fn verify_sets(a: &[u32], b: &[u32], cosine: bool, eps: f64) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return Some(if a.len() == b.len() { 1.0 } else { 0.0 });
    }
    let (la, lb) = (a.len() as f64, b.len() as f64);
    let bound = if cosine { eps * (la * lb).sqrt() } else { eps * (la + lb) / (1.0 + eps) };
    let required = biased_ceil(bound);
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if inter + (a.len() - i).min(b.len() - j) < required {
            return None;
        }
        // Branch-free step: which side advances is a coin flip to the predictor.
        let (x, y) = (a[i], b[j]);
        (i, j, inter) =
            (i + usize::from(x <= y), j + usize::from(y <= x), inter + usize::from(x == y));
    }
    let denom = if cosine { (la * lb).sqrt() } else { (a.len() + b.len() - inter) as f64 };
    Some(inter as f64 / denom)
}

/// What verification reads of a record, computed once per record.
enum Records {
    /// Ranked token-id sets: the Jaccard family and cosine.
    Sets(Signatures),
    /// The record's chars: edit distance.
    Chars(Vec<Vec<char>>),
    /// `NoSim` compares the strings themselves.
    Raw,
}

/// The one candidate-and-verify routine behind both public joins: bipartite
/// when `right` is given, otherwise the upper triangle of `left` with itself.
/// Pairs are produced in `(left, right)` order.
fn join(left: &[&str], right: Option<&[&str]>, f: SimilarityFn, eps: f64) -> Vec<SimJoinPair> {
    assert!((0.0..=1.0).contains(&eps), "threshold must be in [0, 1]");
    // Probe record `i` is `values[i]`, indexed record `j` is `values[base + j]`;
    // a self-join has one list in both roles and pairs `i` only with `j > i`.
    let values: Vec<&str> = left.iter().chain(right.unwrap_or_default()).copied().collect();
    let (base, indexed) = right.map_or((0, left.len()), |r| (left.len(), r.len()));
    let cosine = f == SimilarityFn::Cosine;
    let records = match f {
        SimilarityFn::NoSim => Records::Raw,
        SimilarityFn::EditDistance => {
            Records::Chars(values.iter().map(|v| v.chars().collect()).collect())
        }
        _ => Records::Sets(Signatures::build(&values, f)),
    };
    let verify = |a: usize, b: usize| match &records {
        Records::Sets(sigs) => verify_sets(sigs.get(a), sigs.get(b), cosine, eps),
        Records::Chars(chars) => {
            // Length filter: ed >= |la - lb|, and `1 - ed / max_len` falls
            // monotonically in f64 too, so this is an upper bound on `sim`
            // in the very arithmetic `normalized_edit_chars` uses.
            let (la, lb) = (chars[a].len(), chars[b].len());
            let reach = 1.0 - la.abs_diff(lb) as f64 / la.max(lb).max(1) as f64;
            (reach >= eps).then(|| normalized_edit_chars(&chars[a], &chars[b]))
        }
        Records::Raw => Some(f.similarity(values[a], values[b])),
    };

    // Jaccard prefix index over the indexed side: `postings[t]` lists, in
    // ascending order, the records with token `t` in their prefix. A record
    // without tokens has no prefix but is at similarity 1.0 from every other
    // such record, so those are listed apart. At eps = 0 nothing can be
    // filtered (disjoint sets qualify), as under the other measures.
    let prefix = |sig: &[u32]| jaccard_prefix_len(sig.len(), eps);
    let index = match &records {
        Records::Sets(sigs) if !cosine && eps > 0.0 => {
            let (mut postings, mut empty) = (vec![Vec::new(); sigs.vocab], Vec::new());
            for j in 0..indexed {
                let sig = sigs.get(base + j);
                if sig.is_empty() {
                    empty.push(j);
                }
                sig[..prefix(sig)].iter().for_each(|&t| postings[t as usize].push(j));
            }
            Some((sigs, postings, empty))
        }
        _ => None,
    };

    let mut out = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();
    let mut stamp = vec![usize::MAX; indexed]; // last probe that listed each record
    for i in 0..left.len() {
        let first = if right.is_some() { 0 } else { i + 1 };
        candidates.clear();
        match &index {
            None => candidates.extend(first..indexed),
            Some((sigs, postings, empty)) => {
                let sig = sigs.get(i);
                if sig.is_empty() {
                    candidates.extend(empty.iter().filter(|&&j| j >= first));
                }
                for &t in &sig[..prefix(sig)] {
                    let list = &postings[t as usize];
                    for &j in &list[list.partition_point(|&j| j < first)..] {
                        if stamp[j] != i {
                            stamp[j] = i;
                            candidates.push(j);
                        }
                    }
                }
                candidates.sort_unstable();
            }
        }
        for &j in &candidates {
            if let Some(sim) = verify(i, base + j).filter(|&sim| sim >= eps) {
                out.push(SimJoinPair { left: i, right: j, sim });
            }
        }
    }
    out
}

/// Find all pairs `(i, j)` with `f.similarity(left[i], right[j]) >= eps`.
///
/// Each record is tokenised once. For the Jaccard family candidates come
/// from prefix filtering, and both Jaccard and cosine verification stop as
/// soon as the required overlap is out of reach; for edit distance a length
/// filter is applied (`sim <= 1 - (max_len - min_len) / max_len`); for
/// `NoSim` every pair is a candidate (probability 0.5 >= ε whenever
/// ε <= 0.5), matching the paper's ablation.
///
/// Every returned pair is *verified* with the exact measure, so the result
/// is exactly the set of pairs at or above the threshold — two records
/// without any token included, which are at similarity 1.0 — in
/// `(left, right)` order, each `sim` bit-identical to `f.similarity`.
pub fn similarity_join(
    left: &[&str],
    right: &[&str],
    f: SimilarityFn,
    eps: f64,
) -> Vec<SimJoinPair> {
    join(left, Some(right), f, eps)
}

/// Self-join variant: all unordered pairs `(i, j)` with `i < j` and
/// similarity at least `eps` within a single value list.
///
/// Enumerates the upper triangle directly rather than running the
/// bipartite join on `(values, values)` and discarding half the output:
/// each record is tokenised once and probes only records after it, so
/// candidate generation and verification cost half the bipartite version,
/// and degenerate measures (`NoSim` admits everything) never verify the
/// diagonal `(i, i)`.
pub fn similarity_join_self(values: &[&str], f: SimilarityFn, eps: f64) -> Vec<SimJoinPair> {
    join(values, None, f, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn brute_force(
        left: &[&str],
        right: &[&str],
        f: SimilarityFn,
        eps: f64,
    ) -> BTreeSet<(usize, usize)> {
        brute_force_bits(left, right, f, eps, |_, _| true).into_iter().map(|p| (p.0, p.1)).collect()
    }

    const ALL_FNS: [SimilarityFn; 5] = [
        SimilarityFn::QGramJaccard { q: 2 },
        SimilarityFn::TokenJaccard,
        SimilarityFn::Cosine,
        SimilarityFn::EditDistance,
        SimilarityFn::NoSim,
    ];

    /// `(left, right, sim bits)` of every pair, in output order.
    fn bits(pairs: Vec<SimJoinPair>) -> Vec<(usize, usize, u64)> {
        pairs.into_iter().map(|p| (p.left, p.right, p.sim.to_bits())).collect()
    }

    /// The oracle: `f.similarity` on every pair the `keep` mask admits, in
    /// `(left, right)` order.
    fn brute_force_bits(
        left: &[&str],
        right: &[&str],
        f: SimilarityFn,
        eps: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                let sim = f.similarity(a, b);
                if keep(i, j) && sim >= eps {
                    out.push((i, j, sim.to_bits()));
                }
            }
        }
        out
    }

    #[test]
    fn records_without_tokens_pair_with_each_other_under_every_measure() {
        let (left, right, vals) = (["", " .,"], ["", ";"], ["", "x", ""]);
        for f in ALL_FNS {
            for eps in [0.0, 0.3, 1.0] {
                assert_eq!(
                    bits(similarity_join(&left, &right, f, eps)),
                    brute_force_bits(&left, &right, f, eps, |_, _| true),
                    "{f:?} eps={eps}"
                );
                assert_eq!(
                    bits(similarity_join_self(&vals, f, eps)),
                    brute_force_bits(&vals, &vals, f, eps, |i, j| i < j),
                    "{f:?} eps={eps} (self)"
                );
            }
        }
        // The set measures see four empty x empty pairs, not none.
        let one = 1.0f64.to_bits();
        for f in [SimilarityFn::TokenJaccard, SimilarityFn::QGramJaccard { q: 2 }] {
            let want = if f == SimilarityFn::TokenJaccard {
                vec![(0, 0, one), (0, 1, one), (1, 0, one), (1, 1, one)]
            } else {
                vec![(0, 0, one)] // " .," and ";" have grams
            };
            assert_eq!(bits(similarity_join(&left, &right, f, 0.3)), want, "{f:?}");
            assert_eq!(bits(similarity_join_self(&vals, f, 0.3)), vec![(0, 2, one)], "{f:?}");
        }
    }

    #[test]
    fn join_matches_brute_force_on_universities() {
        let left = ["Univ. of California", "Univ. of Chicago", "Microsoft", "Duke Univ."];
        let right = [
            "University of California",
            "University of Chicago",
            "Microsoft Cambridge",
            "Duke Uni.",
            "University of Cambridge",
        ];
        for f in [SimilarityFn::QGramJaccard { q: 2 }, SimilarityFn::TokenJaccard] {
            let got: BTreeSet<(usize, usize)> = similarity_join(&left, &right, f, 0.3)
                .into_iter()
                .map(|p| (p.left, p.right))
                .collect();
            assert_eq!(got, brute_force(&left, &right, f, 0.3), "{f:?}");
        }
    }

    #[test]
    fn join_pairs_carry_verified_similarity() {
        let left = ["abcd"];
        let right = ["abcd", "abce"];
        let pairs = similarity_join(&left, &right, SimilarityFn::QGramJaccard { q: 2 }, 0.3);
        let exact = pairs.iter().find(|p| p.right == 0).unwrap();
        assert_eq!(exact.sim, 1.0);
    }

    #[test]
    fn self_join_excludes_self_and_mirror_pairs() {
        let vals = ["sigmod16", "sigmod14", "icde"];
        let pairs = similarity_join_self(&vals, SimilarityFn::QGramJaccard { q: 2 }, 0.3);
        for p in &pairs {
            assert!(p.left < p.right);
        }
        assert!(pairs.iter().any(|p| (p.left, p.right) == (0, 1)));
    }

    #[test]
    fn edit_distance_join_applies_length_filter_correctly() {
        let left = ["abc"];
        let right = ["abcdefghij", "abd"];
        let got: Vec<usize> = similarity_join(&left, &right, SimilarityFn::EditDistance, 0.6)
            .into_iter()
            .map(|p| p.right)
            .collect();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn edit_distance_length_filter_keeps_pairs_exactly_at_the_threshold() {
        // sim = 1 - 2/10 = 0.8, but (1 - 0.8) * 10 = 1.9999999999999996 < 2:
        // the filter as `diff > (1 - eps) * max_len` dropped this pair.
        let pairs =
            similarity_join(&["abcdefgh"], &["abcdefghij"], SimilarityFn::EditDistance, 0.8);
        assert_eq!(bits(pairs), vec![(0, 0, 0.8f64.to_bits())]);
    }

    #[test]
    fn nosim_join_returns_everything_at_low_threshold() {
        let left = ["a", "b"];
        let right = ["c", "d"];
        let pairs = similarity_join(&left, &right, SimilarityFn::NoSim, 0.3);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().all(|p| p.sim == 0.5));
    }

    #[test]
    fn empty_inputs_yield_no_pairs() {
        let none: [&str; 0] = [];
        assert!(similarity_join(&none, &["x"], SimilarityFn::default(), 0.3).is_empty());
        assert!(similarity_join(&["x"], &none, SimilarityFn::default(), 0.3).is_empty());
    }

    #[test]
    fn prefix_len_formula() {
        assert_eq!(jaccard_prefix_len(10, 0.5), 6);
        assert_eq!(jaccard_prefix_len(10, 0.9), 2);
        assert_eq!(jaccard_prefix_len(0, 0.5), 0);
        assert_eq!(jaccard_prefix_len(1, 1.0), 1);
    }

    #[test]
    fn prefix_len_is_robust_to_fp_rounding() {
        // A product that is integral in exact arithmetic but lands just
        // above the integer in f64: a raw `(eps * len).ceil()` demands one
        // extra overlap token and shortens the prefix below completeness.
        assert_eq!(0.07f64 * 100.0, 7.000000000000001);
        assert_eq!(jaccard_prefix_len(100, 0.07), 100 - 7 + 1);
        // Products that do round to the exact integer keep the textbook
        // value — the slack must not under-count them either.
        assert_eq!(jaccard_prefix_len(20, 0.8), 5); // 0.8 * 20 == 16.0 exactly
        assert_eq!(jaccard_prefix_len(20, 0.5), 11);
        assert_eq!(jaccard_prefix_len(5, 0.9), 1); // ceil(4.5) = 5
    }

    /// Deterministic corpus of exactly `len`-token records with sliding
    /// overlap, so pair similarities straddle every grid threshold.
    fn sliding_corpus(len: usize) -> Vec<String> {
        (0..15)
            .map(|i| {
                (0..len).map(|k| format!("t{:02}", (i * 2 + k) % 30)).collect::<Vec<_>>().join(" ")
            })
            .collect()
    }

    #[test]
    fn prefix_filter_grid_matches_brute_force() {
        // The ISSUE grid: eps x len including the (0.8, 20) FP trigger.
        for &len in &[5usize, 10, 20] {
            let vals = sliding_corpus(len);
            let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
            for &eps in &[0.5, 0.8, 0.9] {
                let got: BTreeSet<(usize, usize)> =
                    similarity_join(&refs, &refs, SimilarityFn::TokenJaccard, eps)
                        .into_iter()
                        .map(|p| (p.left, p.right))
                        .collect();
                let want = brute_force(&refs, &refs, SimilarityFn::TokenJaccard, eps);
                assert_eq!(got, want, "len={len} eps={eps}");
            }
        }
    }

    #[test]
    fn self_join_grid_matches_upper_triangle_brute_force() {
        for &len in &[5usize, 10, 20] {
            let vals = sliding_corpus(len);
            let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
            for &eps in &[0.5, 0.8, 0.9] {
                let got: BTreeSet<(usize, usize)> =
                    similarity_join_self(&refs, SimilarityFn::TokenJaccard, eps)
                        .into_iter()
                        .map(|p| (p.left, p.right))
                        .collect();
                let want: BTreeSet<(usize, usize)> =
                    brute_force(&refs, &refs, SimilarityFn::TokenJaccard, eps)
                        .into_iter()
                        .filter(|&(i, j)| i < j)
                        .collect();
                assert_eq!(got, want, "len={len} eps={eps}");
            }
        }
    }

    #[test]
    fn nosim_self_join_enumerates_each_unordered_pair_once() {
        // n(n-1)/2 pairs, no diagonal: the self-join no longer runs the
        // bipartite product and filters.
        let vals = ["a", "b", "c", "d", "e"];
        let pairs = similarity_join_self(&vals, SimilarityFn::NoSim, 0.3);
        assert_eq!(pairs.len(), 5 * 4 / 2);
        for p in &pairs {
            assert!(p.left < p.right);
            assert_eq!(p.sim, 0.5);
        }
    }

    /// Records the tokenisers are most likely to get wrong: empty and
    /// punctuation-only strings, strings of at most q chars, mixed case, and
    /// non-ASCII whose lowercase expands (`İ`) or depends on position (`Σ`).
    const RECORD: &str = "[abABİßΣ .']{0,7}";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn join_equals_brute_force_bit_for_bit(
            left in prop::collection::vec(RECORD, 0..12),
            right in prop::collection::vec(RECORD, 0..12),
            eps in 0.1f64..0.9,
        ) {
            let l: Vec<&str> = left.iter().map(String::as_str).collect();
            let r: Vec<&str> = right.iter().map(String::as_str).collect();
            for f in ALL_FNS {
                prop_assert_eq!(
                    bits(similarity_join(&l, &r, f, eps)),
                    brute_force_bits(&l, &r, f, eps, |_, _| true),
                    "{:?}", f
                );
            }
        }

        #[test]
        fn self_join_equals_upper_triangle_bit_for_bit(
            vals in prop::collection::vec(RECORD, 0..12),
            eps in 0.1f64..0.9,
        ) {
            let v: Vec<&str> = vals.iter().map(String::as_str).collect();
            for f in ALL_FNS {
                prop_assert_eq!(
                    bits(similarity_join_self(&v, f, eps)),
                    brute_force_bits(&v, &v, f, eps, |i, j| i < j),
                    "{:?}", f
                );
            }
        }
    }
}
