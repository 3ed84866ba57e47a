//! Bit-identity of the similarity join on the columns the benchmark joins.
//!
//! For `paper` / `movie` / `award` at 1/10 scale with the benchmark's data
//! seed, every `CROWDJOIN` column pair of the Table 4 queries, all five
//! similarity functions and four thresholds: `similarity_join` must equal
//! brute force over `SimilarityMeasure::similarity` as a list of
//! `(left, right, sim.to_bits())` in `(left, right)` order, and
//! `similarity_join_self` must equal its upper triangle. Edge ids, task
//! order and every NDJSON stream hang off that order.

use std::collections::BTreeSet;

use cdb::cql::{analyze_select, parse, AnalyzedPredicate, Statement};
use cdb::datagen::{
    award_dataset, movie_dataset, paper_dataset, queries_for, Dataset, DatasetScale,
};
use cdb::similarity::{similarity_join, similarity_join_self, SimilarityFn, SimilarityMeasure};

const DATA_SEED: u64 = 2017;
const EPSILONS: [f64; 4] = [0.1, 0.3, 0.5, 0.8];
const FNS: [SimilarityFn; 5] = [
    SimilarityFn::QGramJaccard { q: 2 },
    SimilarityFn::TokenJaccard,
    SimilarityFn::Cosine,
    SimilarityFn::EditDistance,
    SimilarityFn::NoSim,
];

type Bits = Vec<(usize, usize, u64)>;

/// `f.similarity` of every pair `keep` admits, row-major.
fn similarity_matrix(
    left: &[&str],
    right: &[&str],
    f: SimilarityFn,
    keep: impl Fn(usize, usize) -> bool,
) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate().filter(|&(j, _)| keep(i, j)) {
            out.push((i, j, f.similarity(a, b)));
        }
    }
    out
}

fn at_least(matrix: &[(usize, usize, f64)], eps: f64) -> Bits {
    matrix.iter().filter(|p| p.2 >= eps).map(|&(i, j, s)| (i, j, s.to_bits())).collect()
}

fn bits(pairs: Vec<cdb::similarity::SimJoinPair>) -> Bits {
    pairs.into_iter().map(|p| (p.left, p.right, p.sim.to_bits())).collect()
}

/// The distinct `(left column, right column)` value lists the dataset's
/// Table 4 queries `CROWDJOIN`.
fn join_columns(name: &str, ds: &Dataset) -> Vec<(String, Vec<String>, Vec<String>)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for q in queries_for(name) {
        let Statement::Select(select) = parse(&q.cql).expect("Table 4 query parses") else {
            panic!("{name} {}: not a SELECT", q.label);
        };
        for p in analyze_select(&select, &ds.db).expect("Table 4 query analyzes").predicates {
            let AnalyzedPredicate::CrowdJoin { left, right } = p else { continue };
            if !seen.insert((left.to_string(), right.to_string())) {
                continue;
            }
            let column = |c: &cdb::cql::BoundColumn| {
                ds.db.table(&c.table).unwrap().column_strings(&c.column).unwrap()
            };
            out.push((format!("{name}: {left} x {right}"), column(&left), column(&right)));
        }
    }
    assert!(out.len() >= 2, "{name}: found {} join column pairs", out.len());
    out
}

fn check_dataset(name: &str, ds: Dataset) {
    for (what, left, right) in join_columns(name, &ds) {
        let l: Vec<&str> = left.iter().map(String::as_str).collect();
        let r: Vec<&str> = right.iter().map(String::as_str).collect();
        for f in FNS {
            let cross = similarity_matrix(&l, &r, f, |_, _| true);
            let upper = similarity_matrix(&l, &l, f, |i, j| i < j);
            for eps in EPSILONS {
                let got = bits(similarity_join(&l, &r, f, eps));
                assert!(got == at_least(&cross, eps), "{what} {f:?} eps={eps}");
                let got = bits(similarity_join_self(&l, f, eps));
                assert!(got == at_least(&upper, eps), "{what} {f:?} eps={eps} (self)");
            }
        }
    }
}

#[test]
fn paper_join_columns_match_brute_force_bit_for_bit() {
    check_dataset("paper", paper_dataset(DatasetScale::paper_full().scaled(10), DATA_SEED));
}

#[test]
fn movie_join_columns_match_brute_force_bit_for_bit() {
    let ds = movie_dataset(DatasetScale::movie_full().scaled(10), DATA_SEED ^ 0x6d6f);
    check_dataset("movie", ds);
}

#[test]
fn award_join_columns_match_brute_force_bit_for_bit() {
    let ds = award_dataset(DatasetScale::award_full().scaled(10), DATA_SEED ^ 0x6177);
    check_dataset("award", ds);
}
