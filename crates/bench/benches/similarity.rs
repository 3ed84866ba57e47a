//! Similarity-substrate micro-benchmarks: the prefix-filter join that
//! builds the query graph, against the brute-force cross product it
//! avoids, plus the individual measures.

use cdb_datagen::{paper_dataset, DatasetScale};
use cdb_similarity::{
    edit_distance, similarity_join, similarity_join_self, SimilarityFn, SimilarityMeasure,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_join(c: &mut Criterion) {
    let ds = paper_dataset(DatasetScale::paper_full().scaled(4), 7);
    let titles_p = ds.db.table("Paper").unwrap().column_strings("title").unwrap();
    let titles_c = ds.db.table("Citation").unwrap().column_strings("title").unwrap();
    let left: Vec<&str> = titles_p.iter().map(String::as_str).collect();
    let right: Vec<&str> = titles_c.iter().map(String::as_str).collect();

    let mut group = c.benchmark_group("similarity_join");
    group.bench_function(
        BenchmarkId::new("prefix_filter", format!("{}x{}", left.len(), right.len())),
        |b| b.iter(|| similarity_join(&left, &right, SimilarityFn::QGramJaccard { q: 2 }, 0.3)),
    );
    group.bench_function(
        BenchmarkId::new("cosine", format!("{}x{}", left.len(), right.len())),
        |b| b.iter(|| similarity_join(&left, &right, SimilarityFn::Cosine, 0.3)),
    );
    group.bench_function(BenchmarkId::new("self_prefix_filter", right.len()), |b| {
        b.iter(|| similarity_join_self(&right, SimilarityFn::QGramJaccard { q: 2 }, 0.3))
    });
    group.bench_function(
        BenchmarkId::new("all_pairs_verify", format!("{}x{}", left.len(), right.len())),
        |b| {
            let f = SimilarityFn::QGramJaccard { q: 2 };
            b.iter(|| {
                let mut n = 0usize;
                for a in &left {
                    for bb in &right {
                        if f.similarity(a, bb) >= 0.3 {
                            n += 1;
                        }
                    }
                }
                n
            })
        },
    );
    group.finish();
}

fn bench_measures(c: &mut Criterion) {
    let a = "Scalable Entity Resolution over Relational Data (qx)";
    let b = "Scalable Entity Resolution for Heterogeneous Sources (rm)";
    let mut group = c.benchmark_group("measures");
    group.bench_function("edit_distance", |bch| bch.iter(|| edit_distance(a, b)));
    for (name, f) in [
        ("qgram_jaccard", SimilarityFn::QGramJaccard { q: 2 }),
        ("token_jaccard", SimilarityFn::TokenJaccard),
        ("cosine", SimilarityFn::Cosine),
        ("normalized_ed", SimilarityFn::EditDistance),
    ] {
        group.bench_function(name, |bch| bch.iter(|| f.similarity(a, b)));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_join, bench_measures
}
criterion_main!(benches);
