//! The predicate index never changes a graph. Every Table 4 query on
//! `paper`, `award` and `movie`, at 1/20 and 1/10 scale and ε ∈ {0.3,
//! 0.5}, builds through a shared index exactly the graph an unindexed
//! build does, while each distinct CROWDJOIN key is joined once — also
//! when eight threads plan one cold query at the same moment.

use std::collections::BTreeSet;
use std::sync::Barrier;

use cdb_core::{
    analyze_sql, build_query_graph, build_query_graph_indexed, GraphBuildConfig, PredicateIndex,
};
use cdb_cql::{AnalyzedPredicate, AnalyzedSelect};
use cdb_datagen::{
    award_dataset, movie_dataset, paper_dataset, queries_for, Dataset, DatasetScale,
};

fn dataset(name: &str, scale: usize) -> Dataset {
    match name {
        "paper" => paper_dataset(DatasetScale::paper_full().scaled(scale), 7),
        "award" => award_dataset(DatasetScale::award_full().scaled(scale), 7),
        _ => movie_dataset(DatasetScale::movie_full().scaled(scale), 7),
    }
}

/// A query's CROWDJOIN keys under ε, as the index keys them.
fn join_keys(q: &AnalyzedSelect, epsilon: f64) -> impl Iterator<Item = String> + '_ {
    q.predicates.iter().filter_map(move |p| match p {
        AnalyzedPredicate::CrowdJoin { left, right } => {
            Some(format!("{left} ~ {right} @ {epsilon}").to_lowercase())
        }
        _ => None,
    })
}

#[test]
fn indexed_graphs_are_byte_identical_and_each_key_joins_once() {
    for name in ["paper", "award", "movie"] {
        for scale in [20, 10] {
            let ds = dataset(name, scale);
            let index = PredicateIndex::default();
            let mut keys = BTreeSet::new();
            let mut unindexed = Vec::new();
            for pass in 0..2 {
                let mut built = 0;
                for epsilon in [0.3, 0.5] {
                    let cfg = GraphBuildConfig { epsilon, ..GraphBuildConfig::default() };
                    for q in queries_for(name) {
                        let analyzed = analyze_sql(&ds.db, &q.cql).expect("table-4 query");
                        if pass == 0 {
                            let g = build_query_graph(&analyzed, &ds.db, &cfg);
                            unindexed.push(format!("{g:?}"));
                            keys.extend(join_keys(&analyzed, epsilon));
                        }
                        let g = build_query_graph_indexed(&analyzed, &ds.db, &cfg, &index);
                        assert!(
                            format!("{g:?}") == unindexed[built],
                            "{name} 1/{scale} ε={epsilon} {} pass {pass}: graphs differ",
                            q.label
                        );
                        built += 1;
                    }
                }
                let (entries, pairs) = index.size();
                assert_eq!(entries, keys.len(), "{name} 1/{scale} pass {pass}: {keys:?}");
                assert_eq!(index.builds(), keys.len() as u64, "{name} 1/{scale} pass {pass}");
                assert!(pairs > 0);
            }
        }
    }
}

#[test]
fn racing_planners_of_one_cold_query_share_a_single_join_per_key() {
    let ds = dataset("paper", 20);
    let cfg = GraphBuildConfig::default();
    let sql = &queries_for("paper").into_iter().find(|q| q.label == "3J").expect("3J").cql;
    let analyzed = analyze_sql(&ds.db, sql).expect("table-4 query");
    let unindexed = format!("{:?}", build_query_graph(&analyzed, &ds.db, &cfg));
    let index = PredicateIndex::default();
    let start = Barrier::new(8);
    let graphs: Vec<String> = std::thread::scope(|s| {
        let planners: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let analyzed = analyze_sql(&ds.db, sql).expect("table-4 query");
                    format!("{:?}", build_query_graph_indexed(&analyzed, &ds.db, &cfg, &index))
                })
            })
            .collect();
        planners.into_iter().map(|p| p.join().expect("planner thread")).collect()
    });
    assert!(graphs.iter().all(|g| *g == unindexed), "a racing planner built another graph");
    let keys = join_keys(&analyzed, cfg.epsilon).count();
    assert_eq!(keys, 3);
    assert_eq!(index.builds(), keys as u64, "exactly one join per key");
    assert_eq!(index.size().0, keys);
}
