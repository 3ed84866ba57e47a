//! Task-selection micro-benchmarks — the code path behind Table 5 of the
//! paper ("it only takes about 10 milliseconds to select the tasks that
//! can be asked in parallel").

use cdb_bench::{prepare, ExpConfig};
use cdb_core::cost::expectation::expectation_order;
use cdb_core::cost::known::select_known_colors;
use cdb_core::cost::sampling::mincut_sampling_order;
use cdb_core::latency::parallel_round;
use cdb_datagen::{award_dataset, paper_dataset, queries_for, DatasetScale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_selection(c: &mut Criterion) {
    let ds = paper_dataset(DatasetScale::paper_full().scaled(10), 42);
    let cfg = ExpConfig::default();
    let mut group = c.benchmark_group("task_selection");
    for q in queries_for("paper") {
        let (g, truth) = prepare(&ds, &q.cql, &cfg);
        group.bench_with_input(BenchmarkId::new("expectation_order", q.label), &g, |b, g| {
            b.iter(|| expectation_order(g))
        });
        group.bench_with_input(BenchmarkId::new("parallel_round", q.label), &g, |b, g| {
            let order = expectation_order(g);
            b.iter(|| parallel_round(g, &order))
        });
        group.bench_with_input(BenchmarkId::new("mincut_sampling_10", q.label), &g, |b, g| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                mincut_sampling_order(g, 10, &mut rng)
            })
        });
        group.bench_with_input(BenchmarkId::new("known_color_selection", q.label), &g, |b, g| {
            let oracle = |e: cdb_core::EdgeId| truth[&e];
            b.iter(|| select_known_colors(g, &oracle))
        });
    }
    // The dense-component case: every university name is pairwise similar,
    // so one component holds most of the graph and most of the conflicts.
    let award = award_dataset(DatasetScale::award_full().scaled(10), 42);
    for q in queries_for("award") {
        let (g, _) = prepare(&award, &q.cql, &cfg);
        let id = BenchmarkId::new("parallel_round", format!("award/{}", q.label));
        group.bench_with_input(id, &g, |b, g| {
            let order = expectation_order(g);
            b.iter(|| parallel_round(g, &order))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_selection
}
criterion_main!(benches);
