//! Allocation pin of enumerating the true answers. This file holds exactly
//! one test so the counting allocator below observes each enumeration with
//! no concurrent test noise (integration-test files are separate binaries).
//!
//! `true_answers` pushes the truth into the anchored candidate search: only
//! live, true edges are walked, so the search never builds a candidate it
//! would drop. Per call it allocates the pin list, the expansion order, the
//! binding and the chosen edges, plus the output vector's doublings; per
//! answer, the answer's binding and edges.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cdb_core::executor::true_answers;
use cdb_core::{analyze_sql, build_query_graph, GraphBuildConfig};
use cdb_datagen::{award_dataset, movie_dataset, paper_dataset, queries_for, DatasetScale};

/// System allocator that counts every allocation and reallocation.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The 3J graphs of `paper`, `movie` and `award` at 1/10 scale, generated
/// from data seed 2017 as the benchmark's `select_heavy` workload does.
/// They hold 107,136 / 130,343 / 184,333 live candidates but only 35 / 63
/// / 75 true answers.
#[test]
fn true_answers_allocate_per_answer_not_per_live_candidate() {
    const SEED: u64 = 2017;
    let scaled = |s: DatasetScale| s.scaled(10);
    for ds in [
        paper_dataset(scaled(DatasetScale::paper_full()), SEED),
        movie_dataset(scaled(DatasetScale::movie_full()), SEED ^ 0x6d6f),
        award_dataset(scaled(DatasetScale::award_full()), SEED ^ 0x6177),
    ] {
        let q = queries_for(ds.name).into_iter().find(|q| q.label == "3J").expect("3J");
        let analyzed = analyze_sql(&ds.db, &q.cql).expect("table-4 query");
        let g = build_query_graph(&analyzed, &ds.db, &GraphBuildConfig::default());
        let truth = ds.truth.edge_truth(&g);

        let before = ALLOCS.load(Ordering::Relaxed);
        let answers = true_answers(&g, &truth);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;

        assert!(!answers.is_empty(), "{} 3J has no true answer", ds.name);
        let cap = 5 * answers.len() + 64;
        assert!(
            allocs <= cap,
            "{} 3J: {allocs} allocations for {} answers (cap {cap})",
            ds.name,
            answers.len()
        );
        eprintln!("{} 3J: {allocs} allocations for {} answers", ds.name, answers.len());
    }
}
