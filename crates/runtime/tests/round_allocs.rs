//! Allocation pin of building and running one crowd round. This file holds
//! exactly one test so the counting allocator below observes a single round
//! with no concurrent test noise (integration-test files are separate
//! binaries).
//!
//! Building n questions allocates the one question buffer, answering them
//! from the key allocates the engine's one task buffer, and a round of their
//! assignments allocates a bounded number of buffers that grow by doubling,
//! plus a little per retry; nothing per task, nothing per assignment and
//! nothing per arrival instant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cdb_core::{EdgeId, EdgeTruth};
use cdb_crowd::{
    CrowdPlatform, LatencyModel, Market, Question, SimulatedPlatform, TaskId, WorkerPool,
};
use cdb_runtime::{FaultPlan, RetryPolicy, RuntimeEngine, RuntimeMetrics};

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

/// The 2,000 join questions are built inside the counted window, as the
/// executor builds them each round; the answer key is built before it. No fault is injected, but slow workers
/// miss deadlines, so the round also reassigns a few dozen times.
#[test]
fn building_and_running_a_round_makes_under_two_thousand_allocations() {
    let pool = WorkerPool::with_accuracies(&[0.9; 20]);
    let metrics = Arc::new(RuntimeMetrics::new());
    let key: EdgeTruth = (0..2_000).map(|i| (EdgeId(3 * i + 1), i % 4 == 0)).collect();
    let mut engine = RuntimeEngine::new(
        SimulatedPlatform::new(Market::Amt, pool, 11),
        key,
        LatencyModel::default(),
        FaultPlan::none(),
        RetryPolicy { deadline_ms: 240_000, max_retries: 3 },
        0,
        Arc::clone(&metrics),
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    let questions: Vec<Question> =
        (0..2_000).map(|i| Question { id: TaskId(3 * i + 1), difficulty: 1.0 }).collect();
    let answers = engine.ask_round(&questions, 5);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(engine.error().is_none());
    // Early termination collects only the votes that decide each task.
    assert_eq!(answers.len(), 6_640);
    // Some answers missed the four-minute deadline: the retry path is in
    // the count too.
    assert!(metrics.snapshot().retries > 0);
    assert!(
        allocs < 2_000,
        "building and running one round of 10,000 assignments made {allocs} allocations"
    );
}
