//! Allocation pin of recovering the durable reuse cache. This file holds
//! exactly one test so the counting allocator below observes a single
//! recovery with no concurrent test noise (integration-test files are
//! separate binaries).
//!
//! Recovery reads each segment into one buffer and decodes every fact in
//! place, borrowing its strings from those bytes; settled values are
//! already normalized, so the cache allocates once per distinct value and
//! measure, and its transcript grows by doubling. Nothing is allocated
//! per frame or per decoded string.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cdb_core::SettledFact;
use cdb_store::{AnswerLog, DurableReuseCache, ScratchDir};

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

/// 48 queries of 100 facts each over two measures, written to 64 KiB
/// segments. Values are `Table#row` labels drawn from 1,500 rows per
/// measure, so most facts name a value an earlier fact interned (as in a
/// fleet's joins), and labels follow a hidden entity so the answers
/// entail each other.
#[test]
fn recovering_a_multi_segment_log_makes_at_most_three_allocations_per_fact() {
    let dir = ScratchDir::new("recover-allocs");
    let (queries, per_query) = (48u64, 100u64);
    {
        let (mut log, _) = AnswerLog::open(dir.path(), 64 << 10, |_, _| {}).expect("open log");
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for q in 0..queries {
            let facts: Vec<SettledFact> = (0..per_query)
                .map(|_| {
                    // xorshift64: a fixed pseudo-random pair per fact.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let (a, b) = (x % 1_500, (x >> 20) % 1_500);
                    SettledFact {
                        measure: format!("fleet{}/award.name~winner.name", q % 2),
                        left: format!("award#{a}"),
                        right: format!("winner#{b}"),
                        same: a % 40 == b % 40,
                        votes: 3,
                        cents: 15,
                    }
                })
                .collect();
            log.append_settled(q, &facts).expect("settle");
        }
        assert!(log.segments() >= 4, "{} segments", log.segments());
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let cache = DurableReuseCache::open(dir.path()).expect("recover");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let facts = cache.recovery().settled_facts();
    assert_eq!(facts, queries * per_query);
    assert!(cache.recovery().wal.segments >= 4);
    assert!(
        allocs as u64 <= 3 * facts,
        "recovering {facts} facts made {allocs} allocations ({:.2} per fact)",
        allocs as f64 / facts as f64
    );
}
