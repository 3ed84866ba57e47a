//! The reference oracle: a naive single-threaded executor.
//!
//! It answers every query sequentially, in query-id order, through the
//! runtime's per-query hook [`cdb_runtime::execute_query`] — no threads,
//! no cursor, no result slots, and a hand-rolled snapshot/settle/absorb
//! loop instead of the shared unit runner ([`cdb_runtime::run_units`]);
//! this is the one deliberate second copy of the fleet protocol. Because
//! every stochastic decision is stream-keyed by `(seed, query id)`, the
//! concurrent scheduler must produce *exactly* this oracle's answers and
//! aggregate counters; any divergence is a scheduler bug (ordering leak,
//! session mixup, metrics race).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdb_obsv::attr::names;
use cdb_obsv::{kv, Event, SpanId};
use cdb_runtime::{
    execute_query, settled_facts, QueryJob, RuntimeConfig, RuntimeMetrics, RuntimeReport,
};

/// Run the whole fleet sequentially and report in the scheduler's format.
/// Mirrors the scheduler's contract: one cache snapshot before any query
/// runs, sessions of *successful* queries absorbed in id order after all
/// queries finish.
pub fn run_sequential(cfg: &RuntimeConfig, mut jobs: Vec<QueryJob>) -> RuntimeReport {
    let start = Instant::now();
    let metrics = Arc::new(RuntimeMetrics::new());
    jobs.sort_by_key(|j| j.id);
    let sessions: Vec<_> = match &cfg.reuse {
        Some(cache) => {
            jobs.iter().map(|j| (j.id, Arc::new(Mutex::new(cache.snapshot())))).collect()
        }
        None => Vec::new(),
    };
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let session = sessions.iter().find(|(id, _)| *id == job.id).map(|(_, s)| Arc::clone(s));
        results.push(execute_query(cfg, &metrics, job, session));
    }
    if let Some(cache) = &cfg.reuse {
        let failed: BTreeSet<u64> =
            results.iter().filter(|(_, r)| r.is_err()).map(|&(id, _)| id).collect();
        for (id, session) in &sessions {
            if !failed.contains(id) {
                let session = session.lock().expect("oracle session poisoned");
                // Mirror the scheduler's settle-after-fsync hook exactly:
                // durable first, absorb only on success.
                if let Some(hook) = &cfg.settle {
                    let facts = settled_facts(cfg, &session);
                    if !facts.is_empty() {
                        let cents: u64 = facts.iter().map(|f| f.cents).sum();
                        let ok = hook.settle(*id, &facts).is_ok();
                        cfg.trace.emit(Event::instant(
                            SpanId::root(),
                            names::STORE_SETTLE,
                            0,
                            kv![q => *id, ok => ok, n => facts.len() as u64, cents => cents],
                        ));
                        if !ok {
                            continue;
                        }
                    }
                }
                cache.absorb(&session);
            }
        }
    }
    results.sort_by_key(|&(id, _)| id);
    RuntimeReport { results, metrics: metrics.snapshot(), wall: start.elapsed() }
}
