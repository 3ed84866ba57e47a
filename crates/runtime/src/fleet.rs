//! The fleet protocol, written once: snapshot → fan out → settle → absorb.
//!
//! Both batch executors — [`RuntimeExecutor`](crate::RuntimeExecutor)
//! (a unit is a whole query) and `cdb-shard`'s `ShardExecutor` (a unit is
//! one connected component) — run their units through [`run_units`]. The
//! `cdb-sim` oracle keeps the only other copy, deliberately naive, as the
//! reference this one is checked against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cdb_core::ReuseSession;
use cdb_obsv::attr::names;
use cdb_obsv::{kv, Event, SpanId};

use crate::executor::{settled_facts, QueryResult, RuntimeConfig};
use crate::fault::RuntimeError;
use crate::metrics::{MetricsSnapshot, RuntimeMetrics};

/// What running one unit yields: its outcome plus whatever the caller
/// needs to carry back with it (`()` for a whole query, the local →
/// global node map for a component).
pub type UnitRun<T> = (Result<QueryResult, RuntimeError>, T);

/// Run `settle_ids.len()` execution units and feed the reuse cache.
///
/// * **Snapshot.** With [`RuntimeConfig::reuse`] set, every unit gets a
///   private [`ReuseSession`] snapshotted before anything runs, so which
///   thread runs first cannot change what a unit sees.
/// * **Fan out.** `lanes` lists the unit indices of each lane (a shard;
///   one lane for an unsharded fleet) — every unit in exactly one. A lane
///   owns one [`RuntimeMetrics`] collector and `cfg.threads` scoped
///   threads (`0` is clamped to `1`) that pull the lane's units off a
///   shared cursor and call `run(unit, lane metrics, session)`, which
///   materialises and executes the unit. A panic inside `run` lets the
///   other threads drain their lanes and then resurfaces as a panic of
///   this function — never a hang.
/// * **Settle, then absorb**, in unit order, successful units only: the
///   unit's fresh answers go to [`RuntimeConfig::settle`] under
///   `settle_ids[unit]` (one `store.settle` event each) and only then into
///   the shared cache, which every session has released first so the
///   absorbs write it in place. The first (lowest) unit wins any conflicting
///   answer, independent of completion order; a sink failure skips the
///   absorb, never the reverse. Failed units contribute nothing — once an
///   engine latches a fatal error it stops dispatching, so its remaining
///   colors are vote-less defaults, not crowd answers.
///
/// Returns every unit's outcome in unit order, and one metrics snapshot
/// per lane.
pub fn run_units<T, F>(
    cfg: &RuntimeConfig,
    settle_ids: &[u64],
    lanes: &[Vec<usize>],
    run: F,
) -> (Vec<UnitRun<T>>, Vec<MetricsSnapshot>)
where
    T: Send,
    F: Fn(usize, &Arc<RuntimeMetrics>, Option<Arc<Mutex<ReuseSession>>>) -> UnitRun<T> + Sync,
{
    let sessions: Vec<Option<Arc<Mutex<ReuseSession>>>> = settle_ids
        .iter()
        .map(|_| cfg.reuse.as_ref().map(|cache| Arc::new(Mutex::new(cache.snapshot()))))
        .collect();
    let metrics: Vec<Arc<RuntimeMetrics>> =
        lanes.iter().map(|_| Arc::new(RuntimeMetrics::new())).collect();
    let cursors: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let slots: Vec<Mutex<Option<_>>> = settle_ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let (run, sessions, slots) = (&run, &sessions, &slots);
        for ((lane, metrics), cursor) in lanes.iter().zip(&metrics).zip(&cursors) {
            for _ in 0..cfg.threads.max(1).min(lane.len()) {
                scope.spawn(move || {
                    while let Some(&unit) = lane.get(cursor.fetch_add(1, Ordering::SeqCst)) {
                        let out = run(unit, metrics, sessions[unit].clone());
                        *slots[unit].lock().expect("unit slot poisoned") = Some(out);
                    }
                });
            }
        }
    });
    let outcomes: Vec<UnitRun<T>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("unit slot poisoned").expect("every unit reports"))
        .collect();
    // Every session shares the cache's storage; release them all first so
    // the absorbs below write the cache in place.
    for session in sessions.iter().flatten() {
        session.lock().expect("reuse session poisoned").release();
    }
    if let Some(cache) = &cfg.reuse {
        for ((id, session), (result, _)) in settle_ids.iter().zip(&sessions).zip(&outcomes) {
            let (Some(session), Ok(_)) = (session, result) else { continue };
            let session = session.lock().expect("reuse session poisoned");
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
    (outcomes, metrics.iter().map(|m| m.snapshot()).collect())
}
