//! The hot-path phase profiler: wall-clock, self-time-attributed,
//! thread-local, and strictly outside the deterministic event streams.
//!
//! # Two time domains
//!
//! Everything in [`crate::event`] runs on *virtual* time (round ordinals,
//! simulated ms) and must stay byte-identical across thread counts — so
//! wall-clock timings can never ride those streams. The profiler is the
//! other domain: real nanoseconds, collected entirely on the side, with
//! its own exports (self-time report, Chrome trace with real
//! timestamps): wall-clock facts are kept out of deterministic query
//! streams.
//!
//! # How instrumentation works
//!
//! Hot functions deep in `cdb-core` / `cdb-graph` / `cdb-store` call
//! [`phase`] without any profiler threading through their signatures:
//!
//! ```
//! use cdb_obsv::profile::{self, phases};
//! fn select_tasks() {
//!     let _ph = profile::phase(phases::TASK_SELECT);
//!     // ... work; nested `phase()` calls become children ...
//! }
//! ```
//!
//! When no profiler is installed on the current thread this is a single
//! thread-local flag check — cheap enough for per-call instrumentation of
//! functions invoked tens of thousands of times per round. A harness opts
//! in by installing a profiler for a scope:
//!
//! ```
//! use std::sync::Arc;
//! use cdb_obsv::profile::{self, Profiler};
//! let prof = Arc::new(Profiler::new());
//! {
//!     let _guard = profile::install(Arc::clone(&prof));
//!     select_tasks(); // phases now recorded
//! }
//! # fn select_tasks() { let _p = profile::phase("task.select"); }
//! println!("{}", prof.report().text());
//! ```
//!
//! # Attribution
//!
//! Phases form a tree keyed by call path (`task.select` →
//! `select.expectation` → `select.cascade`). On every exit the profiler
//! records the phase's *total* time and its *self* time — total minus the
//! sum of its direct children's totals, computed exactly from the
//! thread-local stack. Self times over a subtree therefore sum to the
//! subtree root's total by construction; the conservation tests pin this.
//! Per-phase durations additionally feed a deterministic [`Hist`] for
//! bounded-error percentiles.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{KvList, Value};
use crate::hist::Hist;
use crate::json::{JsonArray, JsonObject};

/// Phase names used across the stack. One flat namespace: dots group
/// phases for humans, the profiler's tree structure comes from actual
/// call nesting, not from the names.
pub mod phases {
    /// Query-graph construction (`cdb-core::build`).
    pub const GRAPH_BUILD: &str = "graph.build";
    /// Similarity join over one crowd predicate during graph build.
    pub const SIMILARITY_JOIN: &str = "similarity.join";
    /// One round of crowd task selection (the optimizer hot path).
    pub const TASK_SELECT: &str = "task.select";
    /// Expectation computation over open edges (`expectation_order`).
    pub const SELECT_EXPECTATION: &str = "select.expectation";
    /// Death-cascade simulation inside one expectation (`bundle_effect`).
    pub const SELECT_CASCADE: &str = "select.cascade";
    /// Conflict-aware candidate batching (`parallel_round`).
    pub const SELECT_CANDIDATES: &str = "select.candidates";
    /// Min-cut sampling order (`mincut_sampling_order`).
    pub const SELECT_MINCUT: &str = "select.mincut";
    /// One Dinic max-flow run inside min-cut sampling (`cdb-graph`).
    pub const SELECT_MAXFLOW: &str = "select.maxflow";
    /// Reuse-cache entailment sweep over open edges before a round.
    pub const ENTAIL_RESOLVE: &str = "entail.resolve";
    /// Dispatching one round's tasks to the crowd platform.
    pub const ROUND_DISPATCH: &str = "round.dispatch";
    /// Vote aggregation + truth inference after a round returns.
    pub const QUALITY_INFER: &str = "quality.infer";
    /// Graph pruning (arc consistency + candidate membership).
    pub const PRUNE: &str = "prune";
    /// One WAL fsync (`cdb-store`).
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// Answer-log replay into the reuse cache on open (`cdb-store`).
    pub const REUSE_REPLAY: &str = "reuse.replay";
}

const ROOT: u32 = 0;

/// One node of the phase tree (a unique call path).
#[derive(Debug)]
struct Node {
    parent: u32,
    name: &'static str,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    hist: Hist,
}

/// One recorded phase interval (only kept when event recording is on).
#[derive(Debug, Clone, Copy)]
struct PhaseEvent {
    node: u32,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    kv: KvList,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Node>,
    index: HashMap<(u32, &'static str), u32>,
    events: Vec<PhaseEvent>,
}

/// A shared phase profiler. Threads opt in with [`install`]; every
/// installed thread's [`phase`] guards record into this one tree.
#[derive(Debug)]
pub struct Profiler {
    start: Instant,
    inner: Mutex<Inner>,
    event_cap: usize,
    events_dropped: AtomicU64,
    next_tid: AtomicU64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A profiler that aggregates per-phase statistics only (no interval
    /// events — the cheap mode for benchmark sweeps).
    pub fn new() -> Profiler {
        Profiler::with_event_cap(0)
    }

    /// A profiler that additionally keeps up to `cap` raw phase intervals
    /// for Chrome-trace export; intervals past the cap are counted in
    /// [`Profiler::events_dropped`], never blocking.
    pub fn with_event_cap(cap: usize) -> Profiler {
        Profiler {
            start: Instant::now(),
            inner: Mutex::new(Inner {
                nodes: vec![Node {
                    parent: ROOT,
                    name: "",
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    hist: Hist::new(),
                }],
                index: HashMap::new(),
                events: Vec::new(),
            }),
            event_cap: cap,
            events_dropped: AtomicU64::new(0),
            next_tid: AtomicU64::new(0),
        }
    }

    /// Phase intervals discarded because the event cap was reached.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }

    fn intern(&self, parent: u32, name: &'static str) -> u32 {
        let mut inner = self.inner.lock().expect("profiler poisoned");
        if let Some(&id) = inner.index.get(&(parent, name)) {
            return id;
        }
        let id = inner.nodes.len() as u32;
        inner.nodes.push(Node {
            parent,
            name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            hist: Hist::new(),
        });
        inner.index.insert((parent, name), id);
        id
    }

    fn exit(&self, node: u32, total_ns: u64, self_ns: u64, start_ns: u64, tid: u64, kv: &KvList) {
        let mut inner = self.inner.lock().expect("profiler poisoned");
        let n = &mut inner.nodes[node as usize];
        n.count += 1;
        n.total_ns += total_ns;
        n.self_ns += self_ns;
        n.hist.record(total_ns);
        if self.event_cap > 0 {
            if inner.events.len() < self.event_cap {
                inner.events.push(PhaseEvent { node, tid, start_ns, dur_ns: total_ns, kv: *kv });
            } else {
                self.events_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the phase tree into a report (sorted in tree order).
    pub fn report(&self) -> ProfileReport {
        let inner = self.inner.lock().expect("profiler poisoned");
        // Children of each node, in first-seen (id) order.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); inner.nodes.len()];
        for (id, n) in inner.nodes.iter().enumerate().skip(1) {
            children[n.parent as usize].push(id as u32);
        }
        let mut entries = Vec::new();
        let mut stack: Vec<(u32, usize, String)> =
            children[ROOT as usize].iter().rev().map(|&c| (c, 0, String::new())).collect();
        while let Some((id, depth, prefix)) = stack.pop() {
            let n = &inner.nodes[id as usize];
            let path =
                if prefix.is_empty() { n.name.to_string() } else { format!("{prefix};{}", n.name) };
            for &c in children[id as usize].iter().rev() {
                stack.push((c, depth + 1, path.clone()));
            }
            entries.push(PhaseEntry {
                path,
                name: n.name,
                depth,
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                hist: n.hist.clone(),
            });
        }
        ProfileReport { entries }
    }

    /// Export recorded phase intervals as Chrome `trace_event` JSON with
    /// *real* (wall-clock) microsecond timestamps. Because every child
    /// interval is strictly contained in its parent's on the same thread
    /// track, Perfetto renders sub-phases nested under `task.select`
    /// rather than as siblings — unlike the virtual-time exporter, where
    /// same-round spans share one timestamp. Events carry their phase
    /// args (candidate counts, cut sizes, round index).
    pub fn chrome_trace(&self) -> String {
        let inner = self.inner.lock().expect("profiler poisoned");
        let mut evs: Vec<&PhaseEvent> = inner.events.iter().collect();
        // Parent intervals before their children: earlier start first,
        // longer duration breaks start ties.
        evs.sort_by(|a, b| {
            (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
                b.tid,
                b.start_ns,
                std::cmp::Reverse(b.dur_ns),
            ))
        });
        let mut arr = JsonArray::new();
        let meta = JsonObject::new()
            .str("name", "process_name")
            .str("ph", "M")
            .u64("pid", 0)
            .raw("args", &JsonObject::new().str("name", "cdb profile (wall clock)").finish());
        arr = arr.raw(&meta.finish());
        for e in evs {
            let o = JsonObject::new()
                .str("name", inner.nodes[e.node as usize].name)
                .str("cat", "phase")
                .str("ph", "X")
                .f64("ts", e.start_ns as f64 / 1000.0)
                .f64("dur", e.dur_ns as f64 / 1000.0)
                .u64("pid", 0)
                .u64("tid", e.tid)
                .raw("args", &e.kv.args_json());
            arr = arr.raw(&o.finish());
        }
        JsonObject::new().raw("traceEvents", &arr.finish()).finish()
    }
}

/// One phase call path with its aggregated timings.
#[derive(Debug, Clone)]
pub struct PhaseEntry {
    /// Semicolon-joined call path, e.g. `task.select;select.expectation`.
    pub path: String,
    /// Leaf phase name.
    pub name: &'static str,
    /// Nesting depth (0 = top-level phase).
    pub depth: usize,
    /// Number of times this path was entered.
    pub count: u64,
    /// Total wall nanoseconds spent in this path (children included).
    pub total_ns: u64,
    /// Self wall nanoseconds: total minus direct children's totals.
    pub self_ns: u64,
    /// Per-call duration histogram (nanoseconds).
    pub hist: Hist,
}

/// A snapshot of the phase tree, in depth-first tree order.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The phases, parents before children.
    pub entries: Vec<PhaseEntry>,
}

impl ProfileReport {
    /// Total nanoseconds across top-level phases (the profiled wall time).
    pub fn root_total_ns(&self) -> u64 {
        self.entries.iter().filter(|e| e.depth == 0).map(|e| e.total_ns).sum()
    }

    /// Sum of self times across all phases. Equal to
    /// [`ProfileReport::root_total_ns`] by construction — the conservation
    /// invariant the tests assert.
    pub fn self_total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.self_ns).sum()
    }

    /// The entry for a call path, if recorded.
    pub fn get(&self, path: &str) -> Option<&PhaseEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// Human-readable self-time profile, one line per call path.
    pub fn text(&self) -> String {
        let mut s = String::from("  total_ms    self_ms      calls  p99_us  phase\n");
        for e in &self.entries {
            s.push_str(&format!(
                "{:>10.3} {:>10.3} {:>10}  {:>6}  {}{}\n",
                e.total_ns as f64 / 1e6,
                e.self_ns as f64 / 1e6,
                e.count,
                e.hist.percentile(0.99) / 1000,
                "  ".repeat(e.depth),
                e.name,
            ));
        }
        s
    }
}

struct ThreadState {
    profiler: Arc<Profiler>,
    tid: u64,
    stack: Vec<Frame>,
}

struct Frame {
    node: u32,
    start: Instant,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Install `profiler` as this thread's recorder for the guard's lifetime.
/// Nested installs stack (the previous profiler is restored on drop).
pub fn install(profiler: Arc<Profiler>) -> InstallGuard {
    let tid = profiler.next_tid.fetch_add(1, Ordering::Relaxed);
    let prev =
        STATE.with(|s| s.borrow_mut().replace(ThreadState { profiler, tid, stack: Vec::new() }));
    ACTIVE.with(|a| a.set(true));
    InstallGuard { prev: Some(prev), _not_send: PhantomData }
}

/// Scope guard for [`install`]; restores the previous profiler (or none)
/// on drop. `!Send` — an installation belongs to one thread.
pub struct InstallGuard {
    // Double-Option: outer None after drop, inner is the restored state.
    prev: Option<Option<ThreadState>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take().unwrap_or(None);
        ACTIVE.with(|a| a.set(prev.is_some()));
        STATE.with(|s| *s.borrow_mut() = prev);
    }
}

/// Enter a phase. Returns a guard that records the phase's duration into
/// the installed profiler when dropped; a cheap no-op when no profiler is
/// installed on this thread. Nested calls build the phase tree.
pub fn phase(name: &'static str) -> PhaseGuard {
    if !ACTIVE.with(|a| a.get()) {
        return PhaseGuard { armed: false, kv: KvList::new(), _not_send: PhantomData };
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let st = st.as_mut().expect("ACTIVE implies installed state");
        let parent = st.stack.last().map(|f| f.node).unwrap_or(ROOT);
        let node = st.profiler.intern(parent, name);
        let now = Instant::now();
        let start_ns = now.duration_since(st.profiler.start).as_nanos() as u64;
        st.stack.push(Frame { node, start: now, start_ns, child_ns: 0 });
    });
    PhaseGuard { armed: true, kv: KvList::new(), _not_send: PhantomData }
}

/// RAII guard for one phase interval; see [`phase`].
pub struct PhaseGuard {
    armed: bool,
    kv: KvList,
    _not_send: PhantomData<*const ()>,
}

impl PhaseGuard {
    /// Attach a key/value argument to this interval (surfaced in the
    /// Chrome-trace `args`, e.g. candidate counts or cut sizes). No-op
    /// when profiling is off; silently dropped past [`crate::MAX_KV`].
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.armed {
            self.kv.push(key, value.into());
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            let Some(st) = st.as_mut() else { return };
            let Some(frame) = st.stack.pop() else { return };
            let total_ns = frame.start.elapsed().as_nanos() as u64;
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = st.stack.last_mut() {
                parent.child_ns += total_ns;
            }
            st.profiler.exit(frame.node, total_ns, self_ns, frame.start_ns, st.tid, &self.kv);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv;

    fn spin_ns(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn no_profiler_means_no_op() {
        let mut g = phase("task.select");
        g.set("n", 3u64);
        drop(g);
        // Nothing to assert beyond "does not panic / allocate state":
        assert!(!ACTIVE.with(|a| a.get()));
    }

    #[test]
    fn nesting_builds_the_tree_and_self_times_conserve() {
        let prof = Arc::new(Profiler::new());
        {
            let _i = install(Arc::clone(&prof));
            let _outer = phase(phases::TASK_SELECT);
            {
                let _inner = phase(phases::SELECT_EXPECTATION);
                {
                    let _leaf = phase(phases::SELECT_CASCADE);
                    spin_ns(200_000);
                }
                spin_ns(100_000);
            }
            {
                let _inner = phase(phases::SELECT_CANDIDATES);
                spin_ns(100_000);
            }
            spin_ns(50_000);
        }
        let r = prof.report();
        let paths: Vec<&str> = r.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "task.select",
                "task.select;select.expectation",
                "task.select;select.expectation;select.cascade",
                "task.select;select.candidates",
            ]
        );
        // Exact conservation: self times sum to the root total.
        assert_eq!(r.self_total_ns(), r.root_total_ns());
        let outer = r.get("task.select").unwrap();
        let exp = r.get("task.select;select.expectation").unwrap();
        assert!(outer.total_ns >= exp.total_ns);
        assert!(exp.self_ns < exp.total_ns, "cascade time must not count as expectation self");
        assert_eq!(outer.depth, 0);
        assert_eq!(exp.depth, 1);
    }

    #[test]
    fn install_scopes_stack_and_restore() {
        let a = Arc::new(Profiler::new());
        let b = Arc::new(Profiler::new());
        {
            let _ga = install(Arc::clone(&a));
            {
                let _gb = install(Arc::clone(&b));
                let _p = phase("prune");
            }
            let _p = phase("graph.build");
        }
        assert!(!ACTIVE.with(|x| x.get()));
        assert!(a.report().get("graph.build").is_some());
        assert!(a.report().get("prune").is_none());
        assert!(b.report().get("prune").is_some());
    }

    #[test]
    fn sibling_repeats_merge_into_one_path() {
        let prof = Arc::new(Profiler::new());
        {
            let _i = install(Arc::clone(&prof));
            for _ in 0..10 {
                let _p = phase(phases::PRUNE);
            }
        }
        let r = prof.report();
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].count, 10);
        assert_eq!(r.entries[0].hist.count(), 10);
    }

    #[test]
    fn text_report_indents_each_path_by_depth() {
        let prof = Arc::new(Profiler::new());
        {
            let _i = install(Arc::clone(&prof));
            let _o = phase(phases::TASK_SELECT);
            let _n = phase(phases::SELECT_MINCUT);
        }
        let text = prof.report().text();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 2, "{text}");
        assert!(rows[0].ends_with("  task.select"), "{text}");
        assert!(rows[1].ends_with("    select.mincut"), "{text}");
    }

    #[test]
    fn chrome_trace_nests_by_real_timestamps_and_carries_args() {
        let prof = Arc::new(Profiler::with_event_cap(16));
        {
            let _i = install(Arc::clone(&prof));
            let mut outer = phase(phases::TASK_SELECT);
            outer.set("round", 3u64);
            {
                let mut inner = phase(phases::SELECT_MINCUT);
                inner.set("cut", 7u64);
                spin_ns(50_000);
            }
        }
        let trace = prof.chrome_trace();
        crate::json::parse(&trace).unwrap();
        assert!(trace.contains("\"round\":3"));
        assert!(trace.contains("\"cut\":7"));
        // Parent is emitted before its contained child despite exiting
        // later (events are recorded at exit time).
        let parent = trace.find("task.select").unwrap();
        let child = trace.find("select.mincut").unwrap();
        assert!(parent < child, "parent interval must sort before its child");
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let prof = Arc::new(Profiler::with_event_cap(2));
        {
            let _i = install(Arc::clone(&prof));
            for _ in 0..5 {
                let _p = phase(phases::WAL_FSYNC);
            }
        }
        assert_eq!(prof.events_dropped(), 3);
        assert_eq!(prof.report().get("wal.fsync").unwrap().count, 5);
    }

    #[test]
    fn threads_record_into_one_tree() {
        let prof = Arc::new(Profiler::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&prof);
            handles.push(std::thread::spawn(move || {
                let _i = install(p);
                let _ph = phase(phases::ROUND_DISPATCH);
                spin_ns(10_000);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = prof.report();
        assert_eq!(r.get("round.dispatch").unwrap().count, 4);
    }

    #[test]
    fn kv_macro_values_fit_guard_args() {
        // `set` takes the same Value conversions the kv! macro produces.
        let list = kv![n => 4u64, ok => true];
        assert_eq!(list.len(), 2);
    }
}
