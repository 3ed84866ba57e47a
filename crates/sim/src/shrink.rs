//! Failure shrinking: given a scenario that violates an invariant, find a
//! smaller scenario that still does — drop whole queries first, then
//! shrink the surviving queries' tuples, then simplify the environment
//! (fault schedule, budgets, auxiliary workloads).

use crate::check::{check, Sabotage, Violation};
use crate::scenario::{QueryShape, ScenarioSpec};

/// Hard cap on `check` calls one shrink may spend; each call runs the
/// scenario several times, so this bounds shrink latency.
const SHRINK_BUDGET: usize = 120;

/// Greedily minimize `spec` while it keeps violating. Returns the
/// smallest failing spec found and its violations. If `spec` does not
/// actually fail, it is returned unchanged with no violations.
pub fn shrink(spec: &ScenarioSpec, sabotage: Sabotage) -> (ScenarioSpec, Vec<Violation>) {
    let mut cur = spec.clone();
    let mut cur_violations = check(&cur, sabotage);
    if cur_violations.is_empty() {
        return (cur, cur_violations);
    }
    let mut spent = 1usize;
    'outer: loop {
        for cand in candidates(&cur) {
            if spent >= SHRINK_BUDGET {
                break 'outer;
            }
            spent += 1;
            let violations = check(&cand, sabotage);
            if !violations.is_empty() {
                cur = cand;
                cur_violations = violations;
                continue 'outer;
            }
        }
        break; // no candidate still fails: minimal under this ordering
    }
    (cur, cur_violations)
}

/// True when the spec still describes something to run.
fn has_workload(s: &ScenarioSpec) -> bool {
    !s.queries.is_empty() || s.fill_slots > 0 || s.collect.is_some()
}

/// Reduction candidates in shrink priority order: queries, tuples, fault
/// schedule, then everything else. Each is one small step; the greedy
/// loop composes them.
fn candidates(cur: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let mut push = |s: ScenarioSpec| {
        if has_workload(&s) && s != *cur {
            out.push(s);
        }
    };
    // 1. Drop whole queries.
    for i in 0..cur.queries.len() {
        let mut s = cur.clone();
        s.queries.remove(i);
        push(s);
    }
    // 2. Shrink tuples: halve then decrement cluster sides; demote
    //    dataset queries to a minimal cluster join.
    for i in 0..cur.queries.len() {
        match cur.queries[i] {
            QueryShape::Cluster { left, right } => {
                for l in [left / 2, left - 1] {
                    if l >= 1 && l != left {
                        let mut s = cur.clone();
                        s.queries[i] = QueryShape::Cluster { left: l, right };
                        push(s);
                    }
                }
                for r in [right / 2, right - 1] {
                    if r >= 1 && r != right {
                        let mut s = cur.clone();
                        s.queries[i] = QueryShape::Cluster { left, right: r };
                        push(s);
                    }
                }
            }
            QueryShape::Dataset { .. } => {
                let mut s = cur.clone();
                s.queries[i] = QueryShape::Cluster { left: 2, right: 2 };
                push(s);
            }
        }
    }
    // 3. Simplify the fault schedule.
    if !cur.forced_drops.is_empty() {
        let mut s = cur.clone();
        s.forced_drops.clear();
        push(s);
    }
    if cur.fault_rate > 0.0 {
        let mut s = cur.clone();
        s.fault_rate = 0.0;
        push(s);
    }
    if (cur.deadline_ms, cur.max_retries) != (300_000, 8) {
        let mut s = cur.clone();
        s.deadline_ms = 300_000;
        s.max_retries = 8;
        push(s);
    }
    // 4. Simplify the rest of the environment and auxiliary workloads.
    if cur.fill_slots > 0 {
        let mut s = cur.clone();
        s.fill_slots = 0;
        push(s);
    }
    if cur.collect.is_some() {
        let mut s = cur.clone();
        s.collect = None;
        push(s);
    }
    if cur.budget.is_some() {
        let mut s = cur.clone();
        s.budget = None;
        push(s);
    }
    if cur.reuse {
        let mut s = cur.clone();
        s.reuse = false;
        push(s);
    }
    if cur.threads > 1 {
        let mut s = cur.clone();
        s.threads = 1;
        push(s);
    }
    if cur.shard_count > 1 {
        let mut s = cur.clone();
        s.shard_count = 1;
        push(s);
    }
    if cur.workers > 5 {
        let mut s = cur.clone();
        s.workers = (cur.workers / 2).max(5);
        s.forced_drops.retain(|&(w, _)| (w as usize) < s.workers);
        push(s);
    }
    out
}
