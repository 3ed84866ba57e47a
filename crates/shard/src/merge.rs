//! The merge layer: reassemble per-component outcomes into per-query
//! results in deterministic component-id order, and fold shard-local
//! metrics into one fleet-wide snapshot.

use std::collections::BTreeSet;

use cdb_core::model::NodeId;
use cdb_runtime::{MetricsSnapshot, QueryResult, RuntimeError};

/// Merge one query's per-component results (already remapped to global
/// node ids), presented in ascending component-id order, into one
/// [`QueryResult`]. Bindings are the disjoint union of the components'
/// answer sets; tasks, assignments and saved tasks are summed. Components
/// run concurrently, so `rounds` and `virtual_ms` are the maximum over
/// components (the slowest one), and the query is cancelled if any
/// component was. Any failed component
/// fails the query with the lowest-component error — answers from the
/// other components would be an incomplete (wrong) answer set.
pub fn merge_query(
    query: u64,
    per_component: &[(usize, &Result<QueryResult, RuntimeError>)],
) -> Result<QueryResult, RuntimeError> {
    debug_assert!(per_component.windows(2).all(|w| w[0].0 < w[1].0), "component order");
    let mut merged = QueryResult {
        query,
        bindings: BTreeSet::new(),
        tasks_asked: 0,
        rounds: 0,
        assignments: 0,
        tasks_saved: 0,
        virtual_ms: 0,
        cancelled: false,
    };
    for (_, r) in per_component {
        let q = r.as_ref().map_err(RuntimeError::clone)?;
        merged.bindings.extend(q.bindings.iter().cloned());
        merged.tasks_asked += q.tasks_asked;
        merged.assignments += q.assignments;
        merged.tasks_saved += q.tasks_saved;
        merged.rounds = merged.rounds.max(q.rounds);
        merged.virtual_ms = merged.virtual_ms.max(q.virtual_ms);
        merged.cancelled |= q.cancelled;
    }
    Ok(merged)
}

/// Remap a component-local binding set to global node ids. The local
/// numbering is a monotone relabeling (see
/// [`component_job`](crate::partition::component_job)), so sorted
/// structures stay sorted.
pub fn remap_bindings(
    local: &BTreeSet<Vec<NodeId>>,
    to_global: &[NodeId],
) -> BTreeSet<Vec<NodeId>> {
    local.iter().map(|b| b.iter().map(|n| to_global[n.0]).collect()).collect()
}

/// Sum an iterator of snapshots.
pub fn sum_snapshots<'a>(snaps: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
    snaps.into_iter().fold(MetricsSnapshot::default(), |mut acc, s| {
        acc.add(s);
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sum_is_fieldwise() {
        let mut a = MetricsSnapshot { tasks_dispatched: 3, ..MetricsSnapshot::default() };
        a.round_latency.record_n(4, 5);
        let mut b = MetricsSnapshot { tasks_dispatched: 4, ..MetricsSnapshot::default() };
        b.round_latency.record(4);
        let s = sum_snapshots([&a, &b]);
        assert_eq!(s.tasks_dispatched, 7);
        assert_eq!(s.round_latency.buckets().collect::<Vec<_>>(), [(4, 6)]);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn remap_preserves_order() {
        let to_global = vec![NodeId(4), NodeId(9), NodeId(17)];
        let mut local = BTreeSet::new();
        local.insert(vec![NodeId(0), NodeId(2)]);
        local.insert(vec![NodeId(1)]);
        let global = remap_bindings(&local, &to_global);
        let got: Vec<Vec<NodeId>> = global.into_iter().collect();
        assert_eq!(got, vec![vec![NodeId(4), NodeId(17)], vec![NodeId(9)]]);
    }
}
