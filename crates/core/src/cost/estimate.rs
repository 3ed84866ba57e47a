//! Pre-execution cost envelopes: what a query *could* cost, before any
//! task is asked.
//!
//! Admission control (`cdb-sched`) needs a bound it can hold against a
//! money/worker-capacity envelope without running the query. The envelope
//! here is deliberately conservative — a sound upper bound, not a
//! prediction: the optimizer's task selection (§5.1) exists precisely to
//! ask far fewer than every edge, and pruning usually collapses the round
//! count well below the serial worst case.

use crate::model::{Color, QueryGraph};

/// A conservative pre-execution cost envelope for one query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Upper bound on crowd tasks: every currently-unknown edge asked once.
    pub tasks_upper: usize,
    /// Upper bound on crowd rounds: fully serial (one task per round).
    /// Latency control (§5.2) batches non-conflicting tasks, so real runs
    /// sit far below this; admission only needs soundness.
    pub rounds_upper: usize,
    /// Upper bound on monetary cost in integer cents:
    /// `tasks_upper × redundancy × task price`.
    pub cost_cents_upper: u64,
}

/// Build the envelope for a query graph.
///
/// `task_price_cents` is the market's per-assignment price (see
/// `cdb_crowd::Market::task_price_cents`); `redundancy` is the assignments
/// per task the executor will request.
pub fn estimate(g: &QueryGraph, redundancy: usize, task_price_cents: u64) -> CostEstimate {
    let tasks_upper = (0..g.edge_count())
        .filter(|&i| g.edge_color(crate::model::EdgeId(i)) == Color::Unknown)
        .count();
    CostEstimate {
        tasks_upper,
        rounds_upper: tasks_upper,
        cost_cents_upper: tasks_upper as u64 * redundancy as u64 * task_price_cents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PartKind;

    fn two_by_two() -> QueryGraph {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let an: Vec<_> = (0..2).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<_> = (0..2).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let p = g.add_predicate(a, b, true, "A~B");
        for &x in &an {
            for &y in &bn {
                g.add_edge(x, y, p, 0.5);
            }
        }
        g
    }

    #[test]
    fn envelope_counts_unknown_edges() {
        let g = two_by_two();
        let est = estimate(&g, 3, 5);
        assert_eq!(est.tasks_upper, 4);
        assert_eq!(est.rounds_upper, 4);
        assert_eq!(est.cost_cents_upper, 4 * 3 * 5);
    }

    #[test]
    fn known_edges_cost_nothing() {
        let mut g = two_by_two();
        g.set_color(crate::model::EdgeId(0), Color::Blue);
        g.set_color(crate::model::EdgeId(1), Color::Red);
        let est = estimate(&g, 3, 5);
        assert_eq!(est.tasks_upper, 2);
    }
}
