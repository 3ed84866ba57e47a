//! The crowdsourced entity-resolution comparator: `Trans` (Wang et al.
//! \[57]).
//!
//! It processes one join predicate at a time (ordered cost-based by the
//! number of non-pruned pairs, as in §6.1) and resolves the pairs of each
//! predicate over multiple rounds, in descending similarity order.
//! Transitivity infers both positives (same cluster) and negatives
//! (cluster pair already refuted), so it asks the fewest questions — but
//! one wrong answer propagates to many pairs, which is exactly the quality
//! loss the paper reports. The clusters are a [`cdb_graph::EntailmentGraph`],
//! the closure reuse and `GROUP BY CROWD` run on: a refutation follows its
//! clusters through later merges, and an answer that contradicts the
//! closure is rejected rather than merged.
//!
//! The paper's second ER comparator, ACD (Wang et al. \[58]), verifies
//! refuted cluster pairs at the cluster level. That verification is not
//! modelled, so ACD would skip a refuted cluster pair exactly as Trans
//! does; its column is folded into Trans (DESIGN.md, deviation 5).
//!
//! Latency: each round asks all pairs whose endpoint clusters are pairwise
//! disjoint (answers within a round cannot infer each other), so ER takes
//! several rounds per join — the ~5x latency the paper observes.

use std::collections::{BTreeMap, HashMap, HashSet};

use cdb_core::model::{EdgeId, NodeId, QueryGraph};
use cdb_core::SimCrowd;
use cdb_crowd::{Question, TaskId};
use cdb_graph::{Entailment, EntailmentGraph};

use crate::tree::{
    consistent_edges, join_survivors, make_connected, survivor_answers, Partials, TreeStats,
};
use crate::{ask_majority, edge_question, live_edges_per_predicate, verdicts};

/// Run Trans over a query graph.
pub fn run_er(g: &QueryGraph, crowd: &mut SimCrowd, redundancy: usize) -> TreeStats {
    run_er_constrained(g, crowd, redundancy, None)
}

/// [`run_er`] with a latency constraint (Figure 22): ER rounds run
/// normally until only one permitted round remains; then every pair that
/// might still be needed — the unresolved pairs of the current predicate
/// plus the survivor-consistent pairs of every later predicate — is
/// crowdsourced at once, with no further inference.
pub fn run_er_constrained(
    g: &QueryGraph,
    crowd: &mut SimCrowd,
    redundancy: usize,
    max_rounds: Option<usize>,
) -> TreeStats {
    // Cost-based predicate order: fewest live edges first, repaired into
    // a connected expansion.
    let per_pred = live_edges_per_predicate(g);
    let mut connected: Vec<usize> = (0..g.predicate_count()).collect();
    connected.sort_by_key(|&i| per_pred[i].len());
    make_connected(g, &mut connected);

    let mut tasks_asked = 0usize;
    let mut rounds = 0usize;
    let mut flushed = false;
    let mut flush_resolved: HashMap<EdgeId, bool> = HashMap::new();
    let mut blue: HashSet<EdgeId> = HashSet::new();
    // Edges Blue by construction (traditional predicates).
    for i in 0..g.edge_count() {
        let e = EdgeId(i);
        if g.edge_color(e) == cdb_core::Color::Blue {
            blue.insert(e);
        }
    }
    let mut survivors: Option<Partials> = None;

    for &pi in &connected {
        // Edges of this predicate consistent with survivors.
        let askable = consistent_edges(g, &survivors, &per_pred[pi]);

        if flushed {
            // Everything was resolved in the flush round: read the results.
            blue.extend(askable.iter().copied().filter(|e| {
                g.edge_color(*e) == cdb_core::Color::Blue
                    || flush_resolved.get(e).copied().unwrap_or(false)
            }));
        } else {
            let rounds_left = max_rounds.map(|r| r.saturating_sub(rounds));
            let more_later = pi != *connected.last().expect("non-empty");
            let (asked, rs, blue_edges, exhausted) =
                resolve_predicate(g, crowd, redundancy, &askable, rounds_left, more_later);
            tasks_asked += asked;
            rounds += rs;
            blue.extend(blue_edges);
            if exhausted {
                // Final permitted round: flush every later predicate's
                // survivor-consistent pairs together with what resolve just
                // asked (resolve already asked its own remainder).
                let idx = connected.iter().position(|&x| x == pi).expect("present");
                let mut union: Vec<EdgeId> = Vec::new();
                for &pj in &connected[idx + 1..] {
                    union.extend(
                        per_pred[pj]
                            .iter()
                            .copied()
                            .filter(|&e| g.edge_color(e) == cdb_core::Color::Unknown),
                    );
                }
                union.sort_unstable();
                union.dedup();
                if !union.is_empty() {
                    let questions: Vec<Question> =
                        union.iter().map(|&e| edge_question(g, e)).collect();
                    // The flush shares the final round with resolve's last
                    // batch conceptually; we bill it as the same round and
                    // only count the extra tasks.
                    let verdicts = ask_majority(crowd, &questions, redundancy);
                    tasks_asked += union.len();
                    flush_resolved.extend(union.iter().copied().zip(verdicts));
                }
                flushed = true;
            }
        }

        let blue_edges: Vec<EdgeId> = askable.into_iter().filter(|e| blue.contains(e)).collect();
        survivors = Some(join_survivors(g, survivors.take(), pi, &blue_edges));
    }
    TreeStats { tasks_asked, rounds, answers: survivor_answers(g, &survivors) }
}

/// Resolve one predicate's pairs with transitive inference. Returns
/// `(tasks asked, rounds, blue edges, budget exhausted)`. `rounds_left`
/// caps the rounds this call may use; on its last permitted round (or
/// earlier, when `more_later` demands the final round be shared with later
/// predicates) it asks all remaining pairs at once without inference.
fn resolve_predicate(
    g: &QueryGraph,
    crowd: &mut SimCrowd,
    redundancy: usize,
    edges: &[EdgeId],
    rounds_left: Option<usize>,
    more_later: bool,
) -> (usize, usize, Vec<EdgeId>, bool) {
    // Phase 1 — intra-column dedup (the "entity resolution" part of
    // Trans): likely-duplicate same-part value pairs are crowdsourced
    // so that transitivity can infer cross pairs. A pair (x, y) of one
    // part is a dedup candidate when x and y connect to a common tuple
    // with high weight on both edges; it asks "do x and y refer to the
    // same value", which the crowd answers by those two edges.
    let mut intra: Vec<(NodeId, NodeId, f64, EdgeId, EdgeId)> = Vec::new();
    {
        // Node order, not hash order: the first shared neighbour a pair is
        // met through fixes its weight and its two edges.
        let mut by_node: BTreeMap<NodeId, Vec<EdgeId>> = BTreeMap::new();
        for &e in edges {
            let (u, v) = g.edge_endpoints(e);
            by_node.entry(u).or_default().push(e);
            by_node.entry(v).or_default().push(e);
        }
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        for (&z, zes) in &by_node {
            // All pairs of z's neighbors on the other side.
            for (i, &e1) in zes.iter().enumerate() {
                for &e2 in &zes[i + 1..] {
                    let x = g.other_endpoint(e1, z);
                    let y = g.other_endpoint(e2, z);
                    if g.node_part(x) != g.node_part(y) || x == y {
                        continue;
                    }
                    let key = if x < y { (x, y) } else { (y, x) };
                    if !seen.insert(key) {
                        continue;
                    }
                    let w = g.edge_weight(e1).min(g.edge_weight(e2));
                    if w < 0.6 {
                        continue; // only likely duplicates are dedup-worthy
                    }
                    intra.push((key.0, key.1, w, e1, e2));
                }
            }
        }
        intra.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    }

    // Order cross pairs by similarity descending.
    let mut todo: Vec<EdgeId> =
        edges.iter().copied().filter(|&e| g.edge_color(e) == cdb_core::Color::Unknown).collect();
    let pre_blue: Vec<EdgeId> =
        edges.iter().copied().filter(|&e| g.edge_color(e) == cdb_core::Color::Blue).collect();
    todo.sort_by(|&a, &b| g.edge_weight(b).total_cmp(&g.edge_weight(a)).then(a.cmp(&b)));

    // Clusters over all nodes touched by this predicate.
    let mut clusters = EntailmentGraph::new(g.node_count());
    let mut blue: Vec<EdgeId> = pre_blue;
    let mut tasks_asked = 0usize;
    let mut rounds = 0usize;

    // Crowdsource the dedup pairs (batched; ~10 per round like the HITs).
    let mut synthetic_id = 1u64 << 32; // ids above any edge id
    for chunk in intra.chunks(16) {
        if rounds_left.is_some_and(|r| rounds + 1 >= r) {
            break; // save the remaining rounds for the join pairs
        }
        let pairs: Vec<(Question, EdgeId, EdgeId)> = chunk
            .iter()
            .map(|&(_, _, w, e1, e2)| {
                synthetic_id += 1;
                let q = Question {
                    id: TaskId(synthetic_id),
                    difficulty: cdb_crowd::join_difficulty(w),
                };
                (q, e1, e2)
            })
            .collect();
        let answers = crowd.ask_pairs(&pairs, redundancy);
        let verdicts = verdicts(answers, pairs.iter().map(|p| p.0.id));
        tasks_asked += chunk.len();
        rounds += 1;
        for (&(x, y, ..), yes) in chunk.iter().zip(verdicts) {
            if yes {
                clusters.assert_same(x.0, y.0);
            } else {
                clusters.assert_different(x.0, y.0);
            }
        }
    }

    let mut remaining: Vec<EdgeId> = todo;
    let mut exhausted = false;
    while !remaining.is_empty() {
        // Latency constraint: on the final permitted round, ask everything
        // still unresolved at once (no inter-round inference).
        let final_round = rounds_left.is_some_and(|r| {
            let used = rounds;
            r.saturating_sub(used) <= 1
        });
        // Inference pass: resolve pairs decided by clustering.
        let mut next_remaining = Vec::new();
        let mut batch: Vec<EdgeId> = Vec::new();
        // Two pairs can share a round unless they connect the same cluster
        // pair (then one answer would infer the other) or chain through a
        // shared cluster (a merge could connect the other pair's clusters).
        let mut batch_pairs: HashSet<(usize, usize)> = HashSet::new();
        let mut batch_load: HashMap<usize, usize> = HashMap::new();
        for &e in &remaining {
            let (u, v) = g.edge_endpoints(e);
            match clusters.entails(u.0, v.0) {
                // Same cluster: inferred positive.
                Entailment::Same { .. } => {
                    blue.push(e);
                    continue;
                }
                // Refuted cluster pair: inferred negative.
                Entailment::Different { .. } => continue,
                Entailment::Unknown => {}
            }
            let (cu, cv) = (clusters.root(u.0), clusters.root(v.0));
            // Can it join this round? A pair may share a round with others
            // as long as no cluster is touched twice (a merge in this round
            // could otherwise make another pair of this round inferable) —
            // except on a forced final round, which asks everything.
            // Relaxation: pairs that merely share ONE cluster cannot infer
            // each other directly, so we allow up to `CLUSTER_FANOUT`
            // same-cluster pairs per round; this matches the moderate
            // round counts the paper reports for ER methods.
            const CLUSTER_FANOUT: usize = 2;
            let cu_load = batch_load.get(&cu).copied().unwrap_or(0);
            let cv_load = batch_load.get(&cv).copied().unwrap_or(0);
            if !final_round
                && (batch_pairs.contains(&key(cu, cv))
                    || cu_load >= CLUSTER_FANOUT
                    || cv_load >= CLUSTER_FANOUT)
            {
                next_remaining.push(e);
                continue;
            }
            batch_pairs.insert(key(cu, cv));
            *batch_load.entry(cu).or_insert(0) += 1;
            *batch_load.entry(cv).or_insert(0) += 1;
            batch.push(e);
        }
        if batch.is_empty() {
            break;
        }
        // Ask the batch.
        let questions: Vec<Question> = batch.iter().map(|&e| edge_question(g, e)).collect();
        let verdicts = ask_majority(crowd, &questions, redundancy);
        tasks_asked += batch.len();
        rounds += 1;
        for (&e, yes) in batch.iter().zip(verdicts) {
            let (u, v) = g.edge_endpoints(e);
            if yes {
                blue.push(e);
                clusters.assert_same(u.0, v.0);
            } else {
                clusters.assert_different(u.0, v.0);
            }
        }
        remaining = next_remaining;
        if final_round {
            exhausted = true;
            break;
        }
    }
    // The budget is also exhausted when the caller needs the final round
    // for later predicates and we just consumed it.
    if let Some(r) = rounds_left {
        if more_later && rounds >= r.saturating_sub(1) {
            exhausted = true;
        }
    }
    (tasks_asked, rounds, blue, exhausted)
}

fn key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::model::{PartId, PartKind};
    use cdb_core::EdgeTruth;
    use cdb_crowd::{Market, SimulatedPlatform, WorkerPool};

    /// Bipartite join with transitive structure: a0 ~ b0 ~ a1 (a0, a1 both
    /// match b0) plus unrelated pairs.
    fn fixture() -> (QueryGraph, EdgeTruth) {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let an: Vec<_> = (0..3).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<_> = (0..3).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let p = g.add_predicate(a, b, true, "A~B");
        let mut truth = EdgeTruth::new();
        for (i, &x) in an.iter().enumerate() {
            for (j, &y) in bn.iter().enumerate() {
                let e = g.add_edge(x, y, p, 0.4 + 0.05 * (i + j) as f64);
                // a0,a1 both match b0; a2 matches b2.
                let t = (j == 0 && i <= 1) || (i == 2 && j == 2);
                truth.insert(e, t);
            }
        }
        (g, truth)
    }

    fn platform(acc: f64, seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[acc; 15]), seed)
    }

    #[test]
    fn trans_finds_true_matches_with_perfect_workers() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 1);
        let stats = run_er(&g, &mut SimCrowd::new(&mut p, &truth), 5);
        assert_eq!(stats.answers.len(), 3);
        // All true pairs found.
        let found = stats.answer_bindings();
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn trans_asks_fewer_than_all_pairs() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 2);
        let stats = run_er(&g, &mut SimCrowd::new(&mut p, &truth), 5);
        assert!(stats.tasks_asked < g.edge_count(), "{}", stats.tasks_asked);
    }

    #[test]
    fn er_takes_multiple_rounds() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 3);
        let stats = run_er(&g, &mut SimCrowd::new(&mut p, &truth), 5);
        assert!(stats.rounds >= 2, "{}", stats.rounds);
    }

    #[test]
    fn constrained_er_respects_round_budget() {
        let (g, truth) = fixture();
        for r in 1..=3usize {
            let mut p = platform(1.0, 10 + r as u64);
            let stats = run_er_constrained(&g, &mut SimCrowd::new(&mut p, &truth), 5, Some(r));
            assert!(stats.rounds <= r + 1, "requested {r} rounds, used {}", stats.rounds);
        }
    }

    #[test]
    fn constrained_er_with_loose_budget_matches_free_run() {
        let (g, truth) = fixture();
        let mut p1 = platform(1.0, 11);
        let free = run_er(&g, &mut SimCrowd::new(&mut p1, &truth), 5);
        let mut p2 = platform(1.0, 11);
        let constrained = run_er_constrained(&g, &mut SimCrowd::new(&mut p2, &truth), 5, Some(100));
        assert_eq!(free.tasks_asked, constrained.tasks_asked);
        assert_eq!(free.answers.len(), constrained.answers.len());
    }

    #[test]
    fn constrained_er_still_finds_answers_at_r1() {
        let (g, truth) = fixture();
        let mut p = platform(1.0, 12);
        let stats = run_er_constrained(&g, &mut SimCrowd::new(&mut p, &truth), 5, Some(1));
        assert_eq!(stats.answers.len(), 3, "flushing everything still resolves the query");
    }

    /// Two chained joins whose dedup pairs are reachable through several
    /// shared neighbours, each with its own weight and truth. Which
    /// neighbour a pair is first met through must not depend on hash
    /// order, or repeated runs in one process disagree.
    #[test]
    fn repeated_runs_in_one_process_are_identical() {
        let mut g = QueryGraph::new();
        let parts: Vec<PartId> =
            ["A", "B", "C"].map(|name| g.add_part(PartKind::Table { name: name.into() })).to_vec();
        let nodes: Vec<Vec<NodeId>> = parts
            .iter()
            .zip([8, 8, 4])
            .map(|(&p, n)| (0..n).map(|i| g.add_node(p, None, format!("{p:?}{i}"))).collect())
            .collect();
        let mut truth = EdgeTruth::new();
        let mut lcg = 7u64;
        for (l, r) in [(0, 1), (1, 2)] {
            let p = g.add_predicate(parts[l], parts[r], true, "~");
            for (i, &x) in nodes[l].iter().enumerate() {
                for (j, &y) in nodes[r].iter().enumerate() {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let w = 0.3 + 0.7 * (lcg >> 11) as f64 / (1u64 << 53) as f64;
                    truth.insert(g.add_edge(x, y, p, w), i % 3 == j % 3);
                }
            }
        }
        let run = || {
            let stats = run_er(&g, &mut SimCrowd::new(&mut platform(0.8, 9), &truth), 5);
            (stats.tasks_asked, stats.rounds, stats.answer_bindings())
        };
        let first = run();
        for _ in 1..8 {
            assert_eq!(run(), first);
        }
    }

    /// `a0 ≠ b0` is answered, then `a1 = b0` and `a1 = b1` move `b0`'s
    /// cluster under a new root. The refutation must follow the cluster, so
    /// `(a0, b1)` is inferred, not asked: four tasks in one round. A
    /// refutation keyed by the roots it was answered under goes stale here
    /// and asks a fifth task in a second round.
    #[test]
    fn a_refutation_survives_a_merge_that_re_roots_its_cluster() {
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let an: Vec<_> = (0..2).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
        let bn: Vec<_> = (0..3).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
        let p = g.add_predicate(a, b, true, "A~B");
        let mut truth = EdgeTruth::new();
        // Weights stay under the dedup threshold, and (a0, b2) fills a0's
        // share of the first round so (a0, b1) waits for the second.
        for (x, y, w, same) in [
            (0, 0, 0.55, false),
            (1, 0, 0.5, true),
            (1, 1, 0.45, true),
            (0, 2, 0.4, false),
            (0, 1, 0.35, false),
        ] {
            truth.insert(g.add_edge(an[x], bn[y], p, w), same);
        }
        let mut p = platform(1.0, 4);
        let stats = run_er(&g, &mut SimCrowd::new(&mut p, &truth), 5);
        assert_eq!((stats.tasks_asked, stats.rounds), (4, 1));
        assert_eq!(stats.answers.len(), 2);
    }

    #[test]
    fn multi_predicate_query_prunes_between_joins() {
        // Chain A~B, B~C where B~C kills most pairs.
        let mut g = QueryGraph::new();
        let a = g.add_part(PartKind::Table { name: "A".into() });
        let b = g.add_part(PartKind::Table { name: "B".into() });
        let c = g.add_part(PartKind::Table { name: "C".into() });
        let a0 = g.add_node(a, None, "a0");
        let a1 = g.add_node(a, None, "a1");
        let b0 = g.add_node(b, None, "b0");
        let b1 = g.add_node(b, None, "b1");
        let c0 = g.add_node(c, None, "c0");
        let p_ab = g.add_predicate(a, b, true, "A~B");
        let p_bc = g.add_predicate(b, c, true, "B~C");
        let mut truth = EdgeTruth::new();
        truth.insert(g.add_edge(a0, b0, p_ab, 0.8), true);
        truth.insert(g.add_edge(a1, b1, p_ab, 0.8), true);
        truth.insert(g.add_edge(b0, c0, p_bc, 0.8), true);
        let mut p = platform(1.0, 5);
        let stats = run_er(&g, &mut SimCrowd::new(&mut p, &truth), 5);
        // B~C (1 edge) runs first by cost order; b1 never survives so only
        // (a0, b0) is asked on the A~B side.
        assert_eq!(stats.tasks_asked, 2);
        assert_eq!(stats.answers.len(), 1);
    }
}
