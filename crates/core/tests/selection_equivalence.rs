//! The fast selection paths must be indistinguishable from the slow ones
//! they replace. Over random graphs and random per-round coloring/pruning
//! sequences: the incremental selection state produces an ask order
//! byte-identical to the `reference` oracle after every round, and the
//! linear-pass round equals a naive greedy loop over `edges_conflict`.

use std::collections::BTreeMap;

use cdb_core::cost::expectation::{reference, SelectionState};
use cdb_core::latency::{edges_conflict, parallel_round};
use cdb_core::model::{Color, EdgeId, NodeId, PartKind};
use cdb_core::prune::prune_invalid_edges;
use cdb_core::QueryGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected multi-part query graph: a chain of `parts` parts
/// (occasionally a star around part 0 instead, occasionally with one more
/// predicate closing a cycle), a few nodes per part, and each potential
/// edge present with probability `density`.
fn random_graph(seed: u64, parts: usize, density: f64) -> QueryGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = QueryGraph::new();
    let part_ids: Vec<_> =
        (0..parts).map(|i| g.add_part(PartKind::Table { name: format!("P{i}") })).collect();
    let nodes: Vec<Vec<NodeId>> = part_ids
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            (0..rng.gen_range(1..=4usize))
                .map(|t| g.add_node(p, None, format!("{i}:{t}")))
                .collect()
        })
        .collect();
    let star = parts >= 3 && rng.gen_bool(0.25);
    let mut pred_pairs: Vec<(usize, usize)> =
        (1..parts).map(|i| (if star { 0 } else { i - 1 }, i)).collect();
    if parts >= 3 && rng.gen_bool(0.3) {
        pred_pairs.push((if star { 1 } else { 0 }, parts - 1)); // close a cycle sometimes
    }
    for (a, b) in pred_pairs {
        let p = g.add_predicate(part_ids[a], part_ids[b], true, format!("P{a}~P{b}"));
        for &u in &nodes[a] {
            for &v in &nodes[b] {
                if rng.gen_bool(density) {
                    // Quantized weights, including the 1.0 auto-Blue case.
                    let w = rng.gen_range(1..=10) as f64 / 10.0;
                    g.add_edge(u, v, p, w);
                }
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn incremental_order_equals_reference_over_random_rounds(
        seed in 0u64..100_000,
        parts in 2usize..5,
        density in 0.4f64..1.0,
    ) {
        let mut g = random_graph(seed, parts, density);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut state = SelectionState::new();
        prop_assert_eq!(state.order(&g), reference::expectation_order(&g));
        for _round in 0..32 {
            let open = g.open_edges();
            if open.is_empty() {
                break;
            }
            // Color a random batch; sometimes prune like the executor does.
            let batch = rng.gen_range(1..=open.len().min(3));
            for _ in 0..batch {
                let e = open[rng.gen_range(0..open.len())];
                let color = if rng.gen_bool(0.5) { Color::Blue } else { Color::Red };
                g.set_color(e, color);
            }
            if rng.gen_bool(0.7) {
                prune_invalid_edges(&mut g);
            }
            prop_assert_eq!(state.order(&g), reference::expectation_order(&g));
        }
    }

    #[test]
    fn incremental_scores_are_bit_equal_to_reference(
        seed in 0u64..100_000,
        parts in 2usize..4,
    ) {
        let mut g = random_graph(seed, parts, 0.8);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut state = SelectionState::new();
        for _round in 0..8 {
            let open = g.open_edges();
            if open.is_empty() {
                break;
            }
            let e = open[rng.gen_range(0..open.len())];
            g.set_color(e, if rng.gen_bool(0.5) { Color::Blue } else { Color::Red });
            prune_invalid_edges(&mut g);
            let fast: Vec<(EdgeId, u64)> =
                state.expectations(&g).into_iter().map(|(e, s)| (e, s.to_bits())).collect();
            let slow: Vec<(EdgeId, u64)> = reference::pruning_expectations(&g)
                .into_iter()
                .map(|(e, s)| (e, s.to_bits()))
                .collect();
            prop_assert_eq!(fast, slow);
        }
    }

    /// The EmBayes final pass can recolor an already-asked edge (including
    /// Red -> Blue revivals); the state must survive arbitrary recoloring,
    /// not just the executor's monotone Unknown -> colored flow.
    #[test]
    fn incremental_order_survives_arbitrary_recoloring(
        seed in 0u64..100_000,
    ) {
        let mut g = random_graph(seed, 3, 0.9);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mut state = SelectionState::new();
        let all = [Color::Unknown, Color::Blue, Color::Red];
        for _ in 0..24 {
            let e = EdgeId(rng.gen_range(0..g.edge_count().max(1)));
            g.set_color(e, all[rng.gen_range(0..3usize)]);
            prop_assert_eq!(state.order(&g), reference::expectation_order(&g));
        }
    }
}

/// The §5.2 round written the slow way, as the independent witness for
/// `parallel_round`: group `ordered` by live component (labelled by the
/// smallest node index, which orders components like first appearance
/// does), then per group keep each edge that conflicts with nothing kept
/// before it.
fn naive_round(g: &QueryGraph, ordered: &[EdgeId]) -> Vec<EdgeId> {
    let mut label: Vec<usize> = (0..g.node_count()).collect();
    loop {
        let mut changed = false;
        for e in (0..g.edge_count()).map(EdgeId).filter(|&e| g.edge_live(e)) {
            let (u, v) = g.edge_endpoints(e);
            let low = label[u.0].min(label[v.0]);
            changed |= label[u.0] != low || label[v.0] != low;
            label[u.0] = low;
            label[v.0] = low;
        }
        if !changed {
            break;
        }
    }
    let mut groups: BTreeMap<usize, Vec<EdgeId>> = BTreeMap::new();
    for &e in ordered {
        groups.entry(label[g.edge_endpoints(e).0 .0]).or_default().push(e);
    }
    let mut round = Vec::new();
    for group in groups.into_values() {
        let mut chosen: Vec<EdgeId> = Vec::new();
        for e in group {
            if !chosen.iter().any(|&kept| edges_conflict(g, e, kept)) {
                chosen.push(e);
            }
        }
        round.extend(chosen);
    }
    round
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chains, stars and cyclic structures; histories that leave the graph
    /// pruned, unpruned or hand-invalidated; `ordered` lists in arbitrary
    /// order that include Blue, Red and invalid edges.
    #[test]
    fn rounds_equal_naive_pairwise_greedy_over_random_histories(
        seed in 0u64..1_000_000,
        parts in 2usize..6,
        density in 0.3f64..1.0,
        prune_rate in 0usize..3,
    ) {
        let mut g = random_graph(seed, parts, density);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        for _round in 0..12 {
            if rng.gen_bool(prune_rate as f64 / 2.0) {
                prune_invalid_edges(&mut g);
            }
            // Every open edge plus a sprinkling of the others, shuffled.
            let open = g.open_edges();
            let mut ordered: Vec<EdgeId> = (0..g.edge_count())
                .map(EdgeId)
                .filter(|e| open.contains(e) || rng.gen_bool(0.2))
                .collect();
            for i in (1..ordered.len()).rev() {
                ordered.swap(i, rng.gen_range(0..=i));
            }
            prop_assert_eq!(parallel_round(&g, &ordered), naive_round(&g, &ordered));
            if open.is_empty() {
                break;
            }
            for _ in 0..rng.gen_range(1..=open.len().min(4)) {
                let e = open[rng.gen_range(0..open.len())];
                g.set_color(e, if rng.gen_bool(0.5) { Color::Blue } else { Color::Red });
            }
            if rng.gen_bool(0.3) {
                g.set_invalid(EdgeId(rng.gen_range(0..g.edge_count())));
            }
        }
    }
}
